//! The rebalance controller: when to rebalance, and what one rebalance
//! event does (paper §3.1 steps 3–5 and §3.3.1).
//!
//! DynMo rebalances "at regular fixed intervals, without any knowledge of
//! whether the model has changed" — the controller therefore only looks at
//! the iteration counter (via [`RebalancePolicy`]) and, when due, runs:
//! profile → balance → (optionally re-pack) → migrate, returning the new
//! assignment together with the modeled time of each phase so the trainer
//! can charge the overhead the way the paper's Figure 4 does.  A static
//! baseline's controller ([`RebalanceController::static_split`]) holds no
//! balancer and is never due.

use dynmo_dynamics::RebalanceFrequency;
use dynmo_pipeline::{CommCostModel, LayerLoad, StageAssignment};
use serde::{Deserialize, Serialize};

use crate::balancer::{BalanceObjective, BalanceRequest, LoadBalancer};
use crate::migration::MigrationPlan;
use crate::repack::{plan_repack, TARGET_WORKERS};

/// Fraction of the layer-migration time that is *exposed* (not hidden behind
/// the backward pass).  The paper couples layer migration with the pipeline's
/// backward-pass communication (§3.3.1, §4.2.1), so most of the transfer is
/// overlapped; the remainder is charged as overhead.
pub const MIGRATION_EXPOSED_FRACTION: f64 = 0.3;

/// Modeled decision time of the balancing algorithm, in seconds per layer
/// per balancer round: one rebalance over `L` layers that takes `R` rounds
/// (1 for Partition, whose bisection counts as one round; the iteration
/// count for Diffusion, 0 when the loads are already balanced) is charged
/// `L · R` times this.  Re-packing and migration planning are not priced.
/// Calibrated on traced host-time benchmark runs of the `train` workload
/// on a 2-vCPU host, which spent 1.95–2.72 ms inside the balancers over
/// 697 rounds on 34-layer models, Partition and Diffusion calls pooled;
/// the upper end gives 2.72e-3 / (697 · 34) ≈ 1.1e-7 s.
pub const BALANCER_SECONDS_PER_LAYER_ROUND: f64 = 1.1e-7;

/// When and how the controller intervenes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RebalancePolicy {
    /// Rebalancing cadence.  `None` defers to the dynamism engine's own
    /// recommended frequency.
    pub frequency: Option<RebalanceFrequency>,
    /// Whether a rebalance first re-packs the layers onto fewer workers
    /// under the memory capacity (Algorithm 2, [`plan_repack`]).
    pub repack: bool,
}

impl RebalancePolicy {
    /// Dynamic rebalancing at the engine-recommended cadence, no re-packing.
    pub fn dynamic() -> Self {
        RebalancePolicy {
            frequency: None,
            repack: false,
        }
    }
}

/// The result of one rebalance event.
#[derive(Debug, Clone)]
pub struct RebalanceOutcome {
    /// The new layout: one stage per worker that remains active after the
    /// event.
    pub assignment: StageAssignment,
    /// Workers released by re-packing during this event (empty without
    /// re-packing).
    pub released_workers: Vec<usize>,
    /// The migration plan from the previous assignment.
    pub migration: MigrationPlan,
    /// Modeled seconds of balancing-algorithm decision time
    /// ([`BALANCER_SECONDS_PER_LAYER_ROUND`] per layer per round).  Covers
    /// the balancer's rounds only: re-packing is not priced, and a
    /// Diffusion call that finds the loads balanced (0 rounds) costs 0.
    pub algorithm_time: f64,
    /// Simulated migration time (from the communication model).
    pub migration_time: f64,
    /// Rounds used by the balancer (diffusion) or 1 (partition).
    pub rounds: u64,
}

/// Drives rebalancing and re-packing decisions for the trainer.
pub struct RebalanceController {
    /// `None` for a static baseline, which is never due.
    balancer: Option<Box<dyn LoadBalancer + Send>>,
    objective: BalanceObjective,
    policy: RebalancePolicy,
}

impl RebalanceController {
    /// Create a controller around a balancer implementation.
    pub fn new(
        balancer: Box<dyn LoadBalancer + Send>,
        objective: BalanceObjective,
        policy: RebalancePolicy,
    ) -> Self {
        RebalanceController {
            balancer: Some(balancer),
            objective,
            policy,
        }
    }

    /// The static baselines' controller: it keeps whatever initial split
    /// the trainer starts from, holds no balancer and is never due.  It
    /// measures load imbalance by time, and its reports are labelled
    /// `static/by-time`.
    pub fn static_split() -> Self {
        RebalanceController {
            balancer: None,
            objective: BalanceObjective::ByTime,
            policy: RebalancePolicy::dynamic(),
        }
    }

    /// The objective this controller balances by, and under which the
    /// trainer measures load imbalance (ΔL).
    pub fn objective(&self) -> BalanceObjective {
        self.objective
    }

    /// The balancer's display name, e.g. `diffusion/by-time`.
    pub fn name(&self) -> String {
        let balancer = self.balancer.as_ref().map_or("static".into(), |b| b.name());
        format!("{balancer}/{}", self.objective.label())
    }

    /// Whether a rebalance is due at `iteration`, given the engine's
    /// recommended cadence.
    pub fn is_due(&self, iteration: u64, engine_frequency: RebalanceFrequency) -> bool {
        if self.balancer.is_none() || iteration == 0 {
            return false;
        }
        self.policy
            .frequency
            .unwrap_or(engine_frequency)
            .is_due(iteration)
    }

    /// Execute one rebalance event.
    ///
    /// * `current` — the assignment in effect (over the currently active
    ///   workers).
    /// * `loads` — the freshly profiled per-layer loads.
    /// * `memory_capacity` — per-worker memory budget, and re-packing's
    ///   `MAX_MEM`.
    /// * `inflight` — in-flight micro-batches per active stage.
    /// * `comm` — communication model for migration cost.
    /// * `num_microbatches` — micro-batches per iteration, used to weigh the
    ///   expected per-iteration benefit of a move against its migration cost.
    /// * `stage_speeds` — per-stage effective speeds relative to the
    ///   reference device (all 1.0 on a homogeneous cluster).
    /// * `stage_capacities` — per-stage memory capacities (all
    ///   `memory_capacity` on a homogeneous cluster).
    ///
    /// # Panics
    ///
    /// On a [`RebalanceController::static_split`] controller, which is
    /// never due.
    #[allow(clippy::too_many_arguments)]
    pub fn rebalance(
        &self,
        current: &StageAssignment,
        loads: &[LayerLoad],
        memory_capacity: u64,
        inflight: &[usize],
        comm: &CommCostModel,
        num_microbatches: usize,
        stage_speeds: &[f64],
        stage_capacities: &[u64],
    ) -> RebalanceOutcome {
        let balancer = self
            .balancer
            .as_ref()
            .expect("a static controller is never due");
        let mut active_workers = current.num_stages();
        let mut released_workers = Vec::new();

        // Step 1: re-packing decision (Algorithm 2) to find how many workers
        // the shrunken workload actually needs.
        if self.policy.repack {
            let plan = plan_repack(current, loads, inflight, memory_capacity);
            let feasible_workers = plan.active_workers.len().max(TARGET_WORKERS);
            if feasible_workers < active_workers {
                released_workers = (feasible_workers..active_workers).collect();
                active_workers = feasible_workers;
            }
        }

        // Step 2: balance the layers over the (possibly reduced) worker set.
        // Every per-stage vector is truncated to the active workers, or
        // extended by repeating its last entry if re-packing ever grew the
        // set.
        let request = BalanceRequest {
            loads,
            num_stages: active_workers,
            memory_capacity,
            inflight: fit(inflight, active_workers, 1),
            current: Some(current),
            objective: self.objective,
            stage_speeds: fit(stage_speeds, active_workers, 1.0),
            stage_capacities: fit(stage_capacities, active_workers, memory_capacity),
        };
        let outcome = balancer.rebalance(&request);
        let algorithm_time =
            BALANCER_SECONDS_PER_LAYER_ROUND * loads.len() as f64 * outcome.rounds as f64;

        // Step 3: migration plan and its exposed cost (most of the transfer
        // is overlapped with the backward pass, per §3.3.1).
        let migration = MigrationPlan::between(current, &outcome.assignment, loads);
        let migration_time = migration.cost(comm) * MIGRATION_EXPOSED_FRACTION;

        // Step 4: cost/benefit gate.  Rebalancing chases per-iteration noise
        // in cases like MoE routing; a move is only worth taking when the
        // expected per-iteration time saved exceeds the exposed migration
        // cost.  Worker releases are always applied (they are the point of
        // re-packing), so the gate only applies to pure rebalances.
        if released_workers.is_empty() && !migration.is_empty() {
            let stage_time = |assignment: &StageAssignment| -> f64 {
                assignment
                    .ranges()
                    .enumerate()
                    .map(|(s, layers)| {
                        let mut total = 0.0f64;
                        for load in &loads[layers] {
                            total += load.total_time();
                        }
                        total / stage_speeds.get(s).copied().unwrap_or(1.0)
                    })
                    .fold(0.0, f64::max)
            };
            let old_bottleneck = stage_time(current);
            let new_bottleneck = stage_time(&outcome.assignment);
            let benefit = (old_bottleneck - new_bottleneck).max(0.0) * num_microbatches as f64;
            if benefit < migration_time {
                return RebalanceOutcome {
                    assignment: current.clone(),
                    released_workers: Vec::new(),
                    migration: MigrationPlan::default(),
                    algorithm_time,
                    migration_time: 0.0,
                    rounds: outcome.rounds,
                };
            }
        }

        RebalanceOutcome {
            assignment: outcome.assignment,
            released_workers,
            migration,
            algorithm_time,
            migration_time,
            rounds: outcome.rounds,
        }
    }
}

/// `values` fitted to `n` entries: truncated, or extended by repeating the
/// last entry (`fill` when `values` is empty).
fn fit<T: Copy>(values: &[T], n: usize, fill: T) -> Vec<T> {
    let last = values.last().copied().unwrap_or(fill);
    values
        .iter()
        .copied()
        .chain(std::iter::repeat(last))
        .take(n)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::{DiffusionBalancer, PartitionBalancer};
    use dynmo_model::{ClusterConfig, DeviceSpec};

    fn loads(times: &[f64], bytes: u64) -> Vec<LayerLoad> {
        times
            .iter()
            .enumerate()
            .map(|(id, &t)| LayerLoad {
                layer_id: id,
                fwd_time: t,
                bwd_time: 2.0 * t,
                param_count: 1000,
                static_bytes: bytes,
                activation_bytes: 0,
                migration_bytes: bytes,
            })
            .collect()
    }

    fn comm() -> CommCostModel {
        CommCostModel::new(ClusterConfig::homogeneous(8, 8, 1, DeviceSpec::h100_sxm5()))
    }

    fn controller(policy: RebalancePolicy) -> RebalanceController {
        RebalanceController::new(
            Box::new(PartitionBalancer::new()),
            BalanceObjective::ByTime,
            policy,
        )
    }

    /// One rebalance on a homogeneous cluster with unbounded memory, one
    /// in-flight micro-batch per stage and 32 micro-batches per iteration.
    fn rebalance(
        c: &RebalanceController,
        current: &StageAssignment,
        loads: &[LayerLoad],
    ) -> RebalanceOutcome {
        let stages = current.num_stages();
        let (inflight, speeds, capacities) =
            (vec![1; stages], vec![1.0; stages], vec![u64::MAX; stages]);
        c.rebalance(
            current,
            loads,
            u64::MAX,
            &inflight,
            &comm(),
            32,
            &speeds,
            &capacities,
        )
    }

    #[test]
    fn due_logic_respects_policy_and_engine_frequency() {
        let c = controller(RebalancePolicy::dynamic());
        assert!(!c.is_due(0, RebalanceFrequency::EveryIteration));
        assert!(c.is_due(1, RebalanceFrequency::EveryIteration));
        assert!(c.is_due(1000, RebalanceFrequency::EveryN(1000)));
        assert!(!c.is_due(1001, RebalanceFrequency::EveryN(1000)));

        let fixed = controller(RebalancePolicy {
            frequency: Some(RebalanceFrequency::EveryN(7)),
            repack: false,
        });
        assert!(fixed.is_due(7, RebalanceFrequency::EveryIteration));
        assert!(!fixed.is_due(8, RebalanceFrequency::EveryIteration));
    }

    #[test]
    fn rebalance_without_repack_keeps_all_workers() {
        let c = controller(RebalancePolicy::dynamic());
        let current = StageAssignment::uniform(16, 4);
        let loads = loads(
            &(0..16).map(|i| 1.0 + i as f64 * 0.2).collect::<Vec<_>>(),
            100,
        );
        let outcome = rebalance(&c, &current, &loads);
        assert_eq!(outcome.assignment.num_stages(), 4);
        assert!(outcome.released_workers.is_empty());
        assert_eq!(outcome.assignment.num_layers(), 16);
        assert!(outcome.rounds >= 1);
        // The skewed load profile forces some migration.
        assert!(!outcome.migration.is_empty());
        assert!(outcome.migration_time > 0.0);
    }

    #[test]
    fn algorithm_time_is_the_modeled_balancer_cost() {
        let current = StageAssignment::uniform(16, 4);
        let loads = loads(
            &(0..16).map(|i| 1.0 + i as f64 * 0.2).collect::<Vec<_>>(),
            100,
        );
        let run = |c: &RebalanceController| rebalance(c, &current, &loads);
        let per_round = BALANCER_SECONDS_PER_LAYER_ROUND * 16.0;

        let partition = controller(RebalancePolicy::dynamic());
        let first = run(&partition);
        assert_eq!(first.rounds, 1);
        assert_eq!(first.algorithm_time.to_bits(), per_round.to_bits());

        let diffusion = RebalanceController::new(
            Box::new(DiffusionBalancer::new()),
            BalanceObjective::ByTime,
            RebalancePolicy::dynamic(),
        );
        let diffused = run(&diffusion);
        assert!(diffused.rounds > 1, "rounds: {}", diffused.rounds);
        assert_eq!(
            diffused.algorithm_time.to_bits(),
            (per_round * diffused.rounds as f64).to_bits()
        );

        // The model is a pure function of the call: repeats agree exactly.
        assert_eq!(
            run(&partition).algorithm_time.to_bits(),
            first.algorithm_time.to_bits()
        );
        assert_eq!(
            run(&diffusion).algorithm_time.to_bits(),
            diffused.algorithm_time.to_bits()
        );
    }

    #[test]
    fn rebalance_with_repack_releases_idle_workers() {
        // Tiny memory footprint: everything fits on one worker, but the
        // repack target floor is 2.
        let c = controller(RebalancePolicy {
            frequency: None,
            repack: true,
        });
        let current = StageAssignment::uniform(16, 8);
        let loads = loads(&[0.5; 16], 10);
        let outcome = rebalance(&c, &current, &loads);
        assert_eq!(outcome.released_workers, vec![2, 3, 4, 5, 6, 7]);
        assert_eq!(outcome.assignment.num_stages(), 2);
        assert_eq!(outcome.assignment.num_layers(), 16);
    }

    #[test]
    fn controller_name_includes_balancer_and_objective() {
        let c = controller(RebalancePolicy::dynamic());
        assert_eq!(c.name(), "partition/by-time");
    }

    #[test]
    fn a_static_split_is_never_due() {
        let c = RebalanceController::static_split();
        assert!(!c.is_due(1, RebalanceFrequency::EveryIteration));
        assert!(!c.is_due(1000, RebalanceFrequency::EveryN(1000)));
        assert_eq!(c.name(), "static/by-time");
    }
}
