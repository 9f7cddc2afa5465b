//! Checkpoint → crash → resume harness for composite dynamics runs.
//!
//! The multi-rank harness in [`crate::recovery`] proves recovery for the
//! synthetic proxy workload; this module closes the same loop for the
//! *simulated trainer* driving a real dynamism stack: a [`ComposedEngine`]
//! run is checkpointed periodically (each sub-engine's RNG streams and masks
//! captured in the snapshot's [`EngineState`](dynmo_dynamics::EngineState)),
//! a crash is simulated at a chosen iteration, and a *fresh* trainer with a
//! *fresh* engine stack restores the latest snapshot taken before it and
//! replays the lost iterations.
//!
//! The replay is **bit-for-bit**: the recovered run's
//! [`trajectory_checksum`](crate::report::TrainingReport::trajectory_checksum)
//! — an FNV-1a over every iteration's simulated time, tokens, imbalance,
//! and layer→stage assignment — must equal the failure-free run's, which
//! [`run_composite_with_recovery`] checks and reports.

use dynmo_dynamics::{ComposedEngine, DynamismEngine};
use dynmo_model::Model;
use dynmo_resilience::{MemoryCheckpointStore, TrainerState};

use crate::controller::RebalanceController;
use crate::report::TrainingReport;
use crate::trainer::{Trainer, TrainerConfig};

/// Builds the pieces a composite recovery session needs fresh copies of:
/// the controller (trainers consume one each) and the engine stack (the
/// recovered stack is rebuilt from seeds and restored from the
/// checkpoint).
pub struct CompositeRunSpec<'a> {
    /// The model every run trains.
    pub model: &'a Model,
    /// The trainer configuration (its `num_iterations` is the full run).
    pub config: &'a TrainerConfig,
    /// Factory for the rebalance controller.
    pub make_controller: &'a dyn Fn() -> RebalanceController,
    /// Factory for the engine stack, identically seeded on every call.
    pub make_stack: &'a dyn Fn() -> Vec<Box<dyn DynamismEngine + Send>>,
}

/// Outcome of one checkpoint → crash → resume session.
#[derive(Debug, Clone)]
pub struct CompositeRecoveryReport {
    /// The failure-free reference run.
    pub baseline: TrainingReport,
    /// The run resumed from the last checkpoint before `killed_at`.
    pub recovered: TrainingReport,
    /// Iteration at which the crash was simulated.
    pub killed_at: u64,
    /// Checkpoint iteration the recovery resumed from.
    pub resumed_from: u64,
    /// Iterations re-executed because of the rollback.
    pub replayed: u64,
    /// Whether the recovered trajectory is bit-identical to the baseline
    /// (`trajectory_checksum` and `total_tokens` both match).
    pub bit_identical: bool,
}

/// Run a composite stack end-to-end twice — failure-free, and resumed from
/// the last checkpoint before a crash at `kill_at` — and check the
/// recovered trajectory reproduces the failure-free one bit-for-bit.
///
/// The failure-free run stops at `kill_at` first.  Advancing a run in
/// chunks reproduces one uninterrupted run bit for bit, so its checkpoint
/// store there is exactly what a process killed at `kill_at` leaves
/// behind; the latest checkpoint is read before the rest of the run can
/// evict it, and the run then continues to the end.
///
/// `checkpoint_interval` must divide into the run early enough that at
/// least one checkpoint exists before `kill_at` (i.e. `kill_at >=
/// checkpoint_interval`), and `kill_at` must precede the end of the run.
pub fn run_composite_with_recovery(
    spec: &CompositeRunSpec<'_>,
    checkpoint_interval: u64,
    kill_at: u64,
) -> Result<CompositeRecoveryReport, String> {
    if checkpoint_interval == 0 {
        return Err("checkpoint_interval must be positive".into());
    }
    if kill_at < checkpoint_interval {
        return Err(format!(
            "kill_at {kill_at} precedes the first checkpoint at {checkpoint_interval}"
        ));
    }
    if kill_at >= spec.config.num_iterations {
        return Err(format!(
            "kill_at {kill_at} is not mid-run (run has {} iterations)",
            spec.config.num_iterations
        ));
    }

    let mut baseline_trainer = Trainer::new(
        spec.model.clone(),
        spec.config.clone(),
        (spec.make_controller)(),
    )
    .with_checkpointing(Box::new(MemoryCheckpointStore::new()), checkpoint_interval);
    let mut baseline_stack = ComposedEngine::new((spec.make_stack)())?;
    baseline_trainer.advance_to(&mut baseline_stack, kill_at)?;
    let checkpoint = baseline_trainer
        .checkpoint_store()
        .expect("the baseline trainer was built with checkpointing")
        .latest()
        .map_err(|e| format!("reading the checkpoint store at the crash: {e}"))?
        .ok_or("the run left no checkpoint to recover from")?;
    let state: TrainerState = checkpoint
        .verify()
        .map_err(|e| format!("verifying the crash checkpoint: {e}"))?
        .clone();
    let resumed_from = state.iteration;
    let baseline = baseline_trainer.advance_to(&mut baseline_stack, spec.config.num_iterations)?;

    // Recovery: fresh trainer, fresh (identically seeded) stack, restored
    // from the snapshot, replaying everything from the checkpoint on.
    let mut recovered_trainer = Trainer::new(
        spec.model.clone(),
        spec.config.clone(),
        (spec.make_controller)(),
    )
    .with_checkpointing(Box::new(MemoryCheckpointStore::new()), checkpoint_interval);
    let mut recovered_stack = ComposedEngine::new((spec.make_stack)())?;
    let recovered = recovered_trainer.resume(&mut recovered_stack, &state)?;

    let bit_identical = recovered.trajectory_checksum == baseline.trajectory_checksum
        && recovered.total_tokens == baseline.total_tokens;
    Ok(CompositeRecoveryReport {
        baseline,
        recovered,
        killed_at: kill_at,
        resumed_from,
        replayed: kill_at - resumed_from,
        bit_identical,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::{BalanceObjective, DiffusionBalancer, PartitionBalancer};
    use crate::controller::RebalancePolicy;
    use dynmo_dynamics::{
        EarlyExitEngine, EarlyExitMethod, GradualPruningEngine, MoeEngine, PruningSchedule,
        RoutingStrategy,
    };
    use dynmo_model::{ClusterConfig, DeviceSpec, ModelPreset};
    use dynmo_pipeline::ScheduleKind;

    fn mixtral() -> Model {
        Model::from_preset(ModelPreset::Mixtral8x7b)
    }

    fn config(stages: usize, iterations: u64, schedule: ScheduleKind) -> TrainerConfig {
        TrainerConfig {
            cluster: ClusterConfig::homogeneous(stages, stages, 1, DeviceSpec::h100_sxm5()),
            schedule,
            num_iterations: iterations,
            num_microbatches: stages * 4,
            allreduce_overlap: 0.8,
        }
    }

    fn three_mechanism_stack(model: &Model) -> Vec<Box<dyn DynamismEngine + Send>> {
        let schedule = PruningSchedule {
            initial_sparsity: 0.0,
            final_sparsity: 0.9,
            start_iteration: 20,
            frequency: 20,
            num_steps: 3,
        };
        vec![
            Box::new(MoeEngine::new(
                model,
                RoutingStrategy::TokenChoiceAuxLoss,
                42,
            )),
            Box::new(GradualPruningEngine::new(model, schedule, 43)),
            Box::new(EarlyExitEngine::new(model, EarlyExitMethod::Calm, 44)),
        ]
    }

    fn partition_controller() -> RebalanceController {
        RebalanceController::new(
            Box::new(PartitionBalancer::new()),
            BalanceObjective::ByTime,
            RebalancePolicy::dynamic(),
        )
    }

    fn diffusion_controller() -> RebalanceController {
        RebalanceController::new(
            Box::new(DiffusionBalancer::new()),
            BalanceObjective::ByTime,
            RebalancePolicy::dynamic(),
        )
    }

    #[test]
    fn three_mechanism_recovery_is_bit_identical_under_both_balancers() {
        // The acceptance scenario: MoE + gradual pruning + early exit,
        // through the trainer, both balancer families, and a ZB-H1 run for
        // the partition row, with a mid-run kill between checkpoints.
        let model = mixtral();
        for (make_controller, schedule) in [
            (
                &partition_controller as &dyn Fn() -> RebalanceController,
                ScheduleKind::ZeroBubbleH1,
            ),
            (
                &diffusion_controller as &dyn Fn() -> RebalanceController,
                ScheduleKind::OneFOneB,
            ),
        ] {
            let config = config(4, 90, schedule);
            let spec = CompositeRunSpec {
                model: &model,
                config: &config,
                make_controller,
                make_stack: &|| three_mechanism_stack(&model),
            };
            let report = run_composite_with_recovery(&spec, 25, 63).unwrap();
            assert!(
                report.bit_identical,
                "{schedule:?}: recovered {:#018x} vs baseline {:#018x}",
                report.recovered.trajectory_checksum, report.baseline.trajectory_checksum
            );
            assert_eq!(report.resumed_from, 50);
            assert_eq!(report.replayed, 13);
            assert_eq!(report.recovered.total_tokens, report.baseline.total_tokens);
            // The recovered run really did rebalance (composite stacks with
            // an MoE member rebalance every iteration).
            assert!(report.recovered.rebalance_events > 0);
        }
    }

    #[test]
    fn invalid_sessions_are_rejected() {
        let model = mixtral();
        let config = config(4, 50, ScheduleKind::OneFOneB);
        let spec = CompositeRunSpec {
            model: &model,
            config: &config,
            make_controller: &partition_controller,
            make_stack: &|| three_mechanism_stack(&model),
        };
        assert!(run_composite_with_recovery(&spec, 0, 10).is_err());
        assert!(run_composite_with_recovery(&spec, 20, 10).is_err());
        assert!(run_composite_with_recovery(&spec, 10, 50).is_err());
    }
}
