//! The closed-loop controller arbitrating one GPU pool between an elastic
//! training job and multiple serving tenants.
//!
//! Every `check_interval` simulated seconds the controller:
//!
//! 1. advances each tenant's [`ServingSession`] and the trainer to the tick,
//! 2. reclaims drained replicas back into the free pool,
//! 3. shrinks tenants whose windowed p99 TTFT sits comfortably inside the
//!    SLO (hysteresis + per-tenant cooldown; each tenant's session keeps
//!    its own completion window and last-action time, see
//!    [`ServingSession::ttft_window`]),
//! 4. relieves SLO breaches highest-priority-first: free-pool grant, else a
//!    GPU *steal* from the trainer (checkpoint-shrink-resume at the current
//!    chunk boundary, priced by the checkpoint cost model), else a
//!    *preemption* of the lowest-priority tenant holding more than its
//!    replica floor,
//! 5. returns free GPUs to the trainer once breaches have been quiet for a
//!    cooldown, and
//! 6. re-checks conservation: every GPU is held by exactly one party and
//!    the [`MockJobManager`] ledger agrees with the sessions' own counts.
//!
//! The ledger names one owner per held GPU: [`TRAINER_OWNER`] or a tenant.
//! Every grant, acquire and release is strict and carries the tick's
//! [`fleet_clock`] time, so a request that would double-count a block fails
//! the run instead of passing unnoticed.
//!
//! All decisions run on simulated clocks only, so a fleet run is
//! bit-reproducible for a given configuration and seed.

use std::collections::BTreeSet;
use std::sync::Arc;

use dynmo_core::MockJobManager;
use dynmo_serve::{
    fleet_clock, RequestTrace, ServingConfig, ServingReport, ServingSession, TtftWindow,
};
use dynmo_telemetry::{MarkerKind, NullRecorder, Recorder};
use serde::{Deserialize, Serialize};

use crate::trainer::ElasticTrainer;

/// One serving tenant sharing the pool.
pub struct TenantSpec {
    /// Deployment description; `config.tenant` names the tenant in the
    /// ledger, reports, and telemetry.  Must not carry an autoscaler — the
    /// fleet controller owns all scaling.
    pub config: ServingConfig,
    /// The tenant's request trace.
    pub trace: RequestTrace,
    /// Scheduling priority, higher = more important.  Must be ≥ 1: the
    /// trainer holds the reserved priority 0 and is always the first
    /// donor.
    pub priority: u8,
    /// The controller never drains the tenant below this many replicas
    /// while requests remain (the no-starvation floor).
    pub min_replicas: usize,
}

/// Controller policy knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetConfig {
    /// GPUs in the shared pool.
    pub total_gpus: usize,
    /// Simulated seconds between control ticks.
    pub check_interval: f64,
    /// Completions within this many seconds of the tick feed the windowed
    /// p99 TTFT.
    pub ttft_window: f64,
    /// A tenant breaches when windowed p99 TTFT exceeds
    /// `slo.ttft × breach_ttft_factor`.
    pub breach_ttft_factor: f64,
    /// ... or when the oldest un-admitted gateway request has waited
    /// longer than this (catches cold starts with no completions yet).
    pub gateway_age_limit: f64,
    /// A tenant is shrinkable when windowed p99 TTFT is below
    /// `slo.ttft × relax_ttft_factor` with an empty gateway (hysteresis:
    /// keep this well under `breach_ttft_factor`).
    pub relax_ttft_factor: f64,
    /// The second shrink condition: the observed request rate the
    /// *remaining* replicas would each carry must stay at or below this
    /// (requests/second per replica — the operator's capacity-planning
    /// estimate of one replica's comfortable load).  Low p99 alone cannot
    /// justify a shrink: near the capacity boundary a tenant looks idle
    /// with N replicas yet breaches instantly with N − 1, and the
    /// resulting shrink/grant flap keeps the whole fleet's breach clock
    /// fresh so free GPUs never return to the trainer.
    pub shrink_max_load: f64,
    /// Minimum seconds between scaling actions on the same tenant.
    pub action_cooldown: f64,
    /// Free GPUs return to the trainer only after this many seconds
    /// without any breach anywhere.
    pub return_cooldown: f64,
    /// Seconds between a grant and the new replica accepting work.
    pub provision_delay: f64,
    /// The trainer is never shrunk below this world size by steals.
    pub trainer_min_workers: usize,
    /// The trainer never grows beyond this world size from returns.
    pub trainer_max_workers: usize,
    /// Hard tick bound (guards against a wedged fleet looping forever).
    pub max_ticks: u64,
}

impl FleetConfig {
    /// Validate structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.total_gpus == 0 {
            return Err("total_gpus must be positive".into());
        }
        if !self.check_interval.is_finite() || self.check_interval <= 0.0 {
            return Err("check_interval must be positive and finite".into());
        }
        if !self.ttft_window.is_finite() || self.ttft_window <= 0.0 {
            return Err("ttft_window must be positive".into());
        }
        if !self.breach_ttft_factor.is_finite() || self.breach_ttft_factor <= 0.0 {
            return Err("breach_ttft_factor must be positive".into());
        }
        if !self.relax_ttft_factor.is_finite()
            || self.relax_ttft_factor <= 0.0
            || self.relax_ttft_factor >= self.breach_ttft_factor
        {
            return Err("relax_ttft_factor must be in (0, breach_ttft_factor)".into());
        }
        if !self.shrink_max_load.is_finite() || self.shrink_max_load <= 0.0 {
            return Err("shrink_max_load must be positive and finite".into());
        }
        if !self.gateway_age_limit.is_finite() || self.gateway_age_limit <= 0.0 {
            return Err("gateway_age_limit must be positive".into());
        }
        if self.action_cooldown < 0.0 || self.return_cooldown < 0.0 {
            return Err("cooldowns must be non-negative".into());
        }
        if self.provision_delay < 0.0 {
            return Err("provision_delay must be non-negative".into());
        }
        if self.trainer_min_workers == 0 {
            return Err("trainer_min_workers must be positive".into());
        }
        if self.trainer_max_workers < self.trainer_min_workers {
            return Err("trainer_max_workers must be ≥ trainer_min_workers".into());
        }
        if self.max_ticks == 0 {
            return Err("max_ticks must be positive".into());
        }
        Ok(())
    }
}

/// What one timeline entry records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FleetActionKind {
    /// Free-pool GPUs granted to a breaching tenant.
    Grant {
        /// Receiving tenant.
        tenant: String,
    },
    /// GPUs stolen from the trainer for a breaching tenant
    /// (checkpoint-shrink-resume on the trainer side).
    Steal {
        /// Receiving tenant.
        tenant: String,
        /// Checkpoint-write seconds charged to the trainer.
        checkpoint_cost: f64,
    },
    /// Free GPUs returned to the trainer in a quiet trough.
    Return,
    /// A lower-priority tenant ordered to drain one replica so a
    /// higher-priority breach can be relieved once the GPUs come back.
    Preempt {
        /// Tenant losing a replica.
        victim: String,
        /// Breaching tenant the capacity is destined for.
        tenant: String,
    },
    /// A comfortable tenant voluntarily shrunk by one replica.
    Shrink {
        /// Tenant draining a replica.
        tenant: String,
    },
}

/// One scheduling decision, with the pool state after it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetAction {
    /// Simulated time of the decision.
    pub time: f64,
    /// What happened.
    pub kind: FleetActionKind,
    /// GPUs moved (0 for preemptions and shrinks, which only start drains).
    pub gpus: usize,
    /// Trainer world size after the action.
    pub trainer_workers: usize,
    /// Free GPUs in the pool after the action.
    pub pool_free: usize,
    /// Trainer chunk boundary (iterations completed) when the action fired
    /// — steals re-scale exactly at this iteration, with zero rollback.
    pub trainer_iteration: u64,
}

/// The outcome of one fleet run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReport {
    /// Per-tenant serving reports, in tenant declaration order.
    pub serving: Vec<ServingReport>,
    /// Iterations the trainer completed during the run.
    pub trainer_iterations: u64,
    /// Trainer world size when the run ended.
    pub trainer_final_world: usize,
    /// Tokens the trainer processed.
    pub trainer_total_tokens: u64,
    /// Simulated seconds of training (modeled clock).
    pub trainer_sim_time: f64,
    /// Training throughput in tokens per simulated second.
    pub trainer_tokens_per_second: f64,
    /// Re-scale events the trainer absorbed (steals + returns).
    pub trainer_rescales: u64,
    /// Checkpoint-write seconds charged by those re-scales.
    pub trainer_rescale_cost: f64,
    /// `(iteration, trajectory_checksum)` at every trainer chunk boundary.
    pub trajectory_checksums: Vec<(u64, u64)>,
    /// GPU steals from the trainer.
    pub steals: u64,
    /// GPU returns to the trainer.
    pub returns: u64,
    /// Tenant preemptions ordered.
    pub preemptions: u64,
    /// Control ticks executed.
    pub ticks: u64,
    /// Every scheduling decision in time order.
    pub timeline: Vec<FleetAction>,
}

/// Per-tenant live state inside the controller.
struct Tenant {
    name: String,
    session: ServingSession,
    priority: u8,
    min_replicas: usize,
    max_replicas: usize,
    stages: usize,
    ttft_target: f64,
    /// Draining all remaining replicas after the trace completed.
    retired: bool,
}

impl Tenant {
    /// The session's completion window, `ttft_window` seconds long.
    fn window(&self) -> &TtftWindow {
        self.session
            .ttft_window()
            .expect("an externally managed deployment keeps a completion window")
    }
}

/// The closed-loop fleet controller.
pub struct FleetController {
    config: FleetConfig,
    pool: MockJobManager,
    trainer: ElasticTrainer,
    /// Worker ids currently backing the trainer (steals cut from the tail).
    trainer_workers: Vec<usize>,
    tenants: Vec<Tenant>,
    recorder: Arc<dyn Recorder>,
    timeline: Vec<FleetAction>,
    last_breach: f64,
    last_trainer_action: f64,
    steals: u64,
    returns: u64,
    preemptions: u64,
}

/// Ledger owner tag of the training job.
pub const TRAINER_OWNER: &str = "trainer";

impl FleetController {
    /// Build the fleet: the trainer takes `initial_trainer_workers` GPUs,
    /// each tenant its `initial_replicas × stages`, and whatever remains
    /// stays free in the pool.
    pub fn new(
        config: FleetConfig,
        mut trainer: ElasticTrainer,
        initial_trainer_workers: usize,
        tenants: Vec<TenantSpec>,
    ) -> Result<Self, String> {
        config.validate()?;
        if tenants.is_empty() {
            return Err("a fleet needs at least one serving tenant".into());
        }
        if initial_trainer_workers < config.trainer_min_workers
            || initial_trainer_workers > config.trainer_max_workers
        {
            return Err(format!(
                "initial trainer world {initial_trainer_workers} outside [{}, {}]",
                config.trainer_min_workers, config.trainer_max_workers
            ));
        }
        let mut names = BTreeSet::new();
        let mut demand = initial_trainer_workers;
        for spec in &tenants {
            spec.config.validate()?;
            if spec.config.autoscaler.is_some() {
                return Err(format!(
                    "tenant {}: the fleet controller owns scaling; drop the autoscaler",
                    spec.config.tenant
                ));
            }
            if spec.priority == 0 {
                return Err(format!(
                    "tenant {}: priority 0 is reserved for the trainer",
                    spec.config.tenant
                ));
            }
            if spec.min_replicas == 0 || spec.min_replicas > spec.config.initial_replicas {
                return Err(format!(
                    "tenant {}: min_replicas must be in 1..=initial_replicas",
                    spec.config.tenant
                ));
            }
            if !names.insert(spec.config.tenant.clone()) {
                return Err(format!("duplicate tenant name {}", spec.config.tenant));
            }
            demand += spec.config.initial_replicas * spec.config.stages;
        }
        if demand > config.total_gpus {
            return Err(format!(
                "initial demand of {demand} GPUs exceeds the pool of {}",
                config.total_gpus
            ));
        }

        let mut pool = MockJobManager::new(config.total_gpus);
        let trainer_workers = pool
            .grant(TRAINER_OWNER, initial_trainer_workers, 0)
            .map_err(|e| format!("granting the trainer's world: {e:?}"))?;
        trainer.rescale(initial_trainer_workers)?;

        let mut live = Vec::with_capacity(tenants.len());
        for spec in tenants {
            let stages = spec.config.stages;
            let ids = pool
                .grant(
                    &spec.config.tenant,
                    spec.config.initial_replicas * stages,
                    0,
                )
                .map_err(|e| format!("granting tenant {}: {e:?}", spec.config.tenant))?;
            let blocks: Vec<Vec<usize>> = ids.chunks(stages).map(|c| c.to_vec()).collect();
            let name = spec.config.tenant.clone();
            let ttft_target = spec.config.slo.ttft;
            let max_replicas = spec.config.max_replicas;
            let engine =
                dynmo_serve::ServingEngine::external(spec.config, blocks, config.ttft_window)?;
            live.push(Tenant {
                name,
                session: engine.session(&spec.trace),
                priority: spec.priority,
                min_replicas: spec.min_replicas,
                max_replicas,
                stages,
                ttft_target,
                retired: false,
            });
        }

        Ok(FleetController {
            config,
            pool,
            trainer,
            trainer_workers,
            tenants: live,
            recorder: Arc::new(NullRecorder),
            timeline: Vec::new(),
            last_breach: f64::NEG_INFINITY,
            last_trainer_action: f64::NEG_INFINITY,
            steals: 0,
            returns: 0,
            preemptions: 0,
        })
    }

    /// Route fleet telemetry (steal/return/preemption markers and pool
    /// counters) to `recorder`.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    fn push_action(&mut self, time: f64, kind: FleetActionKind, gpus: usize) {
        self.timeline.push(FleetAction {
            time,
            kind,
            gpus,
            trainer_workers: self.trainer_workers.len(),
            pool_free: self.pool.available(),
            trainer_iteration: self.trainer.iterations_done(),
        });
    }

    /// Whether the tenant's SLO is in breach as of `now`.
    fn in_breach(&self, idx: usize, now: f64) -> bool {
        let t = &self.tenants[idx];
        if t.session.is_finished() {
            return false;
        }
        let window = t.window();
        if window.count(now) > 0 && window.p99(now) > t.ttft_target * self.config.breach_ttft_factor
        {
            return true;
        }
        t.session.gateway_backlog(now).oldest_wait > self.config.gateway_age_limit
    }

    /// Run the closed loop until every tenant's trace is served and every
    /// serving GPU has been reclaimed, then report.
    pub fn run(mut self) -> Result<FleetReport, String> {
        let mut tick: u64 = 0;
        loop {
            tick += 1;
            if tick > self.config.max_ticks {
                return Err(format!(
                    "fleet did not converge within {} ticks",
                    self.config.max_ticks
                ));
            }
            let now = tick as f64 * self.config.check_interval;

            // 1. Advance every session, then the trainer, to this tick.
            for t in &mut self.tenants {
                t.session.run_until(now, None);
            }
            self.trainer.advance_to(now)?;
            self.release_finished_trainer(now)?;

            // 2. Sample the per-tenant counter tracks.
            if self.recorder.enabled() {
                for t in &self.tenants {
                    self.recorder.counter(
                        0,
                        &format!("{}_p99_ttft", t.name),
                        now,
                        t.window().p99(now),
                    );
                    self.recorder.counter(
                        0,
                        &format!("{}_live_replicas", t.name),
                        now,
                        t.session.live_replicas() as f64,
                    );
                }
            }

            // 3. Reclaim drained replicas into the free pool.
            self.reclaim_drained(now)?;

            // 4. Retire finished tenants: drain everything they still hold.
            for t in &mut self.tenants {
                if t.session.is_finished() && !t.retired {
                    while t.session.begin_drain(now).is_some() {}
                    t.retired = true;
                }
            }

            // 5. Voluntary shrink on comfortable tenants (hysteresis).
            self.shrink_comfortable(now);

            // 6. Relieve breaches, highest priority first.
            self.relieve_breaches(now)?;

            // 7. Quiet trough: return free GPUs to the trainer.
            self.return_to_trainer(now)?;

            // 8. Conservation and starvation checks.
            self.check_invariants(now)?;

            let all_done = self
                .tenants
                .iter()
                .all(|t| t.session.is_finished() && self.pool.held(&t.name) == 0);
            if all_done {
                return self.finish(tick);
            }
        }
    }

    /// A finished trainer donates its whole world back to the pool.
    fn release_finished_trainer(&mut self, now: f64) -> Result<(), String> {
        if !self.trainer.finished() || self.trainer_workers.is_empty() {
            return Ok(());
        }
        let freed = std::mem::take(&mut self.trainer_workers);
        self.pool
            .release(TRAINER_OWNER, &freed, fleet_clock(now))
            .map_err(|e| format!("releasing the finished trainer: {e:?}"))?;
        Ok(())
    }

    fn reclaim_drained(&mut self, now: f64) -> Result<(), String> {
        for t in &mut self.tenants {
            for block in t.session.reclaim_drained(now) {
                self.pool
                    .release(&t.name, &block, fleet_clock(now))
                    .map_err(|e| format!("tenant {} releasing a drained block: {e:?}", t.name))?;
            }
        }
        Ok(())
    }

    fn shrink_comfortable(&mut self, now: f64) {
        for idx in 0..self.tenants.len() {
            let t = &self.tenants[idx];
            if t.retired
                || t.session.is_finished()
                || now - t.session.last_action() < self.config.action_cooldown
                || t.session.live_replicas() <= t.min_replicas
                || t.window().count(now) == 0
            {
                continue;
            }
            // Estimate the arrival rate from the completion window (they
            // match in steady state) and require the survivors to have
            // headroom — see the `shrink_max_load` field note.
            let observed_rate = t.window().count(now) as f64 / self.config.ttft_window;
            let survivors = (t.session.live_replicas() - 1).max(1) as f64;
            let comfortable = t.window().p99(now) < t.ttft_target * self.config.relax_ttft_factor
                && t.session.gateway_backlog(now).requests == 0
                && observed_rate / survivors <= self.config.shrink_max_load;
            if !comfortable {
                continue;
            }
            let t = &mut self.tenants[idx];
            if t.session.begin_drain(now).is_some() {
                let name = t.name.clone();
                self.push_action(now, FleetActionKind::Shrink { tenant: name }, 0);
            }
        }
    }

    fn relieve_breaches(&mut self, now: f64) -> Result<(), String> {
        // Highest priority first; declaration order breaks ties.
        let mut order: Vec<usize> = (0..self.tenants.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.tenants[i].priority));
        for idx in order {
            if !self.in_breach(idx, now) {
                continue;
            }
            self.last_breach = now;
            let (stages, priority, live, draining, max_replicas, last_action) = {
                let t = &self.tenants[idx];
                (
                    t.stages,
                    t.priority,
                    t.session.live_replicas(),
                    t.session.draining_replicas(),
                    t.max_replicas,
                    t.session.last_action(),
                )
            };
            if now - last_action < self.config.action_cooldown {
                continue;
            }
            if live + draining >= max_replicas {
                continue; // at the configured ceiling; nothing to grant
            }

            if self.pool.available() >= stages {
                self.grant_from_pool(idx, now, now + self.config.provision_delay)?;
                continue;
            }

            let can_steal = !self.trainer.finished()
                && self.trainer_workers.len() >= self.config.trainer_min_workers + stages;
            if can_steal {
                self.steal_from_trainer(idx, now)?;
                continue;
            }

            // Last resort: order the lowest-priority tenant strictly below
            // the breacher to drain one replica (its GPUs arrive in the
            // pool a few ticks later and the still-breaching tenant gets
            // them as a grant).
            self.preempt_for(idx, priority, now);
        }
        Ok(())
    }

    fn grant_from_pool(&mut self, idx: usize, now: f64, ready_at: f64) -> Result<(), String> {
        let (name, stages) = (self.tenants[idx].name.clone(), self.tenants[idx].stages);
        let block = self
            .pool
            .grant(&name, stages, fleet_clock(now))
            .map_err(|e| format!("granting tenant {name} a block: {e:?}"))?;
        self.tenants[idx]
            .session
            .add_external_replica(block, now, ready_at)?;
        self.push_action(now, FleetActionKind::Grant { tenant: name }, stages);
        Ok(())
    }

    fn steal_from_trainer(&mut self, idx: usize, now: f64) -> Result<(), String> {
        let (name, stages) = (self.tenants[idx].name.clone(), self.tenants[idx].stages);
        let cut = self
            .trainer_workers
            .split_off(self.trainer_workers.len() - stages);
        let cost = self.trainer.rescale(self.trainer_workers.len())?;
        self.pool
            .release(TRAINER_OWNER, &cut, fleet_clock(now))
            .map_err(|e| format!("trainer releasing stolen GPUs: {e:?}"))?;
        self.pool
            .acquire(&name, &cut, fleet_clock(now))
            .map_err(|e| format!("tenant {name} acquiring stolen GPUs: {e:?}"))?;
        // The replica comes online after provisioning; the checkpoint
        // write that freed the GPUs happens on the trainer's clock and is
        // already charged there.
        let ready_at = now + self.config.provision_delay + cost;
        self.tenants[idx]
            .session
            .add_external_replica(cut, now, ready_at)?;
        self.last_trainer_action = now;
        self.steals += 1;
        if self.recorder.enabled() {
            self.recorder.instant(
                0,
                MarkerKind::GpuSteal,
                &format!("{stages} GPUs to {name}"),
                now,
                &[
                    ("tenant", name.clone()),
                    ("checkpoint_cost", format!("{cost:.4}")),
                    ("trainer_world", self.trainer_workers.len().to_string()),
                ],
            );
            self.recorder
                .counter(0, "trainer_world", now, self.trainer_workers.len() as f64);
        }
        self.push_action(
            now,
            FleetActionKind::Steal {
                tenant: name,
                checkpoint_cost: cost,
            },
            stages,
        );
        Ok(())
    }

    fn preempt_for(&mut self, idx: usize, below: u8, now: f64) {
        let breacher = self.tenants[idx].name.clone();
        let victim = self
            .tenants
            .iter()
            .enumerate()
            .filter(|(i, v)| {
                *i != idx
                    && v.priority < below
                    && !v.session.is_finished()
                    && v.session.live_replicas() > v.min_replicas
            })
            .min_by_key(|(_, v)| (v.priority, std::cmp::Reverse(v.session.live_replicas())))
            .map(|(i, _)| i);
        let Some(vidx) = victim else {
            return; // nobody below the breacher can give anything up
        };
        if self.tenants[vidx].session.begin_drain(now).is_none() {
            return;
        }
        self.preemptions += 1;
        let victim_name = self.tenants[vidx].name.clone();
        if self.recorder.enabled() {
            self.recorder.instant(
                0,
                MarkerKind::Preemption,
                &format!("{victim_name} drains for {breacher}"),
                now,
                &[
                    ("victim", victim_name.clone()),
                    ("tenant", breacher.clone()),
                ],
            );
        }
        self.push_action(
            now,
            FleetActionKind::Preempt {
                victim: victim_name,
                tenant: breacher,
            },
            0,
        );
    }

    fn return_to_trainer(&mut self, now: f64) -> Result<(), String> {
        if self.trainer.finished()
            || now - self.last_breach < self.config.return_cooldown
            || now - self.last_trainer_action < self.config.return_cooldown
        {
            return Ok(());
        }
        let room = self
            .config
            .trainer_max_workers
            .saturating_sub(self.trainer_workers.len());
        let take = self.pool.available().min(room);
        if take == 0 {
            return Ok(());
        }
        let ids = self
            .pool
            .grant(TRAINER_OWNER, take, fleet_clock(now))
            .map_err(|e| format!("returning GPUs to the trainer: {e:?}"))?;
        self.trainer_workers.extend(ids);
        let cost = self.trainer.rescale(self.trainer_workers.len())?;
        self.last_trainer_action = now;
        self.returns += 1;
        if self.recorder.enabled() {
            self.recorder.instant(
                0,
                MarkerKind::GpuReturn,
                &format!("{take} GPUs to trainer"),
                now,
                &[
                    ("checkpoint_cost", format!("{cost:.4}")),
                    ("trainer_world", self.trainer_workers.len().to_string()),
                ],
            );
            self.recorder
                .counter(0, "trainer_world", now, self.trainer_workers.len() as f64);
        }
        self.push_action(now, FleetActionKind::Return, take);
        Ok(())
    }

    /// Every GPU is held by exactly one party, the ledger agrees with the
    /// sessions' own replica counts, and no unfinished tenant sits below
    /// its floor.
    fn check_invariants(&self, now: f64) -> Result<(), String> {
        let trainer_held = self.pool.held(TRAINER_OWNER);
        if trainer_held != self.trainer_workers.len() {
            return Err(format!(
                "t={now}: ledger holds {trainer_held} trainer GPUs but the controller tracks {}",
                self.trainer_workers.len()
            ));
        }
        let mut held = trainer_held;
        for t in &self.tenants {
            let owned = self.pool.held(&t.name);
            let session_held =
                (t.session.live_replicas() + t.session.draining_replicas()) * t.stages;
            if owned != session_held {
                return Err(format!(
                    "t={now}: tenant {} ledger {owned} GPUs vs session {session_held}",
                    t.name
                ));
            }
            held += owned;
            if !t.session.is_finished() && t.session.live_replicas() < t.min_replicas {
                return Err(format!(
                    "t={now}: tenant {} starved below its floor of {} replicas",
                    t.name, t.min_replicas
                ));
            }
        }
        if held + self.pool.available() != self.config.total_gpus {
            return Err(format!(
                "t={now}: {} held + {} free != {} total GPUs",
                held,
                self.pool.available(),
                self.config.total_gpus
            ));
        }
        Ok(())
    }

    fn finish(self, ticks: u64) -> Result<FleetReport, String> {
        let serving: Vec<ServingReport> = self
            .tenants
            .into_iter()
            .map(|t| t.session.finish())
            .collect();
        Ok(FleetReport {
            serving,
            trainer_iterations: self.trainer.iterations_done(),
            trainer_final_world: self.trainer.world(),
            trainer_total_tokens: self.trainer.total_tokens(),
            trainer_sim_time: self.trainer.sim_time(),
            trainer_tokens_per_second: self.trainer.tokens_per_second(),
            trainer_rescales: self.trainer.rescales(),
            trainer_rescale_cost: self.trainer.rescale_cost_total(),
            trajectory_checksums: self.trainer.checksum_history().to_vec(),
            steals: self.steals,
            returns: self.returns,
            preemptions: self.preemptions,
            ticks,
            timeline: self.timeline,
        })
    }
}
