//! The end-to-end training loop (paper Figure 2).
//!
//! One [`Trainer`] drives: the dynamism engine (model/control-flow change),
//! the profiler (per-layer times & memory), the rebalance controller
//! (balance / re-pack / migrate), the pipeline simulator (iteration time,
//! idleness, bubbles), the hybrid data-parallel throughput model, and the
//! elastic job manager (GPU release).  The resulting
//! [`TrainingReport`](crate::report::TrainingReport) carries every quantity
//! the paper's evaluation section plots.

use std::sync::Arc;

use dynmo_dynamics::{ComposedEngine, DynamismEngine};
use dynmo_model::{ClusterConfig, Model};
use dynmo_pipeline::memory::inflight_microbatches;
use dynmo_pipeline::{
    load::{aggregate_stage_loads, apply_boundary_sizes},
    CommCostModel, HybridThroughputModel, LayerLoad, PipelineSimulator, ScheduleKind,
    StageAssignment,
};
use dynmo_telemetry::{LogLevel, MarkerKind, NullRecorder, Recorder};
use serde::{Deserialize, Serialize};

use dynmo_resilience::{
    Checkpoint, CheckpointCostModel, CheckpointStore, LayerState, TrainerState,
};

use crate::balancer::{stage_weights, BalanceObjective};
use crate::controller::RebalanceController;
use crate::elastic::{JobManager, MockJobManager};
use crate::imbalance::{load_imbalance, ImbalanceHistory};
use crate::overhead::OverheadBreakdown;
use crate::profiler::{Profiler, StragglerDetector};
use crate::report::TrainingReport;

/// Configuration of one training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// The cluster (pipeline stages, data parallelism, device).
    pub cluster: ClusterConfig,
    /// The pipeline schedule to simulate.
    pub schedule: ScheduleKind,
    /// Number of training iterations.
    pub num_iterations: u64,
    /// Number of micro-batches per pipeline per iteration.
    pub num_microbatches: usize,
    /// Fraction of the data-parallel gradient all-reduce hidden behind the
    /// backward pass.
    pub allreduce_overlap: f64,
    /// The balancing objective used by the dynamic balancers.
    pub objective: BalanceObjective,
    /// Never consolidate below this many pipeline workers.
    pub min_workers: usize,
}

impl TrainerConfig {
    /// A configuration mirroring the paper's defaults for the given cluster:
    /// 1F1B schedule, four micro-batches per GPU (per [20] in the paper),
    /// mostly-overlapped gradient all-reduce.
    pub fn paper_defaults(cluster: ClusterConfig, num_iterations: u64) -> Self {
        let num_microbatches = cluster.pipeline_stages * 4;
        TrainerConfig {
            cluster,
            schedule: ScheduleKind::OneFOneB,
            num_iterations,
            num_microbatches,
            allreduce_overlap: 0.8,
            objective: BalanceObjective::ByTime,
            min_workers: 1,
        }
    }

    /// Validate structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        self.cluster.validate()?;
        if self.num_iterations == 0 {
            return Err("num_iterations must be positive".into());
        }
        if self.num_microbatches == 0 {
            return Err("num_microbatches must be positive".into());
        }
        if self.min_workers == 0 {
            return Err("min_workers must be positive".into());
        }
        Ok(())
    }
}

/// Periodic checkpointing configuration for the simulated trainer.
struct Checkpointing {
    store: Box<dyn CheckpointStore + Send>,
    interval: u64,
    cost_model: CheckpointCostModel,
    keep: usize,
}

/// How many checkpoints the trainer retains by default — enough history to
/// roll back past a bad rebalance, bounded so a paper-scale run does not
/// accumulate hundreds of snapshots.
const DEFAULT_KEPT_CHECKPOINTS: usize = 8;

/// Incremental FNV-1a over the per-iteration simulated trajectory: iteration
/// time, tokens, imbalance, and the layer→stage assignment.  Every input is
/// simulated, so the checksum is bit-reproducible across runs and machines —
/// a recovered run must land on exactly the failure-free run's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TrajectoryHash(dynmo_resilience::Fnv1a);

impl TrajectoryHash {
    fn new() -> Self {
        TrajectoryHash(dynmo_resilience::Fnv1a::new())
    }

    fn from_u64(state: u64) -> Self {
        TrajectoryHash(dynmo_resilience::Fnv1a::from_state(state))
    }

    fn value(&self) -> u64 {
        self.0.state()
    }

    fn push_bytes(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    fn record_iteration(
        &mut self,
        iteration: u64,
        iteration_time: f64,
        tokens: u64,
        imbalance: f64,
        assignment: &StageAssignment,
    ) {
        self.push_bytes(&iteration.to_le_bytes());
        self.push_bytes(&iteration_time.to_bits().to_le_bytes());
        self.push_bytes(&tokens.to_le_bytes());
        self.push_bytes(&imbalance.to_bits().to_le_bytes());
        for &stage in assignment.layer_to_stage() {
            self.push_bytes(&(stage as u64).to_le_bytes());
        }
    }
}

/// Metric keys the trainer stores in its checkpoints so a resumed run can
/// restore every accumulator bit-for-bit (f64 values round-trip exactly
/// through the JSON layer).
mod metric_keys {
    pub const TOTAL_TIME: &str = "total_time";
    pub const TOTAL_TOKENS: &str = "total_tokens";
    pub const IMBALANCE: &str = "imbalance";
    pub const IDLENESS_SUM: &str = "idleness_sum";
    pub const BUBBLE_SUM: &str = "bubble_sum";
    pub const ACTIVE_WORKER_ITERATIONS: &str = "active_worker_iterations";
    pub const TRAJECTORY_LO: &str = "trajectory_lo";
    pub const TRAJECTORY_HI: &str = "trajectory_hi";
    pub const OV_PROFILING: &str = "overhead_profiling";
    pub const OV_ALGORITHM: &str = "overhead_algorithm";
    pub const OV_MIGRATION: &str = "overhead_migration";
    pub const OV_RECOVERY: &str = "overhead_recovery";
    pub const OV_REBALANCE_EVENTS: &str = "overhead_rebalance_events";
    pub const OV_RECOVERY_EVENTS: &str = "overhead_recovery_events";
    /// Per-sample imbalance-history keys: `imbalance@<iteration>`.
    pub const IMBALANCE_AT_PREFIX: &str = "imbalance@";
}

fn read_metric(state: &TrainerState, key: &str) -> Result<f64, String> {
    state
        .metrics
        .get(key)
        .copied()
        .ok_or_else(|| format!("checkpoint is missing the '{key}' metric"))
}

/// The restorable payload of a checkpoint — layers, assignment, engine
/// state — with empty metrics.  The simulated write cost is priced on this
/// payload alone, so the price never depends on bookkeeping size.
fn base_state(
    iteration: u64,
    world_size: usize,
    assignment: &StageAssignment,
    loads: &[LayerLoad],
    engine: &mut dyn DynamismEngine,
) -> TrainerState {
    let layers: Vec<LayerState> = loads
        .iter()
        .map(|load| LayerState {
            layer_id: load.layer_id,
            weights: vec![load.param_count as f32],
            optimizer: vec![0.0],
            pruning_mask: vec![true],
            frozen: load.bwd_time == 0.0,
            rng_state: 0,
        })
        .collect();
    TrainerState {
        iteration,
        world_size,
        assignment: assignment.clone(),
        layers,
        metrics: std::collections::BTreeMap::new(),
        engine: Some(engine.export_state()),
    }
}

/// The resume accumulators a snapshot carries so a resumed run restores
/// every report quantity bit-for-bit.
struct ResumeMetrics<'a> {
    cached_imbalance: f64,
    total_time: f64,
    total_tokens: u64,
    idleness_sum: f64,
    bubble_sum: f64,
    active_worker_iterations: f64,
    trajectory: u64,
    overhead: &'a OverheadBreakdown,
    imbalance_history: &'a ImbalanceHistory,
}

fn fill_metrics(state: &mut TrainerState, resume: &ResumeMetrics<'_>) {
    let metrics = &mut state.metrics;
    metrics.insert(metric_keys::IMBALANCE.into(), resume.cached_imbalance);
    metrics.insert(metric_keys::TOTAL_TIME.into(), resume.total_time);
    metrics.insert(metric_keys::TOTAL_TOKENS.into(), resume.total_tokens as f64);
    metrics.insert(metric_keys::IDLENESS_SUM.into(), resume.idleness_sum);
    metrics.insert(metric_keys::BUBBLE_SUM.into(), resume.bubble_sum);
    metrics.insert(
        metric_keys::ACTIVE_WORKER_ITERATIONS.into(),
        resume.active_worker_iterations,
    );
    let hash = resume.trajectory;
    metrics.insert(
        metric_keys::TRAJECTORY_LO.into(),
        (hash & 0xFFFF_FFFF) as f64,
    );
    metrics.insert(metric_keys::TRAJECTORY_HI.into(), (hash >> 32) as f64);
    metrics.insert(metric_keys::OV_PROFILING.into(), resume.overhead.profiling);
    metrics.insert(metric_keys::OV_ALGORITHM.into(), resume.overhead.algorithm);
    metrics.insert(metric_keys::OV_MIGRATION.into(), resume.overhead.migration);
    metrics.insert(metric_keys::OV_RECOVERY.into(), resume.overhead.recovery);
    metrics.insert(
        metric_keys::OV_REBALANCE_EVENTS.into(),
        resume.overhead.rebalance_events as f64,
    );
    metrics.insert(
        metric_keys::OV_RECOVERY_EVENTS.into(),
        resume.overhead.recovery_events as f64,
    );
    for &(it, value) in resume.imbalance_history.samples() {
        metrics.insert(format!("{}{it}", metric_keys::IMBALANCE_AT_PREFIX), value);
    }
}

/// Transform a checkpointed [`TrainerState`] for an elastic rescale to
/// `new_world_size` pipeline stages — the fleet controller's
/// checkpoint-shrink-resume (and grow) hook.  The assignment is re-laid
/// out uniformly over the new world (the rebalance controller balances it
/// properly at its next due iteration), and `rescale_cost` simulated
/// seconds (checkpoint write + communicator rebuild) are charged into the
/// checkpointed total time and the recovery overhead bucket, so the
/// resumed run's accumulators include the rescale just as
/// [`crate::recovery::run_elastic_rescale`] charges its own.  The
/// trajectory checksum is deliberately untouched: it hashes only
/// per-iteration simulated quantities, so outside the rescale windows a
/// shrunken-and-regrown run stays bit-identical to an undisturbed one.
pub fn rescale_trainer_state(
    state: &TrainerState,
    new_world_size: usize,
    rescale_cost: f64,
) -> Result<TrainerState, String> {
    if new_world_size == 0 {
        return Err("cannot rescale to zero pipeline stages".into());
    }
    if !rescale_cost.is_finite() || rescale_cost < 0.0 {
        return Err(format!(
            "rescale cost {rescale_cost} must be finite and ≥ 0"
        ));
    }
    if state.engine.is_none() {
        return Err("checkpoint carries no engine state; cannot rescale".into());
    }
    let total_time = read_metric(state, metric_keys::TOTAL_TIME)?;
    let recovery = read_metric(state, metric_keys::OV_RECOVERY)?;
    let recovery_events = read_metric(state, metric_keys::OV_RECOVERY_EVENTS)?;
    let mut out = state.clone();
    out.world_size = new_world_size;
    out.assignment = StageAssignment::uniform(state.assignment.num_layers(), new_world_size);
    out.metrics
        .insert(metric_keys::TOTAL_TIME.into(), total_time + rescale_cost);
    out.metrics
        .insert(metric_keys::OV_RECOVERY.into(), recovery + rescale_cost);
    out.metrics.insert(
        metric_keys::OV_RECOVERY_EVENTS.into(),
        recovery_events + 1.0,
    );
    Ok(out)
}

/// The outcome of [`Trainer::run_segment`]: the cumulative report at the
/// segment boundary plus the exported [`TrainerState`] the next segment
/// (possibly on a rescaled world) resumes from.
pub struct SegmentOutcome {
    /// Cumulative training report from iteration 0 through the boundary.
    pub report: TrainingReport,
    /// Restorable snapshot at the boundary (engine state included).
    pub state: TrainerState,
}

/// The end-to-end training loop.
pub struct Trainer {
    config: TrainerConfig,
    model: Model,
    profiler: Profiler,
    controller: RebalanceController,
    job_manager: MockJobManager,
    initial_assignment: Option<StageAssignment>,
    checkpointing: Option<Checkpointing>,
    recorder: Arc<dyn Recorder>,
    straggler_injection: Option<Vec<f64>>,
}

impl Trainer {
    /// Build a trainer for `model` under `config`, using `controller` for
    /// balancing decisions.
    pub fn new(model: Model, config: TrainerConfig, controller: RebalanceController) -> Self {
        config.validate().expect("invalid trainer configuration");
        let profiler = Profiler::new(config.cluster.device);
        let job_manager = MockJobManager::new(config.cluster.pipeline_stages);
        Trainer {
            config,
            model,
            profiler,
            controller,
            job_manager,
            initial_assignment: None,
            checkpointing: None,
            recorder: Arc::new(NullRecorder),
            straggler_injection: None,
        }
    }

    /// Inject per-stage compute slowdowns — the simulation-side ground truth
    /// for straggler experiments.  Stage `s` runs `slowdowns[s]`× slower than
    /// its device spec predicts.  The balancer is *not* told: it only learns
    /// about the slowdown once the profiler's [`StragglerDetector`] confirms
    /// it (persistently slow for several consecutive observations), at which
    /// point the stage's effective speed is downgraded in every subsequent
    /// rebalance and a `StragglerDetected` marker is recorded.
    pub fn with_straggler_injection(mut self, slowdowns: Vec<f64>) -> Self {
        assert_eq!(
            slowdowns.len(),
            self.config.cluster.pipeline_stages,
            "straggler injection must cover every pipeline stage"
        );
        assert!(
            slowdowns.iter().all(|&s| s >= 1.0),
            "straggler slowdowns must be >= 1.0 (1.0 = healthy)"
        );
        self.straggler_injection = Some(slowdowns);
        self
    }

    /// Attach a telemetry recorder.  Each newly simulated iteration's
    /// per-rank op timeline is recorded as spans on group 0 (offset by the
    /// simulated clock so iterations tile into continuous tracks), with
    /// instant markers for rebalance and checkpoint events and log events
    /// replacing stderr warnings.  Everything recorded is simulated-time
    /// data: enabling a recorder never changes a report, a checksum, or a
    /// sweep artifact.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Enable periodic checkpointing: every `interval` iterations the
    /// trainer snapshots its restorable state (assignment, active workers,
    /// per-layer retention, key metrics) into `store`, and the simulated
    /// write cost is charged to the overhead report's `recovery` bucket —
    /// the fault-tolerance line item next to the paper's
    /// profiling/algorithm/migration buckets.
    pub fn with_checkpointing(
        mut self,
        store: Box<dyn CheckpointStore + Send>,
        interval: u64,
    ) -> Self {
        assert!(interval > 0, "checkpoint interval must be positive");
        self.checkpointing = Some(Checkpointing {
            store,
            interval,
            cost_model: CheckpointCostModel::default(),
            keep: DEFAULT_KEPT_CHECKPOINTS,
        });
        self
    }

    /// The checkpoint store, when checkpointing is enabled (for inspecting
    /// what a recovery would restore from).
    pub fn checkpoint_store(&self) -> Option<&(dyn CheckpointStore + Send)> {
        self.checkpointing.as_ref().map(|c| &*c.store)
    }

    /// Override the initial layer→stage assignment (static baselines such as
    /// DeepSpeed's parameter-balanced partitioning apply their split once,
    /// before training, instead of starting from the Megatron uniform
    /// split).  The assignment must cover every model layer and use at most
    /// the cluster's pipeline stages.
    pub fn with_initial_assignment(mut self, assignment: StageAssignment) -> Self {
        assert_eq!(
            assignment.num_layers(),
            self.model.num_layers(),
            "initial assignment must cover every model layer"
        );
        assert!(
            assignment.num_stages() <= self.config.cluster.pipeline_stages,
            "initial assignment uses more stages than the cluster has"
        );
        self.initial_assignment = Some(assignment);
        self
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// The job manager (for inspecting fleet events after a run).
    pub fn job_manager(&self) -> &MockJobManager {
        &self.job_manager
    }

    /// Run `engine` for the configured number of iterations and report.
    pub fn run(&mut self, engine: &mut dyn DynamismEngine) -> TrainingReport {
        self.run_from(engine, None, None, false)
            .expect("a fresh (non-resumed) run cannot fail to start")
            .0
    }

    /// Run an ordered *stack* of dynamism mechanisms acting on the same
    /// model: the engines are composed (see
    /// [`ComposedEngine`](dynmo_dynamics::ComposedEngine)), their per-layer
    /// load updates merged multiplicatively, and the merged multipliers are
    /// what the profiler — and through it both balancer families — observe.
    ///
    /// # Panics
    ///
    /// Panics if the stack is invalid (empty, duplicate mechanisms, nested
    /// composites) — construct the [`ComposedEngine`] yourself and call
    /// [`Trainer::run`] to handle that fallibly.
    pub fn run_stack(&mut self, engines: Vec<Box<dyn DynamismEngine + Send>>) -> TrainingReport {
        let mut composed = ComposedEngine::new(engines).expect("invalid composite stack");
        self.run(&mut composed)
    }

    /// Resume a run from a checkpointed [`TrainerState`]: the engine's
    /// internal state (every sub-engine's RNG streams and masks, for a
    /// composed stack) is restored from the snapshot, the assignment,
    /// active-worker count, and all report accumulators are rewound to the
    /// checkpoint, and the remaining iterations are replayed.  The replay
    /// reproduces the original run's simulated trajectory bit-for-bit: the
    /// resumed report's `trajectory_checksum` equals the failure-free
    /// run's.
    ///
    /// Fails if the snapshot carries no engine state, the engine state does
    /// not match `engine`, or a resume accumulator is missing (a v1-style
    /// checkpoint).
    pub fn resume(
        &mut self,
        engine: &mut dyn DynamismEngine,
        state: &TrainerState,
    ) -> Result<TrainingReport, String> {
        Ok(self.run_from(engine, Some(state), None, false)?.0)
    }

    /// Run a bounded *segment* of the training loop: from `resume` (or
    /// iteration 0) up to — exclusive of nothing — iteration `until`, then
    /// stop at the boundary and export the restorable state.  Chaining
    /// segments with each outcome's `state` as the next call's `resume`
    /// reproduces an unsegmented run's trajectory checksum bit-for-bit
    /// (the rebalance controller is stateless in `iteration`, and every
    /// accumulator round-trips through the snapshot), which is what lets a
    /// fleet controller interleave training with serving on a shared clock
    /// and still pin the trainer's trajectory against an undisturbed run.
    pub fn run_segment(
        &mut self,
        engine: &mut dyn DynamismEngine,
        resume: Option<&TrainerState>,
        until: u64,
    ) -> Result<SegmentOutcome, String> {
        let (report, state) = self.run_from(engine, resume, Some(until), true)?;
        Ok(SegmentOutcome {
            report,
            state: state.expect("segment runs export their final state"),
        })
    }

    fn run_from(
        &mut self,
        engine: &mut dyn DynamismEngine,
        resume: Option<&TrainerState>,
        until: Option<u64>,
        export_state: bool,
    ) -> Result<(TrainingReport, Option<TrainerState>), String> {
        let recorder = Arc::clone(&self.recorder);
        let comm = CommCostModel::new(self.config.cluster.clone());
        let mut simulator = PipelineSimulator::new(comm.clone(), self.config.schedule);
        let hybrid = HybridThroughputModel::new(comm.clone(), self.config.allreduce_overlap);
        let model_cfg = self.model.config().clone();

        // Heterogeneous-cluster speeds/capacities (known a priori from the
        // device specs) plus the straggler detector (fed at runtime from
        // observed vs. expected stage times).  All of this is `None` on a
        // homogeneous, straggler-free run, which keeps that path bit-identical
        // to the speed-free code.
        let pipeline_stages = self.config.cluster.pipeline_stages;
        let base_speeds = self.config.cluster.stage_speeds();
        let stage_capacities = self.config.cluster.stage_capacities();
        let mut detector = StragglerDetector::new(pipeline_stages);
        // Ground-truth per-stage compute slowdown the *simulator* applies:
        // the device generation's speed deficit plus any injected straggler.
        let actual_slowdowns: Option<Vec<f64>> =
            if base_speeds.is_none() && self.straggler_injection.is_none() {
                None
            } else {
                Some(
                    (0..pipeline_stages)
                        .map(|s| {
                            let speed = base_speeds.as_ref().map_or(1.0, |v| v[s]);
                            let inject = self.straggler_injection.as_ref().map_or(1.0, |v| v[s]);
                            inject / speed
                        })
                        .collect(),
                )
            };

        let mut assignment = self.initial_assignment.clone().unwrap_or_else(|| {
            StageAssignment::uniform(self.model.num_layers(), self.config.cluster.pipeline_stages)
        });
        let mut active_workers = assignment.num_stages();
        let mut loads: Vec<LayerLoad> = Vec::new();
        let mut overhead = OverheadBreakdown::new();
        let mut imbalance_history = ImbalanceHistory::new();

        let mut total_time = 0.0f64;
        let mut total_tokens: u64 = 0;
        let mut idleness_sum = 0.0f64;
        let mut bubble_sum = 0.0f64;
        let mut active_worker_iterations = 0.0f64;
        let mut cached_iteration_time = 0.0f64;
        let mut cached_idleness = 0.0f64;
        let mut cached_bubble = 0.0f64;
        let mut cached_imbalance = 0.0f64;
        let mut cached_tokens: u64 = 0;
        let mut dirty = true;
        let mut last_imbalance = 0.0f64;
        let mut trajectory = TrajectoryHash::new();
        let mut start_iteration = 0u64;

        let end_iteration = until.unwrap_or(self.config.num_iterations);
        if end_iteration > self.config.num_iterations {
            return Err(format!(
                "segment boundary {} exceeds the configured {} iterations",
                end_iteration, self.config.num_iterations
            ));
        }

        if let Some(state) = resume {
            let engine_state = state
                .engine
                .as_ref()
                .ok_or("checkpoint carries no engine state; cannot resume the dynamism stack")?;
            engine.import_state(engine_state)?;
            if state.iteration > end_iteration {
                return Err(format!(
                    "checkpoint is at iteration {} but the run only has {}",
                    state.iteration, end_iteration
                ));
            }
            // The engine-name check above cannot catch a same-typed engine
            // on a differently sized model; the assignment shape can.
            if state.assignment.num_layers() != self.model.num_layers() {
                return Err(format!(
                    "checkpoint assignment covers {} layers but the model has {}",
                    state.assignment.num_layers(),
                    self.model.num_layers()
                ));
            }
            if state.assignment.num_stages() > self.config.cluster.pipeline_stages {
                return Err(format!(
                    "checkpoint assignment uses {} stages but the cluster has {}",
                    state.assignment.num_stages(),
                    self.config.cluster.pipeline_stages
                ));
            }
            assignment = state.assignment.clone();
            active_workers = state.world_size;
            start_iteration = state.iteration;
            total_time = read_metric(state, metric_keys::TOTAL_TIME)?;
            total_tokens = read_metric(state, metric_keys::TOTAL_TOKENS)? as u64;
            idleness_sum = read_metric(state, metric_keys::IDLENESS_SUM)?;
            bubble_sum = read_metric(state, metric_keys::BUBBLE_SUM)?;
            active_worker_iterations = read_metric(state, metric_keys::ACTIVE_WORKER_ITERATIONS)?;
            last_imbalance = read_metric(state, metric_keys::IMBALANCE)?;
            let lo = read_metric(state, metric_keys::TRAJECTORY_LO)? as u64;
            let hi = read_metric(state, metric_keys::TRAJECTORY_HI)? as u64;
            trajectory = TrajectoryHash::from_u64(lo | (hi << 32));
            overhead.profiling = read_metric(state, metric_keys::OV_PROFILING)?;
            overhead.algorithm = read_metric(state, metric_keys::OV_ALGORITHM)?;
            overhead.migration = read_metric(state, metric_keys::OV_MIGRATION)?;
            overhead.recovery = read_metric(state, metric_keys::OV_RECOVERY)?;
            overhead.rebalance_events =
                read_metric(state, metric_keys::OV_REBALANCE_EVENTS)? as u64;
            overhead.recovery_events = read_metric(state, metric_keys::OV_RECOVERY_EVENTS)? as u64;
            let mut samples: Vec<(u64, f64)> = state
                .metrics
                .iter()
                .filter_map(|(key, &value)| {
                    key.strip_prefix(metric_keys::IMBALANCE_AT_PREFIX)
                        .and_then(|it| it.parse::<u64>().ok())
                        .map(|it| (it, value))
                })
                .collect();
            samples.sort_by_key(|&(it, _)| it);
            for (it, value) in samples {
                imbalance_history.record(it, value);
            }
        }

        for iteration in start_iteration..end_iteration {
            self.job_manager.set_iteration(iteration);
            let update = engine.step(iteration);
            if update.changed || loads.is_empty() {
                loads = self.profiler.profile(&self.model, &update);
                dirty = true;
            }

            // Straggler detection: compare the observed per-stage compute
            // times (which include the injected slowdown) against what the
            // device specs predict, and confirm persistent outliers.
            if let Some(injection) = &self.straggler_injection {
                let ideal = stage_weights(&assignment, &loads, BalanceObjective::ByTime);
                let expected: Vec<f64> = ideal
                    .iter()
                    .enumerate()
                    .map(|(s, &w)| w / base_speeds.as_ref().map_or(1.0, |v| v[s]))
                    .collect();
                let observed: Vec<f64> = expected
                    .iter()
                    .enumerate()
                    .map(|(s, &e)| e * injection.get(s).copied().unwrap_or(1.0))
                    .collect();
                for (stage, speed) in detector.observe(&observed, &expected) {
                    recorder.instant(
                        0,
                        MarkerKind::StragglerDetected,
                        &format!("stage {stage}"),
                        total_time,
                        &[
                            ("iteration", iteration.to_string()),
                            ("stage", stage.to_string()),
                            ("effective_speed", format!("{speed:.4}")),
                        ],
                    );
                }
            }

            // Rebalance when due (black-box fixed cadence, §3.2).
            if self
                .controller
                .is_due(iteration, engine.rebalance_frequency())
            {
                let inflight: Vec<usize> = (0..active_workers)
                    .map(|s| {
                        inflight_microbatches(
                            self.config.schedule,
                            s,
                            active_workers,
                            self.config.num_microbatches,
                        )
                    })
                    .collect();
                // The balancer sees the device-spec speeds (known a priori)
                // multiplied by the detector's confirmed downgrades — never
                // the raw injection, which it has no way to observe directly.
                let downgrades = detector.downgrades();
                let effective_speeds: Option<Vec<f64>> =
                    if base_speeds.is_none() && downgrades.is_none() {
                        None
                    } else {
                        Some(
                            (0..pipeline_stages)
                                .map(|s| {
                                    base_speeds.as_ref().map_or(1.0, |v| v[s])
                                        * downgrades.as_ref().map_or(1.0, |v| v[s])
                                })
                                .collect(),
                        )
                    };
                let outcome = self.controller.rebalance(
                    &assignment,
                    &loads,
                    self.config.cluster.device.memory_capacity,
                    &inflight,
                    &comm,
                    self.config.min_workers,
                    self.config.num_microbatches,
                    effective_speeds.as_deref(),
                    stage_capacities.as_deref(),
                );
                let profiling_cost = self.profiler.profiling_cost(&loads);
                overhead.record(
                    profiling_cost,
                    outcome.algorithm_time,
                    outcome.migration_time,
                );
                total_time += profiling_cost + outcome.algorithm_time + outcome.migration_time;
                recorder.instant(
                    0,
                    MarkerKind::Rebalance,
                    &format!("iter {iteration}"),
                    total_time,
                    &[
                        ("iteration", iteration.to_string()),
                        ("active_workers", outcome.active_workers.to_string()),
                        ("released", outcome.released_workers.len().to_string()),
                        ("migrated_layers", outcome.migration.num_moves().to_string()),
                        ("rounds", outcome.rounds.to_string()),
                    ],
                );
                if !outcome.released_workers.is_empty() {
                    self.job_manager.release(&outcome.released_workers);
                }
                if outcome.assignment != assignment || outcome.active_workers != active_workers {
                    dirty = true;
                }
                active_workers = outcome.active_workers;
                assignment = outcome.assignment;
            }

            // Re-simulate the pipeline only when something changed.
            if dirty {
                let mut stage_loads = aggregate_stage_loads(
                    &loads,
                    assignment.layer_to_stage(),
                    assignment.num_stages(),
                );
                // Mechanisms that remove tokens (early exit) shrink the
                // boundary tensors of every stage behind the exit point,
                // and with them the pipeline's wire cost.
                apply_boundary_sizes(
                    &mut stage_loads,
                    assignment.layer_to_stage(),
                    &update.token_retention,
                    comm.activation_bytes(&model_cfg),
                );
                // Apply the ground-truth slowdowns: a slow device (or an
                // injected straggler) stretches its stage's compute times in
                // the simulated pipeline, whether or not the balancer has
                // caught on yet.
                if let Some(slowdowns) = &actual_slowdowns {
                    for (s, load) in stage_loads.iter_mut().enumerate() {
                        let factor = slowdowns.get(s).copied().unwrap_or(1.0);
                        load.fwd_time *= factor;
                        load.bwd_time *= factor;
                    }
                }
                let report =
                    simulator.simulate(&model_cfg, &stage_loads, self.config.num_microbatches);
                // Trace the freshly simulated timeline (iterations between
                // changes reuse it, so the trace records keyframes — one
                // span set per distinct pipeline shape).
                recorder.record_iteration(0, iteration, total_time, &report);
                let throughput = hybrid.throughput(
                    &model_cfg,
                    &report,
                    &stage_loads,
                    self.config.num_microbatches,
                );
                cached_iteration_time = throughput.iteration_time;
                cached_idleness = report.average_idleness();
                cached_bubble = report.bubble_ratio();
                cached_tokens = throughput.tokens_per_iteration;
                cached_imbalance =
                    load_imbalance(&stage_weights(&assignment, &loads, self.config.objective));
                dirty = false;
            }

            total_time += cached_iteration_time + engine.extra_overhead(iteration);
            total_tokens += cached_tokens;
            idleness_sum += cached_idleness;
            bubble_sum += cached_bubble;
            active_worker_iterations += active_workers as f64;
            last_imbalance = cached_imbalance;
            trajectory.record_iteration(
                iteration,
                cached_iteration_time,
                cached_tokens,
                cached_imbalance,
                &assignment,
            );
            if iteration % 100 == 0 {
                imbalance_history.record(iteration, cached_imbalance);
            }

            // Periodic checkpoint: snapshot the restorable state — layer
            // loads, the dynamism stack's engine state, and every report
            // accumulator — and charge the simulated write into the
            // recovery overhead bucket.  The write cost is charged *before*
            // the accumulators are captured, so a resumed run's totals
            // include this write exactly as the original run's do.
            if let Some(checkpointing) = &mut self.checkpointing {
                if (iteration + 1).is_multiple_of(checkpointing.interval) {
                    let mut state =
                        base_state(iteration + 1, active_workers, &assignment, &loads, engine);
                    // Cost is priced on the payload (layers + assignment +
                    // engine state); the resume metrics below are a few
                    // dozen scalars and are deliberately excluded so the
                    // price does not depend on bookkeeping size.  The
                    // snapshot carries the *post-charge* totals (so a
                    // resumed run's accumulators include this write exactly
                    // as the original run's do), but the accumulators are
                    // only committed once the save lands — a failed save
                    // stays free, as before.
                    let cost = checkpointing.cost_model.write_cost(state.size_bytes());
                    let charged_total_time = total_time + cost;
                    let mut charged_overhead = overhead;
                    charged_overhead.record_recovery(cost);
                    fill_metrics(
                        &mut state,
                        &ResumeMetrics {
                            cached_imbalance,
                            total_time: charged_total_time,
                            total_tokens,
                            idleness_sum,
                            bubble_sum,
                            active_worker_iterations,
                            trajectory: trajectory.value(),
                            overhead: &charged_overhead,
                            imbalance_history: &imbalance_history,
                        },
                    );
                    match Checkpoint::new(state) {
                        Ok(checkpoint) => match checkpointing.store.save(&checkpoint) {
                            Ok(()) => {
                                checkpointing.store.retain_last(checkpointing.keep);
                                overhead = charged_overhead;
                                total_time = charged_total_time;
                                recorder.instant(
                                    0,
                                    MarkerKind::Checkpoint,
                                    &format!("iter {}", iteration + 1),
                                    total_time,
                                    &[
                                        ("iteration", (iteration + 1).to_string()),
                                        ("simulated_cost_s", format!("{cost:.6}")),
                                    ],
                                );
                            }
                            Err(err) => recorder.log(
                                LogLevel::Warn,
                                &format!(
                                    "checkpoint at iteration {} not saved: {err}",
                                    iteration + 1
                                ),
                            ),
                        },
                        Err(err) => recorder.log(
                            LogLevel::Warn,
                            &format!("checkpoint at iteration {} not taken: {err}", iteration + 1),
                        ),
                    }
                }
            }
        }

        // Export the boundary snapshot before the report moves anything:
        // segment callers resume the next chunk (or a rescaled world) from
        // exactly this state.
        let final_state = if export_state {
            if loads.is_empty() {
                return Err("cannot export a segment state before any iteration ran".into());
            }
            let mut state = base_state(end_iteration, active_workers, &assignment, &loads, engine);
            fill_metrics(
                &mut state,
                &ResumeMetrics {
                    cached_imbalance,
                    total_time,
                    total_tokens,
                    idleness_sum,
                    bubble_sum,
                    active_worker_iterations,
                    trajectory: trajectory.value(),
                    overhead: &overhead,
                    imbalance_history: &imbalance_history,
                },
            );
            Some(state)
        } else {
            None
        };

        let iterations = end_iteration;
        let tokens_per_second = if total_time > 0.0 {
            total_tokens as f64 / total_time
        } else {
            0.0
        };
        let average_active_workers = active_worker_iterations / iterations as f64;
        let gpu_seconds =
            average_active_workers * self.config.cluster.data_parallel as f64 * total_time;
        let total_gpus_now = active_workers * self.config.cluster.data_parallel;
        let report = TrainingReport {
            balancer: self.controller.name(),
            dynamism: engine.name(),
            iterations,
            total_time,
            total_tokens,
            tokens_per_second,
            average_idleness: idleness_sum / iterations as f64,
            average_bubble_ratio: bubble_sum / iterations as f64,
            mean_imbalance: imbalance_history.mean(),
            final_imbalance: last_imbalance,
            overhead,
            overhead_fraction: overhead.fraction_of(total_time),
            rebalance_events: overhead.rebalance_events,
            average_active_workers,
            final_active_workers: total_gpus_now / self.config.cluster.data_parallel.max(1),
            gpu_seconds,
            tokens_per_second_per_gpu: if gpu_seconds > 0.0 {
                total_tokens as f64 / gpu_seconds
            } else {
                0.0
            },
            trajectory_checksum: trajectory.value(),
        };
        Ok((report, final_state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::{DiffusionBalancer, PartitionBalancer};
    use crate::controller::RebalancePolicy;
    use crate::repack::RepackConfig;
    use dynmo_dynamics::{
        EarlyExitEngine, EarlyExitMethod, FreezingEngine, FreezingPolicy, GradualPruningEngine,
        PruningSchedule,
    };
    use dynmo_model::{DeviceSpec, ModelPreset};

    fn small_cluster(stages: usize) -> ClusterConfig {
        ClusterConfig::homogeneous(stages, stages, 1, DeviceSpec::h100_sxm5())
    }

    fn config(stages: usize, iterations: u64) -> TrainerConfig {
        TrainerConfig {
            cluster: small_cluster(stages),
            schedule: ScheduleKind::OneFOneB,
            num_iterations: iterations,
            num_microbatches: stages * 4,
            allreduce_overlap: 0.8,
            objective: BalanceObjective::ByTime,
            min_workers: 1,
        }
    }

    fn dynamic_controller() -> RebalanceController {
        RebalanceController::new(
            Box::new(PartitionBalancer::new()),
            BalanceObjective::ByTime,
            RebalancePolicy::dynamic(),
        )
    }

    fn static_controller() -> RebalanceController {
        RebalanceController::new(
            Box::new(PartitionBalancer::new()),
            BalanceObjective::ByTime,
            RebalancePolicy::disabled(),
        )
    }

    #[test]
    fn config_validation_catches_degenerate_values() {
        let mut cfg = config(4, 10);
        cfg.num_iterations = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = config(4, 10);
        cfg.num_microbatches = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = config(4, 10);
        cfg.min_workers = 0;
        assert!(cfg.validate().is_err());
        assert!(config(4, 10).validate().is_ok());
    }

    #[test]
    fn dynamic_rebalancing_beats_static_on_early_exit() {
        let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let mut static_trainer = Trainer::new(model.clone(), config(8, 300), static_controller());
        let mut dynamic_trainer = Trainer::new(model.clone(), config(8, 300), dynamic_controller());

        let mut engine_a = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 11);
        let mut engine_b = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 11);
        let static_report = static_trainer.run(&mut engine_a);
        let dynamic_report = dynamic_trainer.run(&mut engine_b);

        assert!(
            dynamic_report.tokens_per_second > static_report.tokens_per_second * 1.2,
            "dynamic {} vs static {}",
            dynamic_report.tokens_per_second,
            static_report.tokens_per_second
        );
        // Rebalancing reduces both idleness and measured imbalance.
        assert!(dynamic_report.average_idleness < static_report.average_idleness);
        assert!(dynamic_report.mean_imbalance < static_report.mean_imbalance);
        assert!(dynamic_report.rebalance_events > 0);
        assert_eq!(static_report.rebalance_events, 0);
        // Overhead stays in the single-digit-percent range the paper claims.
        assert!(dynamic_report.overhead_fraction < 0.1);
    }

    #[test]
    fn diffusion_and_partition_reach_similar_throughput() {
        let model = Model::from_preset(ModelPreset::Gpt { layers: 32 });
        let run = |controller: RebalanceController| {
            let mut trainer = Trainer::new(model.clone(), config(8, 200), controller);
            let mut engine = FreezingEngine::new(&model, FreezingPolicy::paper_default(), 3);
            trainer.run(&mut engine)
        };
        let partition = run(RebalanceController::new(
            Box::new(PartitionBalancer::new()),
            BalanceObjective::ByTime,
            RebalancePolicy::dynamic(),
        ));
        let diffusion = run(RebalanceController::new(
            Box::new(DiffusionBalancer::new()),
            BalanceObjective::ByTime,
            RebalancePolicy::dynamic(),
        ));
        let ratio = diffusion.tokens_per_second / partition.tokens_per_second;
        assert!(ratio > 0.85 && ratio < 1.2, "ratio {ratio}");
    }

    #[test]
    fn repacking_reduces_average_gpu_usage_under_pruning() {
        let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        // Compress the pruning schedule into a short run.
        let schedule = PruningSchedule {
            initial_sparsity: 0.0,
            final_sparsity: 0.9,
            start_iteration: 50,
            frequency: 50,
            num_steps: 4,
        };
        let repack = RepackConfig {
            max_memory: DeviceSpec::h100_sxm5().memory_capacity,
            target_num_workers: 2,
            utilization_cap: 0.9,
        };
        let controller = RebalanceController::new(
            Box::new(PartitionBalancer::new()),
            BalanceObjective::ByTime,
            RebalancePolicy {
                enabled: true,
                frequency: Some(dynmo_dynamics::RebalanceFrequency::EveryN(50)),
                repack: Some(repack),
            },
        );
        let mut trainer = Trainer::new(model.clone(), config(8, 400), controller);
        let mut engine = GradualPruningEngine::new(&model, schedule, 5);
        let report = trainer.run(&mut engine);
        assert!(
            report.average_active_workers < 8.0,
            "average workers {}",
            report.average_active_workers
        );
        assert!(report.final_active_workers < 8);
        assert!(!trainer.job_manager().events().is_empty());
        // Throughput per GPU must not collapse when consolidating.
        assert!(report.tokens_per_second_per_gpu > 0.0);
    }

    #[test]
    fn checkpointing_snapshots_state_and_charges_recovery_overhead() {
        let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let mut trainer = Trainer::new(model.clone(), config(4, 60), dynamic_controller())
            .with_checkpointing(Box::new(dynmo_resilience::MemoryCheckpointStore::new()), 20);
        let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 3);
        let report = trainer.run(&mut engine);
        assert!(report.overhead.recovery > 0.0);
        assert_eq!(report.overhead.recovery_events, 3);
        let store = trainer.checkpoint_store().unwrap();
        assert_eq!(store.iterations(), vec![20, 40, 60]);
        let latest = store.latest().unwrap().unwrap();
        assert_eq!(latest.iteration(), 60);
        let state = latest.verify().unwrap();
        // 24 transformer blocks plus the embedding and head layers.
        assert_eq!(state.layers.len(), 26);
        assert!(state.metrics.contains_key("imbalance"));
        // Without checkpointing the recovery bucket stays empty.
        let mut plain = Trainer::new(model.clone(), config(4, 60), dynamic_controller());
        let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 3);
        let plain_report = plain.run(&mut engine);
        assert_eq!(plain_report.overhead.recovery, 0.0);
        assert!(plain.checkpoint_store().is_none());
    }

    #[test]
    fn advanced_schedules_thread_through_the_trainer() {
        // The interleaved and zero-bubble schedules must run end-to-end
        // through the trainer (profiler → balancer → simulator → report)
        // and, with the same dynamism trajectory (same seed), never produce
        // a larger pipeline bubble than non-interleaved 1F1B.
        let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let run = |schedule: ScheduleKind| {
            let mut cfg = config(4, 60);
            cfg.schedule = schedule;
            let mut trainer = Trainer::new(model.clone(), cfg, dynamic_controller());
            let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 7);
            trainer.run(&mut engine)
        };
        let base = run(ScheduleKind::OneFOneB);
        for schedule in [
            ScheduleKind::Interleaved1F1B { virtual_stages: 2 },
            ScheduleKind::ZeroBubbleH1,
        ] {
            let report = run(schedule);
            assert!(
                report.average_bubble_ratio <= base.average_bubble_ratio + 1e-9,
                "{schedule:?}: bubble {} vs 1F1B {}",
                report.average_bubble_ratio,
                base.average_bubble_ratio
            );
            assert!(report.tokens_per_second >= base.tokens_per_second);
            assert_eq!(report.total_tokens, base.total_tokens);
        }
    }

    #[test]
    fn composite_stack_threads_through_the_trainer() {
        // A pruning + freezing + early-exit stack must run end-to-end, and
        // its merged load (strictly below any single mechanism's) must not
        // break the balancer/simulator path.  Identical stacks produce
        // identical trajectories.
        let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let stack = || -> Vec<Box<dyn DynamismEngine + Send>> {
            let schedule = PruningSchedule {
                initial_sparsity: 0.0,
                final_sparsity: 0.9,
                start_iteration: 20,
                frequency: 20,
                num_steps: 3,
            };
            vec![
                Box::new(GradualPruningEngine::new(&model, schedule, 5)),
                Box::new(FreezingEngine::new(
                    &model,
                    FreezingPolicy {
                        check_interval: 10,
                        first_freeze_iteration: 20,
                        stagger_per_layer: 4,
                        never_freeze_fraction: 0.25,
                        jitter: 0.1,
                    },
                    6,
                )),
                Box::new(EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 7)),
            ]
        };
        let run = || {
            let mut trainer = Trainer::new(model.clone(), config(4, 80), dynamic_controller());
            trainer.run_stack(stack())
        };
        let a = run();
        let b = run();
        assert!(a.dynamism.starts_with("composite["));
        assert!(a.total_tokens > 0);
        assert!(a.rebalance_events > 0);
        assert_eq!(a.trajectory_checksum, b.trajectory_checksum);
        assert_eq!(a.total_tokens, b.total_tokens);
    }

    #[test]
    fn segmented_runs_reproduce_the_unsegmented_trajectory_bit_for_bit() {
        // Chaining run_segment calls (fresh Trainer per chunk, state
        // threaded through) must land on exactly the unsegmented run's
        // accumulators — the property the fleet controller's shared-clock
        // interleaving rests on.
        let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let mut plain = Trainer::new(model.clone(), config(4, 120), dynamic_controller());
        let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 7);
        let full = plain.run(&mut engine);

        let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 7);
        let mut state: Option<dynmo_resilience::TrainerState> = None;
        let mut last: Option<TrainingReport> = None;
        for until in [30u64, 60, 90, 120] {
            let mut trainer = Trainer::new(model.clone(), config(4, 120), dynamic_controller());
            let segment = trainer
                .run_segment(&mut engine, state.as_ref(), until)
                .unwrap();
            assert_eq!(segment.state.iteration, until);
            state = Some(segment.state);
            last = Some(segment.report);
        }
        let segmented = last.unwrap();
        assert_eq!(segmented.trajectory_checksum, full.trajectory_checksum);
        assert_eq!(segmented.total_tokens, full.total_tokens);
        assert_eq!(segmented.total_time.to_bits(), full.total_time.to_bits());
        assert_eq!(segmented.overhead, full.overhead);
        assert_eq!(
            segmented.average_idleness.to_bits(),
            full.average_idleness.to_bits()
        );
    }

    #[test]
    fn rescale_hook_reshapes_the_world_and_charges_recovery() {
        let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 7);
        let mut trainer = Trainer::new(model.clone(), config(8, 80), dynamic_controller());
        let first = trainer.run_segment(&mut engine, None, 40).unwrap();

        let shrunk = rescale_trainer_state(&first.state, 4, 2.5).unwrap();
        assert_eq!(shrunk.world_size, 4);
        assert_eq!(shrunk.assignment.num_stages(), 4);
        assert_eq!(shrunk.assignment.num_layers(), model.num_layers());
        let before = first.state.metrics["total_time"];
        assert!((shrunk.metrics["total_time"] - (before + 2.5)).abs() < 1e-12);
        assert!(
            (shrunk.metrics["overhead_recovery"]
                - (first.state.metrics["overhead_recovery"] + 2.5))
                .abs()
                < 1e-12
        );

        // The shrunken world resumes and finishes on a 4-stage cluster.
        let mut small = Trainer::new(model.clone(), config(4, 80), dynamic_controller());
        let second = small.run_segment(&mut engine, Some(&shrunk), 80).unwrap();
        assert_eq!(second.state.iteration, 80);
        assert_eq!(second.state.world_size, 4);
        assert!(second.report.total_tokens > first.report.total_tokens);
        assert!(second.report.overhead.recovery >= 2.5);

        // Degenerate rescales are rejected.
        assert!(rescale_trainer_state(&first.state, 0, 1.0).is_err());
        assert!(rescale_trainer_state(&first.state, 4, f64::NAN).is_err());
    }

    #[test]
    fn resume_rejects_checkpoints_without_engine_state() {
        let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let mut trainer = Trainer::new(model.clone(), config(4, 60), dynamic_controller());
        let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 3);
        let state = dynmo_resilience::TrainerState {
            iteration: 20,
            world_size: 4,
            assignment: StageAssignment::uniform(26, 4),
            layers: Vec::new(),
            metrics: std::collections::BTreeMap::new(),
            engine: None,
        };
        let err = trainer.resume(&mut engine, &state).unwrap_err();
        assert!(err.contains("no engine state"), "error: {err}");
    }

    #[test]
    fn resume_rejects_checkpoints_from_a_differently_shaped_model() {
        // A same-typed engine on a differently sized model passes the
        // engine-name check; the assignment shape guard must catch it with
        // an Err instead of panicking deep in the loop.
        let small = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let mut donor = Trainer::new(small.clone(), config(4, 40), dynamic_controller())
            .with_checkpointing(Box::new(dynmo_resilience::MemoryCheckpointStore::new()), 20);
        let mut engine = EarlyExitEngine::new(&small, EarlyExitMethod::Calm, 3);
        donor.run(&mut engine);
        let state = donor
            .checkpoint_store()
            .unwrap()
            .latest()
            .unwrap()
            .unwrap()
            .verify()
            .unwrap()
            .clone();

        let large = Model::from_preset(ModelPreset::Gpt { layers: 32 });
        let mut trainer = Trainer::new(large.clone(), config(4, 40), dynamic_controller());
        let mut engine = EarlyExitEngine::new(&large, EarlyExitMethod::Calm, 3);
        let err = trainer.resume(&mut engine, &state).unwrap_err();
        assert!(err.contains("layers"), "error: {err}");
    }

    #[test]
    fn checkpoints_now_carry_the_engine_state() {
        let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let mut trainer = Trainer::new(model.clone(), config(4, 40), dynamic_controller())
            .with_checkpointing(Box::new(dynmo_resilience::MemoryCheckpointStore::new()), 20);
        let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 3);
        trainer.run(&mut engine);
        let latest = trainer
            .checkpoint_store()
            .unwrap()
            .latest()
            .unwrap()
            .unwrap();
        let state = latest.verify().unwrap();
        let engine_state = state.engine.as_ref().expect("engine state captured");
        assert_eq!(engine_state.name, engine.name());
        assert_eq!(engine_state.rng_streams.len(), 1);
        // Resume accumulators are present.
        for key in [
            "total_time",
            "idleness_sum",
            "trajectory_lo",
            "trajectory_hi",
        ] {
            assert!(state.metrics.contains_key(key), "missing metric {key}");
        }
    }

    #[test]
    fn recorder_captures_timelines_and_markers_without_changing_the_report() {
        use dynmo_telemetry::{Event, MemoryRecorder};

        let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let recorder = Arc::new(MemoryRecorder::new());
        let mut traced = Trainer::new(model.clone(), config(4, 120), dynamic_controller())
            .with_checkpointing(Box::new(dynmo_resilience::MemoryCheckpointStore::new()), 40)
            .with_recorder(recorder.clone());
        let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 3);
        let traced_report = traced.run(&mut engine);

        let mut plain = Trainer::new(model.clone(), config(4, 120), dynamic_controller())
            .with_checkpointing(Box::new(dynmo_resilience::MemoryCheckpointStore::new()), 40);
        let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 3);
        let plain_report = plain.run(&mut engine);

        // Enabling the recorder changes nothing simulated — bit for bit.
        assert_eq!(
            traced_report.trajectory_checksum,
            plain_report.trajectory_checksum
        );
        assert_eq!(traced_report.total_tokens, plain_report.total_tokens);
        assert_eq!(
            traced_report.total_time.to_bits(),
            plain_report.total_time.to_bits()
        );
        assert_eq!(traced_report.overhead, plain_report.overhead);

        // ... but the event stream carries the run's structure.
        let events = recorder.snapshot();
        let spans = events
            .iter()
            .filter(|e| matches!(e, Event::Span(_)))
            .count();
        let rebalances = events
            .iter()
            .filter(|e| matches!(e, Event::Instant(i) if i.kind == MarkerKind::Rebalance))
            .count();
        let checkpoints = events
            .iter()
            .filter(|e| matches!(e, Event::Instant(i) if i.kind == MarkerKind::Checkpoint))
            .count();
        assert!(spans > 0, "per-rank op spans recorded");
        assert!(rebalances > 0, "rebalance markers recorded");
        assert_eq!(checkpoints, 3, "one marker per checkpoint");
    }

    #[test]
    fn straggler_detection_downgrades_the_slow_stage_and_records_a_marker() {
        use dynmo_telemetry::{Event, MemoryRecorder};

        // Stage 2 secretly runs 2× slower than its spec.  A static run just
        // eats the slowdown; a dynamic run must detect it, emit exactly one
        // StragglerDetected marker for stage 2, and shift layers off the
        // slow stage for a clearly better throughput.
        let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let injection = vec![1.0, 1.0, 2.0, 1.0];
        let recorder = Arc::new(MemoryRecorder::new());
        // Pin a tight cadence: the engine's own recommendation (every ~100
        // iterations for early exit) would leave half this short run
        // unbalanced and the margin would measure the cadence, not the
        // detector.
        let every10 = || {
            RebalanceController::new(
                Box::new(PartitionBalancer::new()),
                BalanceObjective::ByTime,
                RebalancePolicy {
                    enabled: true,
                    frequency: Some(dynmo_dynamics::RebalanceFrequency::EveryN(10)),
                    repack: None,
                },
            )
        };
        let mut dynamic = Trainer::new(model.clone(), config(4, 200), every10())
            .with_straggler_injection(injection.clone())
            .with_recorder(recorder.clone());
        let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 3);
        let dynamic_report = dynamic.run(&mut engine);

        let mut static_trainer = Trainer::new(model.clone(), config(4, 200), static_controller())
            .with_straggler_injection(injection);
        let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 3);
        let static_report = static_trainer.run(&mut engine);

        let markers: Vec<_> = recorder
            .snapshot()
            .into_iter()
            .filter_map(|e| match e {
                Event::Instant(i) if i.kind == MarkerKind::StragglerDetected => Some(i),
                _ => None,
            })
            .collect();
        assert_eq!(markers.len(), 1, "exactly one straggler confirmed");
        assert!(markers[0].name.contains("stage 2"), "{}", markers[0].name);
        assert!(
            dynamic_report.tokens_per_second > static_report.tokens_per_second * 1.15,
            "dynamic {} vs static {}",
            dynamic_report.tokens_per_second,
            static_report.tokens_per_second
        );
    }

    #[test]
    fn heterogeneous_cluster_rebalancing_beats_the_even_split() {
        // Two generations (H100 + A100) in one pipeline: the device-weighted
        // balancer must beat a static uniform split even with a *static*
        // workload (the imbalance comes from the hardware, not the model).
        let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let cluster = ClusterConfig::hetero_two_gen(2, 4, 1);
        let run = |controller: RebalanceController| {
            let mut cfg = config(4, 100);
            cfg.cluster = cluster.clone();
            let mut trainer = Trainer::new(model.clone(), cfg, controller);
            let mut engine = FreezingEngine::new(&model, FreezingPolicy::paper_default(), 3);
            trainer.run(&mut engine)
        };
        let dynamic = run(RebalanceController::new(
            Box::new(PartitionBalancer::new()),
            BalanceObjective::ByTime,
            RebalancePolicy {
                enabled: true,
                frequency: Some(dynmo_dynamics::RebalanceFrequency::EveryN(10)),
                repack: None,
            },
        ));
        let static_run = run(static_controller());
        assert!(
            dynamic.tokens_per_second > static_run.tokens_per_second * 1.1,
            "dynamic {} vs static {}",
            dynamic.tokens_per_second,
            static_run.tokens_per_second
        );
    }

    #[test]
    fn hetero_cluster_with_equal_devices_matches_homogeneous_bit_for_bit() {
        // The explicit-device path with all-equal specs must take the
        // weighted code and still land on the homogeneous trajectory
        // checksum exactly.
        let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let run = |cluster: ClusterConfig| {
            let mut cfg = config(4, 120);
            cfg.cluster = cluster;
            let mut trainer = Trainer::new(model.clone(), cfg, dynamic_controller());
            let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 3);
            trainer.run(&mut engine)
        };
        let homogeneous = run(small_cluster(4));
        let explicit = run(small_cluster(4).with_devices(vec![DeviceSpec::h100_sxm5(); 4]));
        assert_eq!(
            homogeneous.trajectory_checksum,
            explicit.trajectory_checksum
        );
        assert_eq!(homogeneous.total_tokens, explicit.total_tokens);
    }

    #[test]
    fn report_totals_are_consistent() {
        let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let mut trainer = Trainer::new(model.clone(), config(4, 50), dynamic_controller());
        let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::AdpC, 1);
        let report = trainer.run(&mut engine);
        assert_eq!(report.iterations, 50);
        assert!(report.total_time > 0.0);
        assert_eq!(report.total_tokens, 50 * 16 * 2 * 2048);
        let recomputed = report.total_tokens as f64 / report.total_time;
        assert!((recomputed - report.tokens_per_second).abs() / recomputed < 1e-9);
        assert!(report.average_bubble_ratio >= 0.0 && report.average_bubble_ratio < 1.0);
        assert!(report.overhead_fraction >= 0.0);
    }
}
