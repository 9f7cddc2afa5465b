//! The end-to-end training loop (paper Figure 2).
//!
//! One [`Trainer`] drives: the dynamism engine (model/control-flow change),
//! the profiler (per-layer times & memory), the rebalance controller
//! (balance / re-pack / migrate), the pipeline simulator (iteration time,
//! idleness, bubbles) and the hybrid data-parallel throughput model.  The
//! GPUs a re-pack releases leave the report's active-worker count.  The
//! resulting [`TrainingReport`] carries every quantity the paper's
//! evaluation section plots.
//!
//! A trainer keeps its run live between calls: [`Trainer::advance_to`]
//! continues it and [`Trainer::rescale`] moves it onto a shrunken or grown
//! cluster in place (paper §3.4.2), so an elastic job is one run, not a
//! chain of checkpoint hand-offs.

use std::borrow::Cow;
use std::sync::Arc;

use dynmo_dynamics::DynamismEngine;
use dynmo_model::{ClusterConfig, Model, ModelConfig};
use dynmo_pipeline::memory::inflight_microbatches;
use dynmo_pipeline::{
    load::{aggregate_stage_loads, apply_boundary_sizes},
    metrics::imbalance,
    CommCostModel, HybridThroughputModel, IterationReport, LayerLoad, PipelineSimulator,
    ScheduleKind, StageAssignment, StageLoad,
};
use dynmo_telemetry::{LogLevel, MarkerKind, NullRecorder, Recorder};
use serde::{Deserialize, Serialize};

use dynmo_resilience::{
    Checkpoint, CheckpointCostModel, CheckpointStore, LayerState, TrainerState,
};

use crate::balancer::stage_weights;
use crate::controller::RebalanceController;
use crate::imbalance::ImbalanceHistory;
use crate::overhead::OverheadBreakdown;
use crate::profiler::{profile_layers, profiling_cost};
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
}

impl TrainerConfig {
    /// A configuration mirroring the paper's defaults for the given cluster:
    /// 1F1B schedule, four micro-batches per GPU (per \[20\] in the paper),
    /// mostly-overlapped gradient all-reduce.
    pub fn paper_defaults(cluster: ClusterConfig, num_iterations: u64) -> Self {
        let num_microbatches = cluster.pipeline_stages * 4;
        TrainerConfig {
            cluster,
            schedule: ScheduleKind::OneFOneB,
            num_iterations,
            num_microbatches,
            allreduce_overlap: 0.8,
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
        // One stage index per layer, in layer order.
        for (stage, layers) in assignment.ranges().enumerate() {
            for _ in layers {
                self.push_bytes(&(stage as u64).to_le_bytes());
            }
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

/// What a run derives from its cluster: the comm, pipeline and throughput
/// models and the per-stage device speeds and memory capacities.  Built
/// when a run starts and rebuilt when it is rescaled.
struct ClusterModels {
    comm: CommCostModel,
    simulator: PipelineSimulator,
    hybrid: HybridThroughputModel,
    /// Stage speeds relative to the reference device (all 1.0 on a
    /// homogeneous cluster), which the balancer weighs layers by.
    stage_speeds: Vec<f64>,
    stage_capacities: Vec<u64>,
    /// Per-stage compute stretch the simulator applies: `1.0 / speed`.
    slowdowns: Vec<f64>,
}

impl ClusterModels {
    fn new(config: &TrainerConfig) -> Self {
        let comm = CommCostModel::new(config.cluster.clone());
        let stage_speeds = config.cluster.stage_speeds();
        ClusterModels {
            simulator: PipelineSimulator::new(comm.clone(), config.schedule),
            hybrid: HybridThroughputModel::new(comm.clone(), config.allreduce_overlap),
            comm,
            slowdowns: stage_speeds.iter().map(|speed| 1.0 / speed).collect(),
            stage_speeds,
            stage_capacities: config.cluster.stage_capacities(),
        }
    }
}

/// The live state of one run: every accumulator the report and a
/// checkpoint's resume metrics are built from, plus the models built from
/// the cluster.  It persists between [`Trainer::advance_to`] calls, so a
/// run advanced in chunks is the same run as one advanced at once.
struct RunState {
    /// Iterations completed, i.e. the next iteration to execute.
    iteration: u64,
    cluster: ClusterModels,
    /// The layout in effect: one stage per active worker.
    assignment: StageAssignment,
    loads: Vec<LayerLoad>,
    /// Profile at the next iteration even if the engine reports no change:
    /// set when the run starts and when it is rescaled.
    reprofile: bool,
    /// Re-simulate the pipeline at the next iteration.
    dirty: bool,
    overhead: OverheadBreakdown,
    imbalance_history: ImbalanceHistory,
    total_time: f64,
    total_tokens: u64,
    idleness_sum: f64,
    bubble_sum: f64,
    active_worker_iterations: f64,
    cached_iteration_time: f64,
    cached_idleness: f64,
    cached_bubble: f64,
    cached_imbalance: f64,
    cached_tokens: u64,
    trajectory: TrajectoryHash,
}

impl RunState {
    /// The restorable payload of a snapshot — layers, assignment, engine
    /// state — with empty metrics.  A checkpoint's simulated write cost is
    /// priced on this payload alone, so the price never depends on
    /// bookkeeping size.
    fn payload(&self, engine: &dyn DynamismEngine) -> TrainerState {
        let layers: Vec<LayerState> = self
            .loads
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
            iteration: self.iteration,
            assignment: self.assignment.clone(),
            layers,
            metrics: std::collections::BTreeMap::new(),
            engine: Some(engine.export_state()),
        }
    }

    /// Record every resume accumulator in `state`'s metrics.  Total time and
    /// overhead are given explicitly: a checkpoint carries the totals that
    /// include its own write.
    fn fill_metrics(
        &self,
        state: &mut TrainerState,
        total_time: f64,
        overhead: &OverheadBreakdown,
    ) {
        let mut put = |key: &str, value: f64| state.metrics.insert(key.into(), value);
        let hash = self.trajectory.value();
        put(metric_keys::IMBALANCE, self.cached_imbalance);
        put(metric_keys::TOTAL_TIME, total_time);
        put(metric_keys::TOTAL_TOKENS, self.total_tokens as f64);
        put(metric_keys::IDLENESS_SUM, self.idleness_sum);
        put(metric_keys::BUBBLE_SUM, self.bubble_sum);
        put(
            metric_keys::ACTIVE_WORKER_ITERATIONS,
            self.active_worker_iterations,
        );
        put(metric_keys::TRAJECTORY_LO, (hash & 0xFFFF_FFFF) as f64);
        put(metric_keys::TRAJECTORY_HI, (hash >> 32) as f64);
        put(metric_keys::OV_PROFILING, overhead.profiling);
        put(metric_keys::OV_ALGORITHM, overhead.algorithm);
        put(metric_keys::OV_MIGRATION, overhead.migration);
        put(metric_keys::OV_RECOVERY, overhead.recovery);
        put(
            metric_keys::OV_REBALANCE_EVENTS,
            overhead.rebalance_events as f64,
        );
        put(
            metric_keys::OV_RECOVERY_EVENTS,
            overhead.recovery_events as f64,
        );
        for &(it, value) in self.imbalance_history.samples() {
            put(&format!("{}{it}", metric_keys::IMBALANCE_AT_PREFIX), value);
        }
    }

    /// Rewind this fresh run to the snapshot `state`: layout (and with it
    /// the active workers), iteration and every report accumulator.
    fn restore(&mut self, state: &TrainerState) -> Result<(), String> {
        let metric = |key: &str| {
            let value = state.metrics.get(key).copied();
            value.ok_or_else(|| format!("checkpoint is missing the '{key}' metric"))
        };
        self.assignment = state.assignment.clone();
        self.iteration = state.iteration;
        self.total_time = metric(metric_keys::TOTAL_TIME)?;
        self.total_tokens = metric(metric_keys::TOTAL_TOKENS)? as u64;
        self.idleness_sum = metric(metric_keys::IDLENESS_SUM)?;
        self.bubble_sum = metric(metric_keys::BUBBLE_SUM)?;
        self.active_worker_iterations = metric(metric_keys::ACTIVE_WORKER_ITERATIONS)?;
        self.cached_imbalance = metric(metric_keys::IMBALANCE)?;
        let lo = metric(metric_keys::TRAJECTORY_LO)? as u64;
        let hi = metric(metric_keys::TRAJECTORY_HI)? as u64;
        self.trajectory = TrajectoryHash::from_u64(lo | (hi << 32));
        self.overhead = OverheadBreakdown {
            profiling: metric(metric_keys::OV_PROFILING)?,
            algorithm: metric(metric_keys::OV_ALGORITHM)?,
            migration: metric(metric_keys::OV_MIGRATION)?,
            recovery: metric(metric_keys::OV_RECOVERY)?,
            rebalance_events: metric(metric_keys::OV_REBALANCE_EVENTS)? as u64,
            recovery_events: metric(metric_keys::OV_RECOVERY_EVENTS)? as u64,
        };
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
            self.imbalance_history.record(it, value);
        }
        Ok(())
    }
}

/// The end-to-end training loop.
///
/// A trainer holds at most one live run.  [`Trainer::advance_to`] starts it
/// (on first use) and continues it; [`Trainer::rescale`] reshapes it onto a
/// new cluster in place; [`Trainer::snapshot`] exports it in the checkpoint
/// format.  [`Trainer::run`] and [`Trainer::resume`] each start a fresh run
/// and drive it to the configured iteration count.
pub struct Trainer {
    config: TrainerConfig,
    model: Model,
    controller: RebalanceController,
    initial_assignment: Option<StageAssignment>,
    checkpointing: Option<Checkpointing>,
    recorder: Arc<dyn Recorder>,
    run: Option<RunState>,
}

impl Trainer {
    /// Build a trainer for `model` under `config`, using `controller` for
    /// balancing decisions.
    pub fn new(model: Model, config: TrainerConfig, controller: RebalanceController) -> Self {
        config.validate().expect("invalid trainer configuration");
        Trainer {
            config,
            model,
            controller,
            initial_assignment: None,
            checkpointing: None,
            recorder: Arc::new(NullRecorder),
            run: None,
        }
    }

    /// Attach a telemetry recorder.  Each newly simulated iteration's
    /// per-rank op timeline is recorded as spans on group 0 (offset by the
    /// simulated clock so iterations tile into continuous tracks), with
    /// instant markers for rebalance and checkpoint events and log events
    /// replacing stderr warnings.  Everything recorded is simulated-time
    /// data: enabling a recorder never changes a report, a checksum, or a
    /// sweep artifact.  Op spans are built only for an enabled recorder; a
    /// disabled one still sees `record_iteration` for every simulated
    /// iteration, with empty timelines.
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

    /// The trainer's configuration (its cluster follows every rescale).
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Iterations the live run has completed (0 before a run starts).
    pub fn iteration(&self) -> u64 {
        self.run.as_ref().map_or(0, |run| run.iteration)
    }

    /// Simulated seconds the live run has taken so far (0 before a run
    /// starts).
    pub fn total_time(&self) -> f64 {
        self.run.as_ref().map_or(0.0, |run| run.total_time)
    }

    /// The live run's cumulative report, or `None` before a run starts.
    pub fn report(&self, engine: &dyn DynamismEngine) -> Option<TrainingReport> {
        self.run.as_ref().map(|run| self.report_of(run, engine))
    }

    /// Run `engine` for the configured number of iterations and report.
    pub fn run(&mut self, engine: &mut dyn DynamismEngine) -> TrainingReport {
        self.run = None;
        self.advance_to(engine, self.config.num_iterations)
            .expect("a fresh run covers the configured iterations")
    }

    /// Resume a run from a checkpointed [`TrainerState`]: the engine's
    /// internal state (every sub-engine's RNG streams and masks, for a
    /// composed stack) is restored from the snapshot, the layout (and with
    /// it the active-worker count) and all report accumulators are rewound
    /// to the checkpoint, and the remaining iterations are replayed.  The
    /// replay reproduces the original run's simulated trajectory
    /// bit-for-bit: the resumed report's `trajectory_checksum` equals the
    /// failure-free run's.
    ///
    /// Fails if the snapshot carries no engine state, the engine state does
    /// not match `engine`, or a resume accumulator is missing (a v1-style
    /// checkpoint).
    pub fn resume(
        &mut self,
        engine: &mut dyn DynamismEngine,
        state: &TrainerState,
    ) -> Result<TrainingReport, String> {
        let engine_state = state
            .engine
            .as_ref()
            .ok_or("checkpoint carries no engine state; cannot resume the dynamism stack")?;
        if state.iteration > self.config.num_iterations {
            return Err(format!(
                "checkpoint is at iteration {} but the run only has {}",
                state.iteration, self.config.num_iterations
            ));
        }
        // The engine-name check cannot catch a same-typed engine on a
        // differently sized model; the assignment shape can.
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
        let mut run = self.fresh_run();
        run.restore(state)?;
        engine.import_state(engine_state)?;
        self.run = Some(run);
        self.advance_to(engine, self.config.num_iterations)
    }

    /// Advance the live run to iteration `until` and return its cumulative
    /// report.  The first call starts a fresh run at iteration 0; later
    /// calls continue where the last one stopped, with every accumulator
    /// and model carried over, so advancing in chunks reproduces one
    /// uninterrupted run bit for bit.  Pass the same `engine` every time.
    ///
    /// Fails if `until` is behind the run or beyond the configured
    /// iterations.
    pub fn advance_to(
        &mut self,
        engine: &mut dyn DynamismEngine,
        until: u64,
    ) -> Result<TrainingReport, String> {
        let done = self.iteration();
        if until < done || until > self.config.num_iterations {
            return Err(format!(
                "cannot advance from iteration {done} to {until} in a run of {} iterations",
                self.config.num_iterations
            ));
        }
        let mut run = self.run.take().unwrap_or_else(|| self.fresh_run());
        while run.iteration < until {
            self.step(&mut run, engine);
        }
        let report = self.report_of(&run, engine);
        self.run = Some(run);
        Ok(report)
    }

    /// Reshape the live run onto `cluster` at the current iteration — an
    /// elastic shrink or grow.  The layers are laid out uniformly over the
    /// new world (the rebalance controller balances them at its next due
    /// iteration); the models are rebuilt for the new cluster; and `cost`
    /// simulated seconds (the checkpoint write and communicator rebuild the
    /// move pays) are charged to the total time and the recovery bucket as
    /// one recovery event.  The trajectory
    /// checksum hashes per-iteration quantities only, so outside the
    /// rescale a shrunken-and-regrown run stays bit-identical to an
    /// undisturbed one.
    ///
    /// Fails, changing nothing, if no run is live, the new configuration is
    /// invalid (for example zero stages), `cost` is not finite and ≥ 0, or
    /// the initial assignment does not fit the new world.
    pub fn rescale(&mut self, cluster: ClusterConfig, cost: f64) -> Result<(), String> {
        if !cost.is_finite() || cost < 0.0 {
            return Err(format!("rescale cost {cost} must be finite and ≥ 0"));
        }
        let config = TrainerConfig {
            cluster,
            ..self.config.clone()
        };
        config.validate()?;
        let stages = config.cluster.pipeline_stages;
        if let Some(initial) = &self.initial_assignment {
            if initial.num_stages() > stages {
                return Err(format!(
                    "initial assignment uses {} stages, more than the new world's {stages}",
                    initial.num_stages()
                ));
            }
        }
        let run = self.run.as_mut().ok_or("no live run to rescale")?;
        run.cluster = ClusterModels::new(&config);
        run.assignment = StageAssignment::uniform(self.model.num_layers(), stages);
        run.total_time += cost;
        run.overhead.record_recovery(cost);
        run.reprofile = true;
        self.config = config;
        Ok(())
    }

    /// The live run's full boundary snapshot: the checkpoint payload plus
    /// every resume accumulator, in the format [`Trainer::resume`] restores.
    /// Fails before the run has executed an iteration.
    pub fn snapshot(&self, engine: &dyn DynamismEngine) -> Result<TrainerState, String> {
        let run = self
            .run
            .as_ref()
            .filter(|run| !run.loads.is_empty())
            .ok_or("cannot snapshot a run before any iteration ran")?;
        let mut state = run.payload(engine);
        run.fill_metrics(&mut state, run.total_time, &run.overhead);
        Ok(state)
    }

    fn fresh_run(&self) -> RunState {
        let assignment = self.initial_assignment.clone().unwrap_or_else(|| {
            StageAssignment::uniform(self.model.num_layers(), self.config.cluster.pipeline_stages)
        });
        RunState {
            iteration: 0,
            cluster: ClusterModels::new(&self.config),
            assignment,
            loads: Vec::new(),
            reprofile: true,
            dirty: true,
            overhead: OverheadBreakdown::new(),
            imbalance_history: ImbalanceHistory::new(),
            total_time: 0.0,
            total_tokens: 0,
            idleness_sum: 0.0,
            bubble_sum: 0.0,
            active_worker_iterations: 0.0,
            cached_iteration_time: 0.0,
            cached_idleness: 0.0,
            cached_bubble: 0.0,
            cached_imbalance: 0.0,
            cached_tokens: 0,
            trajectory: TrajectoryHash::new(),
        }
    }

    /// Execute the live run's next iteration.
    fn step(&mut self, run: &mut RunState, engine: &mut dyn DynamismEngine) {
        let iteration = run.iteration;
        let model_cfg = self.model.config();
        let update = engine.step(iteration);
        if update.changed || run.reprofile {
            run.loads = profile_layers(&self.model, &update, &self.config.cluster.device);
            run.reprofile = false;
            run.dirty = true;
        }
        let cluster = &mut run.cluster;

        // Rebalance when due (black-box fixed cadence, §3.2).
        if self
            .controller
            .is_due(iteration, engine.rebalance_frequency())
        {
            let active_workers = run.assignment.num_stages();
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
            let outcome = self.controller.rebalance(
                &run.assignment,
                &run.loads,
                self.config.cluster.device.memory_capacity,
                &inflight,
                &cluster.comm,
                self.config.num_microbatches,
                &cluster.stage_speeds,
                &cluster.stage_capacities,
            );
            let profiling_cost = profiling_cost(&run.loads);
            run.overhead.record(
                profiling_cost,
                outcome.algorithm_time,
                outcome.migration_time,
            );
            run.total_time += profiling_cost + outcome.algorithm_time + outcome.migration_time;
            if self.recorder.enabled() {
                self.recorder.instant(
                    0,
                    MarkerKind::Rebalance,
                    &format!("iter {iteration}"),
                    run.total_time,
                    &[
                        ("iteration", iteration.to_string()),
                        (
                            "active_workers",
                            outcome.assignment.num_stages().to_string(),
                        ),
                        ("released", outcome.released_workers.len().to_string()),
                        ("migrated_layers", outcome.migration.num_moves().to_string()),
                        ("rounds", outcome.rounds.to_string()),
                    ],
                );
            }
            if outcome.assignment != run.assignment {
                run.dirty = true;
            }
            run.assignment = outcome.assignment;
        }

        // Re-simulate the pipeline only when something changed.
        if run.dirty {
            let mut stage_loads = aggregate_stage_loads(&run.loads, &run.assignment);
            // Mechanisms that remove tokens (early exit) shrink the
            // boundary tensors of every stage behind the exit point,
            // and with them the pipeline's wire cost.
            apply_boundary_sizes(
                &mut stage_loads,
                &run.assignment,
                &update.token_retention,
                cluster.comm.activation_bytes(model_cfg),
            );
            // A slow device stretches its stage's compute times in the
            // simulated pipeline (a factor of exactly 1.0 on a homogeneous
            // cluster).
            for (load, &factor) in stage_loads.iter_mut().zip(&cluster.slowdowns) {
                load.fwd_time *= factor;
                load.bwd_time *= factor;
            }
            let m = self.config.num_microbatches;
            let report = simulate_for(
                &*self.recorder,
                &mut cluster.simulator,
                model_cfg,
                &stage_loads,
                m,
            );
            // Trace the freshly simulated timeline (iterations between
            // changes reuse it, so the trace records keyframes — one
            // span set per distinct pipeline shape).
            self.recorder
                .record_iteration(0, iteration, run.total_time, &report);
            let throughput = cluster
                .hybrid
                .throughput(model_cfg, &report, &stage_loads, m);
            run.cached_iteration_time = throughput.iteration_time;
            run.cached_idleness = report.average_idleness();
            run.cached_bubble = report.bubble_ratio();
            run.cached_tokens = throughput.tokens_per_iteration;
            run.cached_imbalance = imbalance(&stage_weights(
                &run.assignment,
                &run.loads,
                self.controller.objective(),
            ));
            run.dirty = false;
        }

        run.total_time += run.cached_iteration_time + engine.extra_overhead(iteration);
        run.total_tokens += run.cached_tokens;
        run.idleness_sum += run.cached_idleness;
        run.bubble_sum += run.cached_bubble;
        run.active_worker_iterations += run.assignment.num_stages() as f64;
        run.trajectory.record_iteration(
            iteration,
            run.cached_iteration_time,
            run.cached_tokens,
            run.cached_imbalance,
            &run.assignment,
        );
        if iteration.is_multiple_of(100) {
            run.imbalance_history
                .record(iteration, run.cached_imbalance);
        }
        run.iteration = iteration + 1;

        // Periodic checkpoint: snapshot the restorable state and charge the
        // simulated write into the recovery overhead bucket.  The cost is
        // priced on the payload (layers + assignment + engine state); the
        // resume metrics are a few dozen scalars and are deliberately
        // excluded so the price does not depend on bookkeeping size.  The
        // snapshot carries the *post-charge* totals (so a resumed run's
        // accumulators include this write exactly as the original run's
        // do), but they are only committed once the save lands — a failed
        // save stays free.
        if let Some(checkpointing) = &mut self.checkpointing {
            if run.iteration.is_multiple_of(checkpointing.interval) {
                let mut state = run.payload(engine);
                let cost = checkpointing.cost_model.write_cost(state.size_bytes());
                let charged_total_time = run.total_time + cost;
                let mut charged_overhead = run.overhead;
                charged_overhead.record_recovery(cost);
                run.fill_metrics(&mut state, charged_total_time, &charged_overhead);
                let saved = Checkpoint::new(state)
                    .map_err(|err| format!("not taken: {err}"))
                    .and_then(|checkpoint| {
                        checkpointing
                            .store
                            .save(&checkpoint)
                            .map_err(|err| format!("not saved: {err}"))
                    });
                match saved {
                    Ok(()) => {
                        checkpointing.store.retain_last(checkpointing.keep);
                        run.overhead = charged_overhead;
                        run.total_time = charged_total_time;
                        if self.recorder.enabled() {
                            self.recorder.instant(
                                0,
                                MarkerKind::Checkpoint,
                                &format!("iter {}", run.iteration),
                                run.total_time,
                                &[
                                    ("iteration", run.iteration.to_string()),
                                    ("simulated_cost_s", format!("{cost:.6}")),
                                ],
                            );
                        }
                    }
                    Err(why) => self.recorder.log(
                        LogLevel::Warn,
                        &format!("checkpoint at iteration {} {why}", run.iteration),
                    ),
                }
            }
        }
    }

    fn report_of(&self, run: &RunState, engine: &dyn DynamismEngine) -> TrainingReport {
        let iterations = run.iteration;
        let total_time = run.total_time;
        let total_tokens = run.total_tokens;
        let overhead = run.overhead;
        let tokens_per_second = if total_time > 0.0 {
            total_tokens as f64 / total_time
        } else {
            0.0
        };
        // An empty run averages over one iteration, reporting zeros.
        let averaged = iterations.max(1) as f64;
        let average_active_workers = run.active_worker_iterations / averaged;
        let data_parallel = self.config.cluster.data_parallel;
        let gpu_seconds = average_active_workers * data_parallel as f64 * total_time;
        TrainingReport {
            balancer: self.controller.name(),
            dynamism: engine.name(),
            iterations,
            total_time,
            total_tokens,
            tokens_per_second,
            average_idleness: run.idleness_sum / averaged,
            average_bubble_ratio: run.bubble_sum / averaged,
            mean_imbalance: run.imbalance_history.mean(),
            final_imbalance: run.cached_imbalance,
            overhead,
            overhead_fraction: overhead.fraction_of(total_time),
            rebalance_events: overhead.rebalance_events,
            average_active_workers,
            final_active_workers: run.assignment.num_stages() * data_parallel
                / data_parallel.max(1),
            gpu_seconds,
            tokens_per_second_per_gpu: if gpu_seconds > 0.0 {
                total_tokens as f64 / gpu_seconds
            } else {
                0.0
            },
            trajectory_checksum: run.trajectory.value(),
        }
    }
}

/// Simulate one iteration of `num_microbatches` micro-batches for
/// `recorder`.  Only an enabled recorder reads op spans, so only it pays
/// for them: a disabled one gets the lean pass
/// ([`PipelineSimulator::simulate_timing`]), whose report has empty
/// timelines.
pub fn simulate_for<'s>(
    recorder: &dyn Recorder,
    simulator: &'s mut PipelineSimulator,
    model: &ModelConfig,
    stage_loads: &[StageLoad],
    num_microbatches: usize,
) -> Cow<'s, IterationReport> {
    if recorder.enabled() {
        Cow::Owned(simulator.simulate(model, stage_loads, num_microbatches))
    } else {
        Cow::Borrowed(simulator.simulate_timing(model, stage_loads, num_microbatches))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::{BalanceObjective, DiffusionBalancer, PartitionBalancer};
    use crate::controller::RebalancePolicy;
    use dynmo_dynamics::{
        ComposedEngine, EarlyExitEngine, EarlyExitMethod, FreezingEngine, FreezingPolicy,
        GradualPruningEngine, PruningSchedule,
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
        RebalanceController::static_split()
    }

    /// Partition by time on a pinned cadence of every `n` iterations.
    fn every_n_controller(n: u64) -> RebalanceController {
        RebalanceController::new(
            Box::new(PartitionBalancer::new()),
            BalanceObjective::ByTime,
            RebalancePolicy {
                frequency: Some(dynmo_dynamics::RebalanceFrequency::EveryN(n)),
                repack: false,
            },
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
        let controller = RebalanceController::new(
            Box::new(PartitionBalancer::new()),
            BalanceObjective::ByTime,
            RebalancePolicy {
                frequency: Some(dynmo_dynamics::RebalanceFrequency::EveryN(50)),
                repack: true,
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
            trainer.run(&mut ComposedEngine::new(stack()).unwrap())
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
        // Advancing one trainer in chunks must land on exactly the
        // uninterrupted run's accumulators — the property the fleet
        // controller's shared-clock interleaving rests on.
        let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let mut plain = Trainer::new(model.clone(), config(4, 120), dynamic_controller());
        let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 7);
        let full = plain.run(&mut engine);

        let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 7);
        let mut trainer = Trainer::new(model.clone(), config(4, 120), dynamic_controller());
        let mut last: Option<TrainingReport> = None;
        for until in [30u64, 60, 90, 120] {
            last = Some(trainer.advance_to(&mut engine, until).unwrap());
            assert_eq!(trainer.iteration(), until);
            assert_eq!(trainer.snapshot(&engine).unwrap().iteration, until);
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
        let first = trainer.advance_to(&mut engine, 40).unwrap();
        let before = trainer.snapshot(&engine).unwrap();

        trainer.rescale(small_cluster(4), 2.5).unwrap();
        let shrunk = trainer.snapshot(&engine).unwrap();
        assert_eq!(shrunk.iteration, 40);
        assert_eq!(shrunk.assignment.num_stages(), 4);
        assert_eq!(shrunk.assignment.num_layers(), model.num_layers());
        assert_eq!(trainer.config().cluster.pipeline_stages, 4);
        assert_eq!(
            shrunk.metrics["total_time"],
            before.metrics["total_time"] + 2.5
        );
        assert_eq!(trainer.total_time(), before.metrics["total_time"] + 2.5);
        assert_eq!(
            shrunk.metrics["overhead_recovery"],
            before.metrics["overhead_recovery"] + 2.5
        );
        assert_eq!(
            shrunk.metrics["overhead_recovery_events"],
            before.metrics["overhead_recovery_events"] + 1.0
        );

        // The shrunken world continues and finishes on a 4-stage cluster.
        let second = trainer.advance_to(&mut engine, 80).unwrap();
        let end = trainer.snapshot(&engine).unwrap();
        assert_eq!(end.iteration, 80);
        assert_eq!(end.assignment.num_stages(), 4);
        assert!(second.total_tokens > first.total_tokens);
        assert!(second.overhead.recovery >= 2.5);
        // 40 iterations on 8 workers, then 40 on 4: the worker count spans
        // the whole run, not only the world after the rescale.
        assert_eq!(second.average_active_workers, 6.0);
        assert_eq!(second.final_active_workers, 4);
    }

    #[test]
    fn rescales_the_trainer_cannot_honour_are_errors_that_change_nothing() {
        let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 7);
        let mut trainer = Trainer::new(model.clone(), config(4, 40), dynamic_controller())
            .with_initial_assignment(StageAssignment::uniform(model.num_layers(), 4));
        // Nothing to reshape before the run starts.
        assert!(trainer.rescale(small_cluster(4), 1.0).is_err());
        trainer.advance_to(&mut engine, 20).unwrap();
        let before = trainer.snapshot(&engine).unwrap();

        let mut no_stages = small_cluster(4);
        no_stages.pipeline_stages = 0;
        assert!(trainer.rescale(no_stages, 1.0).is_err());
        for cost in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(trainer.rescale(small_cluster(4), cost).is_err(), "{cost}");
        }
        // The initial assignment uses four stages, more than two.
        assert!(trainer.rescale(small_cluster(2), 1.0).is_err());
        assert_eq!(trainer.snapshot(&engine).unwrap(), before);
        assert_eq!(trainer.config().cluster.pipeline_stages, 4);

        // Advancing backwards or past the configured run is refused too.
        assert!(trainer.advance_to(&mut engine, 10).is_err());
        assert!(trainer.advance_to(&mut engine, 41).is_err());
        assert_eq!(trainer.iteration(), 20);
        assert_eq!(trainer.advance_to(&mut engine, 40).unwrap().iterations, 40);
    }

    #[test]
    fn resume_rejects_checkpoints_without_engine_state() {
        let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let mut trainer = Trainer::new(model.clone(), config(4, 60), dynamic_controller());
        let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 3);
        let state = dynmo_resilience::TrainerState {
            iteration: 20,
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
        let events = recorder.take();
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
    fn heterogeneous_cluster_rebalancing_beats_the_even_split() {
        // Two generations (H100 + A100) in one pipeline: the device-weighted
        // balancer must beat a static uniform split even with a *static*
        // workload (the imbalance comes from the hardware, not the model).
        let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let (h100, a100) = (DeviceSpec::h100_sxm5(), DeviceSpec::a100_sxm4());
        let cluster =
            ClusterConfig::homogeneous(2, 4, 1, h100).with_devices(vec![h100, h100, a100, a100]);
        let run = |controller: RebalanceController| {
            let mut cfg = config(4, 100);
            cfg.cluster = cluster.clone();
            let mut trainer = Trainer::new(model.clone(), cfg, controller);
            let mut engine = FreezingEngine::new(&model, FreezingPolicy::paper_default(), 3);
            trainer.run(&mut engine)
        };
        let dynamic = run(every_n_controller(10));
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
        // A cluster of all-equal explicit specs must land on the
        // homogeneous trajectory checksum exactly.
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
