//! The serving engine: replicated pipelines, continuous batching, elastic
//! autoscaling.
//!
//! A deployment is `r` *replicas*, each a `p`-stage pipeline holding the
//! whole model (layers placed by one of DynMo's balancers, subject to the
//! device memory capacity).  Requests wait in a single FCFS gateway
//! queue, and whichever replica is ready first pulls from it through
//! admission control — so a replica provisioned mid-spike immediately
//! relieves the shared backlog.  Each replica runs vLLM-style engine
//! steps formed by its [`crate::batching::ContinuousBatcher`], and each
//! step is priced by the pipeline simulator's forward-only recurrence
//! ([`PipelineSimulator::forward_makespan`], no DAG and no report): the
//! step's batch is split into micro-batches that flow down the pipeline
//! paying per-boundary α–β communication costs.  Pricing refills stage
//! loads the engine owns, the simulator reuses its own row, and the
//! batcher's plan is two counts that its commit spends in place, so a warm
//! step allocates nothing; a step without a dynamism engine reuses the
//! identity update the deployment already holds.
//!
//! At that identity update a step's price depends only on its replica's
//! layout, fixed for the replica's life, and on the plan, so each replica
//! keeps the plan and price of its latest identity step, and an identity
//! step with the same plan (a run of equal decode steps) reuses the price
//! instead of walking the layers and running the recurrence again.  The
//! reuse is exact: the same function of the same inputs gives the same
//! bits.  A step under a dynamism engine is always priced.
//!
//! The dynamism engines plug in through their in-place inference hook
//! ([`DynamismEngine::inference_step_into`]): per engine step the engine
//! writes the deployment's one `LoadUpdate`, which rescales every layer's
//! per-token forward time (MoE routing skew, early-exit survival) and
//! shrinks boundary tensors via token retention — so CALM-style early exit
//! directly shortens decode work and wire bytes, exactly as it shortened
//! training iterations.  Early exit refills the buffers in place, so a
//! warm step under CALM allocates nothing either; an engine that keeps the
//! hook's default replaces them with a fresh update each step.
//!
//! Replicas come and go through one lifecycle: *add* lays a replica out
//! with the configured balancer (re-partitioning against the *current*
//! dynamism state) and brings it online after a provisioning delay,
//! *begin-drain* stops the least-loaded live replica taking new work, and
//! *reclaim* releases drained replicas' GPUs — the paper's elastic release
//! run in reverse.  A reclaimed replica leaves the engine's replica set,
//! its token counters folded into the deployment's totals, so per-step
//! scans cost what the live and draining replicas cost; each replica keeps
//! its creation-order id as its record tag and span lane.  The deployment's
//! own autoscaler (`ServingEngine::autoscale`, configured by
//! [`ServingConfig::autoscaler`]) drives it from the TTFT target; on a
//! deployment built with [`ServingEngine::external`] an outside owner (a
//! fleet controller's shared pool) drives it through the session instead.
//! Either way the deployment keeps the state both loops read: one
//! [`TtftWindow`] of completed requests, fed as each step commits, and the
//! time of its latest scaling action (a replica added or a drain begun),
//! which the cooldowns count from.  One time-weighted meter on the
//! [`fleet_clock`] axis counts the GPUs the replicas hold, and `mean_gpus`
//! is its mean over the run.

use dynmo_core::balancer::{
    BalanceObjective, BalanceRequest, DiffusionBalancer, LoadBalancer, PartitionBalancer,
};
use dynmo_core::profiler::profile_layers;
use dynmo_dynamics::{DynamismEngine, LoadUpdate};
use dynmo_model::ClusterConfig;
use dynmo_model::{DeviceSpec, KvCacheModel, Model, ModelPreset};
use dynmo_pipeline::load::StageLoad;
use dynmo_pipeline::{CommCostModel, PipelineSimulator, ScheduleKind, StageAssignment};
use dynmo_telemetry::{MarkerKind, NullRecorder, Recorder, StreamingSummary};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

use crate::autoscale::{
    AutoscalerConfig, ScaleEvent, TtftWindow, CHECK_INTERVAL, COOLDOWN, PROVISION_DELAY,
    SCALE_IN_FRACTION, WINDOW,
};
use crate::batching::{ContinuousBatcher, StepPlan};
use crate::metrics::{LatencySummary, RequestRecord, ServingReport, SloTarget};
use crate::trace::RequestTrace;

/// Cost of one decode token relative to one prefill token: decode is
/// memory-bound, so > 1 on real accelerators.
const DECODE_COST_FACTOR: f64 = 4.0;

/// Fraction of a stage's post-weights device memory given to the KV cache.
const KV_MEMORY_FRACTION: f64 = 0.8;

/// Which balancer family lays out replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServeBalancerKind {
    /// Centralized contiguous partitioning (by execution time).
    Partition,
    /// Decentralized diffusion (by execution time).
    Diffusion,
}

impl ServeBalancerKind {
    /// Label for reports and sweep rows.
    pub fn label(&self) -> &'static str {
        match self {
            ServeBalancerKind::Partition => "partition",
            ServeBalancerKind::Diffusion => "diffusion",
        }
    }

    fn build(&self) -> Box<dyn LoadBalancer> {
        match self {
            ServeBalancerKind::Partition => Box::new(PartitionBalancer::new()),
            ServeBalancerKind::Diffusion => Box::new(DiffusionBalancer::new()),
        }
    }
}

/// Full description of a serving deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingConfig {
    /// Tenant identity carried into reports, fleet ledger owner tags, and
    /// telemetry (a multi-tenant fleet runs one deployment per tenant).
    pub tenant: String,
    /// Model served by every replica.
    pub preset: ModelPreset,
    /// Pipeline stages (GPUs) per replica.
    pub stages: usize,
    /// GPUs per node (for the α–β link locality of the comm model).
    pub gpus_per_node: usize,
    /// Accelerator every worker runs on.
    pub device: DeviceSpec,
    /// Replicas online at t = 0.
    pub initial_replicas: usize,
    /// Hard ceiling on replicas holding GPUs, draining ones included
    /// (fixed-capacity deployments set this equal to `initial_replicas`).
    pub max_replicas: usize,
    /// Balancer family laying out each replica's stages.
    pub balancer: ServeBalancerKind,
    /// Micro-batches one engine step is split into as it flows down the
    /// pipeline (1 = no intra-step pipelining).
    pub microbatches: usize,
    /// The SLO goodput is measured against.
    pub slo: SloTarget,
    /// Autoscaler policy; `None` = fixed capacity.
    pub autoscaler: Option<AutoscalerConfig>,
    /// Keep per-request lifecycle records in the report.  `false` drops
    /// them as they complete, so a run's memory stays O(1) in trace length
    /// (the summaries, counters, and goodput are unaffected: they are
    /// accumulated online).
    pub retain_records: bool,
}

impl ServingConfig {
    /// A small fixed-capacity deployment used by tests and examples:
    /// GPT-24 on 4-stage replicas of modest accelerators
    /// ([`DeviceSpec::test_device`]), chat SLOs.  The modest device keeps
    /// one replica's capacity at a few requests/second, so the congestion
    /// regimes the autoscaler exists for appear at trace scales that
    /// simulate in milliseconds (an H100 fleet serving a 350M-parameter
    /// model would need six orders of magnitude more traffic to queue).
    pub fn small(initial_replicas: usize) -> Self {
        ServingConfig {
            tenant: "default".into(),
            preset: ModelPreset::Gpt { layers: 24 },
            stages: 4,
            gpus_per_node: 4,
            device: DeviceSpec::test_device(16 * 1024 * 1024 * 1024),
            initial_replicas,
            max_replicas: initial_replicas,
            balancer: ServeBalancerKind::Partition,
            microbatches: 4,
            slo: SloTarget::chat_default(),
            autoscaler: None,
            retain_records: true,
        }
    }

    /// Enable autoscaling up to `max_replicas` with the given policy.
    pub fn with_autoscaler(mut self, config: AutoscalerConfig) -> Self {
        self.max_replicas = self.max_replicas.max(config.max_replicas);
        self.autoscaler = Some(config);
        self
    }

    /// Validate structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.stages == 0 || self.gpus_per_node == 0 {
            return Err("stages and gpus_per_node must be positive".into());
        }
        if self.initial_replicas == 0 {
            return Err("at least one initial replica is required".into());
        }
        if self.max_replicas < self.initial_replicas {
            return Err("max_replicas must be ≥ initial_replicas".into());
        }
        if self.microbatches == 0 {
            return Err("microbatches must be positive".into());
        }
        if let Some(scaler) = &self.autoscaler {
            if scaler.min_replicas == 0 {
                return Err("the autoscaler must keep at least one replica".into());
            }
            if scaler.max_replicas < scaler.min_replicas {
                return Err("autoscaler max_replicas must be ≥ min_replicas".into());
            }
            if !(scaler.ttft_p99_target.is_finite() && scaler.ttft_p99_target > 0.0) {
                return Err("autoscaler ttft_p99_target must be finite and positive".into());
            }
            if scaler.max_replicas > self.max_replicas {
                return Err("autoscaler max_replicas exceeds the fleet ceiling".into());
            }
        }
        Ok(())
    }
}

/// One pipeline replica's live state, from its addition until it is
/// reclaimed.
struct Replica {
    /// Creation order: the replica's tag in records, spans and
    /// [`ServingSession::begin_drain`].
    id: usize,
    batcher: ContinuousBatcher,
    assignment: StageAssignment,
    /// Time the replica is next free.
    clock: f64,
    /// Provisioning completes at this time (0 for the initial replicas).
    ready_at: f64,
    /// Draining replicas accept no new dispatches.
    draining: bool,
    /// Worker ids of the GPU block an outside owner granted; empty on a
    /// self-managed deployment, which counts its GPUs but names none.
    workers: Vec<usize>,
    /// The plan and price of this replica's latest step at the identity
    /// update, which an identity step with the same plan reuses; it never
    /// goes stale (see [`ServingEngine::price_step`]).
    identity_price: Option<(StepPlan, f64)>,
}

impl Replica {
    /// When the replica can next start an engine step, given the arrival
    /// time of the gateway queue's front (if any); `None` if the replica
    /// has nothing to do.
    fn next_action_time(&self, gateway_front: Option<f64>) -> Option<f64> {
        if self.batcher.has_work() {
            return Some(self.clock.max(self.ready_at));
        }
        if self.draining {
            return None;
        }
        // Idle: the next gateway request is this replica's next work.
        gateway_front.map(|arrival| arrival.max(self.clock).max(self.ready_at))
    }
}

/// Time-weighted GPUs held by the deployment, on the [`fleet_clock`]
/// millisecond axis.  A replica holds its GPUs from the moment it is added
/// until it is reclaimed, draining included.
struct GpuMeter {
    /// GPUs held since `since`.
    gpus: usize,
    /// Millisecond of the latest change (monotone).
    since: u64,
    /// GPU-milliseconds held before `since`.
    gpu_ms: f64,
}

impl GpuMeter {
    /// Hold `gpus` from `now` on.  A `now` before the latest change counts
    /// as that change's time, so the meter never runs backward.
    fn set(&mut self, now: f64, gpus: usize) {
        let at = fleet_clock(now).max(self.since);
        self.gpu_ms += (at - self.since) as f64 * self.gpus as f64;
        self.since = at;
        self.gpus = gpus;
    }

    /// Mean GPUs held over `[0, makespan]`.
    fn mean(&self, makespan: f64) -> f64 {
        let total = fleet_clock(makespan).max(1);
        let gpu_ms = self.gpu_ms + total.saturating_sub(self.since) as f64 * self.gpus as f64;
        gpu_ms / total as f64
    }
}

/// Token counters and peak KV reservation over a set of batchers.
#[derive(Clone, Copy, Default)]
struct BatcherTotals {
    prefill_tokens: u64,
    decode_tokens: u64,
    peak_kv_tokens: usize,
}

impl BatcherTotals {
    fn add(&mut self, batcher: &ContinuousBatcher) {
        self.prefill_tokens += batcher.total_prefill_tokens();
        self.decode_tokens += batcher.total_decode_tokens();
        self.peak_kv_tokens = self.peak_kv_tokens.max(batcher.peak_kv_tokens());
    }
}

/// The simulated deployment.
pub struct ServingEngine {
    config: ServingConfig,
    model: Model,
    simulator: PipelineSimulator,
    balancer: Box<dyn LoadBalancer>,
    /// Per-layer forward seconds per *token* at identity dynamism.
    per_token_fwd: Vec<f64>,
    /// Per-replica KV capacity in tokens (tightest stage of the layout);
    /// a scaled-out replica may run its own layout's smaller capacity.
    kv_capacity_tokens: usize,
    /// The identity-dynamism layout the initial replicas use — also the
    /// validated fallback for scaled-out replicas whose re-partitioned
    /// layout prices too little KV capacity.
    initial_assignment: StageAssignment,
    /// Largest per-request KV reservation in the trace being served (set
    /// by [`ServingEngine::serve`]); a scaled-out layout must cover it.
    trace_max_kv_need: usize,
    /// Live and draining replicas in creation order: a reclaimed one is
    /// removed, so the lowest position is still the oldest replica.
    replicas: Vec<Replica>,
    /// Replicas created so far (the next one's id).
    created_replicas: usize,
    /// Counters of the replicas reclaimed so far.
    reclaimed: BatcherTotals,
    /// GPUs the replicas hold over time (`mean_gpus`).
    meter: GpuMeter,
    /// Whether an outside owner (a fleet controller's shared pool) grants
    /// and reclaims the GPUs; see [`ServingEngine::external`].
    external: bool,
    /// Completed requests' TTFTs, kept by autoscaled and externally
    /// managed deployments only.
    window: Option<TtftWindow>,
    /// Time of the latest scaling action: a replica added or a drain begun.
    last_action: f64,
    /// Time of the autoscaler's next check.
    next_check: f64,
    scale_events: Vec<ScaleEvent>,
    engine_steps: u64,
    peak_replicas: usize,
    /// The update the latest engine step was priced under.
    latest_update: LoadUpdate,
    /// Whether `latest_update` came from a dynamism engine; a step without
    /// one resets it to the identity first.
    latest_from_engine: bool,
    /// Per-stage loads [`ServingEngine::price_step`] refills every step.
    stage_loads: Vec<StageLoad>,
    /// Observability sink (the no-op [`NullRecorder`] by default).  The
    /// recorder only *observes* — enabling it never changes admission,
    /// pricing, scaling, or any reported metric.
    recorder: Arc<dyn Recorder>,
}

impl ServingEngine {
    /// Build a self-managed deployment: lay out the initial replicas with
    /// the configured balancer; an attached autoscaler adds replicas up to
    /// `max_replicas`.
    pub fn new(config: ServingConfig) -> Result<Self, String> {
        config.validate()?;
        let model = Model::from_preset(config.preset);
        let kv_model = KvCacheModel::new(model.config().clone());
        let cluster =
            ClusterConfig::homogeneous(config.gpus_per_node, config.stages, 1, config.device);
        let simulator = PipelineSimulator::new(CommCostModel::new(cluster), ScheduleKind::OneFOneB);
        let balancer = config.balancer.build();

        let identity = LoadUpdate::identity(model.num_layers());
        let base_loads = profile_layers(&model, &identity, &config.device);
        let tokens_per_microbatch =
            (model.config().micro_batch_size * model.config().seq_len) as f64;
        let per_token_fwd: Vec<f64> = base_loads
            .iter()
            .map(|l| l.fwd_time / tokens_per_microbatch)
            .collect();

        let request = BalanceRequest::new(
            &base_loads,
            config.stages,
            config.device.memory_capacity,
            BalanceObjective::ByTime,
        )
        .with_inflight(vec![1; config.stages]);
        let initial_assignment = balancer.rebalance(&request).assignment;

        let kv_capacity_tokens = kv_capacity(&model, &kv_model, &config, &initial_assignment)?;

        let replicas: Vec<Replica> = (0..config.initial_replicas)
            .map(|id| Replica {
                id,
                batcher: ContinuousBatcher::new(kv_capacity_tokens),
                assignment: initial_assignment.clone(),
                clock: 0.0,
                ready_at: 0.0,
                draining: false,
                workers: Vec::new(),
                identity_price: None,
            })
            .collect();
        let meter = GpuMeter {
            gpus: config.initial_replicas * config.stages,
            since: 0,
            gpu_ms: 0.0,
        };

        Ok(ServingEngine {
            window: config.autoscaler.map(|_| TtftWindow::new(WINDOW)),
            peak_replicas: replicas.len(),
            latest_update: identity,
            latest_from_engine: false,
            stage_loads: Vec::new(),
            config,
            model,
            simulator,
            balancer,
            per_token_fwd,
            kv_capacity_tokens,
            initial_assignment,
            trace_max_kv_need: 0,
            created_replicas: replicas.len(),
            reclaimed: BatcherTotals::default(),
            replicas,
            meter,
            external: false,
            last_action: f64::NEG_INFINITY,
            next_check: CHECK_INTERVAL,
            scale_events: Vec::new(),
            engine_steps: 0,
            recorder: Arc::new(NullRecorder),
        })
    }

    /// Build an *externally managed* deployment: every replica runs on a
    /// GPU block granted by an outside owner (a fleet controller's shared
    /// pool), one block of `config.stages` workers per initial replica.
    /// Scaling happens only through [`ServingSession::add_external_replica`],
    /// [`ServingSession::begin_drain`] and
    /// [`ServingSession::reclaim_drained`], and the owner reads the
    /// deployment's [`ServingSession::ttft_window`], which reaches
    /// `ttft_window` seconds back.  The internal autoscaler is rejected:
    /// exactly one party may own the scaling decisions.
    pub fn external(
        config: ServingConfig,
        blocks: Vec<Vec<usize>>,
        ttft_window: f64,
    ) -> Result<Self, String> {
        if config.autoscaler.is_some() {
            return Err("externally managed deployments cannot run their own autoscaler".into());
        }
        if !(ttft_window.is_finite() && ttft_window > 0.0) {
            return Err("the TTFT window must be finite and positive".into());
        }
        if blocks.len() != config.initial_replicas {
            return Err(format!(
                "{} worker blocks for {} initial replicas",
                blocks.len(),
                config.initial_replicas
            ));
        }
        if let Some(bad) = blocks.iter().find(|b| b.len() != config.stages) {
            return Err(format!(
                "worker block of {} GPUs cannot back a {}-stage replica",
                bad.len(),
                config.stages
            ));
        }
        let mut engine = ServingEngine::new(config)?;
        engine.external = true;
        engine.window = Some(TtftWindow::new(ttft_window));
        for (replica, block) in engine.replicas.iter_mut().zip(blocks) {
            replica.workers = block;
        }
        Ok(engine)
    }

    /// Attach a telemetry recorder: engine steps become per-replica spans,
    /// scale events become instant markers, and the live replica count is
    /// sampled as a counter track.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Serve a whole trace to completion and report SLO metrics.  The
    /// optional dynamism engine is stepped once per engine step through its
    /// inference hook.
    ///
    /// Consumes the deployment: token counters, the GPU meter, scaling
    /// state and drained replicas all accumulate across steps, so a second
    /// trace needs a fresh [`ServingEngine`] (or the [`serve`] wrapper) —
    /// by-value `self` makes silent metric corruption impossible.
    pub fn serve(
        self,
        trace: &RequestTrace,
        mut engine: Option<&mut dyn DynamismEngine>,
    ) -> ServingReport {
        let mut session = self.session(trace);
        while session.step(match engine {
            Some(ref mut e) => Some(&mut **e),
            None => None,
        }) {}
        session.finish()
    }

    /// Open an incremental serving session over `trace`: the same
    /// simulation [`ServingEngine::serve`] runs to completion, exposed one
    /// engine step at a time so an outside scheduler (the fleet
    /// controller) can interleave it with other work on a shared clock.
    /// Stepping a session to the end and calling [`ServingSession::finish`]
    /// is bit-identical to `serve`.
    pub fn session(mut self, trace: &RequestTrace) -> ServingSession {
        // A request must fit one replica's KV budget: admission control
        // reserves its prompt plus its full output.
        let max_need = trace
            .requests
            .iter()
            .map(|r| r.total_tokens())
            .max()
            .unwrap_or(0);
        assert!(
            max_need <= self.kv_capacity_tokens,
            "trace contains a request larger than one replica's KV capacity"
        );
        self.trace_max_kv_need = max_need;
        let total = trace.num_requests();
        let records = if self.config.retain_records {
            Vec::with_capacity(total)
        } else {
            Vec::new()
        };
        ServingSession {
            engine: self,
            trace: trace.clone(),
            records,
            // SLO metrics are accumulated online: streaming sketches for
            // the three latency series (exact while small, O(1) P² beyond)
            // and a plain counter for SLO attainment, so the report never
            // needs the full record vector.
            ttft_summary: StreamingSummary::new(),
            tpot_summary: StreamingSummary::new(),
            latency_summary: StreamingSummary::new(),
            slo_met: 0,
            completed_count: 0,
            // The gateway: a single FCFS queue over the trace.  Requests
            // stay here until a replica pulls them through admission
            // control, so a replica provisioned mid-spike immediately
            // relieves the backlog.
            gateway: 0,
            makespan: 0.0,
            finished: false,
        }
    }

    /// Price one engine step of replica `idx` under `latest_update`:
    /// per-stage forward time from the per-token cost rescaled by the
    /// update, boundary tensors sized by the step's tokens and the token
    /// retention of each stage's last layer (the rule of
    /// [`dynmo_pipeline::load::boundary_retention_profile`]), the whole
    /// batch split into micro-batches and run through the forward-only
    /// pipeline simulator.  The stage loads are refilled in place, so a
    /// step allocates nothing once they have grown to the stage count.
    ///
    /// Each stage sums its layers in id order and sizes its boundary from
    /// its last layer.
    ///
    /// At the identity update the price is a pure function of the
    /// replica's assignment (fixed from its addition until it is
    /// reclaimed) and `plan`: the per-token costs, model, comm model and
    /// micro-batch count are fixed per deployment, and every return to the
    /// identity rebuilds the same update.  So an
    /// identity step may reuse the price of its replica's previous identity
    /// step with the same plan, bit for bit, and every assertion here
    /// already passed on those inputs (see `ServingSession::step_bounded`).
    fn price_step(&mut self, idx: usize, plan: StepPlan) -> f64 {
        let assignment = &self.replicas[idx].assignment;
        let update = &self.latest_update;
        assert_eq!(
            update.token_retention.len(),
            assignment.num_layers(),
            "one retention value per layer"
        );
        let weighted_tokens =
            plan.prefill_tokens as f64 + DECODE_COST_FACTOR * plan.decode_tokens as f64;
        let batch_tokens = plan.batch_tokens();
        let m = self.config.microbatches.min(batch_tokens).max(1);
        let model_config = self.model.config();
        let bytes_per_token = (model_config.hidden_size * model_config.param_bytes) as f64;
        let flat_boundary = batch_tokens as f64 / m as f64 * bytes_per_token;

        // A stage hosting no layers keeps the default load and is bypassed.
        let loads = &mut self.stage_loads;
        loads.clear();
        loads.resize(assignment.num_stages(), StageLoad::default());
        for (load, layers) in loads.iter_mut().zip(assignment.ranges()) {
            if !layers.is_empty() {
                load.fwd_time = self.per_token_fwd[layers.clone()]
                    .iter()
                    .zip(&update.fwd_scale[layers.clone()])
                    .fold(0.0, |sum, (cost, scale)| {
                        sum + cost * scale * weighted_tokens
                    });
                load.num_layers = layers.len();
                // Never 0: that would fall back to the training-shaped flat
                // residual tensor instead of this batch's.
                let retention = update.token_retention[layers.end - 1].clamp(0.0, 1.0);
                load.boundary_bytes = ((flat_boundary * retention) as u64).max(1);
            }
            load.fwd_time /= m as f64;
        }
        self.simulator.forward_makespan(model_config, loads, m)
    }

    /// One autoscaler check at `now`, on the check grid: once the cooldown
    /// since the latest scaling action has passed, add a replica when the
    /// windowed p99 TTFT or the gateway's oldest wait breaches the target,
    /// or drain one when both sit far inside it and the backlog fits the
    /// remaining replicas.  `gateway_tokens` and `oldest_wait` describe the
    /// gateway queue (the un-admitted FCFS backlog).
    fn autoscale(&mut self, now: f64, gateway_tokens: usize, oldest_wait: f64) {
        let Some(policy) = self.config.autoscaler else {
            return;
        };
        if now < self.next_check {
            return;
        }
        // Catch up the check grid (steps can jump over several intervals).
        while self.next_check <= now {
            self.next_check += CHECK_INTERVAL;
        }
        if now - self.last_action < COOLDOWN {
            return;
        }
        let p99 = self.observed_p99(now);
        let replicas = self.live_replicas();
        let backlog_tokens = gateway_tokens
            + self
                .replicas
                .iter()
                .filter(|r| !r.draining)
                .map(|r| r.batcher.outstanding_tokens())
                .sum::<usize>();
        let target = policy.ttft_p99_target;
        if (p99 > target || oldest_wait > target) && replicas < policy.max_replicas {
            // Draining replicas hold their GPUs until reclaimed, so they
            // count against the ceiling.  A scale-out dropped there starts
            // no cooldown, so the next check retries it mid-breach.
            if self.meter.gpus < self.config.max_replicas * self.config.stages {
                self.add_replica(Vec::new(), now, now + PROVISION_DELAY, backlog_tokens);
            }
            return;
        }
        let relaxed = p99 < SCALE_IN_FRACTION * target
            && oldest_wait < SCALE_IN_FRACTION * target
            && (backlog_tokens as f64)
                < SCALE_IN_FRACTION
                    * self.kv_capacity_tokens as f64
                    * (replicas.saturating_sub(1)) as f64;
        if relaxed && replicas > policy.min_replicas {
            self.begin_drain(now);
        }
    }

    /// The windowed p99 TTFT as of `now` (0 on a deployment that keeps no
    /// window).
    fn observed_p99(&self, now: f64) -> f64 {
        self.window.as_ref().map_or(0.0, |w| w.p99(now))
    }

    /// Bring a new replica on `workers` online from `ready_at` (never
    /// before `now`), laid out against the current dynamism state, and log
    /// the scale-out with the window's p99 and the caller's backlog.
    fn add_replica(&mut self, workers: Vec<usize>, now: f64, ready_at: f64, backlog_tokens: usize) {
        self.meter.set(now, self.meter.gpus + self.config.stages);
        self.last_action = now;
        let (assignment, capacity) = self.replica_layout();
        let online_at = ready_at.max(now);
        self.replicas.push(Replica {
            id: self.created_replicas,
            batcher: ContinuousBatcher::new(capacity),
            assignment,
            clock: online_at,
            ready_at: online_at,
            draining: false,
            workers,
            identity_price: None,
        });
        self.created_replicas += 1;
        let live = self.live_replicas();
        self.peak_replicas = self.peak_replicas.max(live);
        let observed_ttft_p99 = self.observed_p99(now);
        self.scale_events.push(ScaleEvent {
            time: now,
            delta: 1,
            replicas_after: live,
            observed_ttft_p99,
            backlog_tokens,
        });
        if self.recorder.enabled() {
            self.recorder.instant(
                0,
                MarkerKind::ScaleOut,
                &format!("to {live} replicas"),
                now,
                &[
                    ("ttft_p99", format!("{observed_ttft_p99:.4}")),
                    ("backlog_tokens", backlog_tokens.to_string()),
                ],
            );
            self.recorder.counter(0, "live_replicas", now, live as f64);
        }
    }

    /// Lay out a new replica against the *current* dynamism state (e.g.
    /// early exit has shifted work toward early layers) — and price the
    /// new layout's own KV capacity, since a skewed layout can concentrate
    /// more KV-caching layers on one stage than the initial layout did.
    /// If the new layout cannot serve the trace's largest request (or
    /// prices no capacity at all), fall back to the initial layout, which
    /// was validated up front.
    fn replica_layout(&self) -> (StageAssignment, usize) {
        let loads = profile_layers(&self.model, &self.latest_update, &self.config.device);
        let request = BalanceRequest::new(
            &loads,
            self.config.stages,
            self.config.device.memory_capacity,
            BalanceObjective::ByTime,
        )
        .with_inflight(vec![1; self.config.stages]);
        let candidate = self.balancer.rebalance(&request).assignment;
        let kv_model = KvCacheModel::new(self.model.config().clone());
        match kv_capacity(&self.model, &kv_model, &self.config, &candidate) {
            // Capping at the initial layout's capacity keeps the
            // report-level invariant (peak KV ≤ reported capacity).
            Ok(c) if c >= self.trace_max_kv_need => (candidate, c.min(self.kv_capacity_tokens)),
            _ => (self.initial_assignment.clone(), self.kv_capacity_tokens),
        }
    }

    /// Start draining, at `now`, the live replica with the least
    /// outstanding work (the oldest on a tie); its GPUs come back through
    /// [`ServingEngine::reclaim`] once it empties.  Returns the replica's
    /// id, or `None` with no live replica.
    fn begin_drain(&mut self, now: f64) -> Option<usize> {
        let victim = self
            .replicas
            .iter_mut()
            .filter(|r| !r.draining)
            .min_by_key(|r| r.batcher.outstanding_tokens())?;
        victim.draining = true;
        self.last_action = now;
        Some(victim.id)
    }

    /// Release every replica that has finished draining as of `now`,
    /// logging one scale-in event each, and return their worker blocks.
    /// A released replica leaves `replicas` (keeping the others' order)
    /// and its counters join `reclaimed`.
    fn reclaim(&mut self, now: f64) -> Vec<Vec<usize>> {
        let mut freed = Vec::new();
        let mut idx = 0;
        while idx < self.replicas.len() {
            let r = &self.replicas[idx];
            if !(r.draining && !r.batcher.has_work() && r.clock <= now) {
                idx += 1;
                continue;
            }
            self.meter.set(now, self.meter.gpus - self.config.stages);
            let replica = self.replicas.remove(idx);
            self.reclaimed.add(&replica.batcher);
            freed.push(replica.workers);
            let p99 = self.observed_p99(now);
            let live = self.live_replicas();
            self.scale_events.push(ScaleEvent {
                time: now,
                delta: -1,
                replicas_after: live,
                observed_ttft_p99: p99,
                backlog_tokens: self.outstanding_tokens(),
            });
            if self.recorder.enabled() {
                self.recorder.instant(
                    0,
                    MarkerKind::ScaleIn,
                    &format!("to {live} replicas"),
                    now,
                    &[("ttft_p99", format!("{p99:.4}"))],
                );
                self.recorder.counter(0, "live_replicas", now, live as f64);
            }
        }
        freed
    }

    /// Outstanding (admitted, unfinished) tokens across the replicas.
    fn outstanding_tokens(&self) -> usize {
        self.replicas
            .iter()
            .map(|r| r.batcher.outstanding_tokens())
            .sum()
    }

    /// Replicas serving or provisioning (not draining).
    fn live_replicas(&self) -> usize {
        self.replicas.iter().filter(|r| !r.draining).count()
    }

    #[allow(clippy::too_many_arguments)]
    fn build_report(
        &mut self,
        trace: &RequestTrace,
        records: Vec<RequestRecord>,
        completed: usize,
        makespan: f64,
        ttft: &StreamingSummary,
        tpot: &StreamingSummary,
        latency: &StreamingSummary,
        slo_met: u64,
    ) -> ServingReport {
        let slo = self.config.slo;
        let span = makespan.max(f64::MIN_POSITIVE);
        let mut totals = self.reclaimed;
        for replica in &self.replicas {
            totals.add(&replica.batcher);
        }
        let total_output_tokens = totals.decode_tokens;
        ServingReport {
            trace: trace.label.clone(),
            tenant: self.config.tenant.clone(),
            requests: trace.num_requests(),
            completed,
            makespan,
            ttft: LatencySummary::from_stats(&ttft.stats()),
            tpot: LatencySummary::from_stats(&tpot.stats()),
            latency: LatencySummary::from_stats(&latency.stats()),
            slo,
            slo_met,
            goodput_rps: slo_met as f64 / span,
            throughput_rps: completed as f64 / span,
            output_tokens_per_second: total_output_tokens as f64 / span,
            total_output_tokens,
            total_prefill_tokens: totals.prefill_tokens,
            engine_steps: self.engine_steps,
            mean_gpus: self.meter.mean(makespan),
            peak_replicas: self.peak_replicas,
            scale_events: std::mem::take(&mut self.scale_events),
            kv_capacity_tokens: self.kv_capacity_tokens,
            peak_kv_tokens: totals.peak_kv_tokens,
            records,
        }
    }
}

/// A point-in-time view of the gateway's un-admitted FCFS backlog.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GatewaySnapshot {
    /// Arrived-but-unadmitted requests.
    pub requests: usize,
    /// Their total (prompt + output) tokens.
    pub tokens: usize,
    /// Seconds the queue's front request has been waiting.
    pub oldest_wait: f64,
}

/// An in-flight serving run: the engine, its trace, and every accumulator
/// [`ServingEngine::serve`] keeps, exposed one engine step at a time so an
/// outside scheduler can interleave serving with other work on a shared
/// clock.  Obtained from [`ServingEngine::session`]; stepping to the end
/// and calling [`ServingSession::finish`] reproduces `serve` bit-for-bit.
pub struct ServingSession {
    engine: ServingEngine,
    trace: RequestTrace,
    records: Vec<RequestRecord>,
    ttft_summary: StreamingSummary,
    tpot_summary: StreamingSummary,
    latency_summary: StreamingSummary,
    slo_met: u64,
    completed_count: usize,
    gateway: usize,
    /// Latest step end seen so far (the monotone observation clock).
    makespan: f64,
    finished: bool,
}

impl ServingSession {
    /// Execute the next engine step, wherever it falls on the clock.
    /// Returns `false` once the trace is fully served.
    pub fn step(&mut self, dynamism: Option<&mut dyn DynamismEngine>) -> bool {
        self.step_bounded(f64::INFINITY, dynamism)
    }

    /// Execute every engine step that *starts* at or before `horizon`,
    /// then stop.  Returns `true` when the whole trace has been served
    /// (no work remains at any time).
    pub fn run_until(
        &mut self,
        horizon: f64,
        mut dynamism: Option<&mut dyn DynamismEngine>,
    ) -> bool {
        while self.step_bounded(
            horizon,
            match dynamism {
                Some(ref mut e) => Some(&mut **e),
                None => None,
            },
        ) {}
        self.finished
    }

    /// One iteration of the serve loop, gated on the start time of the
    /// earliest runnable step.  The body is the exact op sequence the
    /// monolithic `serve` loop ran — bit-identity depends on it.
    ///
    /// A step without a dynamism engine runs at the identity update; when
    /// its plan equals the plan of the replica's latest identity step, it
    /// takes that step's price instead of calling
    /// [`ServingEngine::price_step`], which would return the same bits.
    /// Any other step is priced, and an identity step then keeps its price
    /// for the replica's next one.  A step under an engine validates and
    /// prices the engine's update and neither reads nor clears the entry.
    fn step_bounded(&mut self, horizon: f64, dynamism: Option<&mut dyn DynamismEngine>) -> bool {
        if self.finished {
            return false;
        }
        let gateway_front = self.trace.requests.get(self.gateway).map(|r| r.arrival);
        // The earliest-ready replica acts next.
        let Some((idx, start)) = self
            .engine
            .replicas
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.next_action_time(gateway_front).map(|t| (i, t)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("times are finite"))
        else {
            self.finished = true;
            return false;
        };
        if start > horizon {
            return false;
        }

        // Pull from the gateway (FCFS) while admission control allows.
        // Head-of-line blocking is deliberate: admitting around a stuck
        // head would starve large requests forever.
        if !self.engine.replicas[idx].draining {
            while let Some(request) = self.trace.requests.get(self.gateway) {
                if request.arrival > start
                    || !self.engine.replicas[idx].batcher.try_admit(*request, start)
                {
                    break;
                }
                self.gateway += 1;
            }
        }

        match dynamism {
            Some(e) => {
                let update = &mut self.engine.latest_update;
                e.inference_step_into(self.engine.engine_steps, update);
                update.validate().expect("inference update is valid");
                self.engine.latest_from_engine = true;
            }
            // Without an engine the step runs at the identity, which
            // `latest_update` already holds unless an engine set it.
            None if self.engine.latest_from_engine => {
                let layers = self.engine.model.num_layers();
                self.engine.latest_update.set_identity(layers);
                self.engine.latest_from_engine = false;
            }
            None => {}
        }
        let plan = self.engine.replicas[idx]
            .batcher
            .plan_step()
            .expect("next_action_time implies runnable work");
        let at_identity = !self.engine.latest_from_engine;
        let duration = match self.engine.replicas[idx].identity_price {
            Some((last, price)) if at_identity && last == plan => price,
            _ => {
                let price = self.engine.price_step(idx, plan);
                if at_identity {
                    self.engine.replicas[idx].identity_price = Some((plan, price));
                }
                price
            }
        };
        let end = start + duration;
        let replica = &mut self.engine.replicas[idx];
        replica.clock = end;
        let id = replica.id;
        self.engine.engine_steps += 1;
        self.makespan = self.makespan.max(end);
        if self.engine.recorder.enabled() {
            let name = format!("step p{} d{}", plan.prefill_tokens, plan.decode_tokens);
            self.engine.recorder.span(0, id, &name, start, end);
        }

        let engine = &mut self.engine;
        engine.replicas[idx]
            .batcher
            .commit_step(plan, id, end, |record| {
                if let Some(window) = &mut engine.window {
                    window.push(start, end, record.ttft());
                }
                self.ttft_summary.observe(record.ttft());
                self.tpot_summary.observe(record.tpot());
                self.latency_summary.observe(record.latency());
                if engine.config.slo.met_by(&record) {
                    self.slo_met += 1;
                }
                self.completed_count += 1;
                if engine.config.retain_records {
                    self.records.push(record);
                }
            });

        if self.engine.config.autoscaler.is_some() {
            // Evaluate on the monotone observation clock (`makespan` =
            // the latest step end seen so far): steps are executed in
            // start-time order, so raw `end`s can interleave backward,
            // and both the scale-event log and the GPU meter assume
            // non-decreasing timestamps.
            let now = self.makespan;
            // The backlog scan is O(arrived-but-unadmitted); only pay
            // it on steps where a check is actually due.
            if now >= self.engine.next_check {
                let backlog = self.gateway_backlog(now);
                self.engine
                    .autoscale(now, backlog.tokens, backlog.oldest_wait);
            }
            self.engine.reclaim(now);
        }
        true
    }

    /// Assemble the final report.  Requires the session to have run to
    /// completion (`step` returned `false` / `run_until` returned `true`).
    pub fn finish(mut self) -> ServingReport {
        assert!(
            self.finished,
            "finish() requires the session to have served the whole trace"
        );
        assert_eq!(
            self.completed_count,
            self.trace.num_requests(),
            "the scheduler conserves requests"
        );
        let records = std::mem::take(&mut self.records);
        self.engine.build_report(
            &self.trace,
            records,
            self.completed_count,
            self.makespan,
            &self.ttft_summary,
            &self.tpot_summary,
            &self.latency_summary,
            self.slo_met,
        )
    }

    /// Whether the whole trace has been served.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Replicas serving or provisioning (not draining).
    pub fn live_replicas(&self) -> usize {
        self.engine.live_replicas()
    }

    /// Replicas draining toward release.
    pub fn draining_replicas(&self) -> usize {
        self.engine.replicas.iter().filter(|r| r.draining).count()
    }

    /// The deployment's completion window, which both control loops read;
    /// `None` on a fixed-capacity deployment, which keeps none.
    pub fn ttft_window(&self) -> Option<&TtftWindow> {
        self.engine.window.as_ref()
    }

    /// Time of the deployment's latest scaling action, a replica added or
    /// a drain begun (−∞ before the first).
    pub fn last_action(&self) -> f64 {
        self.engine.last_action
    }

    /// The gateway's un-admitted backlog as of `now`.
    pub fn gateway_backlog(&self, now: f64) -> GatewaySnapshot {
        let mut snapshot = GatewaySnapshot::default();
        for (i, request) in self.trace.requests[self.gateway..].iter().enumerate() {
            if request.arrival > now {
                break;
            }
            if i == 0 {
                snapshot.oldest_wait = (now - request.arrival).max(0.0);
            }
            snapshot.requests += 1;
            snapshot.tokens += request.total_tokens();
        }
        snapshot
    }

    /// Bring a new replica online over an externally granted GPU block:
    /// laid out against the current dynamism state (same policy as an
    /// autoscaler scale-out), accepting work from `ready_at`.  The scale
    /// event logs the deployment's windowed p99 TTFT at `now`.  Errors on
    /// self-managed deployments and wrongly sized blocks.
    pub fn add_external_replica(
        &mut self,
        workers: Vec<usize>,
        now: f64,
        ready_at: f64,
    ) -> Result<(), String> {
        let engine = &mut self.engine;
        if !engine.external {
            return Err("self-managed deployments own their scaling".into());
        }
        if workers.len() != engine.config.stages {
            return Err(format!(
                "worker block of {} GPUs cannot back a {}-stage replica",
                workers.len(),
                engine.config.stages
            ));
        }
        let backlog_tokens = engine.outstanding_tokens();
        engine.add_replica(workers, now, ready_at, backlog_tokens);
        Ok(())
    }

    /// Start draining, at `now`, the live replica with the least
    /// outstanding work (the same victim rule the autoscaler's scale-in
    /// uses); its GPUs come back through [`ServingSession::reclaim_drained`]
    /// once it empties.  Returns the replica's creation-order id (the
    /// `replica` of its records), or `None` with no live replica to drain
    /// or on a self-managed deployment.
    pub fn begin_drain(&mut self, now: f64) -> Option<usize> {
        if !self.engine.external {
            return None;
        }
        self.engine.begin_drain(now)
    }

    /// Collect the GPU blocks of replicas that have finished draining as
    /// of `now` (externally managed deployments only), logging one
    /// scale-in event per reclaimed replica.  The caller returns the
    /// blocks to whatever pool granted them.
    pub fn reclaim_drained(&mut self, now: f64) -> Vec<Vec<usize>> {
        if !self.engine.external {
            return Vec::new();
        }
        self.engine.reclaim(now)
    }
}

/// Simulated seconds as whole milliseconds: the axis a deployment's GPU
/// meter and a fleet controller's ledger (its "iteration") both stamp.
pub fn fleet_clock(time: f64) -> u64 {
    (time * 1000.0).round().max(0.0) as u64
}

/// Per-replica KV capacity in tokens: for every stage of the layout,
/// device memory minus the stage's inference weights, times
/// [`KV_MEMORY_FRACTION`], divided by the stage's per-token KV bytes; the
/// tightest stage wins.  Stages caching nothing (embedding/head only)
/// never constrain.
fn kv_capacity(
    model: &Model,
    kv_model: &KvCacheModel,
    config: &ServingConfig,
    assignment: &StageAssignment,
) -> Result<usize, String> {
    let param_bytes = model.config().param_bytes as u64;
    let retained = vec![1.0; model.num_layers()];
    let mut capacity = usize::MAX;
    for (stage, layer_ids) in assignment.ranges().enumerate() {
        if layer_ids.is_empty() {
            continue;
        }
        let layers = &model.layers()[layer_ids];
        let weights: u64 = layers.iter().map(|l| l.param_count * param_bytes).sum();
        if weights >= config.device.memory_capacity {
            return Err(format!(
                "stage {stage} weights ({weights} B) exceed device memory"
            ));
        }
        let budget = ((config.device.memory_capacity - weights) as f64 * KV_MEMORY_FRACTION) as u64;
        let stage_capacity = kv_model.capacity_tokens(layers, &retained[..layers.len()], budget);
        capacity = capacity.min(stage_capacity);
    }
    if capacity == 0 || capacity == usize::MAX {
        return Err("layout yields no usable KV capacity".into());
    }
    Ok(capacity)
}

/// Convenience wrapper: build a deployment and serve one trace.
pub fn serve(
    config: ServingConfig,
    trace: &RequestTrace,
    engine: Option<&mut dyn DynamismEngine>,
) -> Result<ServingReport, String> {
    Ok(ServingEngine::new(config)?.serve(trace, engine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscale::AutoscalerConfig;
    use crate::trace::{ArrivalProcess, LengthModel, Request, RequestTrace};
    use dynmo_dynamics::{EarlyExitEngine, EarlyExitMethod};

    fn lengths() -> LengthModel {
        LengthModel {
            mean_prompt_tokens: 256,
            mean_output_tokens: 64,
            spread: 0.4,
        }
    }

    fn poisson_trace(rate: f64, duration: f64) -> RequestTrace {
        RequestTrace::generate(&ArrivalProcess::Poisson { rate }, duration, &lengths(), 11)
    }

    /// A 40 s trace with a 20 s spike, served by one replica that
    /// autoscales up to four.
    fn spiky_autoscaled() -> (ServingConfig, RequestTrace) {
        let process = ArrivalProcess::Bursty {
            base_rate: 2.0,
            spike_rate: 40.0,
            spike_start: 10.0,
            spike_duration: 20.0,
        };
        let trace = RequestTrace::generate(&process, 40.0, &lengths(), 21);
        let mut config = ServingConfig::small(1);
        config.max_replicas = 4;
        let config = config.with_autoscaler(AutoscalerConfig::responsive(2.0, 1, 4));
        (config, trace)
    }

    /// Four bursts of a compressed day, served by one replica that
    /// autoscales up to three on the peaks and back in on the troughs.
    fn diurnal_autoscaled() -> (ServingConfig, RequestTrace) {
        let process = ArrivalProcess::Diurnal {
            mean_rate: 8.0,
            amplitude: 0.95,
            period: 60.0,
        };
        let trace = RequestTrace::generate(&process, 240.0, &lengths(), 5);
        let mut config = ServingConfig::small(1);
        config.max_replicas = 3;
        let config = config.with_autoscaler(AutoscalerConfig::responsive(2.0, 1, 3));
        (config, trace)
    }

    /// The bits of a report's step count, makespan, latency summaries and
    /// scale log.
    fn bits(r: &ServingReport) -> Vec<u64> {
        let mut bits = vec![r.engine_steps, r.makespan.to_bits()];
        for s in [&r.ttft, &r.tpot, &r.latency] {
            bits.extend([s.p50, s.p95, s.p99, s.mean].map(f64::to_bits));
        }
        for e in &r.scale_events {
            bits.extend([
                e.time.to_bits(),
                e.delta as u64,
                e.replicas_after as u64,
                e.observed_ttft_p99.to_bits(),
                e.backlog_tokens as u64,
            ]);
        }
        bits
    }

    /// CALM's updates for the first `k` engine steps, identity after.
    struct ThenIdentity {
        calm: EarlyExitEngine,
        k: u64,
        steps: u64,
        num_layers: usize,
    }

    impl ThenIdentity {
        fn new(model: &Model, k: u64) -> Self {
            ThenIdentity {
                calm: EarlyExitEngine::new(model, EarlyExitMethod::Calm, 9),
                k,
                steps: 0,
                num_layers: model.num_layers(),
            }
        }
    }

    impl DynamismEngine for ThenIdentity {
        fn name(&self) -> String {
            "calm-then-identity".into()
        }
        fn case(&self) -> dynmo_dynamics::DynamismCase {
            self.calm.case()
        }
        fn step(&mut self, iteration: u64) -> LoadUpdate {
            self.steps += 1;
            if self.steps <= self.k {
                self.calm.step(iteration)
            } else {
                LoadUpdate::identity(self.num_layers)
            }
        }
        fn rebalance_frequency(&self) -> dynmo_dynamics::RebalanceFrequency {
            self.calm.rebalance_frequency()
        }
    }

    #[test]
    fn a_light_trace_is_served_with_low_latency() {
        let trace = poisson_trace(2.0, 20.0);
        let report = serve(ServingConfig::small(1), &trace, None).unwrap();
        assert_eq!(report.completed, trace.num_requests());
        assert!(report.makespan > 0.0);
        assert!(report.ttft.p99 > 0.0);
        assert!(report.tpot.p99 > 0.0);
        assert!(report.latency.p50 >= report.ttft.p50);
        assert!(report.total_output_tokens == trace.total_output_tokens());
        assert!(report.total_prefill_tokens == trace.total_tokens() - trace.total_output_tokens());
        assert!(report.scale_events.is_empty());
        assert!(report.peak_kv_tokens <= report.kv_capacity_tokens);
        // 8 GPUs would be 2 replicas; a fixed single replica is 4 GPUs.
        assert_eq!(report.mean_gpus, 4.0);
    }

    #[test]
    fn two_replicas_beat_one_on_a_heavy_trace() {
        let trace = poisson_trace(30.0, 10.0);
        let one = serve(ServingConfig::small(1), &trace, None).unwrap();
        let two = serve(ServingConfig::small(2), &trace, None).unwrap();
        assert!(two.ttft.p99 < one.ttft.p99);
        assert!(two.makespan < one.makespan);
    }

    #[test]
    fn early_exit_shortens_decode_work() {
        let trace = poisson_trace(8.0, 15.0);
        let dense = serve(ServingConfig::small(1), &trace, None).unwrap();
        let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 9);
        let exited = serve(ServingConfig::small(1), &trace, Some(&mut engine)).unwrap();
        // Same tokens decoded, less work per token → faster everywhere.
        assert_eq!(exited.total_output_tokens, dense.total_output_tokens);
        assert!(exited.tpot.p50 < dense.tpot.p50);
        assert!(exited.makespan < dense.makespan);
    }

    #[test]
    fn the_autoscaler_absorbs_a_spike_the_fixed_fleet_cannot() {
        let process = ArrivalProcess::Bursty {
            base_rate: 2.0,
            spike_rate: 40.0,
            spike_start: 10.0,
            spike_duration: 20.0,
        };
        let trace = RequestTrace::generate(&process, 40.0, &lengths(), 21);
        let fixed = serve(ServingConfig::small(1), &trace, None).unwrap();
        let mut elastic_config = ServingConfig::small(1);
        elastic_config.max_replicas = 4;
        let elastic_config =
            elastic_config.with_autoscaler(AutoscalerConfig::responsive(2.0, 1, 4));
        let elastic = serve(elastic_config, &trace, None).unwrap();
        assert!(
            elastic.scale_out_events() >= 1,
            "the spike must trigger a scale-out"
        );
        assert!(
            elastic.ttft.p99 < fixed.ttft.p99,
            "elastic p99 TTFT {} must beat fixed {}",
            elastic.ttft.p99,
            fixed.ttft.p99
        );
        assert!(elastic.peak_replicas > 1);
        assert!(elastic.mean_gpus > 4.0);
        // Scaling never loses a request.
        assert_eq!(elastic.completed, trace.num_requests());
    }

    #[test]
    fn quiet_tails_scale_back_in() {
        // A spike early, then a long quiet tail with light traffic: the
        // autoscaler must release the extra replicas again.
        let process = ArrivalProcess::Bursty {
            base_rate: 1.0,
            spike_rate: 40.0,
            spike_start: 5.0,
            spike_duration: 15.0,
        };
        let trace = RequestTrace::generate(&process, 120.0, &lengths(), 33);
        let mut config = ServingConfig::small(1);
        config.max_replicas = 4;
        let config = config.with_autoscaler(AutoscalerConfig::responsive(2.0, 1, 4));
        let report = serve(config, &trace, None).unwrap();
        assert!(report.scale_out_events() >= 1);
        assert!(
            report.scale_in_events() >= 1,
            "the quiet tail must release a replica (events: {:?})",
            report.scale_events
        );
    }

    /// A self-managed deployment of `replicas` replicas that autoscales
    /// between `floor` and 4 replicas to a 1 s p99 TTFT target.
    fn autoscaled_engine(replicas: usize, floor: usize) -> ServingEngine {
        let policy = AutoscalerConfig::responsive(1.0, floor, 4);
        ServingEngine::new(ServingConfig::small(replicas).with_autoscaler(policy)).unwrap()
    }

    /// The deltas of the engine's scale events so far.
    fn deltas(engine: &ServingEngine) -> Vec<i64> {
        engine.scale_events.iter().map(|e| e.delta).collect()
    }

    /// Record `n` completions with `ttft`, 0.1 s apart from `from` on.
    fn complete(engine: &mut ServingEngine, from: f64, n: usize, ttft: f64) {
        let window = engine.window.as_mut().unwrap();
        for i in 0..n {
            let t = from + i as f64 * 0.1;
            window.push(t, t, ttft);
        }
    }

    #[test]
    fn autoscale_holds_between_check_intervals() {
        let mut engine = autoscaled_engine(1, 1);
        // Breaching signals, but the first check is not due yet.
        engine.autoscale(0.5, 50_000, 10.0);
        assert!(engine.scale_events.is_empty());
        engine.autoscale(2.5, 50_000, 10.0);
        assert_eq!(deltas(&engine), vec![1]);
    }

    #[test]
    fn autoscale_scales_out_on_a_completed_ttft_p99_breach() {
        let mut engine = autoscaled_engine(1, 1);
        complete(&mut engine, 1.0, 10, 3.0);
        engine.autoscale(2.5, 0, 0.0);
        assert_eq!(deltas(&engine), vec![1]);
        // The event logs the window's p99.
        assert_eq!(engine.scale_events[0].observed_ttft_p99, 3.0);
    }

    #[test]
    fn autoscale_scales_out_on_queue_pressure_before_any_completion() {
        let mut engine = autoscaled_engine(1, 1);
        engine.autoscale(2.5, 80_000, 5.0);
        assert_eq!(deltas(&engine), vec![1]);
        assert_eq!(engine.scale_events[0].observed_ttft_p99, 0.0);
    }

    #[test]
    fn autoscale_respects_cooldown_and_max_replicas() {
        let mut engine = autoscaled_engine(1, 1);
        engine.autoscale(2.5, 0, 9.0);
        assert_eq!(engine.last_action, 2.5);
        // Still pressured, but inside the cooldown.
        engine.autoscale(4.5, 0, 9.0);
        assert_eq!(engine.live_replicas(), 2);
        // After each cooldown, pressure still there → scale again.
        engine.autoscale(12.5, 0, 9.0);
        engine.autoscale(22.5, 0, 9.0);
        assert_eq!(engine.live_replicas(), 4);
        // At the ceiling, never scales out.
        engine.autoscale(32.5, 0, 9.0);
        assert_eq!(deltas(&engine), vec![1, 1, 1]);
    }

    #[test]
    fn autoscale_scales_in_only_when_quiet_and_above_the_floor() {
        // Quiet: tiny p99, no waiters, backlog ≪ capacity of r−1 replicas.
        // Above a floor of 1 one replica drains, which starts the
        // cooldown; at a floor of 3 none does.
        for (floor, live, last_action) in [(1, 2, 16.5), (3, 3, f64::NEG_INFINITY)] {
            let mut engine = autoscaled_engine(3, floor);
            complete(&mut engine, 10.0, 50, 0.05);
            engine.autoscale(16.5, 100, 0.0);
            assert_eq!(engine.live_replicas(), live, "floor {floor}");
            assert_eq!(engine.last_action, last_action, "floor {floor}");
        }
    }

    #[test]
    fn autoscale_ignores_stale_completions() {
        // One terrible TTFT at t = 1 breaches a check at t = 10, but at
        // t = 100 it has aged out of the 20 s window.
        for (now, scaled) in [(10.0, 1), (100.0, 0)] {
            let mut engine = autoscaled_engine(1, 1);
            complete(&mut engine, 1.0, 1, 50.0);
            engine.autoscale(now, 0, 0.0);
            assert_eq!(engine.scale_events.len(), scaled, "t = {now}");
        }
    }

    #[test]
    fn draining_replicas_count_against_the_self_managed_ceiling() {
        let config =
            ServingConfig::small(2).with_autoscaler(AutoscalerConfig::responsive(2.0, 1, 2));
        let mut engine = ServingEngine::new(config).unwrap();
        // One replica drains with a request still running, so it keeps its
        // GPUs.  A drain starts the cooldown, so date it outside.
        let victim = engine.begin_drain(-COOLDOWN).unwrap();
        let request = Request {
            id: 0,
            arrival: 0.0,
            prompt_tokens: 16,
            output_tokens: 4,
        };
        assert!(engine.replicas[victim].batcher.try_admit(request, 0.0));
        // A breach (the gateway's front has waited 10 s) sees one live
        // replica under a ceiling of two, yet both still hold GPUs.  The
        // dropped scale-out starts no cooldown.
        engine.autoscale(2.0, 0, 10.0);
        assert_eq!(engine.replicas.len(), 2);
        assert!(engine.scale_events.is_empty());
        assert_eq!(engine.last_action, -COOLDOWN);
        // Once the drained replica is reclaimed, the next breach adds one,
        // 2 s later: inside the cooldown the dropped decision would have
        // started.
        let batcher = &mut engine.replicas[victim].batcher;
        while let Some(plan) = batcher.plan_step() {
            batcher.commit_step(plan, victim, 1.0, |_| {});
        }
        assert_eq!(engine.reclaim(4.0).len(), 1);
        engine.autoscale(4.0, 0, 10.0);
        // Three replicas were created; the reclaimed one left the set.
        assert_eq!(engine.created_replicas, 3);
        assert_eq!(engine.replicas.len(), 2);
        assert_eq!(engine.live_replicas(), 2);
        assert_eq!(deltas(&engine), vec![-1, 1]);
    }

    #[test]
    fn reclaimed_replicas_leave_the_replica_set() {
        let (config, trace) = diurnal_autoscaled();
        let max_replicas = config.max_replicas;
        let mut session = ServingEngine::new(config).unwrap().session(&trace);
        while session.step(None) {
            assert!(session.engine.replicas.len() <= max_replicas);
        }
        let created = session.engine.created_replicas;
        let report = session.finish();
        assert!(report.scale_in_events() >= 2, "{:?}", report.scale_events);
        assert!(created > max_replicas, "{created} replicas created");
        // Records carry creation-order ids, which outgrow every position.
        assert!(report.records.iter().all(|r| r.replica < created));
        assert!(report.records.iter().any(|r| r.replica >= max_replicas));
        // The reclaimed replicas' tokens were folded into the totals.
        assert_eq!(report.total_output_tokens, trace.total_output_tokens());
        assert_eq!(
            report.total_prefill_tokens,
            trace.total_tokens() - trace.total_output_tokens()
        );
    }

    #[test]
    fn a_small_request_never_overtakes_a_larger_one_at_the_gateway() {
        // Request 0 holds 60% of the KV budget and request 1 needs as much
        // again, so 1 waits for 0 to finish.  Request 2 would fit beside
        // 0, but the gateway is FCFS: admitting around a stuck head would
        // starve large requests.
        let capacity = ServingEngine::new(ServingConfig::small(1))
            .unwrap()
            .kv_capacity_tokens;
        let big = capacity * 6 / 10;
        let trace = RequestTrace::replayed(
            "head-of-line",
            vec![(0.0, big - 8, 8), (0.0, big - 8, 8), (0.0, 16, 8)],
        )
        .unwrap();
        let report = serve(ServingConfig::small(1), &trace, None).unwrap();
        let record = |id: u64| *report.records.iter().find(|r| r.id == id).unwrap();
        assert!(big + 24 <= capacity, "request 2 fits beside request 0");
        assert!(record(1).admitted >= record(0).completion);
        assert!(record(2).admitted >= record(1).admitted);
    }

    #[test]
    #[should_panic(expected = "larger than one replica's KV capacity")]
    fn a_request_larger_than_one_replicas_kv_capacity_is_rejected() {
        // Admission reserves prompt plus output, so a request whose total
        // exceeds the capacity could never be admitted: the session
        // rejects the trace up front instead of wedging.
        let capacity = ServingEngine::new(ServingConfig::small(1))
            .unwrap()
            .kv_capacity_tokens;
        let trace = RequestTrace::replayed("long", vec![(0.0, capacity + 100, 10)]).unwrap();
        let _ = serve(ServingConfig::small(1), &trace, None);
    }

    #[test]
    fn diffusion_balancer_also_serves() {
        let trace = poisson_trace(4.0, 10.0);
        let mut config = ServingConfig::small(1);
        config.balancer = ServeBalancerKind::Diffusion;
        let report = serve(config, &trace, None).unwrap();
        assert_eq!(report.completed, trace.num_requests());
    }

    #[test]
    fn recorder_and_record_dropping_change_no_metric() {
        use dynmo_telemetry::{Event, MemoryRecorder};

        let (config, trace) = spiky_autoscaled();
        let baseline = serve(config.clone(), &trace, None).unwrap();

        let recorder = std::sync::Arc::new(MemoryRecorder::new());
        let mut lean_config = config;
        lean_config.retain_records = false;
        let lean = ServingEngine::new(lean_config)
            .unwrap()
            .with_recorder(recorder.clone())
            .serve(&trace, None);

        // Dropping records and attaching a recorder is invisible to every
        // aggregate — bit for bit.
        assert!(lean.records.is_empty());
        assert_eq!(lean.completed, baseline.completed);
        assert_eq!(lean.slo_met, baseline.slo_met);
        assert_eq!(lean.ttft.p99.to_bits(), baseline.ttft.p99.to_bits());
        assert_eq!(lean.tpot.p50.to_bits(), baseline.tpot.p50.to_bits());
        assert_eq!(lean.latency.mean.to_bits(), baseline.latency.mean.to_bits());
        assert_eq!(lean.goodput_rps.to_bits(), baseline.goodput_rps.to_bits());
        assert_eq!(
            lean.slo_attainment().to_bits(),
            baseline.slo_attainment().to_bits()
        );
        assert_eq!(lean.scale_events, baseline.scale_events);

        // ... while the recorder saw the run's structure: engine-step spans
        // per replica lane and scale markers mirroring the event log.
        let events = recorder.take();
        let spans = events
            .iter()
            .filter(|e| matches!(e, Event::Span(_)))
            .count();
        let outs = events
            .iter()
            .filter(
                |e| matches!(e, Event::Instant(i) if i.kind == dynmo_telemetry::MarkerKind::ScaleOut),
            )
            .count();
        let ins = events
            .iter()
            .filter(
                |e| matches!(e, Event::Instant(i) if i.kind == dynmo_telemetry::MarkerKind::ScaleIn),
            )
            .count();
        assert_eq!(spans as u64, lean.engine_steps);
        assert_eq!(outs, lean.scale_out_events());
        assert_eq!(ins, lean.scale_in_events());
    }

    #[test]
    fn dropping_the_dynamism_engine_returns_to_the_identity() {
        let (config, trace) = spiky_autoscaled();
        let model = Model::from_preset(config.preset);
        let k = 50;

        let mut calm = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 9);
        let mut dropped = ServingEngine::new(config.clone()).unwrap().session(&trace);
        for _ in 0..k {
            assert!(dropped.step(Some(&mut calm)));
        }
        let switched_at = dropped.makespan;
        while dropped.step(None) {}
        let dropped = dropped.finish();

        let mut wrapped = ThenIdentity::new(&model, k);
        let wrapped = serve(config.clone(), &trace, Some(&mut wrapped)).unwrap();

        assert_eq!(bits(&dropped), bits(&wrapped));
        assert_eq!(dropped, wrapped);
        // Replicas scaled out after the switch were laid out at the
        // identity, and the identity steps priced differently from CALM.
        assert!(dropped.scale_events.iter().any(|e| e.time > switched_at));
        let mut calm = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 9);
        let all_calm = serve(config, &trace, Some(&mut calm)).unwrap();
        assert_ne!(bits(&all_calm), bits(&dropped));
    }

    #[test]
    fn reused_identity_prices_move_no_bit() {
        // Without an engine, steps repeating their replica's last plan take
        // its price; an engine that only ever returns the identity prices
        // every step.  Scale-outs add replicas, and the day's troughs
        // reclaim them.
        let mut scale_ins = 0;
        for (config, trace) in [spiky_autoscaled(), diurnal_autoscaled()] {
            let reused = serve(config.clone(), &trace, None).unwrap();
            let model = Model::from_preset(config.preset);
            // No CALM steps: every update is the identity.
            let mut identity = ThenIdentity::new(&model, 0);
            let priced = serve(config, &trace, Some(&mut identity)).unwrap();
            assert_eq!(bits(&reused), bits(&priced));
            assert_eq!(reused, priced);
            assert!(reused.scale_out_events() >= 1);
            scale_ins += reused.scale_in_events();
        }
        assert!(scale_ins >= 1);
    }

    #[test]
    fn identity_steps_take_the_replicas_price_and_engine_steps_do_not() {
        // One request: a prefill step, then single-token decode steps.
        let trace = RequestTrace::replayed("one", vec![(0.0, 16, 8)]).unwrap();
        let mut session = ServingEngine::new(ServingConfig::small(1))
            .unwrap()
            .session(&trace);
        assert!(session.step(None));
        // The step started at 0 and kept its own plan and price.
        let prefill = StepPlan {
            prefill_tokens: 16,
            decode_tokens: 0,
        };
        let kept = session.engine.replicas[0].identity_price;
        assert_eq!(kept, Some((prefill, session.makespan)));

        // Plant a sentinel price for the next plan.  With one busy replica
        // the next step starts at its clock.
        let sentinel = 1000.0;
        let decode = session.engine.replicas[0].batcher.plan_step().unwrap();
        assert_eq!(decode.batch_tokens(), 1);
        session.engine.replicas[0].identity_price = Some((decode, sentinel));
        let start = session.engine.replicas[0].clock;
        assert!(session.step(None));
        assert_eq!(session.makespan, start + sentinel);

        // A CALM step with the same plan is priced, and leaves the entry.
        assert_eq!(session.engine.replicas[0].batcher.plan_step(), Some(decode));
        let model = Model::from_preset(session.engine.config.preset);
        let mut calm = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 9);
        let start = session.engine.replicas[0].clock;
        assert!(session.step(Some(&mut calm)));
        let calm_duration = session.makespan - start;
        assert!(
            calm_duration > 0.0 && calm_duration < 1.0,
            "{calm_duration}"
        );
        let kept = session.engine.replicas[0].identity_price;
        assert_eq!(kept, Some((decode, sentinel)));

        // Back at the identity, the entry is still the replica's price.
        assert_eq!(session.engine.replicas[0].batcher.plan_step(), Some(decode));
        let start = session.engine.replicas[0].clock;
        assert!(session.step(None));
        assert_eq!(session.makespan, start + sentinel);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = ServingConfig::small(1);
        c.stages = 0;
        assert!(serve(c, &poisson_trace(1.0, 1.0), None).is_err());
        let mut c = ServingConfig::small(2);
        c.initial_replicas = 0;
        assert!(c.validate().is_err());
        let mut c = ServingConfig::small(1);
        c.microbatches = 0;
        assert!(c.validate().is_err());
        // A bad autoscaler is an Err from ServingEngine::new, never a panic
        // mid-run: no replica floor, a ceiling below the floor, or a target
        // that is not a positive finite time.
        for scaler in [
            AutoscalerConfig::responsive(2.0, 0, 4),
            AutoscalerConfig::responsive(2.0, 3, 2),
            AutoscalerConfig::responsive(f64::NAN, 1, 4),
            AutoscalerConfig::responsive(-1.0, 1, 4),
            AutoscalerConfig::responsive(f64::INFINITY, 1, 4),
        ] {
            let c = ServingConfig::small(1).with_autoscaler(scaler);
            assert!(ServingEngine::new(c).is_err(), "{scaler:?}");
        }
        // An externally managed deployment's window must span a positive,
        // finite time, or it would never prune.
        let block = || vec![vec![0, 1, 2, 3]];
        assert!(ServingEngine::external(ServingConfig::small(1), block(), 20.0).is_ok());
        for span in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let c = ServingConfig::small(1);
            assert!(ServingEngine::external(c, block(), span).is_err(), "{span}");
        }
    }
}
