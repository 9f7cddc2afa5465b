//! Failure recovery and live world re-scaling for elastic training.
//!
//! This module closes the loop the paper leaves open in §3.4.2: the
//! elastic-release path there *shrinks* a healthy job, but nothing can
//! survive a rank failure.  Here, [`run_resilient`] ties together the
//! pieces the workspace already has:
//!
//! 1. **Detect** — `dynmo-runtime`'s failure detector poisons every
//!    collective on a communicator containing a dead rank, so all survivors
//!    observe [`RuntimeError::RankFailed`] promptly.
//! 2. **Re-form** — the world communicator is rebuilt over the survivors
//!    (`Communicator::rebuild_survivors`, the fault-tolerant sibling of
//!    `ncclCommSplit`).
//! 3. **Re-balance** — the Partition balancer re-runs for the new world
//!    size over layer loads reconstructed from the checkpoint.
//! 4. **Replay** — trainer state is restored from the last periodic
//!    checkpoint in a [`CheckpointStore`] and the lost iterations are
//!    re-executed.
//! 5. **Account** — every checkpoint write and recovery is charged to the
//!    `recovery` bucket of [`OverheadBreakdown`], next to the paper's
//!    profiling/algorithm/migration buckets.
//!
//! [`run_resilient`] drives an actual multi-rank training loop on the
//! simulated fabric under a [`FaultPlan`] of scheduled rank deaths, and
//! [`run_elastic_rescale`] does
//! the voluntary version: shrink the world mid-run, hand the GPUs back to
//! the job manager, and grow back.  Every phase's layout is a
//! [`StageAssignment`], which covers each layer exactly once by
//! construction, and the re-scaled run must end on the un-rescaled run's
//! weights bit for bit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dynmo_dynamics::rng::Prng;
use dynmo_pipeline::{LayerLoad, StageAssignment};
use dynmo_resilience::{
    Checkpoint, CheckpointCostModel, CheckpointStore, LayerState, MemoryCheckpointStore,
    TrainerState,
};
use dynmo_runtime::{
    launch, Communicator, FaultInjector, FaultPlan, Payload, RankCtx, RuntimeError,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::balancer::{BalanceObjective, BalanceRequest, LoadBalancer, PartitionBalancer};
use crate::elastic::{FleetEvent, MockJobManager};
use crate::overhead::OverheadBreakdown;

/// Simulated seconds one training iteration costs, used to price the
/// replayed iterations of a recovery.
pub const ITERATION_COST: f64 = 0.25;

/// Checkpoints the store keeps; older ones are dropped after each write.
const KEEP_CHECKPOINTS: usize = 2;

/// Simulated seconds to re-form the communicator world after a failure or
/// a re-scale (`ncclCommSplit` + bootstrap exchange).
const REBUILD_COST: f64 = 0.5;

/// Proxy weights per layer.
const WEIGHTS_PER_LAYER: usize = 16;

/// Layer `l` freezes at iteration `(l + 1) * FREEZE_EVERY`.
const FREEZE_EVERY: u64 = 40;

/// Every this many iterations, each unfrozen layer magnitude-prunes 10% of
/// its remaining weights.
const PRUNE_EVERY: u64 = 30;

/// Re-run the Partition balancer by time for a new world size, deriving
/// per-layer loads from the checkpointed state (retained parameters weigh
/// compute; frozen layers only run forward).
fn replan(state: &TrainerState, new_world_size: usize) -> StageAssignment {
    let loads: Vec<LayerLoad> = state
        .layers
        .iter()
        .map(|layer| {
            let params = layer.weights.len().max(1) as f64 * layer.retention();
            let fwd = params.max(1e-9);
            let bwd = if layer.frozen { 0.0 } else { 2.0 * fwd };
            LayerLoad {
                layer_id: layer.layer_id,
                fwd_time: fwd,
                bwd_time: bwd,
                param_count: params as u64,
                static_bytes: (params as u64) * 16,
                activation_bytes: 0,
                migration_bytes: (params as u64) * 16,
            }
        })
        .collect();
    let request = BalanceRequest::new(&loads, new_world_size, u64::MAX, BalanceObjective::ByTime)
        .with_inflight(vec![1; new_world_size]);
    PartitionBalancer::new().rebalance(&request).assignment
}

/// The synthetic-but-deterministic training workload the multi-rank
/// harness executes: per-layer proxy weights updated by a fixed rule, with
/// layer freezing and magnitude pruning so the checkpoint carries every
/// kind of state the paper's dynamism mechanisms produce.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of model layers.
    pub num_layers: usize,
    /// Seed for the deterministic initialization and noise streams.
    pub seed: u64,
}

impl WorkloadConfig {
    /// A workload of `num_layers` layers seeded with `seed`.
    pub fn small(num_layers: usize, seed: u64) -> Self {
        WorkloadConfig { num_layers, seed }
    }
}

/// Configuration of one fault-injected resilient run.
#[derive(Debug, Clone)]
pub struct ResilientTrainingConfig {
    /// Initial world size (one pipeline stage per rank).
    pub world_size: usize,
    /// Iterations to complete.
    pub iterations: u64,
    /// The synthetic workload.
    pub workload: WorkloadConfig,
    /// Scheduled rank deaths.
    pub fault_plan: FaultPlan,
    /// Take a checkpoint every this many iterations (0 disables periodic
    /// checkpoints; the initial checkpoint is always taken).
    pub checkpoint_interval: u64,
}

impl ResilientTrainingConfig {
    /// Validate structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.world_size == 0 {
            return Err("world_size must be positive".into());
        }
        if self.iterations == 0 {
            return Err("iterations must be positive".into());
        }
        if self.workload.num_layers < self.world_size {
            return Err("need at least one layer per worker".into());
        }
        let dead: std::collections::BTreeSet<usize> =
            self.fault_plan.kills().iter().map(|k| k.rank).collect();
        if dead.len() >= self.world_size {
            return Err("fault plan kills the entire world".into());
        }
        for kill in self.fault_plan.kills() {
            if kill.rank >= self.world_size {
                return Err(format!("fault plan kills unknown rank {}", kill.rank));
            }
        }
        Ok(())
    }
}

/// One recovery episode observed during a resilient run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryEvent {
    /// Iteration at which the survivors detected the failure.
    pub detected_at: u64,
    /// Global ranks that were dead at detection time.
    pub failed_ranks: Vec<usize>,
    /// Iteration of the checkpoint the survivors resumed from.
    pub resumed_from: u64,
    /// Iterations re-executed because of the rollback.
    pub replayed: u64,
    /// World size after the communicator was rebuilt.
    pub world_size_after: usize,
    /// Simulated recovery cost in seconds (restore + rebuild + replay).
    pub cost: f64,
}

/// Outcome of a fault-injected resilient run.
#[derive(Debug, Clone)]
pub struct ResilientRunReport {
    /// World size the job started with.
    pub initial_world_size: usize,
    /// World size at completion (initial minus failed ranks).
    pub final_world_size: usize,
    /// Iterations completed (equals the configured count: the job finishes
    /// despite failures).
    pub iterations: u64,
    /// Final training loss (sum over layers of mean |w|).
    pub final_loss: f64,
    /// Load imbalance ΔL (Eq. 2 of the paper) of the final assignment over
    /// the final per-layer loads.
    pub final_imbalance: f64,
    /// Layer→stage assignment in effect at the end.
    pub final_assignment: StageAssignment,
    /// FNV-1a checksum over the final per-layer state (weights, optimizer,
    /// masks, frozen flags), for exact cross-run comparison.
    pub weights_checksum: u64,
    /// Checkpoints written (including the initial one).
    pub checkpoints_taken: u64,
    /// Total iterations re-executed across all recoveries.
    pub replayed_iterations: u64,
    /// Every recovery episode, in order.
    pub recoveries: Vec<RecoveryEvent>,
    /// Overhead accounting; resilience costs land in the `recovery` bucket.
    pub overhead: OverheadBreakdown,
    /// Fleet accounting events (failed ranks are released to the manager).
    pub fleet_events: Vec<FleetEvent>,
}

/// The harness's owner name in its job manager's ledger: it holds the whole
/// world as one job.
const JOB: &str = "job";

/// Shared bookkeeping the ranks update through locks/atomics, standing in
/// for the control plane (job manager + metrics store) of a real cluster.
struct SharedState {
    store: Mutex<MemoryCheckpointStore>,
    job_manager: Mutex<MockJobManager>,
    overhead: Mutex<OverheadBreakdown>,
    recoveries: Mutex<Vec<RecoveryEvent>>,
    checkpoints_taken: AtomicU64,
    replayed_iterations: AtomicU64,
}

impl SharedState {
    fn new(world_size: usize) -> Self {
        SharedState {
            store: Mutex::new(MemoryCheckpointStore::new()),
            job_manager: Mutex::new(MockJobManager::held_by(JOB, world_size)),
            overhead: Mutex::new(OverheadBreakdown::new()),
            recoveries: Mutex::new(Vec::new()),
            checkpoints_taken: AtomicU64::new(0),
            replayed_iterations: AtomicU64::new(0),
        }
    }
}

/// Per-rank result of the harness.
struct RankOutcome {
    loss: f32,
    world_size: usize,
    assignment: StageAssignment,
    weights_checksum: u64,
    imbalance: f64,
}

/// ΔL (Eq. 2) of `assignment` over the compute proxy of `layers`: how much
/// the bottleneck stage exceeds the mean stage load.
fn assignment_imbalance(assignment: &StageAssignment, layers: &[LayerState]) -> f64 {
    let totals: Vec<f64> = assignment
        .ranges()
        .map(|owned| {
            let mut total = 0.0f64;
            for layer in &layers[owned] {
                total += layer.weights.len().max(1) as f64
                    * layer.retention()
                    * if layer.frozen { 1.0 / 3.0 } else { 1.0 };
            }
            total
        })
        .collect();
    dynmo_pipeline::metrics::imbalance(&totals)
}

fn ckpt_err(e: dynmo_resilience::CheckpointError) -> RuntimeError {
    RuntimeError::InvalidArgument(format!("checkpoint failure: {e}"))
}

/// Deterministic per-layer initialization: identical on every rank.
fn init_layers(workload: &WorkloadConfig) -> Vec<LayerState> {
    (0..workload.num_layers)
        .map(|layer_id| {
            let mut rng = Prng::seed_from(
                workload
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(layer_id as u64),
            );
            let weights: Vec<f32> = (0..WEIGHTS_PER_LAYER)
                .map(|_| (rng.next_f64() as f32 - 0.5) * 2.0)
                .collect();
            LayerState {
                layer_id,
                optimizer: vec![0.0; weights.len()],
                pruning_mask: vec![true; weights.len()],
                frozen: false,
                rng_state: rng.state(),
                weights,
            }
        })
        .collect()
}

/// Apply the freeze/prune schedules due at `iteration` to one layer.
/// Deterministic in `(layer, iteration)` regardless of which rank hosts the
/// layer, so replays after recovery reproduce the original run exactly.
fn apply_schedules(layer: &mut LayerState, iteration: u64) {
    if iteration == (layer.layer_id as u64 + 1) * FREEZE_EVERY {
        layer.frozen = true;
    }
    if iteration > 0 && iteration.is_multiple_of(PRUNE_EVERY) && !layer.frozen {
        // Magnitude-prune 10% of the *remaining* weights, layer-locally.
        let mut kept: Vec<usize> = (0..layer.weights.len())
            .filter(|&i| layer.pruning_mask[i])
            .collect();
        let drop = kept.len() / 10;
        if drop > 0 {
            kept.sort_by(|&a, &b| {
                layer.weights[a]
                    .abs()
                    .partial_cmp(&layer.weights[b].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            for &i in kept.iter().take(drop) {
                layer.pruning_mask[i] = false;
                layer.weights[i] = 0.0;
                layer.optimizer[i] = 0.0;
            }
        }
    }
}

/// One deterministic SGD-with-momentum-style update on a layer's proxy
/// weights.  The noise stream lives in the layer itself (not the rank), so
/// ownership changes and replays do not perturb the trajectory.
fn train_step(layer: &mut LayerState, iteration: u64) {
    if layer.frozen {
        return;
    }
    let mut rng = Prng::from_state(layer.rng_state);
    let lr = 0.05 / (1.0 + iteration as f64 / 200.0);
    for i in 0..layer.weights.len() {
        if !layer.pruning_mask[i] {
            continue;
        }
        let noise = (rng.next_f64() as f32 - 0.5) * 0.02;
        let grad = layer.weights[i] * 0.1 + noise;
        layer.optimizer[i] = 0.9 * layer.optimizer[i] + 0.1 * grad;
        layer.weights[i] -= lr as f32 * layer.optimizer[i];
    }
    layer.rng_state = rng.state();
}

/// A layer's contribution to the training loss: mean |w| over retained
/// weights (decays as training pulls weights toward zero).
fn layer_loss(layer: &LayerState) -> f32 {
    let kept: Vec<f32> = layer
        .weights
        .iter()
        .zip(&layer.pruning_mask)
        .filter(|(_, &m)| m)
        .map(|(w, _)| w.abs())
        .collect();
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f32>() / kept.len() as f32
    }
}

/// FNV-1a over the bit-exact content of every layer.
fn weights_checksum(layers: &[LayerState]) -> u64 {
    let mut buffer = Vec::new();
    for layer in layers {
        buffer.extend_from_slice(&(layer.layer_id as u64).to_le_bytes());
        for w in &layer.weights {
            buffer.extend_from_slice(&w.to_bits().to_le_bytes());
        }
        for o in &layer.optimizer {
            buffer.extend_from_slice(&o.to_bits().to_le_bytes());
        }
        buffer.extend(layer.pruning_mask.iter().map(|&m| u8::from(m)));
        buffer.push(u8::from(layer.frozen));
    }
    dynmo_resilience::fnv1a(buffer)
}

/// Gather every stage's fresh layer states onto local rank 0 and assemble
/// the full [`TrainerState`].  Returns `Some` on rank 0, `None` elsewhere.
fn gather_full_state(
    comm: &Communicator,
    assignment: &StageAssignment,
    layers: &[LayerState],
    iteration: u64,
    loss: f32,
) -> Result<Option<TrainerState>, RuntimeError> {
    let mine = &layers[assignment.layers_of(comm.rank())];
    let text = serde_json::to_string(mine)
        .map_err(|e| RuntimeError::InvalidArgument(format!("serialize layers: {e}")))?;
    let payload = Payload::Bytes(text.into_bytes());
    let gathered = comm.gather(0, payload)?;
    let Some(parts) = gathered else {
        return Ok(None);
    };
    let mut all: Vec<LayerState> = Vec::with_capacity(layers.len());
    for part in parts {
        let raw = part.into_bytes()?;
        let text = std::str::from_utf8(&raw)
            .map_err(|e| RuntimeError::PayloadMismatch(format!("layer payload utf8: {e}")))?;
        let states: Vec<LayerState> = serde_json::from_str(text)
            .map_err(|e| RuntimeError::PayloadMismatch(format!("layer payload parse: {e}")))?;
        all.extend(states);
    }
    all.sort_by_key(|layer| layer.layer_id);
    let mut metrics = std::collections::BTreeMap::new();
    metrics.insert("loss".to_string(), f64::from(loss));
    Ok(Some(TrainerState {
        iteration,
        assignment: assignment.clone(),
        layers: all,
        metrics,
        engine: None,
    }))
}

/// Save `state` (rank 0 only), pricing the write into the recovery bucket.
fn save_checkpoint(state: TrainerState, shared: &SharedState) -> Result<(), RuntimeError> {
    let cost = CheckpointCostModel::default().write_cost(state.size_bytes());
    let checkpoint = Checkpoint::new(state).map_err(ckpt_err)?;
    let mut store = shared.store.lock();
    store.save(&checkpoint).map_err(ckpt_err)?;
    store.retain_last(KEEP_CHECKPOINTS);
    drop(store);
    shared.overhead.lock().record_recovery(cost);
    shared.checkpoints_taken.fetch_add(1, Ordering::SeqCst);
    Ok(())
}

/// Run a fault-injected, checkpointed training job on the simulated
/// multi-rank runtime and recover from every scheduled failure.
///
/// Returns an error only for structural problems (bad config, checkpoint
/// corruption); scheduled rank deaths are *handled*, not propagated.
pub fn run_resilient(config: &ResilientTrainingConfig) -> Result<ResilientRunReport, RuntimeError> {
    config.validate().map_err(RuntimeError::InvalidArgument)?;
    let shared = Arc::new(SharedState::new(config.world_size));

    // Initial checkpoint: every rank derives the same state, rank 0 writes
    // it before any rank starts, so recovery always has a floor.
    {
        let layers = init_layers(&config.workload);
        let assignment = StageAssignment::uniform(config.workload.num_layers, config.world_size);
        let mut metrics = std::collections::BTreeMap::new();
        metrics.insert("loss".to_string(), 0.0);
        let state = TrainerState {
            iteration: 0,
            assignment,
            layers,
            metrics,
            engine: None,
        };
        save_checkpoint(state, &shared)?;
    }

    let shared_for_ranks = Arc::clone(&shared);
    let config_owned = config.clone();
    let results: Vec<Result<Option<RankOutcome>, RuntimeError>> =
        launch(config.world_size, move |ctx| {
            rank_body(&ctx, &config_owned, &shared_for_ranks)
        })?;

    let outcome = first_outcome(results)?;
    let report = ResilientRunReport {
        initial_world_size: config.world_size,
        final_world_size: outcome.world_size,
        iterations: config.iterations,
        final_loss: f64::from(outcome.loss),
        final_imbalance: outcome.imbalance,
        final_assignment: outcome.assignment,
        weights_checksum: outcome.weights_checksum,
        checkpoints_taken: shared.checkpoints_taken.load(Ordering::SeqCst),
        replayed_iterations: shared.replayed_iterations.load(Ordering::SeqCst),
        recoveries: shared.recoveries.lock().clone(),
        overhead: *shared.overhead.lock(),
        fleet_events: shared.job_manager.lock().events().to_vec(),
    };
    Ok(report)
}

/// The first surviving rank's outcome (every survivor reports the same
/// summary); any rank's error fails the run.
fn first_outcome(
    results: Vec<Result<Option<RankOutcome>, RuntimeError>>,
) -> Result<RankOutcome, RuntimeError> {
    let mut first = None;
    for result in results {
        first = first.or(result?);
    }
    first.ok_or_else(|| RuntimeError::InvalidArgument("no rank survived the run".to_string()))
}

/// The per-rank training loop with failure handling.
fn rank_body(
    ctx: &RankCtx,
    config: &ResilientTrainingConfig,
    shared: &SharedState,
) -> Result<Option<RankOutcome>, RuntimeError> {
    let me = ctx.rank();
    let injector = FaultInjector::new(config.fault_plan.clone(), ctx.fabric().detector().clone());
    let mut comm = ctx.world();
    let mut assignment = StageAssignment::uniform(config.workload.num_layers, config.world_size);
    let mut layers = init_layers(&config.workload);
    let mut iteration: u64 = 0;
    let mut loss: f32 = 0.0;

    while iteration < config.iterations {
        match run_iteration(
            &comm,
            &assignment,
            &mut layers,
            iteration,
            &injector,
            config,
            shared,
        ) {
            Ok(iteration_loss) => {
                loss = iteration_loss;
                iteration += 1;
            }
            Err(RuntimeError::RankFailed { rank }) if rank == me => {
                // This rank was killed by the fault plan: simulate the
                // crash by dropping out of the job entirely.
                return Ok(None);
            }
            Err(RuntimeError::RankFailed { .. }) => {
                // A peer died.  Re-form the world, roll back, replay.
                // Recovery itself can observe *another* death (two ranks
                // dying at the same iteration surface one at a time to a
                // survivor whose rebuilt communicator still contains the
                // second victim): retry with the updated failed set until
                // the rendezvous succeeds on a fully-live survivor world.
                loop {
                    match recover(&comm, iteration, shared) {
                        Ok((new_comm, new_assignment, new_layers, resumed_from)) => {
                            comm = new_comm;
                            assignment = new_assignment;
                            layers = new_layers;
                            iteration = resumed_from;
                            break;
                        }
                        Err(RuntimeError::RankFailed { rank }) if rank == me => {
                            return Ok(None);
                        }
                        Err(RuntimeError::RankFailed { .. }) => continue,
                        Err(other) => return Err(other),
                    }
                }
            }
            Err(other) => return Err(other),
        }
    }

    conclude(&comm, assignment, &layers, iteration, loss).map(Some)
}

/// Close a run: rank 0 of `comm` assembles the final state, hashes it, and
/// broadcasts the checksum and imbalance so every member reports the same
/// values.
fn conclude(
    comm: &Communicator,
    assignment: StageAssignment,
    layers: &[LayerState],
    iteration: u64,
    loss: f32,
) -> Result<RankOutcome, RuntimeError> {
    let final_state = gather_full_state(comm, &assignment, layers, iteration, loss)?;
    let summary_payload = if let Some(state) = &final_state {
        Payload::U64(vec![
            weights_checksum(&state.layers),
            assignment_imbalance(&assignment, &state.layers).to_bits(),
        ])
    } else {
        Payload::Empty
    };
    let summary = comm.broadcast(0, summary_payload)?.into_u64()?;
    Ok(RankOutcome {
        loss,
        world_size: comm.size(),
        assignment,
        weights_checksum: summary[0],
        imbalance: f64::from_bits(summary[1]),
    })
}

/// One training iteration: fault tick, schedules, local updates, global
/// loss, periodic checkpoint.
fn run_iteration(
    comm: &Communicator,
    assignment: &StageAssignment,
    layers: &mut [LayerState],
    iteration: u64,
    injector: &FaultInjector,
    config: &ResilientTrainingConfig,
    shared: &SharedState,
) -> Result<f32, RuntimeError> {
    injector.tick(comm.my_global_rank(), iteration)?;
    let loss = local_step(comm, assignment, layers, iteration)?;

    // Checkpoint after every `interval` *completed* iterations.  The stored
    // `iteration` field is the next iteration to execute, so a restore
    // never re-applies an update the snapshot already contains.
    let interval = config.checkpoint_interval;
    if interval > 0 && (iteration + 1).is_multiple_of(interval) {
        if let Some(state) = gather_full_state(comm, assignment, layers, iteration + 1, loss)? {
            save_checkpoint(state, shared)?;
        }
    }
    Ok(loss)
}

/// The resume step shared by failure recovery and every elastic phase:
/// load the newest checkpoint, verify it, and re-plan its layers for a
/// world of `world_size`.
fn restore_latest(
    shared: &SharedState,
    world_size: usize,
) -> Result<(TrainerState, StageAssignment), RuntimeError> {
    let checkpoint = shared
        .store
        .lock()
        .latest()
        .map_err(ckpt_err)?
        .ok_or_else(|| RuntimeError::InvalidArgument("no checkpoint available".to_string()))?;
    let state = checkpoint.verify().map_err(ckpt_err)?.clone();
    let assignment = replan(&state, world_size);
    Ok((state, assignment))
}

/// Survivor-side recovery: rebuild the communicator, reload the newest
/// checkpoint, re-balance for the shrunken world, and report the rollback.
fn recover(
    comm: &Communicator,
    detected_at: u64,
    shared: &SharedState,
) -> Result<(Communicator, StageAssignment, Vec<LayerState>, u64), RuntimeError> {
    let new_comm = comm.rebuild_survivors()?.ok_or(RuntimeError::RankFailed {
        rank: comm.my_global_rank(),
    })?;
    // Only the ranks that died *out of this communicator* are new: ranks
    // handled by an earlier recovery are no longer members, so they are
    // neither re-released to the fleet nor re-reported in the event.  They
    // are read off the rebuilt membership, not the detector: a second
    // death can land between a detector read and the rebuild, and would
    // then leave the world without ever being released.
    let failed_now: Vec<usize> = comm
        .members()
        .iter()
        .copied()
        .filter(|rank| !new_comm.members().contains(rank))
        .collect();
    // Rendezvous on the new communicator before touching the store, so no
    // survivor reads the checkpoint while another is still writing one.
    new_comm.barrier()?;

    let (state, assignment) = restore_latest(shared, new_comm.size())?;
    let resumed_from = state.iteration;
    let replayed = detected_at.saturating_sub(resumed_from);

    if new_comm.rank() == 0 {
        // Release the dead GPUs back to the fleet and account the episode.
        shared
            .job_manager
            .lock()
            .release(JOB, &failed_now, detected_at)
            .map_err(|e| RuntimeError::InvalidArgument(format!("releasing failed ranks: {e}")))?;
        // Restore read + communicator rebuild + the replayed iterations.
        let cost = CheckpointCostModel::default().read_cost(state.size_bytes())
            + REBUILD_COST
            + replayed as f64 * ITERATION_COST;
        shared.overhead.lock().record_recovery(cost);
        shared
            .replayed_iterations
            .fetch_add(replayed, Ordering::SeqCst);
        shared.recoveries.lock().push(RecoveryEvent {
            detected_at,
            failed_ranks: failed_now,
            resumed_from,
            replayed,
            world_size_after: new_comm.size(),
            cost,
        });
    }

    Ok((new_comm, assignment, state.layers, resumed_from))
}

/// Configuration of a voluntary shrink→grow session.
#[derive(Debug, Clone)]
pub struct ElasticRescaleConfig {
    /// Full world size.
    pub world_size: usize,
    /// Total iterations to run.
    pub iterations: u64,
    /// The synthetic workload.
    pub workload: WorkloadConfig,
    /// Iteration at which the world shrinks.
    pub shrink_at: u64,
    /// World size during the shrunken phase.
    pub shrink_to: usize,
    /// Iteration at which the world grows back to full size.
    pub grow_at: u64,
}

impl ElasticRescaleConfig {
    /// Validate phase ordering and sizes.
    pub fn validate(&self) -> Result<(), String> {
        if self.world_size == 0 || self.shrink_to == 0 {
            return Err("world sizes must be positive".into());
        }
        if self.shrink_to >= self.world_size {
            return Err("shrink_to must be smaller than world_size".into());
        }
        if !(self.shrink_at < self.grow_at && self.grow_at < self.iterations) {
            return Err("phases must satisfy shrink_at < grow_at < iterations".into());
        }
        if self.workload.num_layers < self.world_size {
            return Err("need at least one layer per worker".into());
        }
        Ok(())
    }
}

/// Outcome of [`run_elastic_rescale`].
#[derive(Debug, Clone)]
pub struct ElasticRescaleReport {
    /// World size in each phase: `[full, shrunken, full]`.
    pub phase_world_sizes: Vec<usize>,
    /// Final training loss.
    pub final_loss: f64,
    /// Checksum of the final per-layer state.
    pub weights_checksum: u64,
    /// Fleet accounting: the shrink releases GPUs, the grow re-acquires
    /// them.
    pub fleet_events: Vec<FleetEvent>,
    /// Average GPUs allocated over the run (the paper's Figure 4 metric).
    pub average_allocated: f64,
    /// Overhead accounting (checkpoints + re-scale costs in `recovery`).
    pub overhead: OverheadBreakdown,
}

/// Run a voluntary shrink→grow session: train on the full world, release
/// part of it mid-run (checkpoint + `comm_split` + re-balance), train on
/// the shrunken world, then grow back and finish on the full world.
pub fn run_elastic_rescale(
    config: &ElasticRescaleConfig,
) -> Result<ElasticRescaleReport, RuntimeError> {
    config.validate().map_err(RuntimeError::InvalidArgument)?;
    let shared = Arc::new(SharedState::new(config.world_size));

    let shared_for_ranks = Arc::clone(&shared);
    let config_owned = config.clone();
    let results = launch(config.world_size, move |ctx| {
        elastic_rank_body(&ctx, &config_owned, &shared_for_ranks).map(Some)
    })?;
    let outcome = first_outcome(results)?;

    let job_manager = shared.job_manager.lock().clone();
    let average_allocated = job_manager.average_allocated(config.iterations);
    let overhead = *shared.overhead.lock();
    Ok(ElasticRescaleReport {
        phase_world_sizes: vec![config.world_size, config.shrink_to, config.world_size],
        final_loss: f64::from(outcome.loss),
        weights_checksum: outcome.weights_checksum,
        fleet_events: job_manager.events().to_vec(),
        average_allocated,
        overhead,
    })
}

/// Per-rank body of the shrink→grow session.
fn elastic_rank_body(
    ctx: &RankCtx,
    config: &ElasticRescaleConfig,
    shared: &SharedState,
) -> Result<RankOutcome, RuntimeError> {
    let world = ctx.world();
    let me = ctx.rank();
    let workload = &config.workload;
    // Phases after the first resume from the checkpoint their predecessor
    // wrote, re-planned for the phase's world.
    let resume = |world_size: usize| {
        let (state, assignment) = restore_latest(shared, world_size)?;
        Ok::<_, RuntimeError>((assignment, state.layers))
    };

    // Phase 1: full world.
    let assignment = StageAssignment::uniform(workload.num_layers, config.world_size);
    let mut layers = init_layers(workload);
    let phase = 0..config.shrink_at;
    let loss = train_phase(&world, &assignment, &mut layers, phase)?;
    // Checkpoint at the shrink boundary, then split off the released ranks.
    if let Some(state) = gather_full_state(&world, &assignment, &layers, config.shrink_at, loss)? {
        save_checkpoint(state, shared)?;
    }
    world.barrier()?;
    if me == 0 {
        let released: Vec<usize> = (config.shrink_to..config.world_size).collect();
        shared
            .job_manager
            .lock()
            .release(JOB, &released, config.shrink_at)
            .map_err(|e| RuntimeError::InvalidArgument(format!("elastic release: {e}")))?;
        shared.overhead.lock().record_recovery(REBUILD_COST);
    }
    let active_ranks: Vec<usize> = (0..config.shrink_to).collect();
    let active = world.split_subset(&active_ranks)?;

    // Phase 2: shrunken world (released ranks idle until the grow barrier).
    if let Some(active) = &active {
        let (assignment, mut layers) = resume(config.shrink_to)?;
        let phase = config.shrink_at..config.grow_at;
        let loss = train_phase(active, &assignment, &mut layers, phase)?;
        if let Some(state) = gather_full_state(active, &assignment, &layers, config.grow_at, loss)?
        {
            save_checkpoint(state, shared)?;
        }
    }

    // Grow rendezvous: released ranks have been waiting here; active ranks
    // arrive once the shrunken phase is checkpointed.
    world.barrier()?;
    if me == 0 {
        // Grow re-acquires the exact workers the shrink released; the
        // strict by-id acquire rejects any double acquire.
        let reacquired: Vec<usize> = (config.shrink_to..config.world_size).collect();
        shared
            .job_manager
            .lock()
            .acquire(JOB, &reacquired, config.grow_at)
            .map_err(|e| RuntimeError::InvalidArgument(format!("elastic acquire: {e}")))?;
        shared.overhead.lock().record_recovery(REBUILD_COST);
    }

    // Phase 3: full world again, restored from the grow-point checkpoint.
    let (assignment, mut layers) = resume(config.world_size)?;
    let phase = config.grow_at..config.iterations;
    let loss = train_phase(&world, &assignment, &mut layers, phase)?;
    conclude(&world, assignment, &layers, config.iterations, loss)
}

/// One rank's share of a training iteration: apply the due schedules and
/// the update to the layers it owns, then all-reduce the loss.
fn local_step(
    comm: &Communicator,
    assignment: &StageAssignment,
    layers: &mut [LayerState],
    iteration: u64,
) -> Result<f32, RuntimeError> {
    let owned = &mut layers[assignment.layers_of(comm.rank())];
    for layer in owned.iter_mut() {
        apply_schedules(layer, iteration);
        train_step(layer, iteration);
    }
    let partial: f32 = owned.iter().map(layer_loss).sum();
    Ok(comm.allreduce_sum_f32(&[partial])?[0])
}

/// Train one elastic phase (no fault injection) and return its last loss
/// (0 for an empty phase).
fn train_phase(
    comm: &Communicator,
    assignment: &StageAssignment,
    layers: &mut [LayerState],
    iterations: std::ops::Range<u64>,
) -> Result<f32, RuntimeError> {
    let mut loss = 0.0;
    for iteration in iterations {
        loss = local_step(comm, assignment, layers, iteration)?;
    }
    Ok(loss)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config(world: usize, iterations: u64, plan: FaultPlan) -> ResilientTrainingConfig {
        ResilientTrainingConfig {
            world_size: world,
            iterations,
            workload: WorkloadConfig::small(world * 3, 42),
            fault_plan: plan,
            checkpoint_interval: 10,
        }
    }

    #[test]
    fn failure_free_run_completes_with_checkpoints() {
        let report = run_resilient(&base_config(4, 35, FaultPlan::none())).unwrap();
        assert_eq!(report.final_world_size, 4);
        assert_eq!(report.iterations, 35);
        assert!(report.recoveries.is_empty());
        assert_eq!(report.replayed_iterations, 0);
        // Initial + iterations 10, 20, 30.
        assert_eq!(report.checkpoints_taken, 4);
        assert!(report.overhead.recovery > 0.0);
        assert_eq!(report.overhead.recovery_events, 4);
        assert!(report.final_loss > 0.0);
        assert!(report.fleet_events.is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_resilient(&base_config(3, 25, FaultPlan::none())).unwrap();
        let b = run_resilient(&base_config(3, 25, FaultPlan::none())).unwrap();
        assert_eq!(a.weights_checksum, b.weights_checksum);
        assert_eq!(a.final_loss, b.final_loss);
    }

    #[test]
    fn killed_rank_triggers_recovery_and_the_job_finishes() {
        let config = base_config(4, 40, FaultPlan::none().kill(2, 17));
        let report = run_resilient(&config).unwrap();
        assert_eq!(report.final_world_size, 3);
        assert_eq!(report.recoveries.len(), 1);
        let recovery = &report.recoveries[0];
        assert_eq!(recovery.failed_ranks, vec![2]);
        assert_eq!(recovery.resumed_from, 10);
        assert!(recovery.detected_at >= 17);
        assert!(recovery.replayed >= 7);
        assert_eq!(recovery.world_size_after, 3);
        assert!(recovery.cost > 0.0);
        assert!(report.replayed_iterations >= 7);
        // The failed GPU was released back to the fleet.
        assert_eq!(report.fleet_events.len(), 1);
        assert_eq!(report.fleet_events[0].delta, 1);
        assert_eq!(report.fleet_events[0].allocated_after, 3);
        // The final layout covers every layer over the survivor world.
        assert_eq!(
            report.final_assignment.num_layers(),
            config.workload.num_layers
        );
        assert!(report.final_assignment.num_stages() <= 3);
    }

    #[test]
    fn recovered_run_matches_failure_free_run_bit_for_bit() {
        // The per-layer updates are deterministic in (layer, iteration), so
        // replaying from the checkpoint must reproduce the exact same final
        // weights the uninterrupted run produces.
        let clean = run_resilient(&base_config(4, 40, FaultPlan::none())).unwrap();
        let faulty = run_resilient(&base_config(4, 40, FaultPlan::none().kill(1, 23))).unwrap();
        assert_eq!(clean.weights_checksum, faulty.weights_checksum);
        let relative = (clean.final_loss - faulty.final_loss).abs() / clean.final_loss.max(1e-12);
        assert!(relative < 1e-3, "loss drift {relative}");
    }

    #[test]
    fn two_failures_are_survived() {
        let config = base_config(5, 45, FaultPlan::none().kill(4, 12).kill(1, 31));
        let report = run_resilient(&config).unwrap();
        assert_eq!(report.final_world_size, 3);
        assert_eq!(report.recoveries.len(), 2);
        assert_eq!(report.recoveries[1].world_size_after, 3);
        let clean = run_resilient(&base_config(5, 45, FaultPlan::none())).unwrap();
        assert_eq!(report.weights_checksum, clean.weights_checksum);
    }

    #[test]
    fn simultaneous_failures_at_the_same_iteration_are_survived() {
        // Regression: when two victims die in the same iteration, a
        // survivor can observe the deaths one at a time — its first
        // rebuilt communicator still contains the second victim and the
        // recovery rendezvous is poisoned.  The recovery retry loop must
        // absorb that and converge (this aborted the whole run before).
        // Interleaving-dependent, hence several trials.
        let clean = run_resilient(&base_config(5, 40, FaultPlan::none())).unwrap();
        for trial in 0..10 {
            let config = base_config(5, 40, FaultPlan::none().kill(1, 13).kill(3, 13));
            let report =
                run_resilient(&config).unwrap_or_else(|e| panic!("trial {trial} failed: {e}"));
            assert_eq!(report.final_world_size, 3);
            assert_eq!(report.weights_checksum, clean.weights_checksum);
            // No rank is ever double-released, even across overlapping
            // recoveries.
            let released: i64 = report.fleet_events.iter().map(|e| e.delta).sum();
            assert_eq!(released, 2);
        }
    }

    #[test]
    fn sequential_failures_release_each_rank_exactly_once() {
        // The second recovery must only release the newly-dead rank, not
        // re-release the one handled earlier (the job manager rejects a
        // double release, which would fail the run).
        let config = base_config(5, 45, FaultPlan::none().kill(4, 12).kill(1, 31));
        let report = run_resilient(&config).unwrap();
        assert_eq!(report.recoveries.len(), 2);
        assert_eq!(report.recoveries[0].failed_ranks, vec![4]);
        assert_eq!(report.recoveries[1].failed_ranks, vec![1]);
        assert_eq!(report.fleet_events.len(), 2);
        assert!(report.fleet_events.iter().all(|e| e.delta == 1));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut config = base_config(2, 10, FaultPlan::none().kill(0, 1).kill(1, 2));
        assert!(run_resilient(&config).is_err(), "whole world killed");
        config.fault_plan = FaultPlan::none().kill(7, 1);
        assert!(run_resilient(&config).is_err(), "unknown rank");
        config.fault_plan = FaultPlan::none();
        config.world_size = 0;
        assert!(run_resilient(&config).is_err());
    }

    #[test]
    fn replan_respects_world_size_and_conservation() {
        let layers = init_layers(&WorkloadConfig::small(12, 7));
        let mut metrics = std::collections::BTreeMap::new();
        metrics.insert("loss".to_string(), 1.0);
        let state = TrainerState {
            iteration: 5,
            assignment: StageAssignment::uniform(12, 4),
            layers,
            metrics,
            engine: None,
        };
        for world in [1, 2, 3, 4, 6] {
            let assignment = replan(&state, world);
            assert_eq!(assignment.num_layers(), 12);
            assert!(assignment.num_stages() <= world);
        }
    }

    #[test]
    fn elastic_shrink_grow_round_trips_the_world() {
        let config = ElasticRescaleConfig {
            world_size: 4,
            iterations: 36,
            workload: WorkloadConfig::small(12, 11),
            shrink_at: 12,
            shrink_to: 2,
            grow_at: 24,
        };
        let report = run_elastic_rescale(&config).unwrap();
        assert_eq!(report.phase_world_sizes, vec![4, 2, 4]);
        assert!(report.final_loss > 0.0);
        // Fleet: one release of 2 GPUs, one re-acquire of 2 GPUs.
        assert_eq!(report.fleet_events.len(), 2);
        assert_eq!(report.fleet_events[0].delta, 2);
        assert_eq!(report.fleet_events[1].delta, -2);
        assert_eq!(report.fleet_events[1].allocated_after, 4);
        // Average allocation dips below the full fleet.
        assert!(report.average_allocated < 4.0);
        assert!(report.average_allocated > 2.0);
        assert!(report.overhead.recovery > 0.0);
    }

    #[test]
    fn elastic_rescale_matches_static_run_bit_for_bit() {
        let workload = WorkloadConfig::small(12, 19);
        let rescale = run_elastic_rescale(&ElasticRescaleConfig {
            world_size: 4,
            iterations: 30,
            workload,
            shrink_at: 10,
            shrink_to: 2,
            grow_at: 20,
        })
        .unwrap();
        let static_run = run_resilient(&ResilientTrainingConfig {
            world_size: 4,
            iterations: 30,
            workload,
            fault_plan: FaultPlan::none(),
            checkpoint_interval: 25,
        })
        .unwrap();
        assert_eq!(rescale.weights_checksum, static_run.weights_checksum);
    }

    #[test]
    fn elastic_config_validation() {
        let good = ElasticRescaleConfig {
            world_size: 4,
            iterations: 30,
            workload: WorkloadConfig::small(8, 1),
            shrink_at: 10,
            shrink_to: 2,
            grow_at: 20,
        };
        assert!(good.validate().is_ok());
        let mut bad = good.clone();
        bad.shrink_to = 4;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.grow_at = 5;
        assert!(bad.validate().is_err());
        let mut bad = good;
        bad.workload.num_layers = 2;
        assert!(bad.validate().is_err());
    }
}
