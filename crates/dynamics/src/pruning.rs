//! Gradual global magnitude pruning (paper §2.2, §3.2.1, Algorithm 1).
//!
//! Two pieces live here:
//!
//! 1. [`distributed_global_prune`] — a faithful implementation of the
//!    paper's Algorithm 1 over the `dynmo-runtime` fabric: every rank finds
//!    its local top-k parameter magnitudes, rank 0 gathers them, computes
//!    the global top-k and broadcasts its magnitude threshold, and each
//!    rank compresses its shard against it.  The paper implements the
//!    gather with NCCL P2P because per-rank message sizes differ; the
//!    runtime's gather has exactly those semantics.  The threshold fully
//!    determines each rank's keep-indices, so broadcasting it replaces the
//!    paper's scatter of per-rank index lists.
//! 2. [`GradualPruningEngine`] — the training-time dynamism model: the
//!    Zhu–Gupta cubic schedule (Eq. 3) decides the target sparsity at each
//!    step, a per-layer magnitude-scale profile decides how the *global*
//!    threshold translates into non-uniform per-layer retention, and the
//!    Sputnik/cuBLAS kernel cost model translates retention into per-layer
//!    compute multipliers.

use crate::rng::Prng;
use dynmo_model::Model;
use dynmo_runtime::{Communicator, Payload, Result as RtResult};
use dynmo_sparse::{top_k_magnitudes, KernelCostModel};
use serde::{Deserialize, Serialize};

use crate::engine::{DynamismCase, DynamismEngine, EngineState, LoadUpdate, RebalanceFrequency};

/// Snapshot layout version of [`GradualPruningEngine`]'s engine state.
const PRUNING_STATE_VERSION: u32 = 1;

/// The gradual pruning schedule of Zhu & Gupta (Eq. 3 of the paper):
/// `S_t = S_f + (S_i − S_f)·(1 − (t − t0)/(n·Δt))³` for
/// `t ∈ {t0, t0+Δt, …, t0+n·Δt}`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PruningSchedule {
    /// Initial sparsity `S_i` (usually 0).
    pub initial_sparsity: f64,
    /// Final sparsity `S_f` (0.9 in the paper's experiments).
    pub final_sparsity: f64,
    /// First pruning iteration `t0` (3000 in the paper).
    pub start_iteration: u64,
    /// Pruning frequency `Δt` (1000 in the paper).
    pub frequency: u64,
    /// Number of pruning steps `n` (4 in the paper: 3000..7000).
    pub num_steps: u64,
}

impl PruningSchedule {
    /// The paper's schedule: prune every 1000 iterations from iteration 3000
    /// to 7000, reaching 90% sparsity.
    pub fn paper_default() -> Self {
        PruningSchedule {
            initial_sparsity: 0.0,
            final_sparsity: 0.9,
            start_iteration: 3000,
            frequency: 1000,
            num_steps: 4,
        }
    }

    /// Target sparsity after iteration `t` (the most recent completed
    /// pruning step's target; 0 before pruning starts, `final_sparsity`
    /// after the schedule ends).
    pub fn sparsity_at(&self, t: u64) -> f64 {
        if t < self.start_iteration {
            return self.initial_sparsity;
        }
        let end = self.start_iteration + self.num_steps * self.frequency;
        let t_clamped = t.min(end);
        // Only completed steps count.
        let completed = (t_clamped - self.start_iteration) / self.frequency;
        let progress = completed as f64 / self.num_steps as f64;
        let remaining = (1.0 - progress).powi(3);
        self.final_sparsity + (self.initial_sparsity - self.final_sparsity) * remaining
    }

    /// Whether iteration `t` is a pruning step.
    pub fn is_pruning_step(&self, t: u64) -> bool {
        if t < self.start_iteration {
            return false;
        }
        let end = self.start_iteration + self.num_steps * self.frequency;
        t <= end && (t - self.start_iteration).is_multiple_of(self.frequency)
    }
}

/// Run Algorithm 1 (global magnitude pruning) across the ranks of `comm`.
///
/// Each rank passes its local parameter shard and the target global
/// sparsity; the function returns the pruned shard (pruned entries zeroed).
/// All ranks must call this collectively.
pub fn distributed_global_prune(
    comm: &Communicator,
    local_params: &[f32],
    sparsity: f64,
) -> RtResult<Vec<f32>> {
    let sparsity = sparsity.clamp(0.0, 1.0);
    // Line 2: k = num_params × (1 − sparsity), over the *global* parameter
    // count.  Each rank knows only its shard, so the global count is
    // obtained with an all-reduce.
    let global_count = comm.allreduce_sum_f32(&[local_params.len() as f32])?[0] as usize;
    let global_keep = ((1.0 - sparsity) * global_count as f64).round() as usize;

    // Line 3: local top-k magnitudes (capped at the shard size).
    let local_keep_cap = local_params.len().min(global_keep);
    let local_top = top_k_magnitudes(local_params, local_keep_cap);

    // Line 4: gather the candidates on rank 0.
    let gathered = comm.gather(0, Payload::F32(local_top))?;

    // Lines 5-7: rank 0 computes the global magnitude threshold — the
    // smallest magnitude that survives the global top-k over all gathered
    // candidates.
    let threshold = if comm.rank() == 0 {
        let all: Vec<f32> = gathered
            .expect("root receives the gathered payloads")
            .into_iter()
            .map(|p| p.into_f32())
            .collect::<RtResult<Vec<_>>>()?
            .into_iter()
            .flatten()
            .collect();
        let survivors = top_k_magnitudes(&all, global_keep.min(all.len()));
        let threshold = survivors.last().copied().unwrap_or(f32::INFINITY);
        vec![threshold]
    } else {
        Vec::new()
    };

    // Line 8: scatter the decision (the threshold fully determines each
    // rank's keep-indices, so broadcasting it is equivalent to scattering
    // per-rank index lists and moves far fewer bytes).
    let threshold = comm
        .broadcast(0, Payload::F32(threshold))?
        .into_f32()?
        .first()
        .copied()
        .unwrap_or(f32::INFINITY);

    // Line 9: compress the local shard.
    let mut pruned = local_params.to_vec();
    for v in pruned.iter_mut() {
        if v.abs() < threshold {
            *v = 0.0;
        }
    }
    Ok(pruned)
}

/// Gradual-pruning dynamism engine.
#[derive(Debug, Clone)]
pub struct GradualPruningEngine {
    schedule: PruningSchedule,
    kernel_cost: KernelCostModel,
    /// Per-layer magnitude scale: layers with smaller scales lose more
    /// parameters to a *global* threshold, which is exactly the source of
    /// the imbalance in §2.2.
    magnitude_scale: Vec<f64>,
    /// Representative GEMM shape (m, n, k) of a transformer layer, used to
    /// translate sparsity into a compute-time multiplier.
    gemm_shape: (usize, usize, usize),
    transformer_layers: Vec<usize>,
    num_layers: usize,
    current_sparsity: f64,
    last_pruning_step: Option<u64>,
    /// The update [`DynamismEngine::step`] last computed, keyed on the
    /// bits of the sparsity it was computed for.
    profile: Option<(u64, LoadUpdate)>,
}

impl GradualPruningEngine {
    /// Build an engine for `model` with the given schedule.
    ///
    /// # Panics
    ///
    /// Panics if `schedule.frequency` or `schedule.num_steps` is zero —
    /// both are divisors in the cubic sparsity schedule.
    pub fn new(model: &Model, schedule: PruningSchedule, seed: u64) -> Self {
        assert!(
            schedule.frequency > 0,
            "PruningSchedule::frequency must be non-zero"
        );
        assert!(
            schedule.num_steps > 0,
            "PruningSchedule::num_steps must be non-zero"
        );
        let mut rng = Prng::seed_from(seed);
        let transformer_layers = model.transformer_layer_ids();
        let num_layers = model.num_layers();
        // Per-layer magnitude scales: log-spread around 1.0 with a mild
        // depth trend (later layers tend to have larger weights and are
        // pruned less), matching empirical global-pruning profiles.
        let depth = transformer_layers.len().max(1) as f64;
        let magnitude_scale = (0..num_layers)
            .map(|l| {
                if let Some(pos) = transformer_layers.iter().position(|&t| t == l) {
                    let trend = 0.7 + 0.6 * (pos as f64 / depth);
                    let jitter = 1.0 + (rng.next_f64() - 0.5) * 0.4;
                    trend * jitter
                } else {
                    1.0
                }
            })
            .collect();
        let cfg = model.config();
        let gemm_shape = (
            cfg.hidden_size,
            cfg.seq_len * cfg.micro_batch_size,
            cfg.ffn_hidden_size,
        );
        GradualPruningEngine {
            schedule,
            kernel_cost: KernelCostModel::h100(),
            magnitude_scale,
            gemm_shape,
            transformer_layers,
            num_layers,
            current_sparsity: schedule.initial_sparsity,
            last_pruning_step: None,
            profile: None,
        }
    }

    /// The engine's pruning schedule.
    pub fn schedule(&self) -> &PruningSchedule {
        &self.schedule
    }

    /// Per-layer retention fractions for a global sparsity `s`: the global
    /// magnitude threshold τ is found by bisection on the exponential
    /// magnitude model `P(|w| ≥ τ | layer l) = exp(−τ / scale_l)` so that
    /// the *overall* retention equals `1 − s`; each layer then retains
    /// `exp(−τ / scale_l)` of its parameters.
    pub fn per_layer_retention(&self, sparsity: f64) -> Vec<f64> {
        let target = (1.0 - sparsity).clamp(0.0, 1.0);
        if target >= 1.0 {
            return vec![1.0; self.num_layers];
        }
        let scales: Vec<f64> = self
            .transformer_layers
            .iter()
            .map(|&l| self.magnitude_scale[l])
            .collect();
        let retention_at = |tau: f64| -> f64 {
            scales.iter().map(|s| (-tau / s).exp()).sum::<f64>() / scales.len() as f64
        };
        // Bisection on τ ∈ [0, large].
        let mut lo = 0.0f64;
        let mut hi = 50.0f64;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if retention_at(mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let tau = 0.5 * (lo + hi);
        (0..self.num_layers)
            .map(|l| {
                if self.transformer_layers.contains(&l) {
                    (-tau / self.magnitude_scale[l]).exp()
                } else {
                    1.0
                }
            })
            .collect()
    }

    /// Compute-time multiplier for a layer whose weights have the given
    /// retention, using the best available kernel (dense cuBLAS below the
    /// Sputnik crossover, Sputnik above it).
    fn compute_scale(&self, retention: f64) -> f64 {
        let sparsity = 1.0 - retention;
        let (m, n, k) = self.gemm_shape;
        let dense = self.kernel_cost.cublas_time(m, n, k);
        let backend = self.kernel_cost.best_backend(m, n, k, sparsity);
        let best = self.kernel_cost.time(backend, m, n, k, sparsity);
        (best / dense).min(1.0)
    }

    /// The load state at global sparsity `sparsity` (with `changed`
    /// unset).
    fn load_at(&self, sparsity: f64) -> LoadUpdate {
        let retention = self.per_layer_retention(sparsity);
        let mut update = LoadUpdate::identity(self.num_layers);
        for &l in &self.transformer_layers {
            let r = retention[l];
            let scale = self.compute_scale(r);
            update.fwd_scale[l] = scale;
            update.bwd_scale[l] = scale;
            // CSR storage keeps values + column indices (≈2× per retained
            // parameter relative to dense element storage), capped at dense.
            update.memory_scale[l] = (r * 1.5).min(1.0);
            update.param_retention[l] = r;
        }
        update
    }
}

impl DynamismEngine for GradualPruningEngine {
    fn name(&self) -> String {
        format!(
            "pruning/target-{:.0}%",
            self.schedule.final_sparsity * 100.0
        )
    }

    fn case(&self) -> DynamismCase {
        DynamismCase::ParameterPruning
    }

    /// The load state at the sparsity in effect.  Sparsity moves only at
    /// scheduled pruning steps, so the per-layer profile (a bisection for
    /// the global threshold plus a kernel-cost lookup per layer) is
    /// computed once per sparsity level and cloned on every other step.
    /// The memo is keyed on the sparsity itself, so a restored state
    /// ([`DynamismEngine::import_state`]) needs no invalidation.
    fn step(&mut self, iteration: u64) -> LoadUpdate {
        let changed =
            self.schedule.is_pruning_step(iteration) && Some(iteration) != self.last_pruning_step;
        if changed {
            self.current_sparsity = self.schedule.sparsity_at(iteration);
            self.last_pruning_step = Some(iteration);
        }
        let key = self.current_sparsity.to_bits();
        if self.profile.as_ref().is_none_or(|(at, _)| *at != key) {
            self.profile = Some((key, self.load_at(self.current_sparsity)));
        }
        let (_, profile) = self.profile.as_ref().expect("profile computed above");
        LoadUpdate {
            changed,
            ..profile.clone()
        }
    }

    fn rebalance_frequency(&self) -> RebalanceFrequency {
        RebalanceFrequency::EveryN(self.schedule.frequency)
    }

    fn export_state(&self) -> EngineState {
        // The magnitude-scale profile is reproduced from the seed at
        // construction; the mutable state is the sparsity in effect and the
        // most recent applied pruning step (u64::MAX encodes "none yet").
        let mut state = EngineState::stateless(self.name(), PRUNING_STATE_VERSION);
        state.scalars = vec![self.current_sparsity];
        state.counters = vec![self.last_pruning_step.unwrap_or(u64::MAX)];
        state
    }

    fn import_state(&mut self, state: &EngineState) -> Result<(), String> {
        state.check(&self.name(), PRUNING_STATE_VERSION)?;
        if state.scalars.len() != 1 || state.counters.len() != 1 {
            return Err("pruning state must carry one scalar and one counter".into());
        }
        self.current_sparsity = state.scalars[0];
        self.last_pruning_step = match state.counters[0] {
            u64::MAX => None,
            step => Some(step),
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmo_model::ModelPreset;
    use dynmo_runtime::launch;
    use dynmo_sparse::prune_to_sparsity;

    fn gpt() -> Model {
        Model::from_preset(ModelPreset::Gpt { layers: 24 })
    }

    #[test]
    fn schedule_follows_the_cubic_curve() {
        let s = PruningSchedule::paper_default();
        assert_eq!(s.sparsity_at(0), 0.0);
        assert_eq!(s.sparsity_at(2999), 0.0);
        // After the first pruning step (t=4000, 1 of 4 done):
        // 0.9·(1 − (1 − 1/4)³) = 0.9·(1 − 0.4219) ≈ 0.520.
        assert!((s.sparsity_at(4000) - 0.5203).abs() < 0.01);
        // After the second step ≈ 0.7875 (the paper rounds to 79%).
        assert!((s.sparsity_at(5000) - 0.7875).abs() < 0.01);
        // After the third step ≈ 0.8859 (the paper rounds to 90% at the end).
        assert!((s.sparsity_at(6000) - 0.8859).abs() < 0.01);
        // End of schedule and beyond: final sparsity.
        assert!((s.sparsity_at(7000) - 0.9).abs() < 1e-9);
        assert!((s.sparsity_at(999_999) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn pruning_steps_are_spaced_by_the_frequency() {
        let s = PruningSchedule::paper_default();
        assert!(s.is_pruning_step(3000));
        assert!(s.is_pruning_step(4000));
        assert!(s.is_pruning_step(7000));
        assert!(!s.is_pruning_step(3500));
        assert!(!s.is_pruning_step(2000));
        assert!(!s.is_pruning_step(8000));
    }

    #[test]
    fn per_layer_retention_is_nonuniform_but_averages_to_target() {
        let engine = GradualPruningEngine::new(&gpt(), PruningSchedule::paper_default(), 7);
        let retention = engine.per_layer_retention(0.9);
        let tfm = gpt().transformer_layer_ids();
        let avg: f64 = tfm.iter().map(|&l| retention[l]).sum::<f64>() / tfm.len() as f64;
        assert!((avg - 0.1).abs() < 0.02, "average retention {avg}");
        // Retention varies across layers (the imbalance source).
        let min = tfm.iter().map(|&l| retention[l]).fold(f64::MAX, f64::min);
        let max = tfm.iter().map(|&l| retention[l]).fold(f64::MIN, f64::max);
        assert!(max > min * 1.5, "min {min} max {max}");
        // Non-transformer layers are untouched.
        assert_eq!(retention[0], 1.0);
    }

    #[test]
    fn zero_sparsity_retains_everything() {
        let engine = GradualPruningEngine::new(&gpt(), PruningSchedule::paper_default(), 7);
        assert!(engine
            .per_layer_retention(0.0)
            .iter()
            .all(|&r| (r - 1.0).abs() < 1e-12));
    }

    #[test]
    fn engine_steps_change_only_at_pruning_iterations() {
        let mut engine = GradualPruningEngine::new(&gpt(), PruningSchedule::paper_default(), 7);
        assert!(!engine.step(100).changed);
        assert!(engine.step(3000).changed);
        // Re-stepping the same iteration does not re-flag the change.
        assert!(!engine.step(3000).changed);
        assert!(!engine.step(3500).changed);
        let update = engine.step(7000);
        assert!(update.changed);
        update.validate().unwrap();
        // The snapshot's one scalar is the sparsity in effect.
        assert!((engine.export_state().scalars[0] - 0.9).abs() < 1e-9);
        // At 90% sparsity the compute multipliers are well below 1.
        let tfm = gpt().transformer_layer_ids();
        assert!(update.fwd_scale[tfm[0]] < 0.8);
        assert!(update.param_retention[tfm[0]] < 0.5);
        assert_eq!(engine.last_pruning_step, Some(7000));
    }

    #[test]
    fn memoized_profile_follows_a_restored_sparsity() {
        // Pruning steps at 10, 20, 30, 40 and 50.
        let schedule = PruningSchedule {
            initial_sparsity: 0.0,
            final_sparsity: 0.9,
            start_iteration: 10,
            frequency: 10,
            num_steps: 4,
        };
        let bits = |u: &LoadUpdate| {
            let mut bits = vec![u64::from(u.changed)];
            for v in [
                &u.fwd_scale,
                &u.bwd_scale,
                &u.memory_scale,
                &u.param_retention,
                &u.token_retention,
            ] {
                bits.extend(v.iter().map(|x| x.to_bits()));
            }
            bits
        };
        // A steps the whole schedule, saving its state mid-interval before
        // the last two pruning steps.
        let mut a = GradualPruningEngine::new(&gpt(), schedule, 7);
        let mut saved = None;
        let mut reference = Vec::new();
        for t in 0..=60 {
            reference.push(bits(&a.step(t)));
            if t == 35 {
                saved = Some(a.export_state());
            }
        }
        // B's memo holds the final sparsity when it is rewound to A's
        // state; from there on it must replay A bit for bit.
        let mut b = GradualPruningEngine::new(&gpt(), schedule, 7);
        for t in 0..=60 {
            b.step(t);
        }
        b.import_state(&saved.unwrap()).unwrap();
        for t in 36..=60 {
            assert_eq!(bits(&b.step(t)), reference[t as usize], "iteration {t}");
        }
    }

    #[test]
    fn compute_scale_only_improves_once_sputnik_wins() {
        let engine = GradualPruningEngine::new(&gpt(), PruningSchedule::paper_default(), 7);
        // Below the 75% crossover the dense kernel is used → scale 1.0.
        assert!((engine.compute_scale(0.6) - 1.0).abs() < 1e-9);
        // Beyond the crossover the sparse kernel wins → scale < 1.
        assert!(engine.compute_scale(0.1) < 0.7);
    }

    #[test]
    fn engine_metadata() {
        let engine = GradualPruningEngine::new(&gpt(), PruningSchedule::paper_default(), 7);
        assert_eq!(engine.case(), DynamismCase::ParameterPruning);
        assert_eq!(
            engine.rebalance_frequency(),
            RebalanceFrequency::EveryN(1000)
        );
        assert!(engine.name().contains("90%"));
    }

    #[test]
    fn distributed_prune_matches_single_process_reference() {
        // 4 ranks, each with a different shard; the distributed result must
        // equal pruning the concatenated vector in one process.
        let shards: Vec<Vec<f32>> = vec![
            vec![0.9, -0.1, 0.05, 0.7],
            vec![0.3, -0.8, 0.2, 0.01],
            vec![0.6, 0.02, -0.5, 0.4],
            vec![0.15, -0.25, 0.85, 0.35],
        ];
        let sparsity = 0.5;
        let shards_for_ranks = shards.clone();
        let results = launch(4, move |ctx| {
            let comm = ctx.world();
            distributed_global_prune(&comm, &shards_for_ranks[ctx.rank()], sparsity).unwrap()
        })
        .unwrap();

        // Single-process reference.
        let mut concat: Vec<f32> = shards.iter().flatten().copied().collect();
        prune_to_sparsity(&mut concat, sparsity);
        let reference: Vec<Vec<f32>> = shards
            .iter()
            .scan(0usize, |offset, shard| {
                let start = *offset;
                *offset += shard.len();
                Some(concat[start..*offset].to_vec())
            })
            .collect();

        for (rank, (got, expected)) in results.iter().zip(reference.iter()).enumerate() {
            assert_eq!(got, expected, "rank {rank} shard mismatch");
        }
    }

    #[test]
    fn distributed_prune_handles_extreme_sparsities() {
        let results = launch(2, |ctx| {
            let comm = ctx.world();
            let shard = vec![0.5f32, -0.25, 0.75, 0.1];
            let all = distributed_global_prune(&comm, &shard, 1.0).unwrap();
            let none = distributed_global_prune(&comm, &shard, 0.0).unwrap();
            (all, none)
        })
        .unwrap();
        for (all, none) in results {
            assert!(all.iter().all(|&v| v == 0.0));
            assert_eq!(none, vec![0.5, -0.25, 0.75, 0.1]);
        }
    }
}
