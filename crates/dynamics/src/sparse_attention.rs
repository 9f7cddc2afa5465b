//! Dynamic sparse (flash) attention (paper §2.4, §4.2.4).
//!
//! The hash-based sparse attention of Pagliardini et al. buckets queries and
//! keys with locality-sensitive hashing; only blocks whose buckets collide
//! are computed by the flash-attention kernel.  Because the hash codes
//! depend on the activations, the number of surviving blocks differs per
//! layer and per step — the paper reports a ~4× increase in bubble ratio
//! over dense attention.
//!
//! The engine models each layer's block *density* (fraction of attention
//! blocks computed) as a per-layer base level with per-iteration
//! multiplicative noise, and converts density into a layer compute
//! multiplier using the analytical FLOP split between the attention score
//! terms (which scale with density) and everything else (which does not).

use crate::rng::Prng;
use dynmo_model::{CostModel, Model};
use serde::{Deserialize, Serialize};

use crate::engine::{DynamismCase, DynamismEngine, EngineState, LoadUpdate, RebalanceFrequency};

/// Snapshot layout version of [`SparseAttentionEngine`]'s engine state.
const SPARSE_ATTENTION_STATE_VERSION: u32 = 1;

/// Whether the attention is dense or dynamically sparsified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttentionMode {
    /// Baseline dense attention (no dynamism).
    Dense,
    /// LSH-bucketed dynamic block-sparse flash attention.
    DynamicSparse,
}

/// Dynamic-sparse-attention dynamism engine.
#[derive(Debug, Clone)]
pub struct SparseAttentionEngine {
    mode: AttentionMode,
    /// Per-layer base density of the attention block mask.
    base_density: Vec<f64>,
    /// Fraction of a transformer layer's forward FLOPs in the density-
    /// dependent attention score terms.
    score_fraction: f64,
    transformer_layers: Vec<usize>,
    num_layers: usize,
    rng: Prng,
    /// Most recent per-layer densities (for inspection / reports).
    last_density: Vec<f64>,
}

impl SparseAttentionEngine {
    /// Build an engine for `model` in the given mode.
    pub fn new(model: &Model, mode: AttentionMode, seed: u64) -> Self {
        let mut rng = Prng::seed_from(seed);
        let cost = CostModel::new(model.config().clone());
        let attn_dense = cost.attention_fwd_flops(1.0);
        let attn_proj_only = cost.attention_fwd_flops(0.0);
        let layer_total = cost.transformer_fwd_flops(1.0);
        let score_fraction = (attn_dense - attn_proj_only) / layer_total;
        let transformer_layers = model.transformer_layer_ids();
        // Per-layer base densities: LSH collisions are content-dependent, so
        // layers differ widely — draw from [0.08, 0.5].
        let base_density = (0..model.num_layers())
            .map(|l| {
                if transformer_layers.contains(&l) {
                    0.08 + rng.next_f64() * 0.42
                } else {
                    1.0
                }
            })
            .collect();
        SparseAttentionEngine {
            mode,
            base_density,
            score_fraction,
            transformer_layers,
            num_layers: model.num_layers(),
            rng,
            last_density: Vec::new(),
        }
    }

    /// The most recent per-layer densities.
    pub fn last_density(&self) -> &[f64] {
        &self.last_density
    }

    /// Convert an attention-block density into a layer compute multiplier.
    fn layer_scale(&self, density: f64) -> f64 {
        (1.0 - self.score_fraction) + self.score_fraction * density
    }
}

impl DynamismEngine for SparseAttentionEngine {
    fn name(&self) -> String {
        match self.mode {
            AttentionMode::Dense => "attention/dense".to_string(),
            AttentionMode::DynamicSparse => "attention/dynamic-sparse".to_string(),
        }
    }

    fn case(&self) -> DynamismCase {
        DynamismCase::SparseAttention
    }

    fn step(&mut self, _iteration: u64) -> LoadUpdate {
        let mut update = LoadUpdate::identity(self.num_layers);
        self.last_density = vec![1.0; self.num_layers];
        if self.mode == AttentionMode::Dense {
            return update;
        }
        for &l in &self.transformer_layers {
            // Per-iteration noise: the hash buckets change with the data.
            let noise = 1.0 + (self.rng.next_f64() - 0.5) * 0.6;
            let density = (self.base_density[l] * noise).clamp(0.02, 1.0);
            self.last_density[l] = density;
            let scale = self.layer_scale(density);
            update.fwd_scale[l] = scale;
            update.bwd_scale[l] = scale;
        }
        update.changed = true;
        update
    }

    fn rebalance_frequency(&self) -> RebalanceFrequency {
        // Paper Figure 4 overhead table: "(Ideally) every iteration".
        RebalanceFrequency::EveryIteration
    }

    fn export_state(&self) -> EngineState {
        // The base-density profile is reproduced from the seed at
        // construction; the per-iteration noise stream is the mutable state.
        let mut state = EngineState::stateless(self.name(), SPARSE_ATTENTION_STATE_VERSION);
        state.rng_streams = vec![self.rng.state()];
        state
    }

    fn import_state(&mut self, state: &EngineState) -> Result<(), String> {
        state.check(&self.name(), SPARSE_ATTENTION_STATE_VERSION)?;
        if state.rng_streams.len() != 1 {
            return Err("sparse-attention state must carry exactly one RNG stream".into());
        }
        self.rng = Prng::from_state(state.rng_streams[0]);
        self.last_density.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmo_model::ModelPreset;

    fn gpt() -> Model {
        Model::from_preset(ModelPreset::Gpt { layers: 32 })
    }

    #[test]
    fn dense_mode_is_a_no_op() {
        let mut e = SparseAttentionEngine::new(&gpt(), AttentionMode::Dense, 1);
        let update = e.step(0);
        assert!(!update.changed);
        assert!(update.fwd_scale.iter().all(|&s| s == 1.0));
    }

    #[test]
    fn sparse_mode_reduces_compute_and_varies_across_layers() {
        let model = gpt();
        let mut e = SparseAttentionEngine::new(&model, AttentionMode::DynamicSparse, 2);
        let update = e.step(0);
        update.validate().unwrap();
        assert!(update.changed);
        let tfm = model.transformer_layer_ids();
        let scales: Vec<f64> = tfm.iter().map(|&l| update.fwd_scale[l]).collect();
        // Every transformer layer is cheaper than dense.
        assert!(scales.iter().all(|&s| s < 1.0 && s > 0.3));
        // And they differ across layers (the imbalance source).
        let min = scales.iter().copied().fold(f64::MAX, f64::min);
        let max = scales.iter().copied().fold(f64::MIN, f64::max);
        assert!(max - min > 0.05, "min {min} max {max}");
        // Embedding and head untouched.
        assert_eq!(update.fwd_scale[0], 1.0);
        assert_eq!(update.fwd_scale[model.num_layers() - 1], 1.0);
    }

    #[test]
    fn densities_fluctuate_between_iterations() {
        let model = gpt();
        let mut e = SparseAttentionEngine::new(&model, AttentionMode::DynamicSparse, 3);
        e.step(0);
        let d0 = e.last_density().to_vec();
        e.step(1);
        let d1 = e.last_density().to_vec();
        assert_ne!(d0, d1);
        // Densities always stay within (0, 1].
        assert!(d1.iter().all(|&d| d > 0.0 && d <= 1.0));
    }

    #[test]
    fn layer_scale_is_monotonic_in_density() {
        let e = SparseAttentionEngine::new(&gpt(), AttentionMode::DynamicSparse, 4);
        assert!(e.layer_scale(0.1) < e.layer_scale(0.5));
        assert!(e.layer_scale(0.5) < e.layer_scale(1.0));
        assert!((e.layer_scale(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn engine_metadata() {
        let e = SparseAttentionEngine::new(&gpt(), AttentionMode::DynamicSparse, 5);
        assert_eq!(e.case(), DynamismCase::SparseAttention);
        assert_eq!(e.rebalance_frequency(), RebalanceFrequency::EveryIteration);
        assert!(e.name().contains("dynamic-sparse"));
    }
}
