//! KV-cache memory accounting for autoregressive inference.
//!
//! Serving a decoder-only transformer means holding, for every request and
//! every transformer layer, the key and value projections of all tokens the
//! request has processed so far.  The KV cache — not the weights — is what
//! bounds how many requests an inference engine can batch together, so the
//! continuous-batching scheduler in `dynmo-serve` admits requests against
//! the budgets computed here.
//!
//! The model is the standard per-token accounting with one hook for the
//! paper's dynamic-model mechanisms: **pruning**.  A layer that retains only
//! a fraction of its parameters projects into proportionally fewer K/V
//! channels, so its per-token KV bytes scale with the retention fraction
//! (the same `param_retention` signal the training-side `LoadUpdate`
//! carries).
//!
//! Per token and transformer layer the cache stores one K and one V vector
//! of `hidden_size` elements at `param_bytes` precision:
//! `2 · hidden_size · param_bytes` bytes.  Embedding and head layers cache
//! nothing.

use serde::{Deserialize, Serialize};

use crate::config::ModelConfig;
use crate::layer::LayerDesc;

/// KV-cache memory model bound to a model configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KvCacheModel {
    config: ModelConfig,
}

impl KvCacheModel {
    /// Build a KV-cache model for `config`.
    pub fn new(config: ModelConfig) -> Self {
        KvCacheModel { config }
    }

    /// The configuration this model describes.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Bytes of KV cache one *dense* transformer layer holds per cached
    /// token: one key and one value vector of `hidden_size` elements at
    /// `param_bytes` precision.  Non-transformer layers (embedding, head)
    /// cache nothing.
    pub fn layer_kv_bytes_per_token(&self, layer: &LayerDesc) -> u64 {
        if !layer.is_transformer() {
            return 0;
        }
        (2 * self.config.hidden_size * self.config.param_bytes) as u64
    }

    /// [`KvCacheModel::layer_kv_bytes_per_token`] under pruning: a layer
    /// retaining `retained_fraction` of its parameters projects into
    /// proportionally fewer K/V channels.
    pub fn pruned_layer_kv_bytes_per_token(
        &self,
        layer: &LayerDesc,
        retained_fraction: f64,
    ) -> u64 {
        let dense = self.layer_kv_bytes_per_token(layer) as f64;
        (dense * retained_fraction.clamp(0.0, 1.0)).ceil() as u64
    }

    /// Bytes of KV cache per cached token summed over `layers` at the given
    /// pruning state — the marginal cost of keeping one more token resident
    /// on the worker hosting those layers.
    pub fn kv_bytes_per_token(&self, layers: &[LayerDesc], retained_fraction: &[f64]) -> u64 {
        assert_eq!(
            layers.len(),
            retained_fraction.len(),
            "one retention factor per layer"
        );
        layers
            .iter()
            .zip(retained_fraction.iter())
            .map(|(layer, &retained)| self.pruned_layer_kv_bytes_per_token(layer, retained))
            .sum()
    }

    /// How many tokens fit in `budget_bytes` of free device memory on a
    /// worker hosting `layers` — the admission-control capacity of the
    /// continuous-batching scheduler.  Returns 0 when the layers cache
    /// nothing (a stage of embedding/head only) *and* the budget is 0;
    /// a stage that caches nothing but has budget reports `usize::MAX`
    /// (it never constrains admission).
    pub fn capacity_tokens(
        &self,
        layers: &[LayerDesc],
        retained_fraction: &[f64],
        budget_bytes: u64,
    ) -> usize {
        let per_token = self.kv_bytes_per_token(layers, retained_fraction);
        if per_token == 0 {
            return if budget_bytes > 0 { usize::MAX } else { 0 };
        }
        (budget_bytes / per_token) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::model::Model;

    fn gpt24() -> (KvCacheModel, Vec<LayerDesc>) {
        let cfg = ModelConfig::gpt(24);
        let layers = CostModel::new(cfg.clone()).build_layers();
        (KvCacheModel::new(cfg), layers)
    }

    #[test]
    fn dense_layer_kv_matches_two_hidden_vectors() {
        let (kv, layers) = gpt24();
        // Transformer layer: 2 × 1024 hidden × 2 bytes = 4 KiB per token.
        assert_eq!(kv.layer_kv_bytes_per_token(&layers[1]), 2 * 1024 * 2);
        // Embedding and head cache nothing.
        assert_eq!(kv.layer_kv_bytes_per_token(&layers[0]), 0);
        assert_eq!(kv.layer_kv_bytes_per_token(layers.last().unwrap()), 0);
    }

    #[test]
    fn pruning_shrinks_kv_proportionally() {
        let (kv, layers) = gpt24();
        let dense = kv.pruned_layer_kv_bytes_per_token(&layers[1], 1.0);
        let half = kv.pruned_layer_kv_bytes_per_token(&layers[1], 0.5);
        assert_eq!(half, dense / 2);
        // Clamped outside [0, 1].
        assert_eq!(kv.pruned_layer_kv_bytes_per_token(&layers[1], 2.0), dense);
        assert_eq!(kv.pruned_layer_kv_bytes_per_token(&layers[1], -1.0), 0);
    }

    #[test]
    fn kv_per_token_sums_transformer_layers_only() {
        let (kv, layers) = gpt24();
        let retained = vec![1.0; layers.len()];
        // 24 transformer layers × 4096 B/token.
        assert_eq!(kv.kv_bytes_per_token(&layers, &retained), 24 * 4096);
    }

    #[test]
    fn capacity_tokens_inverts_the_per_token_cost() {
        let (kv, layers) = gpt24();
        let retained = vec![1.0; layers.len()];
        let per_token = kv.kv_bytes_per_token(&layers, &retained);
        assert_eq!(
            kv.capacity_tokens(&layers, &retained, per_token * 1234),
            1234
        );
        // A stage holding only the embedding never constrains admission.
        assert_eq!(
            kv.capacity_tokens(&layers[..1], &retained[..1], 1_000_000),
            usize::MAX
        );
        assert_eq!(kv.capacity_tokens(&layers[..1], &retained[..1], 0), 0);
    }

    #[test]
    fn a_full_gpt24_kv_fits_thousands_of_h100_tokens() {
        // Sanity: a 24-layer hidden-1024 model costs ~96 KiB of KV per
        // token, so tens of GB of free HBM hold hundreds of thousands of
        // tokens.
        let model = Model::from_preset(crate::config::ModelPreset::Gpt { layers: 24 });
        let kv = KvCacheModel::new(model.config().clone());
        let retained = vec![1.0; model.num_layers()];
        let budget = 40u64 * 1024 * 1024 * 1024;
        let tokens = kv.capacity_tokens(model.layers(), &retained, budget);
        assert!(tokens > 100_000, "tokens = {tokens}");
    }

    #[test]
    #[should_panic(expected = "one retention factor per layer")]
    fn mismatched_retention_length_panics() {
        let (kv, layers) = gpt24();
        let _ = kv.kv_bytes_per_token(&layers, &[1.0]);
    }
}
