//! Per-layer and per-worker memory accounting.
//!
//! Re-packing (paper Algorithm 2) consolidates layers onto fewer GPUs
//! "subject to memory capacity constraints", and the paper contrasts its use
//! of *measured* memory against PipeTransformer's parameter-count proxy.
//! This module provides the measurement: for each layer it accounts for
//! weights, gradients, Adam optimizer state (fp32 moments + master weights,
//! the Megatron mixed-precision recipe), and activation memory proportional
//! to the number of in-flight micro-batches of the pipeline schedule.

use serde::{Deserialize, Serialize};

use crate::config::ModelConfig;
use crate::layer::LayerDesc;

/// Bytes of optimizer state kept per parameter under mixed-precision Adam:
/// fp32 master weight (4) + fp32 first moment (4) + fp32 second moment (4).
pub const ADAM_STATE_BYTES_PER_PARAM: u64 = 12;

/// Memory model for a given model configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryModel {
    config: ModelConfig,
}

impl MemoryModel {
    /// Build a memory model for `config`.
    pub fn new(config: ModelConfig) -> Self {
        MemoryModel { config }
    }

    /// The configuration this model describes.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Static bytes held for a layer's parameters: weights + gradients +
    /// optimizer state.  `retained_fraction` models pruning (1.0 = dense);
    /// pruned parameters free their weight/grad/optimizer storage but CSR
    /// index storage is added by the sparse crate's own accounting.
    pub fn layer_static_bytes(&self, layer: &LayerDesc, retained_fraction: f64) -> u64 {
        let retained = retained_fraction.clamp(0.0, 1.0);
        let params = (layer.param_count as f64 * retained) as u64;
        let weight = params * self.config.param_bytes as u64;
        let grad = params * self.config.param_bytes as u64;
        let optimizer = params * ADAM_STATE_BYTES_PER_PARAM;
        weight + grad + optimizer
    }

    /// Activation bytes a layer must hold for one in-flight micro-batch.
    ///
    /// Uses the standard transformer activation-footprint estimate with
    /// flash attention (the paper's setting), i.e. the quadratic attention
    /// matrix is never materialized: ≈ `s·b·34·h` bytes at bf16/fp16
    /// precision, scaled by `param_bytes / 2`.
    pub fn layer_activation_bytes(&self, layer: &LayerDesc) -> u64 {
        if !layer.is_transformer() {
            // Embedding / head activations: one hidden-state tensor.
            let c = &self.config;
            return (c.seq_len * c.micro_batch_size * c.hidden_size * c.param_bytes) as u64;
        }
        let c = &self.config;
        let s = c.seq_len as f64;
        let b = c.micro_batch_size as f64;
        let h = c.hidden_size as f64;
        let scale = c.param_bytes as f64 / 2.0;
        (s * b * 34.0 * h * scale) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    fn gpt24_layers() -> (MemoryModel, Vec<LayerDesc>) {
        let cfg = ModelConfig::gpt(24);
        let layers = CostModel::new(cfg.clone()).build_layers();
        (MemoryModel::new(cfg), layers)
    }

    #[test]
    fn static_bytes_cover_weights_grads_and_optimizer() {
        let (mem, layers) = gpt24_layers();
        let l = &layers[1];
        let bytes = mem.layer_static_bytes(l, 1.0);
        // 2 (weight) + 2 (grad) + 12 (adam) = 16 bytes per parameter at bf16.
        assert_eq!(bytes, l.param_count * 16);
    }

    #[test]
    fn pruning_reduces_static_bytes_proportionally() {
        let (mem, layers) = gpt24_layers();
        let l = &layers[1];
        let dense = mem.layer_static_bytes(l, 1.0);
        let half = mem.layer_static_bytes(l, 0.5);
        let none = mem.layer_static_bytes(l, 0.0);
        assert!(half < dense);
        assert!((half as f64 - dense as f64 * 0.5).abs() / (dense as f64) < 0.01);
        assert_eq!(none, 0);
        // Out-of-range retention is clamped.
        assert_eq!(mem.layer_static_bytes(l, 2.0), dense);
    }

    #[test]
    fn transformer_activations_dominate_embedding_activations() {
        let (mem, layers) = gpt24_layers();
        let emb = mem.layer_activation_bytes(&layers[0]);
        let tfm = mem.layer_activation_bytes(&layers[1]);
        assert!(tfm > emb);
        assert!(emb > 0);
    }

    #[test]
    fn a_24_layer_gpt_fits_in_a_single_h100_but_not_in_a_tiny_device() {
        use crate::device::DeviceSpec;
        let (mem, layers) = gpt24_layers();
        // Four micro-batches in flight on one worker hosting every layer.
        let total: u64 = layers
            .iter()
            .map(|l| mem.layer_static_bytes(l, 1.0) + mem.layer_activation_bytes(l) * 4)
            .sum();
        assert!(total < DeviceSpec::h100_sxm5().memory_capacity);
        assert!(total > DeviceSpec::test_device(1024 * 1024).memory_capacity);
    }
}
