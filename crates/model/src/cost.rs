//! Analytical FLOP cost model for transformer layers.
//!
//! The pipeline simulator needs per-layer execution times.  On the paper's
//! testbed those come from Megatron's built-in timers; here they come from a
//! standard transformer FLOP model (the same arithmetic Megatron-LM and the
//! Chinchilla/PaLM papers use) evaluated against a [`DeviceSpec`](crate::DeviceSpec)'s
//! sustained throughput.  What matters for reproducing the paper's *shape*
//! of results is that relative layer costs (attention vs MLP vs MoE, dense
//! vs sparse, active vs frozen) are faithful, which a FLOP model guarantees
//! by construction.

use serde::{Deserialize, Serialize};

use crate::config::ModelConfig;
use crate::layer::{LayerDesc, LayerKind};

/// Ratio of backward-pass FLOPs to forward-pass FLOPs.  The standard
/// approximation for transformer training is 2× (one pass for activation
/// gradients, one for weight gradients).
pub const BWD_TO_FWD_RATIO: f64 = 2.0;

/// Analytical per-layer FLOP and parameter model for a given configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    config: ModelConfig,
}

impl CostModel {
    /// Build a cost model for the given model configuration.
    pub fn new(config: ModelConfig) -> Self {
        CostModel { config }
    }

    /// The configuration this cost model describes.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Parameters in the embedding layer (token table + positions).
    pub fn embedding_params(&self) -> u64 {
        let c = &self.config;
        (c.vocab_size as u64 + c.seq_len as u64) * c.hidden_size as u64
    }

    /// Parameters in one attention block: Q, K, V and output projections
    /// plus biases and the pre-attention layer norm.
    pub fn attention_params(&self) -> u64 {
        let h = self.config.hidden_size as u64;
        4 * h * h + 4 * h + 2 * h
    }

    /// Parameters in one dense feed-forward block (two projections, biases,
    /// and the pre-FFN layer norm).
    pub fn dense_ffn_params(&self) -> u64 {
        let h = self.config.hidden_size as u64;
        let f = self.config.ffn_hidden_size as u64;
        2 * h * f + h + f + 2 * h
    }

    /// Parameters in one MoE feed-forward block: every expert's projections
    /// plus the router.
    pub fn moe_ffn_params(&self) -> u64 {
        let h = self.config.hidden_size as u64;
        let f = self.config.ffn_hidden_size as u64;
        match &self.config.moe {
            Some(moe) => {
                let per_expert = 2 * h * f + h + f;
                moe.num_experts as u64 * per_expert + h * moe.num_experts as u64 + 2 * h
            }
            None => self.dense_ffn_params(),
        }
    }

    /// Parameters in one transformer block.
    pub fn transformer_params(&self) -> u64 {
        let ffn = if self.config.moe.is_some() {
            self.moe_ffn_params()
        } else {
            self.dense_ffn_params()
        };
        self.attention_params() + ffn
    }

    /// Parameters in the head layer (final norm + unembedding; the
    /// unembedding is typically tied to the embedding, so only the norm is
    /// counted as unique parameters, but its *compute* is counted in FLOPs).
    pub fn head_params(&self) -> u64 {
        2 * self.config.hidden_size as u64
    }

    /// Forward FLOPs of dense self-attention for one micro-batch, optionally
    /// scaled by an attention-matrix density in `[0, 1]` (1 = dense).  The
    /// projection FLOPs are unaffected by sparsity; only the `QKᵀ` and `PV`
    /// terms scale with the number of non-masked blocks, matching the
    /// behaviour of the dynamic sparse flash-attention kernel.
    pub fn attention_fwd_flops(&self, density: f64) -> f64 {
        let c = &self.config;
        let b = c.micro_batch_size as f64;
        let s = c.seq_len as f64;
        let h = c.hidden_size as f64;
        let density = density.clamp(0.0, 1.0);
        // Q, K, V, output projections: 4 GEMMs of (s × h) · (h × h).
        let proj = 4.0 * 2.0 * s * h * h;
        // Scores (QKᵀ) and context (PV): 2 GEMMs of s × s × h, scaled by the
        // fraction of attention blocks actually computed.
        let attn = 2.0 * 2.0 * s * s * h * density;
        b * (proj + attn)
    }

    /// Forward FLOPs of one dense feed-forward block for one micro-batch.
    pub fn dense_ffn_fwd_flops(&self) -> f64 {
        let c = &self.config;
        let b = c.micro_batch_size as f64;
        let s = c.seq_len as f64;
        let h = c.hidden_size as f64;
        let f = c.ffn_hidden_size as f64;
        b * 2.0 * 2.0 * s * h * f
    }

    /// Forward FLOPs of one MoE feed-forward block for one micro-batch under
    /// *balanced* routing (each token visits `top_k` experts).  Imbalanced
    /// routing is modeled by `dynmo-dynamics`, which scales per-worker load
    /// by the actual token counts.
    pub fn moe_ffn_fwd_flops(&self) -> f64 {
        match &self.config.moe {
            Some(moe) => {
                let router = {
                    let c = &self.config;
                    let b = c.micro_batch_size as f64;
                    let s = c.seq_len as f64;
                    let h = c.hidden_size as f64;
                    b * 2.0 * s * h * moe.num_experts as f64
                };
                self.dense_ffn_fwd_flops() * moe.top_k as f64 + router
            }
            None => self.dense_ffn_fwd_flops(),
        }
    }

    /// Forward FLOPs of one transformer block for one micro-batch.
    pub fn transformer_fwd_flops(&self, attention_density: f64) -> f64 {
        let ffn = if self.config.moe.is_some() {
            self.moe_ffn_fwd_flops()
        } else {
            self.dense_ffn_fwd_flops()
        };
        self.attention_fwd_flops(attention_density) + ffn
    }

    /// Forward FLOPs of the embedding layer (lookup — negligible GEMM work,
    /// modeled as a small copy cost).
    pub fn embedding_fwd_flops(&self) -> f64 {
        let c = &self.config;
        c.micro_batch_size as f64 * c.seq_len as f64 * c.hidden_size as f64
    }

    /// Forward FLOPs of the output head (final GEMM into the vocabulary).
    pub fn head_fwd_flops(&self) -> f64 {
        let c = &self.config;
        let b = c.micro_batch_size as f64;
        let s = c.seq_len as f64;
        let h = c.hidden_size as f64;
        let v = c.vocab_size as f64;
        b * 2.0 * s * h * v
    }

    /// Build the full list of layer descriptors for this configuration:
    /// embedding, `num_layers` transformer blocks, head.
    pub fn build_layers(&self) -> Vec<LayerDesc> {
        let mut layers = Vec::with_capacity(self.config.num_layers + 2);
        let is_moe = self.config.moe.is_some();

        layers.push(LayerDesc {
            id: 0,
            kind: LayerKind::Embedding,
            name: "embedding".to_string(),
            param_count: self.embedding_params(),
            flops_fwd: self.embedding_fwd_flops(),
            flops_bwd: self.embedding_fwd_flops() * BWD_TO_FWD_RATIO,
        });

        for i in 0..self.config.num_layers {
            let fwd = self.transformer_fwd_flops(1.0);
            layers.push(LayerDesc {
                id: i + 1,
                kind: LayerKind::Transformer { moe: is_moe },
                name: format!("transformer_layer_{i:02}"),
                param_count: self.transformer_params(),
                flops_fwd: fwd,
                flops_bwd: fwd * BWD_TO_FWD_RATIO,
            });
        }

        let head_fwd = self.head_fwd_flops();
        layers.push(LayerDesc {
            id: self.config.num_layers + 1,
            kind: LayerKind::Head,
            name: "lm_head".to_string(),
            param_count: self.head_params(),
            flops_fwd: head_fwd,
            flops_bwd: head_fwd * BWD_TO_FWD_RATIO,
        });

        layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpt24() -> CostModel {
        CostModel::new(ModelConfig::gpt(24))
    }

    #[test]
    fn transformer_params_match_closed_form() {
        let m = gpt24();
        let h = 1024u64;
        let f = 4096u64;
        let attn = 4 * h * h + 4 * h + 2 * h;
        let ffn = 2 * h * f + h + f + 2 * h;
        assert_eq!(m.transformer_params(), attn + ffn);
    }

    #[test]
    fn moe_block_has_more_params_and_flops_than_dense() {
        let dense = CostModel::new(ModelConfig::gpt(32));
        let moe = CostModel::new(ModelConfig::mixtral_8x7b());
        assert!(moe.moe_ffn_params() > dense.dense_ffn_params());
        assert!(moe.moe_ffn_fwd_flops() > dense.dense_ffn_fwd_flops());
        // Balanced top-2 routing ≈ 2× dense FFN compute (plus the router).
        let ratio = CostModel::new(ModelConfig::mixtral_8x7b()).moe_ffn_fwd_flops()
            / CostModel::new(ModelConfig::mixtral_8x7b()).dense_ffn_fwd_flops();
        assert!(ratio > 2.0 && ratio < 2.1, "ratio {ratio}");
    }

    #[test]
    fn attention_flops_scale_with_density_only_in_score_terms() {
        let m = gpt24();
        let dense = m.attention_fwd_flops(1.0);
        let half = m.attention_fwd_flops(0.5);
        let zero = m.attention_fwd_flops(0.0);
        assert!(dense > half && half > zero);
        // Projection FLOPs remain even at density 0.
        assert!(zero > 0.0);
        // The reduction from density 1.0 → 0.5 equals half the score FLOPs.
        let score_flops = dense - zero;
        assert!((dense - half - score_flops / 2.0).abs() < 1.0);
        // Density outside [0,1] is clamped.
        assert_eq!(m.attention_fwd_flops(7.0), dense);
    }

    #[test]
    fn build_layers_has_embedding_body_and_head() {
        let m = gpt24();
        let layers = m.build_layers();
        assert_eq!(layers.len(), 24 + 2);
        assert_eq!(layers[0].kind, LayerKind::Embedding);
        assert_eq!(layers[25].kind, LayerKind::Head);
        assert!(layers[1..25].iter().all(|l| l.is_transformer()));
        // Ids are consecutive and names unique.
        for (i, l) in layers.iter().enumerate() {
            assert_eq!(l.id, i);
        }
        let names: std::collections::HashSet<_> = layers.iter().map(|l| &l.name).collect();
        assert_eq!(names.len(), layers.len());
    }

    #[test]
    fn backward_flops_are_twice_forward() {
        let layers = gpt24().build_layers();
        for l in &layers {
            assert!((l.flops_bwd - l.flops_fwd * BWD_TO_FWD_RATIO).abs() < 1.0);
        }
    }

    #[test]
    fn deeper_models_have_proportionally_more_transformer_layers() {
        let l24 = CostModel::new(ModelConfig::gpt(24)).build_layers();
        let l48 = CostModel::new(ModelConfig::gpt(48)).build_layers();
        let t24 = l24.iter().filter(|l| l.is_transformer()).count();
        let t48 = l48.iter().filter(|l| l.is_transformer()).count();
        assert_eq!(t24, 24);
        assert_eq!(t48, 48);
    }
}
