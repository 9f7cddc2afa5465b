//! Per-layer descriptors.
//!
//! A [`LayerDesc`] is the unit the load balancers move between pipeline
//! stages: it records the layer's identity, its parameter count (used by the
//! "by parameters" balancer variants and the memory model) and its baseline
//! forward/backward FLOPs (used by the "by execution time" variants).  The
//! *dynamic* multipliers — pruning retention, frozen flags, sparsity
//! factors, routed token counts — are produced by `dynmo-dynamics` and
//! applied on top of these baselines.

use serde::{Deserialize, Serialize};

/// Index of a layer within the model (0-based, front to back).
pub type LayerId = usize;

/// The structural kind of a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// Token + position embedding table at the front of the model.
    Embedding,
    /// A transformer decoder block (attention + feed-forward).
    Transformer {
        /// Whether the feed-forward block is a Mixture-of-Experts block.
        moe: bool,
    },
    /// Final layer norm plus the language-model output head.
    Head,
}

impl LayerKind {
    /// Whether this layer is a transformer decoder block.
    pub fn is_transformer(&self) -> bool {
        matches!(self, LayerKind::Transformer { .. })
    }
}

/// Static description of one layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerDesc {
    /// Position of the layer in the model.
    pub id: LayerId,
    /// Structural kind.
    pub kind: LayerKind,
    /// Name, following Megatron/DeepSpeed conventions, so the DeepSpeed
    /// `regex` partitioning baseline has something to match against
    /// (e.g. `transformer_layer_07`).
    pub name: String,
    /// Number of parameters held by the layer.
    pub param_count: u64,
    /// Baseline forward-pass FLOPs for one micro-batch.
    pub flops_fwd: f64,
    /// Baseline backward-pass FLOPs for one micro-batch (≈ 2× forward).
    pub flops_bwd: f64,
}

impl LayerDesc {
    /// Whether this layer is a transformer decoder block.
    pub fn is_transformer(&self) -> bool {
        self.kind.is_transformer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_layer() -> LayerDesc {
        LayerDesc {
            id: 3,
            kind: LayerKind::Transformer { moe: false },
            name: "transformer_layer_03".to_string(),
            param_count: 12_596_224,
            flops_fwd: 1.0e11,
            flops_bwd: 2.0e11,
        }
    }

    #[test]
    fn kind_predicates() {
        assert!(LayerKind::Transformer { moe: true }.is_transformer());
        assert!(LayerKind::Transformer { moe: false }.is_transformer());
        assert!(!LayerKind::Embedding.is_transformer());
        assert!(!LayerKind::Head.is_transformer());
        assert!(sample_layer().is_transformer());
    }

    #[test]
    fn names_follow_megatron_convention() {
        let l = sample_layer();
        assert!(l.name.starts_with("transformer_layer_"));
    }
}
