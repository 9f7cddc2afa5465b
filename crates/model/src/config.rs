//! Model configuration and presets mirroring the paper's evaluation setup.
//!
//! From §5 of the paper: "All models use a sequence length of 2048, hidden
//! size of 1024, and 32 attention heads. Unless otherwise specified, training
//! runs for 10,000 iterations with micro-batch size 2 and batch size 64."
//! The GPT models are parameterized to have 24, 32, 40, or 48 transformer
//! layers; the MoE experiments use Mixtral-8x7B and LLaMA-MoE-3.5B shapes.

use serde::{Deserialize, Serialize};

/// Mixture-of-Experts configuration attached to a model whose feed-forward
/// blocks are expert-parallel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MoeConfig {
    /// Number of experts per MoE feed-forward block.
    pub num_experts: usize,
    /// Number of experts each token is routed to (top-k routing).
    pub top_k: usize,
    /// Capacity factor used by capacity-constrained baselines (e.g. Tutel):
    /// an expert processes at most `capacity_factor * tokens / num_experts`
    /// tokens per batch.
    pub capacity_factor: f64,
}

impl MoeConfig {
    /// Mixtral-8x7B style routing: 8 experts, top-2.
    pub fn mixtral() -> Self {
        MoeConfig {
            num_experts: 8,
            top_k: 2,
            capacity_factor: 1.25,
        }
    }

    /// LLaMA-MoE-3.5B style routing: 16 experts, top-4 (the 3.5B/16-expert
    /// configuration released by the LLaMA-MoE project).
    pub fn llama_moe() -> Self {
        MoeConfig {
            num_experts: 16,
            top_k: 4,
            capacity_factor: 1.25,
        }
    }
}

/// Named presets used throughout the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelPreset {
    /// Dense GPT model with the given number of transformer layers
    /// (24, 32, 40 or 48 in the paper).
    Gpt {
        /// Number of transformer layers.
        layers: usize,
    },
    /// Mixtral-8x7B-shaped MoE model (32 layers, 8 experts, top-2).
    Mixtral8x7b,
    /// LLaMA-MoE-3.5B-shaped MoE model (32 layers, 16 experts, top-4).
    LlamaMoe3_5b,
}

impl ModelPreset {
    /// Human-readable label used in experiment tables.
    pub fn label(&self) -> String {
        match self {
            ModelPreset::Gpt { layers } => format!("GPT-{layers}L"),
            ModelPreset::Mixtral8x7b => "Mixtral 8x7B".to_string(),
            ModelPreset::LlamaMoe3_5b => "LLaMA-MoE-3.5B".to_string(),
        }
    }
}

/// Full description of a model's shape and training hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Number of transformer layers (decoder blocks).
    pub num_layers: usize,
    /// Hidden dimension of the residual stream.
    pub hidden_size: usize,
    /// Number of attention heads.
    pub num_heads: usize,
    /// Sequence length in tokens.
    pub seq_len: usize,
    /// Vocabulary size (for the embedding and output head).
    pub vocab_size: usize,
    /// Feed-forward inner dimension (usually `4 * hidden_size` for dense
    /// GPT, or the expert hidden size for MoE models).
    pub ffn_hidden_size: usize,
    /// Micro-batch size (sequences per pipeline micro-batch).
    pub micro_batch_size: usize,
    /// Global batch size (sequences per optimizer step).
    pub global_batch_size: usize,
    /// MoE configuration when the feed-forward blocks are expert-parallel.
    pub moe: Option<MoeConfig>,
    /// Bytes per parameter for weights/activations (2 = bf16, 4 = fp32).
    pub param_bytes: usize,
}

impl ModelConfig {
    /// The paper's GPT configuration with a given layer count (Figure 1,
    /// Figure 3, Figure 4 all sweep 24/32/40/48 layers).
    pub fn gpt(num_layers: usize) -> Self {
        ModelConfig {
            num_layers,
            hidden_size: 1024,
            num_heads: 32,
            seq_len: 2048,
            vocab_size: 50_257,
            ffn_hidden_size: 4 * 1024,
            micro_batch_size: 2,
            global_batch_size: 64,
            moe: None,
            param_bytes: 2,
        }
    }

    /// Mixtral-8x7B-shaped configuration used in the MoE experiments.
    /// (32 layers, hidden 4096, 32 heads, 8 experts top-2, expert FFN 14336.)
    pub fn mixtral_8x7b() -> Self {
        ModelConfig {
            num_layers: 32,
            hidden_size: 4096,
            num_heads: 32,
            seq_len: 2048,
            vocab_size: 32_000,
            ffn_hidden_size: 14_336,
            micro_batch_size: 2,
            global_batch_size: 64,
            moe: Some(MoeConfig::mixtral()),
            param_bytes: 2,
        }
    }

    /// LLaMA-MoE-3.5B-shaped configuration (32 layers, hidden 2048,
    /// 16 experts top-4, expert FFN 5504 split across experts).
    pub fn llama_moe_3_5b() -> Self {
        ModelConfig {
            num_layers: 32,
            hidden_size: 2048,
            num_heads: 16,
            seq_len: 2048,
            vocab_size: 32_000,
            ffn_hidden_size: 5_504,
            micro_batch_size: 2,
            global_batch_size: 64,
            moe: Some(MoeConfig::llama_moe()),
            param_bytes: 2,
        }
    }

    /// Construct a config from a named preset.
    pub fn from_preset(preset: ModelPreset) -> Self {
        match preset {
            ModelPreset::Gpt { layers } => Self::gpt(layers),
            ModelPreset::Mixtral8x7b => Self::mixtral_8x7b(),
            ModelPreset::LlamaMoe3_5b => Self::llama_moe_3_5b(),
        }
    }

    /// Validate structural invariants; returns a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_layers == 0 {
            return Err("num_layers must be positive".into());
        }
        if self.hidden_size == 0 || self.num_heads == 0 {
            return Err("hidden_size and num_heads must be positive".into());
        }
        if !self.hidden_size.is_multiple_of(self.num_heads) {
            return Err(format!(
                "hidden_size {} must be divisible by num_heads {}",
                self.hidden_size, self.num_heads
            ));
        }
        if self.micro_batch_size == 0 || self.global_batch_size == 0 {
            return Err("batch sizes must be positive".into());
        }
        if !self.global_batch_size.is_multiple_of(self.micro_batch_size) {
            return Err(format!(
                "global_batch_size {} must be divisible by micro_batch_size {}",
                self.global_batch_size, self.micro_batch_size
            ));
        }
        if let Some(moe) = &self.moe {
            if moe.top_k == 0 || moe.top_k > moe.num_experts {
                return Err(format!(
                    "MoE top_k {} must be within 1..=num_experts {}",
                    moe.top_k, moe.num_experts
                ));
            }
        }
        if self.param_bytes != 2 && self.param_bytes != 4 {
            return Err("param_bytes must be 2 (bf16) or 4 (fp32)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt_preset_matches_paper_hyperparameters() {
        for layers in [24, 32, 40, 48] {
            let cfg = ModelConfig::gpt(layers);
            assert_eq!(cfg.num_layers, layers);
            assert_eq!(cfg.hidden_size, 1024);
            assert_eq!(cfg.num_heads, 32);
            assert_eq!(cfg.seq_len, 2048);
            assert_eq!(cfg.micro_batch_size, 2);
            assert_eq!(cfg.global_batch_size, 64);
            assert!(cfg.moe.is_none());
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn moe_presets_have_expert_configs() {
        let mixtral = ModelConfig::mixtral_8x7b();
        assert_eq!(mixtral.moe.unwrap().num_experts, 8);
        assert_eq!(mixtral.moe.unwrap().top_k, 2);
        mixtral.validate().unwrap();

        let llama = ModelConfig::llama_moe_3_5b();
        assert_eq!(llama.moe.unwrap().num_experts, 16);
        assert_eq!(llama.moe.unwrap().top_k, 4);
        llama.validate().unwrap();
    }

    #[test]
    fn from_preset_round_trips() {
        assert_eq!(
            ModelConfig::from_preset(ModelPreset::Gpt { layers: 40 }),
            ModelConfig::gpt(40)
        );
        assert_eq!(
            ModelConfig::from_preset(ModelPreset::Mixtral8x7b),
            ModelConfig::mixtral_8x7b()
        );
        assert_eq!(
            ModelConfig::from_preset(ModelPreset::LlamaMoe3_5b),
            ModelConfig::llama_moe_3_5b()
        );
    }

    #[test]
    fn preset_labels_are_descriptive() {
        assert_eq!(ModelPreset::Gpt { layers: 24 }.label(), "GPT-24L");
        assert!(ModelPreset::Mixtral8x7b.label().contains("Mixtral"));
        assert!(ModelPreset::LlamaMoe3_5b.label().contains("LLaMA"));
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = ModelConfig::gpt(24);
        cfg.num_layers = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ModelConfig::gpt(24);
        cfg.num_heads = 7; // 1024 not divisible by 7
        assert!(cfg.validate().is_err());

        let mut cfg = ModelConfig::gpt(24);
        cfg.global_batch_size = 63;
        assert!(cfg.validate().is_err());

        let mut cfg = ModelConfig::mixtral_8x7b();
        cfg.moe = Some(MoeConfig {
            num_experts: 4,
            top_k: 5,
            capacity_factor: 1.0,
        });
        assert!(cfg.validate().is_err());

        let mut cfg = ModelConfig::gpt(24);
        cfg.param_bytes = 3;
        assert!(cfg.validate().is_err());
    }
}
