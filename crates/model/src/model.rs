//! The [`Model`]: a configuration plus its materialized layer list.

use serde::{Deserialize, Serialize};

use crate::config::{ModelConfig, ModelPreset};
use crate::cost::CostModel;
use crate::layer::{LayerDesc, LayerId};
use crate::memory::MemoryModel;

/// A model instance: its configuration and the ordered list of layers the
/// pipeline distributes across workers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Model {
    config: ModelConfig,
    layers: Vec<LayerDesc>,
}

impl Model {
    /// Build a model from a configuration, materializing its layers via the
    /// analytical cost model.
    pub fn build(config: ModelConfig) -> Result<Self, String> {
        config.validate()?;
        let layers = CostModel::new(config.clone()).build_layers();
        Ok(Model { config, layers })
    }

    /// Build a model from a named preset.
    pub fn from_preset(preset: ModelPreset) -> Self {
        Self::build(ModelConfig::from_preset(preset)).expect("presets are valid")
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The ordered layer list (embedding, transformer blocks, head).
    pub fn layers(&self) -> &[LayerDesc] {
        &self.layers
    }

    /// Number of layers, including embedding and head.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// A layer by id.
    pub fn layer(&self, id: LayerId) -> Option<&LayerDesc> {
        self.layers.get(id)
    }

    /// A memory model bound to this model's configuration.
    pub fn memory_model(&self) -> MemoryModel {
        MemoryModel::new(self.config.clone())
    }

    /// Ids of the transformer layers only (the ones dynamism acts on).
    pub fn transformer_layer_ids(&self) -> Vec<LayerId> {
        self.layers
            .iter()
            .filter(|l| l.is_transformer())
            .map(|l| l.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_params(model: &Model) -> f64 {
        model.layers().iter().map(|l| l.param_count).sum::<u64>() as f64
    }

    #[test]
    fn build_validates_the_config() {
        let mut bad = ModelConfig::gpt(24);
        bad.num_heads = 7;
        assert!(Model::build(bad).is_err());
        assert!(Model::build(ModelConfig::gpt(24)).is_ok());
    }

    #[test]
    fn layer_count_is_body_plus_embedding_and_head() {
        let m = Model::from_preset(ModelPreset::Gpt { layers: 32 });
        assert_eq!(m.num_layers(), 34);
        assert_eq!(m.transformer_layer_ids().len(), 32);
        assert_eq!(m.layer(0).unwrap().name, "embedding");
        assert!(m.layer(999).is_none());
    }

    #[test]
    fn mixtral_has_the_expected_scale() {
        // Mixtral-8x7B has ~46.7B parameters; the analytical model (which
        // uses two projection matrices per expert rather than SwiGLU's
        // three) lands within ~30% of that, which is all the simulator needs
        // to produce realistic memory and compute ratios.
        let m = Model::from_preset(ModelPreset::Mixtral8x7b);
        let params = total_params(&m);
        assert!(params > 30.0e9 && params < 56.0e9, "params = {params:.3e}");
    }

    #[test]
    fn gpt_models_match_the_350m_to_1b_class() {
        // A 24-layer, hidden-1024 GPT is roughly a 350M-parameter model
        // (GPT-2 medium class); sanity-check the order of magnitude.
        let m = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let params = total_params(&m);
        assert!(params > 2.0e8 && params < 6.0e8, "params = {params:.3e}");
    }

    #[test]
    fn the_memory_model_shares_the_config() {
        let m = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        assert_eq!(m.memory_model().config(), m.config());
    }
}
