//! Tutel-style MoE baseline.
//!
//! Tutel is the "highly MoE-tailored system" the paper compares against for
//! the MoE case (§5.1).  Its adaptive dispatch enforces an expert *capacity
//! factor*: each expert processes at most `capacity_factor × tokens /
//! num_experts` tokens per batch and the overflow is dropped (or re-routed),
//! which bounds the per-expert overload — but does not rebalance the
//! pipeline stages themselves, so the residual imbalance (up to the capacity
//! factor) still shows up as pipeline bubbles.  DynMo beats it by 1.18–1.21×
//! in the paper.

use dynmo_dynamics::{DynamismCase, DynamismEngine, LoadUpdate, MoeEngine, RebalanceFrequency};
use dynmo_model::{CostModel, Model};

/// An MoE engine whose per-layer overload is clipped at the capacity factor
/// (Tutel's dispatch behaviour), wrapped around the regular [`MoeEngine`].
#[derive(Debug, Clone)]
pub struct TutelMoeEngine {
    inner: MoeEngine,
    capacity_factor: f64,
    ffn_fraction: f64,
}

impl TutelMoeEngine {
    /// Wrap an MoE engine for `model` with the model's configured capacity
    /// factor.
    pub fn new(model: &Model, inner: MoeEngine) -> Self {
        let moe = model
            .config()
            .moe
            .expect("TutelMoeEngine requires an MoE model");
        let cost = CostModel::new(model.config().clone());
        let attn = cost.attention_fwd_flops(1.0);
        let ffn = cost.moe_ffn_fwd_flops();
        TutelMoeEngine {
            inner,
            capacity_factor: moe.capacity_factor,
            ffn_fraction: ffn / (attn + ffn),
        }
    }

    /// The maximum per-layer compute multiplier the capacity factor allows.
    fn scale_cap(&self) -> f64 {
        (1.0 - self.ffn_fraction) + self.ffn_fraction * self.capacity_factor
    }
}

impl DynamismEngine for TutelMoeEngine {
    fn name(&self) -> String {
        format!("moe/tutel-cap-{:.2}", self.capacity_factor)
    }

    fn case(&self) -> DynamismCase {
        DynamismCase::MixtureOfExperts
    }

    fn step(&mut self, iteration: u64) -> LoadUpdate {
        let mut update = self.inner.step(iteration);
        let cap = self.scale_cap();
        for l in 0..update.num_layers() {
            if update.fwd_scale[l] == 1.0 {
                continue; // not an MoE layer
            }
            // Capacity-factor dispatch pads every expert's batch to exactly
            // `capacity_factor × tokens / experts`, so the layer's compute is
            // pinned at the capacity cap regardless of the actual routing —
            // this is what bounds the imbalance but wastes the padding.
            update.fwd_scale[l] = cap;
            update.bwd_scale[l] = cap;
        }
        update
    }

    fn rebalance_frequency(&self) -> RebalanceFrequency {
        RebalanceFrequency::EveryIteration
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmo_dynamics::RoutingStrategy;
    use dynmo_model::ModelPreset;

    fn mixtral() -> Model {
        Model::from_preset(ModelPreset::Mixtral8x7b)
    }

    #[test]
    fn capacity_clipping_bounds_the_per_layer_scale() {
        let model = mixtral();
        let inner = MoeEngine::new(&model, RoutingStrategy::TokenChoiceAuxLoss, 9);
        let mut tutel = TutelMoeEngine::new(&model, inner);
        let cap = tutel.scale_cap();
        for it in 0..5 {
            let update = tutel.step(it);
            for &l in &model.transformer_layer_ids() {
                assert!(update.fwd_scale[l] <= cap + 1e-12);
            }
        }
        assert_eq!(tutel.capacity_factor, 1.25);
    }

    #[test]
    fn tutel_pads_every_moe_layer_to_the_capacity_cap() {
        let model = mixtral();
        let mut raw = MoeEngine::new(&model, RoutingStrategy::TokenChoiceAuxLoss, 9);
        let inner = MoeEngine::new(&model, RoutingStrategy::TokenChoiceAuxLoss, 9);
        let mut tutel = TutelMoeEngine::new(&model, inner);
        let tfm = model.transformer_layer_ids();
        let raw_update = raw.step(0);
        let tutel_update = tutel.step(0);
        let cap = tutel.scale_cap();
        // Every MoE layer is pinned at the cap (padding), so hot layers get
        // cheaper than raw routing while cold layers get more expensive.
        for &l in &tfm {
            assert!((tutel_update.fwd_scale[l] - cap).abs() < 1e-12);
        }
        let raw_max = tfm
            .iter()
            .map(|&l| raw_update.fwd_scale[l])
            .fold(f64::MIN, f64::max);
        assert!(cap <= raw_max + 1e-12);
        // The cap is above 1: padding wastes compute relative to perfectly
        // balanced routing.
        assert!(cap > 1.0);
    }

    #[test]
    fn engine_metadata() {
        let model = mixtral();
        let inner = MoeEngine::new(&model, RoutingStrategy::SBase, 1);
        let tutel = TutelMoeEngine::new(&model, inner);
        assert_eq!(tutel.case(), DynamismCase::MixtureOfExperts);
        assert_eq!(
            tutel.rebalance_frequency(),
            RebalanceFrequency::EveryIteration
        );
        assert!(tutel.name().contains("tutel"));
        assert_eq!(tutel.extra_overhead(0), 0.0);
    }
}
