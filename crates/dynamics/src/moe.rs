//! Mixture-of-Experts routing dynamism (paper §2.1, §4.2.1).
//!
//! In expert-parallel MoE layers the slowest (most loaded) expert determines
//! the layer's latency, so routing skew inflates the layer's effective
//! compute by `max_expert_load / mean_expert_load`.  The paper studies two
//! routers on Mixtral-8x7B and LLaMA-MoE-3.5B:
//!
//! * the auxiliary-load-balancing-loss token-choice router used by Mixtral,
//!   which still leaves ≈25% pipeline imbalance, and
//! * S-BASE (balanced assignment via an auction/optimal-transport solve),
//!   which is much closer to balanced but not perfect.
//!
//! A third strategy, expert choice, is included because the Mixture-of-Depths
//! engine builds on it.

use dynmo_model::{CostModel, Model};
use serde::{Deserialize, Serialize};

use crate::engine::{DynamismCase, DynamismEngine, EngineState, LoadUpdate, RebalanceFrequency};
use crate::workload::{max_over_mean, TokenStreamGenerator};

/// Snapshot layout version of [`MoeEngine`]'s engine state.
const MOE_STATE_VERSION: u32 = 1;

/// The token→expert routing strategy being simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoutingStrategy {
    /// Token-choice top-k routing with an auxiliary load-balancing loss
    /// (Mixtral's router).  Leaves substantial skew.
    TokenChoiceAuxLoss,
    /// S-BASE: balanced assignment of tokens to experts; near-balanced.
    SBase,
    /// Expert-choice routing: each expert picks its top-capacity tokens;
    /// balanced by construction up to capacity rounding.
    ExpertChoice,
}

impl RoutingStrategy {
    /// The skew exponent fed to the token generator, calibrated so the
    /// steady-state imbalance matches the regimes reported in the paper.
    fn skew(&self) -> f64 {
        match self {
            RoutingStrategy::TokenChoiceAuxLoss => 0.2,
            RoutingStrategy::SBase => 0.05,
            RoutingStrategy::ExpertChoice => 0.0,
        }
    }

    /// Short name used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingStrategy::TokenChoiceAuxLoss => "aux-loss",
            RoutingStrategy::SBase => "s-base",
            RoutingStrategy::ExpertChoice => "expert-choice",
        }
    }
}

/// MoE dynamism engine: per-layer, per-iteration expert-load imbalance.
#[derive(Debug, Clone)]
pub struct MoeEngine {
    strategy: RoutingStrategy,
    /// One token generator per MoE transformer layer (routing decisions are
    /// independent across layers).
    generators: Vec<TokenStreamGenerator>,
    /// Layer ids (into the model) of the MoE transformer blocks.
    moe_layer_ids: Vec<usize>,
    num_layers: usize,
    /// Fraction of a transformer block's FLOPs spent in the (MoE) FFN.
    ffn_fraction: f64,
}

impl MoeEngine {
    /// Build an engine for `model` (which must have an MoE configuration)
    /// using the given routing strategy.
    pub fn new(model: &Model, strategy: RoutingStrategy, seed: u64) -> Self {
        let moe_cfg = model
            .config()
            .moe
            .expect("MoeEngine requires a model with an MoE configuration");
        let cost = CostModel::new(model.config().clone());
        let attn = cost.attention_fwd_flops(1.0);
        let ffn = cost.moe_ffn_fwd_flops();
        let ffn_fraction = ffn / (attn + ffn);
        let tokens_per_batch = model.config().micro_batch_size * model.config().seq_len;
        let moe_layer_ids = model.transformer_layer_ids();
        // Per-layer routing skew: routing quality differs markedly between
        // layers in practice (early layers route more uniformly, some layers
        // develop strongly preferred experts), and that *heterogeneity* is
        // what turns expert imbalance into pipeline-stage imbalance.  Layers
        // draw their skew from [0.4·s, 1.8·s] around the strategy's base
        // skew s, deterministically from the seed.
        let mut skew_rng = crate::rng::Prng::seed_from(seed ^ 0xA5A5_5A5A);
        let generators = moe_layer_ids
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let base = strategy.skew();
                let layer_skew = base * (0.4 + 1.4 * skew_rng.next_f64());
                TokenStreamGenerator::new(
                    moe_cfg.num_experts,
                    tokens_per_batch * moe_cfg.top_k,
                    layer_skew,
                    seed.wrapping_add(i as u64 * 7919),
                )
            })
            .collect();
        MoeEngine {
            strategy,
            generators,
            moe_layer_ids,
            num_layers: model.num_layers(),
            ffn_fraction,
        }
    }

    /// The layer-level compute multiplier induced by an expert-load
    /// imbalance of `max/mean = imbalance`, given that only the FFN portion
    /// of the block is affected.
    pub fn layer_scale(&self, imbalance: f64) -> f64 {
        (1.0 - self.ffn_fraction) + self.ffn_fraction * imbalance
    }
}

impl DynamismEngine for MoeEngine {
    fn name(&self) -> String {
        format!("moe/{}", self.strategy.label())
    }

    fn case(&self) -> DynamismCase {
        DynamismCase::MixtureOfExperts
    }

    fn step(&mut self, _iteration: u64) -> LoadUpdate {
        let mut update = LoadUpdate::identity(self.num_layers);
        let ffn_fraction = self.ffn_fraction;
        for (generator, &layer_id) in self.generators.iter_mut().zip(self.moe_layer_ids.iter()) {
            let imbalance = max_over_mean(&generator.next_counts());
            let scale = (1.0 - ffn_fraction) + ffn_fraction * imbalance;
            update.fwd_scale[layer_id] = scale;
            update.bwd_scale[layer_id] = scale;
        }
        // Routing decisions change every forward pass.
        update.changed = true;
        update
    }

    fn rebalance_frequency(&self) -> RebalanceFrequency {
        RebalanceFrequency::EveryIteration
    }

    fn export_state(&self) -> EngineState {
        // The routing trajectory is fully determined by the per-layer token
        // generators' RNG stream positions (their popularity profiles are
        // reproduced from the seed at construction and never reshuffled).
        let mut state = EngineState::stateless(self.name(), MOE_STATE_VERSION);
        state.rng_streams = self.generators.iter().map(|g| g.rng_state()).collect();
        state
    }

    fn import_state(&mut self, state: &EngineState) -> Result<(), String> {
        state.check(&self.name(), MOE_STATE_VERSION)?;
        if state.rng_streams.len() != self.generators.len() {
            return Err(format!(
                "MoE state carries {} generator streams, engine has {}",
                state.rng_streams.len(),
                self.generators.len()
            ));
        }
        for (generator, &rng_state) in self.generators.iter_mut().zip(&state.rng_streams) {
            generator.set_rng_state(rng_state);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmo_model::ModelPreset;

    fn mixtral() -> Model {
        Model::from_preset(ModelPreset::Mixtral8x7b)
    }

    fn average_layer_imbalance(strategy: RoutingStrategy, iters: u64) -> f64 {
        let model = mixtral();
        let mut engine = MoeEngine::new(&model, strategy, 42);
        let tfm = model.transformer_layer_ids();
        let mut total = 0.0;
        let mut count = 0usize;
        for it in 0..iters {
            let update = engine.step(it);
            update.validate().unwrap();
            for &l in &tfm {
                total += update.fwd_scale[l];
                count += 1;
            }
        }
        total / count as f64
    }

    #[test]
    #[should_panic(expected = "MoE configuration")]
    fn dense_model_is_rejected() {
        let dense = Model::from_preset(ModelPreset::Gpt { layers: 24 });
        let _ = MoeEngine::new(&dense, RoutingStrategy::SBase, 1);
    }

    #[test]
    fn aux_loss_routing_leaves_about_25_percent_overload() {
        // The paper reports ~25% imbalance for Mixtral's aux-loss routing;
        // the per-layer compute multiplier should land in the 1.15–1.45
        // band on average.
        let avg = average_layer_imbalance(RoutingStrategy::TokenChoiceAuxLoss, 10);
        assert!((1.15..=1.45).contains(&avg), "average scale {avg}");
    }

    #[test]
    fn s_base_is_much_closer_to_balanced() {
        let aux = average_layer_imbalance(RoutingStrategy::TokenChoiceAuxLoss, 10);
        let sbase = average_layer_imbalance(RoutingStrategy::SBase, 10);
        let expert_choice = average_layer_imbalance(RoutingStrategy::ExpertChoice, 10);
        assert!(sbase < aux);
        assert!(expert_choice <= sbase + 0.02);
        assert!(sbase < 1.15, "s-base scale {sbase}");
    }

    #[test]
    fn only_transformer_layers_are_scaled() {
        let model = mixtral();
        let mut engine = MoeEngine::new(&model, RoutingStrategy::TokenChoiceAuxLoss, 3);
        let update = engine.step(0);
        // Embedding (0) and head (last) are untouched.
        assert_eq!(update.fwd_scale[0], 1.0);
        assert_eq!(update.fwd_scale[model.num_layers() - 1], 1.0);
        // MoE layers are scaled above 1.
        assert!(model
            .transformer_layer_ids()
            .iter()
            .all(|&l| update.fwd_scale[l] >= 1.0));
        assert!(update.changed);
        // One routing stream per MoE layer.
        assert_eq!(engine.export_state().rng_streams.len(), 32);
    }

    #[test]
    fn engine_metadata_matches_the_paper_case() {
        let model = mixtral();
        let engine = MoeEngine::new(&model, RoutingStrategy::SBase, 1);
        assert_eq!(engine.case(), DynamismCase::MixtureOfExperts);
        assert_eq!(
            engine.rebalance_frequency(),
            RebalanceFrequency::EveryIteration
        );
        assert!(engine.name().contains("s-base"));
    }

    #[test]
    fn layer_scale_interpolates_between_attention_and_ffn() {
        let model = mixtral();
        let engine = MoeEngine::new(&model, RoutingStrategy::SBase, 1);
        // Imbalance 1.0 → no amplification.
        assert!((engine.layer_scale(1.0) - 1.0).abs() < 1e-12);
        // Larger imbalance → proportionally larger scale, bounded by the
        // FFN fraction of the block.
        let s2 = engine.layer_scale(2.0);
        assert!(s2 > 1.5 && s2 < 2.0, "scale {s2}");
    }

    #[test]
    fn per_iteration_scales_fluctuate() {
        let model = mixtral();
        let mut engine = MoeEngine::new(&model, RoutingStrategy::TokenChoiceAuxLoss, 5);
        let a = engine.step(0).fwd_scale.clone();
        let b = engine.step(1).fwd_scale.clone();
        assert_ne!(a, b);
    }
}
