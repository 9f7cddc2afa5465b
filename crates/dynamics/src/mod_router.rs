//! Mixture of Depths (paper §2.6, §4.2.6).
//!
//! MoD routes only the top-k most relevant tokens of a sequence *through*
//! each routed block; the rest bypass it via the residual stream.  The
//! variant in the paper (following Raposo et al.) uses expert-choice routing
//! plus a small auxiliary MLP predictor that guesses, causally, whether a
//! token will be in the top-k — and its misprediction is one of the two
//! imbalance sources the paper lists (the other being the underlying MoE).
//! Routed blocks usually alternate with dense blocks.
//!
//! The engine models: alternating routed blocks with capacity `r`, a
//! predictor that over- or under-shoots the capacity per layer per
//! iteration, and an optional interaction with MoE routing skew.

use crate::rng::Prng;
use dynmo_model::{CostModel, Model};
use serde::{Deserialize, Serialize};

use crate::engine::{DynamismCase, DynamismEngine, EngineState, LoadUpdate, RebalanceFrequency};

/// Snapshot layout version of [`MixtureOfDepthsEngine`]'s engine state.
const MOD_STATE_VERSION: u32 = 1;

/// Configuration of the Mixture-of-Depths routing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModConfig {
    /// Fraction of tokens routed *through* a routed block (Raposo et al.
    /// commonly use 12.5%; the paper's GPT configuration is milder, which
    /// is consistent with its observed ~18% bubble ratio).
    pub capacity: f64,
    /// Every `route_every`-th transformer block is a routed (MoD) block;
    /// the rest are dense.
    pub route_every: usize,
    /// Standard deviation of the predictor's relative capacity error.
    pub predictor_error: f64,
}

impl ModConfig {
    /// Defaults matching the paper's MoD experiments (alternating routed
    /// blocks, 50% capacity, modest predictor error → ≈18% bubble ratio).
    pub fn paper_default() -> Self {
        ModConfig {
            capacity: 0.5,
            route_every: 2,
            predictor_error: 0.12,
        }
    }
}

/// Mixture-of-Depths dynamism engine.
#[derive(Debug, Clone)]
pub struct MixtureOfDepthsEngine {
    config: ModConfig,
    routed_layers: Vec<usize>,
    num_layers: usize,
    /// Fraction of a block's compute that the routed tokens account for
    /// (both attention and MLP are skipped by bypassing tokens, so this is
    /// ≈1.0; kept explicit for clarity and future refinement).
    routable_fraction: f64,
    rng: Prng,
}

impl MixtureOfDepthsEngine {
    /// Build an engine for `model` with the given MoD configuration.
    pub fn new(model: &Model, config: ModConfig, seed: u64) -> Self {
        assert!(config.route_every >= 1, "route_every must be ≥ 1");
        assert!(
            (0.0..=1.0).contains(&config.capacity),
            "capacity must be in [0, 1]"
        );
        let routed_layers: Vec<usize> = model
            .transformer_layer_ids()
            .iter()
            .enumerate()
            .filter(|(pos, _)| pos % config.route_every == config.route_every - 1)
            .map(|(_, &l)| l)
            .collect();
        // The router itself is a negligible linear projection; everything
        // else in the block is skipped by bypassing tokens.
        let cost = CostModel::new(model.config().clone());
        let block = cost.transformer_fwd_flops(1.0);
        let router = model.config().micro_batch_size as f64
            * model.config().seq_len as f64
            * model.config().hidden_size as f64
            * 2.0;
        let routable_fraction = (block - router) / block;
        MixtureOfDepthsEngine {
            config,
            routed_layers,
            num_layers: model.num_layers(),
            routable_fraction,
            rng: Prng::seed_from(seed),
        }
    }
}

impl DynamismEngine for MixtureOfDepthsEngine {
    fn name(&self) -> String {
        format!(
            "mod/capacity-{:.0}%-every-{}",
            self.config.capacity * 100.0,
            self.config.route_every
        )
    }

    fn case(&self) -> DynamismCase {
        DynamismCase::MixtureOfDepths
    }

    fn step(&mut self, _iteration: u64) -> LoadUpdate {
        let mut update = LoadUpdate::identity(self.num_layers);
        for &layer in &self.routed_layers {
            // Expert-choice capacity plus the causal predictor's error: the
            // predictor routes slightly more or fewer tokens than capacity.
            let error = 1.0 + self.rng.next_f64().mul_add(2.0, -1.0) * self.config.predictor_error;
            let fraction = (self.config.capacity * error).clamp(0.05, 1.0);
            let scale = (1.0 - self.routable_fraction) + self.routable_fraction * fraction;
            update.fwd_scale[layer] = scale;
            update.bwd_scale[layer] = scale;
        }
        // Router decisions change every forward pass.
        update.changed = true;
        update
    }

    fn rebalance_frequency(&self) -> RebalanceFrequency {
        RebalanceFrequency::EveryIteration
    }

    fn export_state(&self) -> EngineState {
        let mut state = EngineState::stateless(self.name(), MOD_STATE_VERSION);
        state.rng_streams = vec![self.rng.state()];
        state
    }

    fn import_state(&mut self, state: &EngineState) -> Result<(), String> {
        state.check(&self.name(), MOD_STATE_VERSION)?;
        if state.rng_streams.len() != 1 {
            return Err("MoD state must carry exactly one RNG stream".into());
        }
        self.rng = Prng::from_state(state.rng_streams[0]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmo_model::ModelPreset;

    fn gpt() -> Model {
        Model::from_preset(ModelPreset::Gpt { layers: 24 })
    }

    /// The layers an update scales: the routed blocks (a routed block's
    /// token fraction stays below 1 at these capacities).
    fn routed(update: &LoadUpdate) -> Vec<usize> {
        (0..update.num_layers())
            .filter(|&l| update.fwd_scale[l] != 1.0)
            .collect()
    }

    #[test]
    fn alternating_blocks_are_routed() {
        let mut e = MixtureOfDepthsEngine::new(&gpt(), ModConfig::paper_default(), 1);
        let routed = routed(&e.step(0));
        // 24 transformer layers, every 2nd routed → 12 routed blocks.
        assert_eq!(routed.len(), 12);
        // Routed blocks are the odd positions (2nd, 4th, ...).
        let tfm = gpt().transformer_layer_ids();
        assert!(routed.contains(&tfm[1]));
        assert!(!routed.contains(&tfm[0]));
    }

    #[test]
    fn routed_blocks_process_roughly_the_capacity_fraction() {
        let model = gpt();
        let mut e = MixtureOfDepthsEngine::new(&model, ModConfig::paper_default(), 2);
        let u = e.step(0);
        u.validate().unwrap();
        assert!(u.changed);
        for &l in model.transformer_layer_ids().iter().skip(1).step_by(2) {
            assert!(
                u.fwd_scale[l] > 0.3 && u.fwd_scale[l] < 0.75,
                "scale {}",
                u.fwd_scale[l]
            );
        }
        // Dense blocks are untouched.
        let tfm = model.transformer_layer_ids();
        assert_eq!(u.fwd_scale[tfm[0]], 1.0);
    }

    #[test]
    fn predictor_error_produces_per_iteration_variation() {
        let model = gpt();
        let mut e = MixtureOfDepthsEngine::new(&model, ModConfig::paper_default(), 3);
        let a = e.step(0).fwd_scale.clone();
        let b = e.step(1).fwd_scale.clone();
        assert_ne!(a, b);
        // The variation is bounded by the predictor error.
        for l in routed(&e.step(2)) {
            assert!((a[l] - b[l]).abs() < 0.3);
        }
    }

    #[test]
    fn zero_error_capacity_is_deterministic() {
        let model = gpt();
        let cfg = ModConfig {
            capacity: 0.25,
            route_every: 2,
            predictor_error: 0.0,
        };
        let mut e = MixtureOfDepthsEngine::new(&model, cfg, 4);
        let a = e.step(0).fwd_scale.clone();
        let b = e.step(1).fwd_scale.clone();
        assert_eq!(a, b);
        // Every routed block runs exactly the capacity fraction of tokens.
        let scale = (1.0 - e.routable_fraction) + e.routable_fraction * 0.25;
        for &l in model.transformer_layer_ids().iter().skip(1).step_by(2) {
            assert_eq!(a[l], scale);
        }
    }

    #[test]
    fn route_every_one_routes_every_block() {
        let cfg = ModConfig {
            capacity: 0.5,
            route_every: 1,
            predictor_error: 0.0,
        };
        let mut e = MixtureOfDepthsEngine::new(&gpt(), cfg, 5);
        assert_eq!(routed(&e.step(0)).len(), 24);
    }

    #[test]
    #[should_panic(expected = "capacity must be in [0, 1]")]
    fn invalid_capacity_is_rejected() {
        let cfg = ModConfig {
            capacity: 1.5,
            route_every: 2,
            predictor_error: 0.0,
        };
        let _ = MixtureOfDepthsEngine::new(&gpt(), cfg, 6);
    }

    #[test]
    fn engine_metadata() {
        let e = MixtureOfDepthsEngine::new(&gpt(), ModConfig::paper_default(), 7);
        assert_eq!(e.case(), DynamismCase::MixtureOfDepths);
        assert_eq!(e.rebalance_frequency(), RebalanceFrequency::EveryIteration);
        assert!(e.name().contains("capacity-50%-every-2"));
    }
}
