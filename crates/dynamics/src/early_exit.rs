//! Early exit of tokens (paper §2.5, §4.2.5).
//!
//! With confidence-based early exit (CALM, ADP-C) a token stops propagating
//! once its prediction is confident enough, so later layers process fewer
//! and fewer tokens.  The paper observes up to a 5× increase in bubble
//! ratio, concentrated in late pipeline stages, and notes that early exit is
//! the case that "benefits greatly from re-packing" because the load loss is
//! concentrated at the end of the model.
//!
//! The engine models a per-layer survival probability: every token that has
//! passed the exit-start layer continues to the next layer with probability
//! `1 − exit_rate` (plus per-iteration noise), so the fraction of tokens
//! reaching layer `i` decays geometrically with depth — the same shape as
//! the measured CALM/ADP-C exit histograms.

use crate::rng::Prng;
use dynmo_model::Model;
use serde::{Deserialize, Serialize};

use crate::engine::{DynamismCase, DynamismEngine, EngineState, LoadUpdate, RebalanceFrequency};

/// Snapshot layout version of [`EarlyExitEngine`]'s engine state.
const EARLY_EXIT_STATE_VERSION: u32 = 1;

/// Which early-exit method's exit aggressiveness to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EarlyExitMethod {
    /// No early exit (baseline: all tokens traverse the full model).
    None,
    /// CALM-style confident adaptive language modeling (aggressive exits).
    Calm,
    /// ADP-C-style anytime dense prediction with confidence (milder exits).
    AdpC,
}

impl EarlyExitMethod {
    /// Per-layer exit probability once past the exit-start layer.
    fn exit_rate(&self) -> f64 {
        match self {
            EarlyExitMethod::None => 0.0,
            EarlyExitMethod::Calm => 0.10,
            EarlyExitMethod::AdpC => 0.06,
        }
    }

    /// Fraction of the model's depth after which tokens may start exiting.
    fn exit_start_fraction(&self) -> f64 {
        match self {
            EarlyExitMethod::None => 1.0,
            EarlyExitMethod::Calm => 0.25,
            EarlyExitMethod::AdpC => 0.4,
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            EarlyExitMethod::None => "no-exit",
            EarlyExitMethod::Calm => "calm",
            EarlyExitMethod::AdpC => "adp-c",
        }
    }
}

/// Early-exit dynamism engine.
#[derive(Debug, Clone)]
pub struct EarlyExitEngine {
    method: EarlyExitMethod,
    transformer_layers: Vec<usize>,
    num_layers: usize,
    rng: Prng,
}

impl EarlyExitEngine {
    /// Build an engine for `model` with the given method.
    pub fn new(model: &Model, method: EarlyExitMethod, seed: u64) -> Self {
        EarlyExitEngine {
            method,
            transformer_layers: model.transformer_layer_ids(),
            num_layers: model.num_layers(),
            rng: Prng::seed_from(seed),
        }
    }

    /// Draw this iteration's survival profile and write it over `update`,
    /// an identity update of this model: the surviving-token fraction
    /// scales each layer's forward work, its outgoing tokens and, in
    /// `training`, its backward work.  Layers before the exit start see
    /// every token, so their identity entries stay.
    fn write_survival(&mut self, update: &mut LoadUpdate, training: bool) {
        if self.method == EarlyExitMethod::None {
            return;
        }
        let depth = self.transformer_layers.len();
        let exit_start = (depth as f64 * self.method.exit_start_fraction()).floor() as usize;
        let exit_rate = self.method.exit_rate();
        let mut surviving = 1.0f64;
        let mut set_layer = |layer: usize, fraction: f64| {
            update.fwd_scale[layer] = fraction;
            if training {
                update.bwd_scale[layer] = fraction;
            }
            // Exited tokens leave the pipeline: every tensor downstream of
            // this layer carries only the survivors.
            update.token_retention[layer] = fraction;
        };
        for &layer in &self.transformer_layers[exit_start..] {
            // Noisy per-layer exit rate: the confidence threshold interacts
            // with the batch content.
            let noise = 1.0 + (self.rng.next_f64() - 0.5) * 0.5;
            let rate = (exit_rate * noise).clamp(0.0, 0.9);
            surviving *= 1.0 - rate;
            set_layer(layer, surviving);
        }
        // The head only processes surviving tokens too.
        set_layer(self.num_layers - 1, surviving);
        update.changed = true;
    }
}

impl DynamismEngine for EarlyExitEngine {
    fn name(&self) -> String {
        format!("early-exit/{}", self.method.label())
    }

    fn case(&self) -> DynamismCase {
        DynamismCase::EarlyExit
    }

    fn step(&mut self, _iteration: u64) -> LoadUpdate {
        let mut update = LoadUpdate::identity(self.num_layers);
        self.write_survival(&mut update, true);
        update
    }

    fn inference_step_into(&mut self, _iteration: u64, update: &mut LoadUpdate) {
        // Overwrite whatever `update` held; inference runs no backward.
        update.set_identity(self.num_layers);
        update.bwd_scale.fill(0.0);
        self.write_survival(update, false);
    }

    fn rebalance_frequency(&self) -> RebalanceFrequency {
        // Paper Figure 4 overhead table: early exit rebalances every ~100
        // iterations.
        RebalanceFrequency::EveryN(100)
    }

    fn export_state(&self) -> EngineState {
        let mut state = EngineState::stateless(self.name(), EARLY_EXIT_STATE_VERSION);
        state.rng_streams = vec![self.rng.state()];
        state
    }

    fn import_state(&mut self, state: &EngineState) -> Result<(), String> {
        state.check(&self.name(), EARLY_EXIT_STATE_VERSION)?;
        if state.rng_streams.len() != 1 {
            return Err("early-exit state must carry exactly one RNG stream".into());
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
        Model::from_preset(ModelPreset::Gpt { layers: 48 })
    }

    #[test]
    fn no_exit_method_is_identity() {
        let mut e = EarlyExitEngine::new(&gpt(), EarlyExitMethod::None, 1);
        let u = e.step(0);
        assert!(!u.changed);
        assert!(u.fwd_scale.iter().all(|&s| s == 1.0));
    }

    #[test]
    fn token_survival_decreases_monotonically_with_depth() {
        let model = gpt();
        let mut e = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 2);
        let u = e.step(0);
        u.validate().unwrap();
        let tfm = model.transformer_layer_ids();
        let survivals: Vec<f64> = tfm.iter().map(|&l| u.fwd_scale[l]).collect();
        for w in survivals.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
        // Early layers process all tokens.
        assert_eq!(survivals[0], 1.0);
        // The last layers process strictly fewer.
        assert!(*survivals.last().unwrap() < 0.6);
        // The head is scaled down with the final survival fraction.
        assert!(u.fwd_scale[model.num_layers() - 1] < 0.6);
    }

    #[test]
    fn calm_is_more_aggressive_than_adpc() {
        let model = gpt();
        let final_survival = |method: EarlyExitMethod| {
            let mut e = EarlyExitEngine::new(&model, method, 7);
            let u = e.step(0);
            let tfm = model.transformer_layer_ids();
            u.fwd_scale[*tfm.last().unwrap()]
        };
        let calm = final_survival(EarlyExitMethod::Calm);
        let adpc = final_survival(EarlyExitMethod::AdpC);
        assert!(calm < adpc, "calm {calm} adpc {adpc}");
        assert!(adpc < 1.0);
    }

    #[test]
    fn exit_profile_fluctuates_across_iterations() {
        let model = gpt();
        let mut e = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 3);
        let a = e.step(0);
        let b = e.step(1);
        assert_ne!(a.token_retention, b.token_retention);
    }

    #[test]
    fn inference_step_into_matches_inference_step_bit_for_bit() {
        let model = gpt();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for method in [
            EarlyExitMethod::None,
            EarlyExitMethod::Calm,
            EarlyExitMethod::AdpC,
        ] {
            let mut by_value = EarlyExitEngine::new(&model, method, 11);
            let mut in_place = EarlyExitEngine::new(&model, method, 11);
            // The target starts stale and of a foreign length, then holds
            // the previous step's update: each refill overwrites all of it.
            let mut update = LoadUpdate::identity(3);
            update.fwd_scale[1] = 0.5;
            update.bwd_scale[2] = 2.0;
            update.changed = true;
            for iteration in 0..50 {
                let expected = by_value.inference_step(iteration);
                in_place.inference_step_into(iteration, &mut update);
                for (got, want) in [
                    (&update.fwd_scale, &expected.fwd_scale),
                    (&update.bwd_scale, &expected.bwd_scale),
                    (&update.memory_scale, &expected.memory_scale),
                    (&update.param_retention, &expected.param_retention),
                    (&update.token_retention, &expected.token_retention),
                ] {
                    assert_eq!(bits(got), bits(want), "{method:?} iteration {iteration}");
                }
                assert_eq!(update.changed, expected.changed);
            }
            assert_eq!(in_place.export_state(), by_value.export_state());
        }
    }

    #[test]
    fn later_layers_lose_more_load_than_early_layers() {
        // This is the property that makes early exit the case where
        // re-packing helps most (paper §4.2.5).
        let model = gpt();
        let mut e = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 4);
        let u = e.step(0);
        let tfm = model.transformer_layer_ids();
        let first_half: f64 = tfm[..24].iter().map(|&l| u.fwd_scale[l]).sum();
        let second_half: f64 = tfm[24..].iter().map(|&l| u.fwd_scale[l]).sum();
        assert!(second_half < first_half * 0.85);
    }

    #[test]
    fn engine_metadata() {
        let e = EarlyExitEngine::new(&gpt(), EarlyExitMethod::Calm, 5);
        assert_eq!(e.case(), DynamismCase::EarlyExit);
        assert_eq!(e.rebalance_frequency(), RebalanceFrequency::EveryN(100));
        assert!(e.name().contains("calm"));
        assert_eq!(EarlyExitMethod::AdpC.label(), "adp-c");
        assert_eq!(EarlyExitMethod::None.label(), "no-exit");
    }
}
