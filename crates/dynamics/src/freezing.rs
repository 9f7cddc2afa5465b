//! Adaptive layer freezing (paper §2.3, §4.2.3).
//!
//! DynMo builds on Egeria-style freezing: the training loop monitors how
//! fast each layer's loss contribution is changing and freezes layers that
//! have converged, dropping them from the backward pass and from gradient
//! exchange.  Empirically earlier layers converge first, so freezing
//! progresses front-to-back — which is exactly why it unbalances a pipeline
//! whose front stages suddenly have (almost) nothing to do.
//!
//! The engine models per-layer convergence times with a front-to-back
//! stagger plus jitter; the freezing decision is re-evaluated every
//! `check_interval` iterations (the paper quotes checks as frequent as every
//! 50 iterations, and a rebalance cadence of every ~300 iterations).

use crate::rng::Prng;
use dynmo_model::Model;
use serde::{Deserialize, Serialize};

use crate::engine::{DynamismCase, DynamismEngine, EngineState, LoadUpdate, RebalanceFrequency};

/// Snapshot layout version of [`FreezingEngine`]'s engine state.
const FREEZING_STATE_VERSION: u32 = 1;

/// Configuration of the freezing behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FreezingPolicy {
    /// Iterations between convergence checks (50 in Egeria's default).
    pub check_interval: u64,
    /// Iteration at which the earliest layer becomes freezable.
    pub first_freeze_iteration: u64,
    /// Additional iterations of training each subsequent layer needs before
    /// it converges (the front-to-back stagger).
    pub stagger_per_layer: u64,
    /// Fraction of layers that never freeze (the paper's observation that
    /// later layers keep learning; Egeria keeps the tail active).
    pub never_freeze_fraction: f64,
    /// Relative jitter applied to each layer's freeze iteration.
    pub jitter: f64,
}

impl FreezingPolicy {
    /// A default calibrated to produce the ≈40% bubble ratio the paper's
    /// Figure 1 reports for SoTA freezing schemes on a 10k-iteration run.
    pub fn paper_default() -> Self {
        FreezingPolicy {
            check_interval: 50,
            first_freeze_iteration: 1000,
            stagger_per_layer: 180,
            never_freeze_fraction: 0.25,
            jitter: 0.15,
        }
    }
}

/// Layer-freezing dynamism engine.
#[derive(Debug, Clone)]
pub struct FreezingEngine {
    policy: FreezingPolicy,
    /// Iteration at which each model layer freezes (`u64::MAX` = never).
    freeze_iteration: Vec<u64>,
    /// Current frozen flags, re-evaluated at check intervals.
    frozen: Vec<bool>,
    num_layers: usize,
    /// Fraction of a layer's static memory that survives freezing (weights
    /// stay, gradients and optimizer state are dropped).
    frozen_memory_fraction: f64,
}

impl FreezingEngine {
    /// Build an engine for `model` under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `policy.check_interval` is zero, which would otherwise
    /// silently disable freezing checks.
    pub fn new(model: &Model, policy: FreezingPolicy, seed: u64) -> Self {
        assert!(
            policy.check_interval > 0,
            "FreezingPolicy::check_interval must be non-zero"
        );
        let mut rng = Prng::seed_from(seed);
        let num_layers = model.num_layers();
        let transformer = model.transformer_layer_ids();
        let freezable =
            ((transformer.len() as f64) * (1.0 - policy.never_freeze_fraction)).round() as usize;
        let mut freeze_iteration = vec![u64::MAX; num_layers];
        for (pos, &layer) in transformer.iter().enumerate() {
            if pos < freezable {
                let base = policy.first_freeze_iteration + pos as u64 * policy.stagger_per_layer;
                let jitter = 1.0 + (rng.next_f64() - 0.5) * 2.0 * policy.jitter;
                freeze_iteration[layer] = (base as f64 * jitter).round().max(0.0) as u64;
            }
        }
        // Weights are param_bytes of the 16 bytes/param kept for an active
        // layer (weight + grad + Adam state) — freezing drops the rest.
        let frozen_memory_fraction =
            model.config().param_bytes as f64 / (model.config().param_bytes as f64 * 2.0 + 12.0);
        FreezingEngine {
            policy,
            freeze_iteration,
            frozen: vec![false; num_layers],
            num_layers,
            frozen_memory_fraction,
        }
    }
}

impl DynamismEngine for FreezingEngine {
    fn name(&self) -> String {
        "freezing/egeria".to_string()
    }

    fn case(&self) -> DynamismCase {
        DynamismCase::LayerFreezing
    }

    fn step(&mut self, iteration: u64) -> LoadUpdate {
        let mut changed = false;
        // Freezing decisions are only taken at check intervals, mirroring
        // Egeria's periodic reference-model evaluation.
        if iteration > 0 && iteration.is_multiple_of(self.policy.check_interval) {
            for l in 0..self.num_layers {
                if !self.frozen[l] && self.freeze_iteration[l] <= iteration {
                    self.frozen[l] = true;
                    changed = true;
                }
            }
        }
        let mut update = LoadUpdate::identity(self.num_layers);
        for l in 0..self.num_layers {
            if self.frozen[l] {
                // Frozen layers still run forward but skip backward and the
                // optimizer step.
                update.fwd_scale[l] = 1.0;
                update.bwd_scale[l] = 0.0;
                update.memory_scale[l] = self.frozen_memory_fraction;
            }
        }
        update.changed = changed;
        update
    }

    fn rebalance_frequency(&self) -> RebalanceFrequency {
        // Paper Figure 4 (overhead table): layer freezing rebalances every
        // ~300 iterations.
        RebalanceFrequency::EveryN(300)
    }

    fn export_state(&self) -> EngineState {
        // Freeze iterations are reproduced from the seed at construction;
        // the frozen mask is the mutable state.
        let mut state = EngineState::stateless(self.name(), FREEZING_STATE_VERSION);
        state.flags = self.frozen.clone();
        state
    }

    fn import_state(&mut self, state: &EngineState) -> Result<(), String> {
        state.check(&self.name(), FREEZING_STATE_VERSION)?;
        if state.flags.len() != self.frozen.len() {
            return Err(format!(
                "freezing state covers {} layers, engine has {}",
                state.flags.len(),
                self.frozen.len()
            ));
        }
        self.frozen.copy_from_slice(&state.flags);
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

    fn engine() -> FreezingEngine {
        FreezingEngine::new(&gpt(), FreezingPolicy::paper_default(), 13)
    }

    /// The frozen layers, as the engine's exported state records them.
    fn frozen_layers(e: &FreezingEngine) -> Vec<usize> {
        let flags = e.export_state().flags;
        (0..flags.len()).filter(|&l| flags[l]).collect()
    }

    #[test]
    fn nothing_is_frozen_before_the_first_freeze_iteration() {
        let mut e = engine();
        let update = e.step(500);
        assert!(frozen_layers(&e).is_empty());
        assert!(!update.changed);
        assert!(update.bwd_scale.iter().all(|&s| s == 1.0));
    }

    #[test]
    fn freezing_progresses_front_to_back() {
        let mut e = engine();
        // Run far enough for roughly half the freezable layers to converge.
        for it in 0..=5000u64 {
            e.step(it);
        }
        let frozen = frozen_layers(&e);
        assert!(frozen.len() > 5, "frozen {}", frozen.len());
        // The frozen set is dominated by early layers: its mean index must
        // be well below the model midpoint.
        let mean_idx: f64 = frozen.iter().map(|&l| l as f64).sum::<f64>() / frozen.len() as f64;
        assert!(mean_idx < 13.0, "mean frozen layer index {mean_idx}");
    }

    #[test]
    fn frozen_layers_keep_forward_but_drop_backward_and_memory() {
        let mut e = engine();
        for it in 0..=9000u64 {
            e.step(it);
        }
        let update = e.step(9001);
        update.validate().unwrap();
        let frozen = frozen_layers(&e);
        assert!(!frozen.is_empty());
        for &l in &frozen {
            assert_eq!(update.fwd_scale[l], 1.0);
            assert_eq!(update.bwd_scale[l], 0.0);
            assert!(update.memory_scale[l] < 0.2);
        }
        // Unfrozen layers are untouched.
        let unfrozen: Vec<usize> = (0..update.num_layers())
            .filter(|l| !frozen.contains(l))
            .collect();
        for &l in &unfrozen {
            assert_eq!(update.bwd_scale[l], 1.0);
            assert_eq!(update.memory_scale[l], 1.0);
        }
    }

    #[test]
    fn some_layers_never_freeze() {
        let mut e = engine();
        for it in 0..=100_000u64 {
            if it % 50 == 0 {
                e.step(it);
            }
        }
        let transformer_count = gpt().transformer_layer_ids().len();
        let num_frozen = frozen_layers(&e).len();
        assert!(num_frozen < transformer_count);
        // Roughly the configured fraction stays active.
        let expected_frozen = (transformer_count as f64 * (1.0 - 0.25)).round() as usize;
        assert_eq!(num_frozen, expected_frozen);
    }

    #[test]
    fn changes_are_flagged_only_when_new_layers_freeze() {
        let mut e = engine();
        let mut change_iterations = Vec::new();
        for it in 0..=4000u64 {
            if e.step(it).changed {
                change_iterations.push(it);
            }
        }
        assert!(!change_iterations.is_empty());
        // Changes only happen on check-interval boundaries.
        assert!(change_iterations
            .iter()
            .all(|it| it % FreezingPolicy::paper_default().check_interval == 0));
    }

    #[test]
    fn engine_metadata() {
        let e = engine();
        assert_eq!(e.case(), DynamismCase::LayerFreezing);
        assert_eq!(e.rebalance_frequency(), RebalanceFrequency::EveryN(300));
        assert!(e.name().contains("egeria"));
    }
}
