//! The common interface every dynamism mechanism implements.
//!
//! DynMo "operates as a black-box approach where the load balancing happens
//! at regular fixed intervals, without any knowledge of whether the model
//! has changed or not" (§3.2).  The engines therefore do not talk to the
//! balancer directly: they simply mutate per-layer load multipliers, and the
//! profiler observes the result.  The [`LoadUpdate`] struct is that
//! observable state.

use serde::{Deserialize, Serialize};

/// Which of the paper's six dynamic-model cases an engine implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DynamismCase {
    /// §2.1 sparsely-activated Mixture of Experts.
    MixtureOfExperts,
    /// §2.2 gradual global parameter pruning.
    ParameterPruning,
    /// §2.3 adaptive layer freezing.
    LayerFreezing,
    /// §2.4 dynamic sparse (flash) attention.
    SparseAttention,
    /// §2.5 early exit of tokens.
    EarlyExit,
    /// §2.6 Mixture of Depths.
    MixtureOfDepths,
    /// Several mechanisms stacked in one model (e.g. an MoE that is also
    /// gradually pruned and freezes converged layers); see
    /// [`crate::compose::ComposedEngine`].  Not part of
    /// [`DynamismCase::ALL`], which enumerates the paper's six base cases.
    Composite,
}

impl DynamismCase {
    /// All six cases in the order the paper presents them.
    pub const ALL: [DynamismCase; 6] = [
        DynamismCase::MixtureOfExperts,
        DynamismCase::ParameterPruning,
        DynamismCase::LayerFreezing,
        DynamismCase::SparseAttention,
        DynamismCase::EarlyExit,
        DynamismCase::MixtureOfDepths,
    ];

    /// Human-readable label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            DynamismCase::MixtureOfExperts => "Mixture of Experts",
            DynamismCase::ParameterPruning => "Gradual Pruning",
            DynamismCase::LayerFreezing => "Layer Freezing",
            DynamismCase::SparseAttention => "Dynamic Sparse Attention",
            DynamismCase::EarlyExit => "Early Exit",
            DynamismCase::MixtureOfDepths => "Mixture of Depths",
            DynamismCase::Composite => "Composite",
        }
    }
}

/// A serializable snapshot of one engine's mutable state — every RNG stream
/// position, mask, counter, and scalar the engine mutates while stepping —
/// so a checkpointed training run can rebuild the engine mid-trajectory and
/// replay the exact same dynamism the original run produced.
///
/// Each engine versions its own snapshot layout independently (the
/// `version` field), so a composed stack can evolve one mechanism's state
/// format without invalidating checkpoints of the others.  Composite
/// engines nest their sub-engines' snapshots in `children`, in stack order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineState {
    /// The owning engine's `name()` at export time; imports are rejected if
    /// the restoring engine's name differs (wrong engine or wrong config).
    pub name: String,
    /// Layout version of this engine's snapshot fields.
    pub version: u32,
    /// RNG stream positions (SplitMix64 states), in engine-defined order.
    pub rng_streams: Vec<u64>,
    /// Boolean masks (frozen flags, pruning masks), engine-defined order.
    pub flags: Vec<bool>,
    /// Integer counters (e.g. the last applied pruning step).
    pub counters: Vec<u64>,
    /// Scalar state (e.g. the sparsity currently in effect).
    pub scalars: Vec<f64>,
    /// Nested sub-engine snapshots (composite engines only).
    pub children: Vec<EngineState>,
}

impl EngineState {
    /// A snapshot with no mutable state, for engines that derive everything
    /// from the iteration counter.
    pub fn stateless(name: String, version: u32) -> Self {
        EngineState {
            name,
            version,
            rng_streams: Vec::new(),
            flags: Vec::new(),
            counters: Vec::new(),
            scalars: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Check the snapshot belongs to engine `name` at layout `version`.
    pub fn check(&self, name: &str, version: u32) -> Result<(), String> {
        if self.name != name {
            return Err(format!(
                "engine state for '{}' cannot restore engine '{name}'",
                self.name
            ));
        }
        if self.version != version {
            return Err(format!(
                "engine '{name}' expects state version {version}, found {}",
                self.version
            ));
        }
        Ok(())
    }
}

/// How often DynMo should rebalance for a given dynamism case (paper §3.3.1:
/// "for MoEs and MoDs, rebalancing is needed every iteration ... in gradual
/// pruning, dynamism typically occurs every few thousand iterations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RebalanceFrequency {
    /// Rebalance after every training iteration.
    EveryIteration,
    /// Rebalance every `n` iterations.
    EveryN(u64),
}

impl RebalanceFrequency {
    /// Whether a rebalance is due at `iteration` (1-based counting of
    /// completed iterations).
    pub fn is_due(&self, iteration: u64) -> bool {
        match self {
            RebalanceFrequency::EveryIteration => true,
            RebalanceFrequency::EveryN(n) => *n != 0 && iteration.is_multiple_of(*n),
        }
    }
}

/// The per-layer load state produced by an engine after one iteration.
///
/// All vectors are indexed by *model layer id* (embedding = 0, transformer
/// blocks, head last) and have length `num_layers`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadUpdate {
    /// Multiplier on each layer's baseline forward compute (1.0 = baseline).
    pub fwd_scale: Vec<f64>,
    /// Multiplier on each layer's baseline backward compute.
    pub bwd_scale: Vec<f64>,
    /// Multiplier on each layer's static memory (weights/grads/optimizer).
    pub memory_scale: Vec<f64>,
    /// Fraction of each layer's parameters still present (pruning).
    pub param_retention: Vec<f64>,
    /// Fraction of the micro-batch's tokens still flowing *out of* each
    /// layer (1.0 = the full residual stream).  Only mechanisms that
    /// physically remove tokens from the pipeline shrink this — early exit
    /// drops exited tokens from every later layer; MoD routes tokens
    /// *around* blocks but keeps the residual stream full-width, so it
    /// stays at 1.0.  The trainer sizes each stage's outgoing boundary
    /// tensor (and hence its pipeline comm cost) from this signal.
    pub token_retention: Vec<f64>,
    /// Whether the model or control flow changed at this iteration (i.e. a
    /// dynamism event occurred).
    pub changed: bool,
}

impl LoadUpdate {
    /// An identity update (no dynamism yet) for a model with `num_layers`
    /// layers.
    pub fn identity(num_layers: usize) -> Self {
        LoadUpdate {
            fwd_scale: vec![1.0; num_layers],
            bwd_scale: vec![1.0; num_layers],
            memory_scale: vec![1.0; num_layers],
            param_retention: vec![1.0; num_layers],
            token_retention: vec![1.0; num_layers],
            changed: false,
        }
    }

    /// Make this the [`LoadUpdate::identity`] of a `num_layers`-layer model
    /// in place, reusing the buffers (no allocation once each holds
    /// `num_layers` values), whatever length or values it held before.
    pub fn set_identity(&mut self, num_layers: usize) {
        for v in [
            &mut self.fwd_scale,
            &mut self.bwd_scale,
            &mut self.memory_scale,
            &mut self.param_retention,
            &mut self.token_retention,
        ] {
            v.clear();
            v.resize(num_layers, 1.0);
        }
        self.changed = false;
    }

    /// Number of layers covered by this update.
    pub fn num_layers(&self) -> usize {
        self.fwd_scale.len()
    }

    /// Validate internal consistency (equal lengths, non-negative scales).
    ///
    /// Each check is a fold with no early exit, so it vectorizes: the
    /// serving engine validates one update per engine step.  The range
    /// `0.0..=f64::MAX` holds exactly the finite non-negative values, and
    /// testing it takes comparisons only (NaN fails both).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.fwd_scale.len();
        if self.bwd_scale.len() != n
            || self.memory_scale.len() != n
            || self.param_retention.len() != n
            || self.token_retention.len() != n
        {
            return Err("all LoadUpdate vectors must have the same length".into());
        }
        for (name, v) in [
            ("fwd_scale", &self.fwd_scale),
            ("bwd_scale", &self.bwd_scale),
            ("memory_scale", &self.memory_scale),
            ("param_retention", &self.param_retention),
            ("token_retention", &self.token_retention),
        ] {
            if !all(v, |x| (0.0..=f64::MAX).contains(&x)) {
                return Err(format!("{name} contains a negative or non-finite value"));
            }
        }
        if !all(&self.param_retention, |x| x <= 1.0 + 1e-9) {
            return Err("param_retention must be ≤ 1".into());
        }
        if !all(&self.token_retention, |x| x <= 1.0 + 1e-9) {
            return Err("token_retention must be ≤ 1".into());
        }
        Ok(())
    }
}

/// Whether `keep` holds for every value, visiting all of them.
fn all(values: &[f64], keep: impl Fn(f64) -> bool) -> bool {
    values.iter().fold(true, |ok, &x| ok & keep(x))
}

/// A dynamism mechanism: advances its internal state by one training
/// iteration and reports the resulting per-layer load state.
pub trait DynamismEngine {
    /// A short name for logging and tables (e.g. "moe/s-base").
    fn name(&self) -> String;

    /// Which of the paper's six cases this engine implements.
    fn case(&self) -> DynamismCase;

    /// Advance to `iteration` (0-based) and return the resulting load state.
    fn step(&mut self, iteration: u64) -> LoadUpdate;

    /// Advance to `iteration` and return the load state as seen by an
    /// *inference* engine: the same per-layer dynamism as
    /// [`DynamismEngine::step`] — early-exit/MoD token retention still
    /// shortens downstream work, MoE routing still skews per-layer compute
    /// — but with the backward pass removed entirely (serving never runs
    /// one).  Engines whose inference behaviour differs structurally from
    /// training (e.g. a freezing engine, which is a training-only notion)
    /// may override this; the default zeroes `bwd_scale` and leaves
    /// everything else as `step` produced it.
    ///
    /// Stateful engines advance the same internal streams as `step`, so a
    /// single engine instance must be driven by either training or
    /// inference, not both.
    fn inference_step(&mut self, iteration: u64) -> LoadUpdate {
        let mut update = self.step(iteration);
        for scale in update.bwd_scale.iter_mut() {
            *scale = 0.0;
        }
        update
    }

    /// Advance to `iteration` and write into `update` the load state
    /// [`DynamismEngine::inference_step`] would return, whatever `update`
    /// held before.  The serving engine calls this on every engine step with
    /// the update it priced the previous step under, so an engine that
    /// refills the buffers in place makes the step allocation-free.  The
    /// default delegates to `inference_step`, so a wrapper that overrides
    /// only `inference_step` still sees every call.
    fn inference_step_into(&mut self, iteration: u64, update: &mut LoadUpdate) {
        *update = self.inference_step(iteration);
    }

    /// The rebalancing cadence the paper prescribes for this case.
    fn rebalance_frequency(&self) -> RebalanceFrequency;

    /// Extra per-iteration wall-clock overhead (in seconds) the mechanism
    /// itself imposes on training, outside of layer compute.  Used by
    /// baseline wrappers such as Egeria, whose CPU-side reference-model
    /// bookkeeping grows with the number of layers (paper §5.1, layer
    /// freezing discussion); DynMo's own engines impose none.
    fn extra_overhead(&self, _iteration: u64) -> f64 {
        0.0
    }

    /// Export the engine's mutable state for checkpointing.  The default is
    /// a stateless snapshot — correct only for engines whose `step` output
    /// is a pure function of the iteration counter; every stateful engine
    /// overrides this.
    fn export_state(&self) -> EngineState {
        EngineState::stateless(self.name(), 0)
    }

    /// Restore the engine to a previously exported state.  Must be given a
    /// snapshot produced by `export_state` on an engine with the same
    /// `name()`; the default accepts only the stateless snapshot shape.
    fn import_state(&mut self, state: &EngineState) -> Result<(), String> {
        state.check(&self.name(), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_update_is_valid_and_neutral() {
        let u = LoadUpdate::identity(5);
        u.validate().unwrap();
        assert_eq!(u.num_layers(), 5);
        assert!(!u.changed);

        // Resetting in place overwrites any length and any values.
        for mut dirty in [LoadUpdate::identity(2), LoadUpdate::identity(8)] {
            dirty.fwd_scale[1] = 0.5;
            dirty.token_retention[0] = 0.25;
            dirty.changed = true;
            dirty.set_identity(5);
            assert_eq!(dirty, u);
        }
    }

    #[test]
    fn validation_catches_mismatched_lengths_and_bad_values() {
        let mut u = LoadUpdate::identity(3);
        u.bwd_scale.pop();
        assert!(u.validate().is_err());

        let mut u = LoadUpdate::identity(3);
        u.fwd_scale[1] = -0.5;
        assert!(u.validate().is_err());

        let mut u = LoadUpdate::identity(3);
        u.memory_scale[2] = f64::NAN;
        assert!(u.validate().is_err());

        let mut u = LoadUpdate::identity(3);
        u.param_retention[0] = 1.5;
        assert!(u.validate().is_err());

        // Negative zero, the largest finite value and a subnormal are valid
        // scales, and a retention may exceed 1 by 1e-9.
        for x in [-0.0, f64::MAX, f64::MIN_POSITIVE / 2.0] {
            let mut u = LoadUpdate::identity(3);
            u.fwd_scale[0] = x;
            u.memory_scale[2] = x;
            u.validate().unwrap();
        }
        let mut u = LoadUpdate::identity(3);
        u.param_retention[1] = 1.0 + 1e-9;
        u.token_retention[2] = 1.0 + 1e-9;
        u.validate().unwrap();

        // Infinities, NaN and the negative normal nearest zero are rejected;
        // the message names the first offending vector in field order.
        for x in [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::MIN_POSITIVE,
        ] {
            let mut u = LoadUpdate::identity(3);
            u.token_retention[0] = x;
            u.bwd_scale[2] = x;
            assert_eq!(
                u.validate().unwrap_err(),
                "bwd_scale contains a negative or non-finite value",
                "{x}"
            );
        }
        let mut u = LoadUpdate::identity(3);
        u.token_retention[0] = 1.0 + 2e-9;
        assert_eq!(u.validate().unwrap_err(), "token_retention must be ≤ 1");
        u.param_retention[2] = 1.0 + 2e-9;
        assert_eq!(u.validate().unwrap_err(), "param_retention must be ≤ 1");
    }

    #[test]
    fn rebalance_frequency_due_logic() {
        assert!(RebalanceFrequency::EveryIteration.is_due(1));
        assert!(RebalanceFrequency::EveryIteration.is_due(999));
        let every100 = RebalanceFrequency::EveryN(100);
        assert!(every100.is_due(100));
        assert!(every100.is_due(200));
        assert!(!every100.is_due(150));
        assert!(!RebalanceFrequency::EveryN(0).is_due(5));
    }

    #[test]
    fn inference_step_zeroes_the_backward_and_keeps_the_forward() {
        // A minimal stateful engine: halves layer 1's compute each step.
        struct Shrinker {
            factor: f64,
        }
        impl DynamismEngine for Shrinker {
            fn name(&self) -> String {
                "shrinker".into()
            }
            fn case(&self) -> DynamismCase {
                DynamismCase::EarlyExit
            }
            fn step(&mut self, _iteration: u64) -> LoadUpdate {
                self.factor *= 0.5;
                let mut u = LoadUpdate::identity(3);
                u.fwd_scale[1] = self.factor;
                u.bwd_scale[1] = self.factor;
                u.token_retention[1] = self.factor;
                u.changed = true;
                u
            }
            fn rebalance_frequency(&self) -> RebalanceFrequency {
                RebalanceFrequency::EveryIteration
            }
        }
        let mut train = Shrinker { factor: 1.0 };
        let mut infer = Shrinker { factor: 1.0 };
        let t = train.step(0);
        let i = infer.inference_step(0);
        i.validate().unwrap();
        // Forward dynamism and token retention survive unchanged...
        assert_eq!(i.fwd_scale, t.fwd_scale);
        assert_eq!(i.token_retention, t.token_retention);
        assert_eq!(i.changed, t.changed);
        // ...but no layer claims backward time.
        assert!(i.bwd_scale.iter().all(|&s| s == 0.0));
        // The hook advances the same internal state as step().
        let i2 = infer.inference_step(1);
        assert!(i2.fwd_scale[1] < i.fwd_scale[1]);

        // The in-place hook's default replaces whatever the target held
        // with `inference_step`'s update.
        let mut by_value = Shrinker { factor: 1.0 };
        let mut in_place = Shrinker { factor: 1.0 };
        let mut update = LoadUpdate::identity(7);
        update.changed = true;
        for iteration in 0..3 {
            in_place.inference_step_into(iteration, &mut update);
            assert_eq!(update, by_value.inference_step(iteration));
        }
    }

    #[test]
    fn case_labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            DynamismCase::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), DynamismCase::ALL.len());
        // Composite is deliberately excluded from the six base cases.
        assert!(!DynamismCase::ALL.contains(&DynamismCase::Composite));
        assert_eq!(DynamismCase::Composite.label(), "Composite");
    }

    #[test]
    fn engine_state_check_rejects_wrong_name_and_version() {
        let state = EngineState::stateless("moe/s-base".to_string(), 1);
        assert!(state.check("moe/s-base", 1).is_ok());
        assert!(state.check("moe/aux-loss", 1).is_err());
        assert!(state.check("moe/s-base", 2).is_err());
        assert!(state.rng_streams.is_empty() && state.children.is_empty());
    }
}
