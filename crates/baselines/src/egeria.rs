//! Layer-freezing baseline: Egeria.
//!
//! Egeria (Wang et al.) freezes converged layers by periodically comparing
//! against a reference model kept on the CPU.  It does not rebalance the
//! pipeline after freezing, and the paper notes that "Egeria's overhead
//! grows fast with the number of layers, while DynMo's overhead remains
//! almost flat" — which is exactly why DynMo's speedup over Egeria grows
//! with depth in Figure 3.  This wrapper adds that depth-dependent
//! bookkeeping cost via [`DynamismEngine::extra_overhead`].

use dynmo_dynamics::{
    DynamismCase, DynamismEngine, FreezingEngine, FreezingPolicy, LoadUpdate, RebalanceFrequency,
};
use dynmo_model::Model;

/// Per-layer, per-check reference-model cost (seconds): copying and
/// evaluating a layer of the CPU reference model.
const PER_LAYER_CHECK_COST: f64 = 2.0e-3;

/// Egeria: reference-model-driven freezing with CPU-side bookkeeping whose
/// cost grows with model depth.
#[derive(Debug, Clone)]
pub struct EgeriaEngine {
    inner: FreezingEngine,
    num_layers: usize,
    check_interval: u64,
}

impl EgeriaEngine {
    /// Wrap a freezing engine for `model`.
    pub fn new(model: &Model, policy: FreezingPolicy, seed: u64) -> Self {
        let check_interval = policy.check_interval;
        EgeriaEngine {
            inner: FreezingEngine::new(model, policy, seed),
            num_layers: model.num_layers(),
            check_interval,
        }
    }
}

impl DynamismEngine for EgeriaEngine {
    fn name(&self) -> String {
        "freezing/egeria-baseline".to_string()
    }

    fn case(&self) -> DynamismCase {
        DynamismCase::LayerFreezing
    }

    fn step(&mut self, iteration: u64) -> LoadUpdate {
        self.inner.step(iteration)
    }

    fn rebalance_frequency(&self) -> RebalanceFrequency {
        self.inner.rebalance_frequency()
    }

    fn extra_overhead(&self, iteration: u64) -> f64 {
        if iteration > 0 && iteration.is_multiple_of(self.check_interval) {
            // The reference model covers every (still unfrozen) layer; the
            // cost is dominated by the full sweep, so it scales with depth.
            self.num_layers as f64 * PER_LAYER_CHECK_COST
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmo_model::ModelPreset;

    fn gpt(layers: usize) -> Model {
        Model::from_preset(ModelPreset::Gpt { layers })
    }

    #[test]
    fn egeria_overhead_grows_with_depth_and_only_at_checks() {
        let shallow = EgeriaEngine::new(&gpt(24), FreezingPolicy::paper_default(), 1);
        let deep = EgeriaEngine::new(&gpt(48), FreezingPolicy::paper_default(), 1);
        assert_eq!(shallow.extra_overhead(49), 0.0);
        assert!(shallow.extra_overhead(50) > 0.0);
        assert!(deep.extra_overhead(50) > shallow.extra_overhead(50) * 1.5);
        assert_eq!(shallow.extra_overhead(0), 0.0);
    }

    #[test]
    fn egeria_freezing_behaviour_matches_the_inner_engine() {
        let model = gpt(24);
        let mut egeria = EgeriaEngine::new(&model, FreezingPolicy::paper_default(), 7);
        let mut reference = FreezingEngine::new(&model, FreezingPolicy::paper_default(), 7);
        for it in 0..3000 {
            let a = egeria.step(it);
            let b = reference.step(it);
            assert_eq!(a, b);
        }
        assert_eq!(egeria.inner.export_state(), reference.export_state());
        assert_eq!(egeria.case(), DynamismCase::LayerFreezing);
    }
}
