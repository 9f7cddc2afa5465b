//! Composite dynamics: several mechanisms stacked in one model.
//!
//! Real dynamic LLMs rarely exercise a single mechanism at a time: an MoE
//! model is also gradually pruned, freezes converged layers, and may let
//! confident tokens exit early.  DynMo treats whatever load the model
//! produces as a black box (paper §3.2), so stacking mechanisms needs no
//! balancer changes — but it does need a principled way to *merge* the
//! per-layer [`LoadUpdate`]s the individual engines emit.
//!
//! [`ComposedEngine`] owns an ordered set of sub-engines and merges their
//! updates multiplicatively:
//!
//! * `fwd_scale` / `bwd_scale` / `memory_scale` — product.  Mechanisms act
//!   on orthogonal parts of a layer's work (routing skew inflates the FFN,
//!   pruning thins the GEMMs, freezing removes the backward pass), so their
//!   relative effects compound.  A frozen layer (`bwd_scale = 0`) stays
//!   frozen no matter what another mechanism claims: `0 × x = 0` — this is
//!   the pruning-mask ∩ frozen-set reconciliation.
//! * `param_retention` — product: pruning the pruned model again retains
//!   the product of the retentions.
//! * `token_retention` — product.  Only mechanisms that *physically* remove
//!   tokens from the pipeline shrink this (early exit does; MoD routes
//!   around blocks but keeps the residual stream full-width at 1.0), so a
//!   MoD + early-exit stack shrinks each downstream boundary tensor exactly
//!   once — by the early-exit survival fraction — rather than double
//!   charging the reduction.
//! * `changed` — OR: any sub-engine's dynamism event invalidates the
//!   profile.
//!
//! The product is commutative, but f64 rounding is not reorder-stable, so
//! [`ComposedEngine`] multiplies sub-updates in a *canonical* order (the
//! paper's case order, not stack order): stacks of the same mechanisms in
//! any order produce bit-identical merged updates (the per-engine internal
//! RNG streams are seeded independently and never observe stack order
//! either).
//!
//! [`validate_composed`] rejects contradictory merges — above all a layer
//! frozen by one sub-engine that still claims backward time in the merged
//! update — and [`ComposedEngine::step`] runs it on every iteration, so a
//! buggy sub-engine is caught at the merge point instead of corrupting the
//! profiler downstream.

use crate::engine::{DynamismCase, DynamismEngine, EngineState, LoadUpdate, RebalanceFrequency};

/// Version of [`ComposedEngine`]'s own snapshot layout (the sub-engines
/// version their nested snapshots independently).
const COMPOSED_STATE_VERSION: u32 = 1;

/// An ordered stack of dynamism mechanisms acting on the same model.
pub struct ComposedEngine {
    engines: Vec<Box<dyn DynamismEngine + Send>>,
}

impl ComposedEngine {
    /// Build a composite engine from an ordered, non-empty stack of
    /// sub-engines.  Rejects stacks containing the same [`DynamismCase`]
    /// twice (stacking a mechanism on itself double-applies its dynamics)
    /// and nested composites (flatten the stack instead).
    pub fn new(engines: Vec<Box<dyn DynamismEngine + Send>>) -> Result<Self, String> {
        if engines.is_empty() {
            return Err("a composite stack needs at least one engine".into());
        }
        let mut seen = Vec::new();
        for engine in &engines {
            let case = engine.case();
            if case == DynamismCase::Composite {
                return Err(format!(
                    "engine '{}' is itself composite; flatten the stack",
                    engine.name()
                ));
            }
            if seen.contains(&case) {
                return Err(format!(
                    "stack contains two {} engines; each mechanism may appear once",
                    case.label()
                ));
            }
            seen.push(case);
        }
        Ok(ComposedEngine { engines })
    }

    /// Step every sub-engine and merge, surfacing merge errors instead of
    /// panicking (the fallible twin of [`DynamismEngine::step`]).
    ///
    /// Sub-updates are multiplied in canonical case order — f64 rounding is
    /// not reorder-stable, so folding in stack order would make
    /// `[A, B]` and `[B, A]` differ by an ulp; folding in case order makes
    /// commuting stacks bit-identical.
    pub fn try_step(&mut self, iteration: u64) -> Result<LoadUpdate, String> {
        let mut updates: Vec<(usize, LoadUpdate)> = self
            .engines
            .iter_mut()
            .map(|e| (canonical_rank(e.case()), e.step(iteration)))
            .collect();
        updates.sort_by_key(|&(rank, _)| rank);
        let ordered: Vec<LoadUpdate> = updates.into_iter().map(|(_, u)| u).collect();
        merge_updates(&ordered)
    }
}

/// Canonical merge position of a case: its position in the paper's order
/// ([`DynamismCase::ALL`]); `Composite` sorts last (it is rejected at
/// construction anyway).  Construction forbids duplicate cases, so the
/// rank is a total order over any valid stack.
fn canonical_rank(case: DynamismCase) -> usize {
    DynamismCase::ALL
        .iter()
        .position(|&c| c == case)
        .unwrap_or(DynamismCase::ALL.len())
}

/// Merge sub-engine updates into the stack's combined update: element-wise
/// products of all multiplier vectors, OR of the `changed` flags.  Validates
/// both the inputs and the merged result (see [`validate_composed`]).
pub fn merge_updates(updates: &[LoadUpdate]) -> Result<LoadUpdate, String> {
    let Some(first) = updates.first() else {
        return Err("cannot merge an empty update set".into());
    };
    let n = first.num_layers();
    for (i, update) in updates.iter().enumerate() {
        update
            .validate()
            .map_err(|e| format!("sub-update {i} is invalid: {e}"))?;
        if update.num_layers() != n {
            return Err(format!(
                "sub-update {i} covers {} layers, expected {n}",
                update.num_layers()
            ));
        }
    }
    let mut merged = LoadUpdate::identity(n);
    merged.changed = false;
    for update in updates {
        for l in 0..n {
            merged.fwd_scale[l] *= update.fwd_scale[l];
            merged.bwd_scale[l] *= update.bwd_scale[l];
            merged.memory_scale[l] *= update.memory_scale[l];
            merged.param_retention[l] *= update.param_retention[l];
            merged.token_retention[l] *= update.token_retention[l];
        }
        merged.changed |= update.changed;
    }
    validate_composed(updates, &merged)?;
    Ok(merged)
}

/// Validate a merged update against the sub-updates it claims to combine.
///
/// Rejects:
/// * a layer some sub-engine froze (`bwd_scale = 0`) that still claims
///   backward time in the merged update,
/// * a merged retention (parameter or token) above any single sub-engine's
///   retention — the merge must only ever shrink, and must shrink *once*
///   (the product is ≤ the minimum, so a double-applied reduction that
///   sneaks *under* every sub-update is indistinguishable from legitimate
///   compounding, but one applied on top of an already-merged vector trips
///   the per-layer `validate` ≤ 1 bound the moment any sub-engine also
///   reduces),
/// * structurally invalid merged vectors (negative, non-finite, length
///   mismatch), via [`LoadUpdate::validate`].
pub fn validate_composed(updates: &[LoadUpdate], merged: &LoadUpdate) -> Result<(), String> {
    merged
        .validate()
        .map_err(|e| format!("merged update is invalid: {e}"))?;
    let n = merged.num_layers();
    for update in updates {
        if update.num_layers() != n {
            return Err(format!(
                "sub-update covers {} layers, merged covers {n}",
                update.num_layers()
            ));
        }
    }
    for l in 0..n {
        let frozen = updates.iter().any(|u| u.bwd_scale[l] == 0.0);
        if frozen && merged.bwd_scale[l] != 0.0 {
            return Err(format!(
                "layer {l} is frozen by a sub-engine but the merged update \
                 still claims backward time ({})",
                merged.bwd_scale[l]
            ));
        }
        for u in updates {
            if merged.param_retention[l] > u.param_retention[l] + 1e-9 {
                return Err(format!(
                    "layer {l}: merged param_retention {} exceeds a sub-engine's {}",
                    merged.param_retention[l], u.param_retention[l]
                ));
            }
            if merged.token_retention[l] > u.token_retention[l] + 1e-9 {
                return Err(format!(
                    "layer {l}: merged token_retention {} exceeds a sub-engine's {}",
                    merged.token_retention[l], u.token_retention[l]
                ));
            }
        }
    }
    Ok(())
}

/// Greatest common divisor (for merging `EveryN` cadences).
fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl DynamismEngine for ComposedEngine {
    fn name(&self) -> String {
        let parts: Vec<String> = self.engines.iter().map(|e| e.name()).collect();
        format!("composite[{}]", parts.join(" + "))
    }

    fn case(&self) -> DynamismCase {
        DynamismCase::Composite
    }

    fn step(&mut self, iteration: u64) -> LoadUpdate {
        self.try_step(iteration)
            .expect("composite stack produced a contradictory merged update")
    }

    /// The stack's cadence is the finest any sub-engine needs: every
    /// iteration if any sub-engine rebalances every iteration, otherwise
    /// the gcd of the `EveryN` cadences (so every sub-engine's own due
    /// iterations remain due for the stack).
    fn rebalance_frequency(&self) -> RebalanceFrequency {
        let mut combined: Option<u64> = None;
        for engine in &self.engines {
            match engine.rebalance_frequency() {
                RebalanceFrequency::EveryIteration => {
                    return RebalanceFrequency::EveryIteration;
                }
                RebalanceFrequency::EveryN(n) if n > 0 => {
                    combined = Some(match combined {
                        Some(g) => gcd(g, n),
                        None => n,
                    });
                }
                RebalanceFrequency::EveryN(_) => {}
            }
        }
        match combined {
            Some(1) => RebalanceFrequency::EveryIteration,
            Some(n) => RebalanceFrequency::EveryN(n),
            None => RebalanceFrequency::EveryN(0),
        }
    }

    fn extra_overhead(&self, iteration: u64) -> f64 {
        self.engines
            .iter()
            .map(|e| e.extra_overhead(iteration))
            .sum()
    }

    fn export_state(&self) -> EngineState {
        let mut state = EngineState::stateless(self.name(), COMPOSED_STATE_VERSION);
        state.children = self.engines.iter().map(|e| e.export_state()).collect();
        state
    }

    fn import_state(&mut self, state: &EngineState) -> Result<(), String> {
        state.check(&self.name(), COMPOSED_STATE_VERSION)?;
        if state.children.len() != self.engines.len() {
            return Err(format!(
                "composed state carries {} sub-engine snapshots, stack has {}",
                state.children.len(),
                self.engines.len()
            ));
        }
        for (engine, child) in self.engines.iter_mut().zip(&state.children) {
            engine.import_state(child)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::early_exit::{EarlyExitEngine, EarlyExitMethod};
    use crate::freezing::{FreezingEngine, FreezingPolicy};
    use crate::mod_router::{MixtureOfDepthsEngine, ModConfig};
    use crate::moe::{MoeEngine, RoutingStrategy};
    use crate::pruning::{GradualPruningEngine, PruningSchedule};
    use dynmo_model::{Model, ModelPreset};

    fn gpt() -> Model {
        Model::from_preset(ModelPreset::Gpt { layers: 24 })
    }

    fn mixtral() -> Model {
        Model::from_preset(ModelPreset::Mixtral8x7b)
    }

    fn pruning(model: &Model) -> Box<dyn DynamismEngine + Send> {
        let schedule = PruningSchedule {
            initial_sparsity: 0.0,
            final_sparsity: 0.9,
            start_iteration: 10,
            frequency: 10,
            num_steps: 4,
        };
        Box::new(GradualPruningEngine::new(model, schedule, 5))
    }

    fn freezing(model: &Model) -> Box<dyn DynamismEngine + Send> {
        let policy = FreezingPolicy {
            check_interval: 5,
            first_freeze_iteration: 10,
            stagger_per_layer: 3,
            never_freeze_fraction: 0.25,
            jitter: 0.1,
        };
        Box::new(FreezingEngine::new(model, policy, 7))
    }

    fn early_exit(model: &Model) -> Box<dyn DynamismEngine + Send> {
        Box::new(EarlyExitEngine::new(model, EarlyExitMethod::Calm, 11))
    }

    #[test]
    fn merge_is_the_elementwise_product() {
        let mut a = LoadUpdate::identity(3);
        a.fwd_scale = vec![2.0, 1.0, 0.5];
        a.bwd_scale = vec![2.0, 1.0, 0.5];
        a.param_retention = vec![0.5, 1.0, 1.0];
        let mut b = LoadUpdate::identity(3);
        b.fwd_scale = vec![0.5, 3.0, 1.0];
        b.bwd_scale = vec![0.5, 3.0, 0.0];
        b.token_retention = vec![1.0, 0.8, 0.8];
        b.changed = true;
        let merged = merge_updates(&[a.clone(), b.clone()]).unwrap();
        for l in 0..3 {
            assert_eq!(merged.fwd_scale[l], a.fwd_scale[l] * b.fwd_scale[l]);
            assert_eq!(merged.bwd_scale[l], a.bwd_scale[l] * b.bwd_scale[l]);
            assert_eq!(
                merged.param_retention[l],
                a.param_retention[l] * b.param_retention[l]
            );
            assert_eq!(
                merged.token_retention[l],
                a.token_retention[l] * b.token_retention[l]
            );
        }
        assert!(merged.changed);
        // Frozen stays frozen.
        assert_eq!(merged.bwd_scale[2], 0.0);
    }

    #[test]
    fn merge_rejects_length_mismatch_and_invalid_subs() {
        let a = LoadUpdate::identity(3);
        let b = LoadUpdate::identity(4);
        assert!(merge_updates(&[a.clone(), b]).is_err());
        let mut bad = LoadUpdate::identity(3);
        bad.fwd_scale[0] = -1.0;
        assert!(merge_updates(&[a, bad]).is_err());
        assert!(merge_updates(&[]).is_err());
    }

    #[test]
    fn validate_rejects_a_frozen_layer_claiming_backward_time() {
        // A sub-engine froze layer 1, but the (hand-corrupted) merged
        // update still charges backward compute there.
        let mut frozen = LoadUpdate::identity(3);
        frozen.bwd_scale[1] = 0.0;
        let other = LoadUpdate::identity(3);
        let mut merged = merge_updates(&[frozen.clone(), other.clone()]).unwrap();
        assert_eq!(merged.bwd_scale[1], 0.0);
        merged.bwd_scale[1] = 0.5;
        let err = validate_composed(&[frozen, other], &merged).unwrap_err();
        assert!(err.contains("frozen"), "unexpected error: {err}");
    }

    #[test]
    fn validate_rejects_retention_above_a_sub_engines() {
        let mut exit = LoadUpdate::identity(2);
        exit.token_retention[1] = 0.6;
        let mut merged = merge_updates(&[exit.clone()]).unwrap();
        merged.token_retention[1] = 0.9; // double-merge artefact
        assert!(validate_composed(&[exit], &merged).is_err());
    }

    #[test]
    fn construction_rejects_duplicates_empty_and_nested_stacks() {
        let model = gpt();
        assert!(ComposedEngine::new(vec![]).is_err());
        let dup = ComposedEngine::new(vec![early_exit(&model), early_exit(&model)]);
        assert!(dup.is_err());
        let inner = ComposedEngine::new(vec![early_exit(&model), freezing(&model)]).unwrap();
        let nested = ComposedEngine::new(vec![Box::new(inner), pruning(&model)]);
        assert!(nested.is_err());
    }

    #[test]
    fn composed_step_equals_the_product_of_solo_steps() {
        let model = gpt();
        let mut composed =
            ComposedEngine::new(vec![pruning(&model), freezing(&model), early_exit(&model)])
                .unwrap();
        let mut solo = [pruning(&model), freezing(&model), early_exit(&model)];
        for iteration in 0..40 {
            let solo_updates: Vec<LoadUpdate> =
                solo.iter_mut().map(|e| e.step(iteration)).collect();
            let expected = merge_updates(&solo_updates).unwrap();
            let merged = composed.step(iteration);
            assert_eq!(merged, expected, "iteration {iteration}");
        }
    }

    #[test]
    fn commuting_stacks_merge_order_independently() {
        let model = gpt();
        let mut ab = ComposedEngine::new(vec![pruning(&model), early_exit(&model)]).unwrap();
        let mut ba = ComposedEngine::new(vec![early_exit(&model), pruning(&model)]).unwrap();
        for iteration in 0..30 {
            let u = ab.step(iteration);
            let v = ba.step(iteration);
            assert_eq!(u.fwd_scale, v.fwd_scale, "iteration {iteration}");
            assert_eq!(u.bwd_scale, v.bwd_scale);
            assert_eq!(u.memory_scale, v.memory_scale);
            assert_eq!(u.param_retention, v.param_retention);
            assert_eq!(u.token_retention, v.token_retention);
            assert_eq!(u.changed, v.changed);
        }
    }

    #[test]
    fn mod_plus_early_exit_shrinks_boundaries_exactly_once() {
        let model = gpt();
        let mut exit_solo = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 11);
        let mut stack = ComposedEngine::new(vec![
            Box::new(MixtureOfDepthsEngine::new(
                &model,
                ModConfig::paper_default(),
                3,
            )),
            early_exit(&model),
        ])
        .unwrap();
        for iteration in 0..10 {
            let exit = exit_solo.step(iteration);
            let merged = stack.step(iteration);
            // MoD keeps the residual stream full-width, so the merged
            // token-retention profile IS the early-exit profile: boundary
            // tensors shrink once, by the survival fraction.
            assert_eq!(merged.token_retention, exit.token_retention);
        }
    }

    #[test]
    fn rebalance_frequency_is_the_finest_needed() {
        let model = mixtral();
        let with_moe = ComposedEngine::new(vec![
            Box::new(MoeEngine::new(&model, RoutingStrategy::SBase, 1)),
            pruning(&model),
        ])
        .unwrap();
        assert_eq!(
            with_moe.rebalance_frequency(),
            RebalanceFrequency::EveryIteration
        );
        let gpt_model = gpt();
        // pruning EveryN(10) + early exit EveryN(100) → gcd 10.
        let stack = ComposedEngine::new(vec![pruning(&gpt_model), early_exit(&gpt_model)]).unwrap();
        assert_eq!(stack.rebalance_frequency(), RebalanceFrequency::EveryN(10));
    }

    #[test]
    fn metadata_and_accessors() {
        let model = gpt();
        let stack = ComposedEngine::new(vec![pruning(&model), early_exit(&model)]).unwrap();
        assert_eq!(stack.case(), DynamismCase::Composite);
        assert_eq!(stack.engines.len(), 2);
        // The snapshot keeps the sub-engines in stack order.
        let children: Vec<String> = stack
            .export_state()
            .children
            .into_iter()
            .map(|child| child.name)
            .collect();
        assert_eq!(
            children,
            vec![pruning(&model).name(), early_exit(&model).name()]
        );
        assert!(stack.name().starts_with("composite["));
        assert!(stack.name().contains(" + "));
        assert_eq!(stack.extra_overhead(5), 0.0);
    }

    #[test]
    fn state_round_trip_resumes_the_exact_stream() {
        let model = gpt();
        let mut original =
            ComposedEngine::new(vec![pruning(&model), freezing(&model), early_exit(&model)])
                .unwrap();
        for it in 0..25 {
            original.step(it);
        }
        let snapshot = original.export_state();
        assert_eq!(snapshot.children.len(), 3);

        let mut restored =
            ComposedEngine::new(vec![pruning(&model), freezing(&model), early_exit(&model)])
                .unwrap();
        restored.import_state(&snapshot).unwrap();
        for it in 25..60 {
            assert_eq!(original.step(it), restored.step(it), "iteration {it}");
        }
    }

    #[test]
    fn import_rejects_mismatched_stacks() {
        let model = gpt();
        let donor = ComposedEngine::new(vec![pruning(&model), early_exit(&model)]).unwrap();
        let snapshot = donor.export_state();
        // Wrong stack size.
        let mut three =
            ComposedEngine::new(vec![pruning(&model), freezing(&model), early_exit(&model)])
                .unwrap();
        assert!(three.import_state(&snapshot).is_err());
        // Wrong order → sub-engine names no longer line up.
        let mut swapped = ComposedEngine::new(vec![early_exit(&model), pruning(&model)]).unwrap();
        assert!(swapped.import_state(&snapshot).is_err());
    }
}
