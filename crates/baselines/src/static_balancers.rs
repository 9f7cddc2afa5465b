//! Static partitioning baselines: Megatron-LM and DeepSpeed.
//!
//! "Production distributed training frameworks typically apply static load
//! balancing at the start of training and maintain the same distribution
//! throughout.  Megatron-LM evenly splits transformer layers across
//! accelerators.  DeepSpeed offers three partitioning strategies: uniform
//! (equal number of layers), param (equal number of parameters), and regex
//! (grouping layers by name patterns)."  (paper §1)
//!
//! Both are one-shot initial assignments applied before training, after
//! which [`static_controller`] never rebalances.  DeepSpeed is modeled by its
//! `parameters` method: its `uniform` split is Megatron's even split, and
//! `regex` reduces to it when every transformer layer matches.

use dynmo_core::balancer::partition::partition_balanced;
use dynmo_core::controller::RebalanceController;
use dynmo_model::Model;
use dynmo_pipeline::StageAssignment;

/// The initial assignment Megatron-LM would use for `model` on
/// `num_stages` pipeline stages: the *transformer* layers are distributed
/// evenly, the embedding rides with the first stage and the LM head with the
/// last stage actually holding layers (Megatron's standard placement).  The
/// transformer layers are one consecutive run between the two.
pub fn megatron_initial_assignment(model: &Model, num_stages: usize) -> StageAssignment {
    let transformer = model.transformer_layer_ids();
    let (Some(&first), Some(&last)) = (transformer.first(), transformer.last()) else {
        return StageAssignment::uniform(model.num_layers(), num_stages);
    };
    let mut counts = StageAssignment::uniform(transformer.len(), num_stages)
        .counts()
        .to_vec();
    let tail = counts.iter().rposition(|&c| c > 0).unwrap_or(0);
    counts[0] += first;
    counts[tail] += model.num_layers() - 1 - last;
    StageAssignment::from_counts(&counts)
}

/// The initial assignment DeepSpeed's `parameters` method would use for
/// `model`: an equal number of parameters per stage, computed on the
/// *dense* model, since static systems have no knowledge of upcoming
/// dynamism.
pub fn deepspeed_initial_assignment(model: &Model, num_stages: usize) -> StageAssignment {
    let weights: Vec<f64> = model
        .layers()
        .iter()
        .map(|l| l.param_count as f64)
        .collect();
    StageAssignment::from_counts(&partition_balanced(&weights, &vec![1.0; num_stages]))
}

/// The controller used for every static baseline: whatever the initial
/// assignment was, never rebalance during training.  It holds no balancer,
/// and its reports are labelled `static/by-time`.
pub fn static_controller() -> RebalanceController {
    RebalanceController::static_split()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmo_model::ModelPreset;

    fn gpt() -> Model {
        Model::from_preset(ModelPreset::Gpt { layers: 24 })
    }

    #[test]
    fn initial_assignments_cover_all_layers() {
        let model = gpt();
        for stages in [4, 8, 24] {
            let megatron = megatron_initial_assignment(&model, stages);
            assert_eq!(megatron.num_layers(), model.num_layers());
            assert_eq!(megatron.num_stages(), stages);
            // Transformer layers are split evenly; embedding rides with the
            // first stage and the head with the last.
            assert!(megatron.layers_of(0).contains(&0));
            assert!(megatron
                .layers_of(stages - 1)
                .contains(&(model.num_layers() - 1)));
            let counts = megatron.counts();
            let tfm_per_stage = 24 / stages;
            assert!(counts.iter().all(|&c| c >= tfm_per_stage));

            let ds = deepspeed_initial_assignment(&model, stages);
            assert_eq!(ds.num_layers(), model.num_layers());
        }
        // 24 blocks over 4 stages, the embedding first and the head last.
        assert_eq!(
            megatron_initial_assignment(&model, 4).counts(),
            [7, 6, 6, 7]
        );
    }

    #[test]
    fn deepspeed_param_initial_assignment_isolates_the_embedding() {
        // The embedding table dominates the parameter count of a small GPT,
        // so the `parameters` method gives it (nearly) its own stage while
        // an even layer split does not.
        let model = gpt();
        let param = deepspeed_initial_assignment(&model, 8);
        let uniform = StageAssignment::uniform(model.num_layers(), 8);
        assert!(param.layers_of(0).len() < uniform.layers_of(0).len());
    }

    #[test]
    fn static_controller_never_rebalances() {
        let controller = static_controller();
        assert!(!controller.is_due(100, dynmo_dynamics::RebalanceFrequency::EveryIteration));
        assert_eq!(controller.name(), "static/by-time");
    }
}
