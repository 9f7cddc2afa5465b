//! Integration tests spanning every crate: run the end-to-end trainer for
//! each of the paper's six dynamic-model cases, with a static baseline and
//! with DynMo, and check the qualitative claims of the paper hold:
//! DynMo never loses to the static baseline, reduces the measured imbalance,
//! and keeps its overhead in the low single-digit percent range.

use dynmo::baselines::static_controller;
use dynmo::core::balancer::{BalanceObjective, DiffusionBalancer, PartitionBalancer};
use dynmo::core::controller::{RebalanceController, RebalancePolicy};
use dynmo::core::report::TrainingReport;
use dynmo::core::trainer::{Trainer, TrainerConfig};
use dynmo::dynamics::{
    AttentionMode, DynamismEngine, EarlyExitEngine, EarlyExitMethod, FreezingEngine,
    FreezingPolicy, GradualPruningEngine, MixtureOfDepthsEngine, ModConfig, MoeEngine,
    PruningSchedule, RebalanceFrequency, RoutingStrategy, SparseAttentionEngine,
};
use dynmo::model::{ClusterConfig, Model, ModelPreset};

const ITERATIONS: u64 = 250;
const STAGES: usize = 8;

fn gpt(layers: usize) -> Model {
    Model::from_preset(ModelPreset::Gpt { layers })
}

fn trainer_config() -> TrainerConfig {
    TrainerConfig::paper_defaults(ClusterConfig::single_node(STAGES), ITERATIONS)
}

fn run_static(model: &Model, engine: &mut dyn DynamismEngine) -> TrainingReport {
    let mut trainer = Trainer::new(model.clone(), trainer_config(), static_controller());
    trainer.run(engine)
}

fn run_dynmo(
    model: &Model,
    engine: &mut dyn DynamismEngine,
    diffusion: bool,
    frequency: Option<RebalanceFrequency>,
) -> TrainingReport {
    let policy = RebalancePolicy {
        frequency,
        repack: false,
    };
    let controller = if diffusion {
        RebalanceController::new(
            Box::new(DiffusionBalancer::new()),
            BalanceObjective::ByTime,
            policy,
        )
    } else {
        RebalanceController::new(
            Box::new(PartitionBalancer::new()),
            BalanceObjective::ByTime,
            policy,
        )
    };
    let mut trainer = Trainer::new(model.clone(), trainer_config(), controller);
    trainer.run(engine)
}

/// DynMo must not lose to the static baseline by more than noise, and the
/// balancing overhead must stay within the paper's single-digit-percent
/// claim.
fn assert_dynmo_sane(case: &str, dynmo: &TrainingReport, baseline: &TrainingReport) {
    assert!(
        dynmo.tokens_per_second >= baseline.tokens_per_second * 0.97,
        "{case}: DynMo ({:.0} tok/s) lost to static ({:.0} tok/s)",
        dynmo.tokens_per_second,
        baseline.tokens_per_second
    );
    assert!(
        dynmo.overhead_fraction < 0.15,
        "{case}: overhead fraction {} too high",
        dynmo.overhead_fraction
    );
    assert!(dynmo.rebalance_events > 0, "{case}: DynMo never rebalanced");
    assert_eq!(baseline.rebalance_events, 0);
}

#[test]
fn moe_case_partition_balancer() {
    let model = Model::from_preset(ModelPreset::Mixtral8x7b);
    let mut static_engine = MoeEngine::new(&model, RoutingStrategy::TokenChoiceAuxLoss, 3);
    let mut dynmo_engine = MoeEngine::new(&model, RoutingStrategy::TokenChoiceAuxLoss, 3);
    let baseline = run_static(&model, &mut static_engine);
    let dynmo = run_dynmo(&model, &mut dynmo_engine, false, None);
    assert_dynmo_sane("moe", &dynmo, &baseline);
    assert!(dynmo.mean_imbalance <= baseline.mean_imbalance + 1e-9);
}

#[test]
fn pruning_case_diffusion_balancer() {
    let model = gpt(32);
    let schedule = PruningSchedule {
        initial_sparsity: 0.0,
        final_sparsity: 0.9,
        start_iteration: 50,
        frequency: 40,
        num_steps: 4,
    };
    let mut static_engine = GradualPruningEngine::new(&model, schedule, 5);
    let mut dynmo_engine = GradualPruningEngine::new(&model, schedule, 5);
    let baseline = run_static(&model, &mut static_engine);
    let dynmo = run_dynmo(
        &model,
        &mut dynmo_engine,
        true,
        Some(RebalanceFrequency::EveryN(40)),
    );
    assert_dynmo_sane("pruning", &dynmo, &baseline);
    // Once pruning has created imbalance, DynMo's speedup must be visible.
    assert!(
        dynmo.tokens_per_second > baseline.tokens_per_second * 1.05,
        "pruning: expected a clear win, got {:.0} vs {:.0}",
        dynmo.tokens_per_second,
        baseline.tokens_per_second
    );
}

#[test]
fn freezing_case_partition_balancer() {
    let model = gpt(32);
    let policy = FreezingPolicy {
        check_interval: 20,
        first_freeze_iteration: 30,
        stagger_per_layer: 6,
        never_freeze_fraction: 0.25,
        jitter: 0.1,
    };
    let mut static_engine = FreezingEngine::new(&model, policy, 9);
    let mut dynmo_engine = FreezingEngine::new(&model, policy, 9);
    let baseline = run_static(&model, &mut static_engine);
    let dynmo = run_dynmo(
        &model,
        &mut dynmo_engine,
        false,
        Some(RebalanceFrequency::EveryN(20)),
    );
    assert_dynmo_sane("freezing", &dynmo, &baseline);
    assert!(dynmo.tokens_per_second > baseline.tokens_per_second * 1.05);
}

#[test]
fn sparse_attention_case_partition_balancer() {
    let model = gpt(32);
    let mut static_engine = SparseAttentionEngine::new(&model, AttentionMode::DynamicSparse, 13);
    let mut dynmo_engine = SparseAttentionEngine::new(&model, AttentionMode::DynamicSparse, 13);
    let baseline = run_static(&model, &mut static_engine);
    let dynmo = run_dynmo(&model, &mut dynmo_engine, false, None);
    assert_dynmo_sane("sparse-attention", &dynmo, &baseline);
    assert!(dynmo.mean_imbalance < baseline.mean_imbalance);
}

#[test]
fn early_exit_case_both_balancers_agree() {
    let model = gpt(32);
    let mut static_engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 17);
    let baseline = run_static(&model, &mut static_engine);

    let mut partition_engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 17);
    let partition = run_dynmo(
        &model,
        &mut partition_engine,
        false,
        Some(RebalanceFrequency::EveryN(50)),
    );
    let mut diffusion_engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 17);
    let diffusion = run_dynmo(
        &model,
        &mut diffusion_engine,
        true,
        Some(RebalanceFrequency::EveryN(50)),
    );

    assert_dynmo_sane("early-exit/partition", &partition, &baseline);
    assert_dynmo_sane("early-exit/diffusion", &diffusion, &baseline);
    // The paper: both balancers converge to similar quality.
    let ratio = partition.tokens_per_second / diffusion.tokens_per_second;
    assert!(ratio > 0.85 && ratio < 1.18, "ratio {ratio}");
    // Early exit is one of the biggest winners in the paper.
    assert!(partition.tokens_per_second > baseline.tokens_per_second * 1.15);
}

#[test]
fn mixture_of_depths_case_partition_balancer() {
    let model = gpt(24);
    let mut static_engine = MixtureOfDepthsEngine::new(&model, ModConfig::paper_default(), 23);
    let mut dynmo_engine = MixtureOfDepthsEngine::new(&model, ModConfig::paper_default(), 23);
    let baseline = run_static(&model, &mut static_engine);
    let dynmo = run_dynmo(&model, &mut dynmo_engine, false, None);
    assert_dynmo_sane("mod", &dynmo, &baseline);
}

#[test]
fn dynmo_does_not_change_the_learning_process() {
    // The paper stresses DynMo has no impact on model accuracy because it
    // only moves layers.  The observable analogue in the reproduction: the
    // dynamism engine's per-layer load trajectory is identical whether or
    // not rebalancing is enabled (the balancer never feeds back into the
    // engine).
    let model = gpt(24);
    let mut engine_a = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 99);
    let mut engine_b = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 99);
    let _ = run_static(&model, &mut engine_a);
    let _ = run_dynmo(&model, &mut engine_b, false, None);
    // Both engines advanced the same number of iterations with the same
    // seed: their states match, and so does every next update.
    assert_eq!(engine_a.export_state(), engine_b.export_state());
    let (next_a, next_b) = (engine_a.step(ITERATIONS), engine_b.step(ITERATIONS));
    assert_eq!(next_a.fwd_scale, next_b.fwd_scale);
    assert_eq!(next_a.bwd_scale, next_b.bwd_scale);
    assert_eq!(next_a.memory_scale, next_b.memory_scale);
    assert_eq!(next_a.param_retention, next_b.param_retention);
    assert_eq!(next_a.token_retention, next_b.token_retention);
    assert_eq!(next_a.changed, next_b.changed);
}
