//! Experiment configurations: (dynamic-model case × balancer) → training run.
//!
//! This is the glue that lets every figure binary express itself as "run
//! this case with these balancers and print a table": it knows which engine,
//! cluster shape, initial assignment, controller and schedule the paper uses
//! for each combination.

use dynmo_baselines::{
    deepspeed_initial_assignment, megatron_initial_assignment, static_controller, EgeriaEngine,
    TutelMoeEngine,
};
use dynmo_core::balancer::{BalanceObjective, DiffusionBalancer, PartitionBalancer};
use dynmo_core::controller::{RebalanceController, RebalancePolicy};
use dynmo_core::report::TrainingReport;
use dynmo_core::trainer::{Trainer, TrainerConfig};
use dynmo_dynamics::{
    AttentionMode, DynamismEngine, EarlyExitEngine, EarlyExitMethod, FreezingEngine,
    GradualPruningEngine, MixtureOfDepthsEngine, ModConfig, MoeEngine, RoutingStrategy,
    SparseAttentionEngine,
};
use dynmo_model::{ClusterConfig, Model, ModelPreset};
use dynmo_pipeline::ScheduleKind;
use serde::{Deserialize, Serialize};

use crate::scale::ExperimentScale;

/// The dynamic-model cases of the paper's evaluation, including the two MoE
/// models that Figure 1/3 report separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DynamicCase {
    /// Mixtral-8x7B continual training (MoE).
    MoeMixtral,
    /// LLaMA-MoE-3.5B continual training (MoE).
    MoeLlama,
    /// Gradual global magnitude pruning on GPT.
    Pruning,
    /// Adaptive layer freezing on GPT.
    Freezing,
    /// Dynamic sparse flash attention on GPT.
    SparseAttention,
    /// Early exit (CALM-style) on GPT.
    EarlyExit,
    /// Mixture of Depths on GPT.
    MixtureOfDepths,
}

impl DynamicCase {
    /// The GPT-based cases that sweep 24/32/40/48 layers in the paper.
    pub const GPT_CASES: [DynamicCase; 5] = [
        DynamicCase::Pruning,
        DynamicCase::Freezing,
        DynamicCase::SparseAttention,
        DynamicCase::EarlyExit,
        DynamicCase::MixtureOfDepths,
    ];

    /// All cases, MoE models first (matching the paper's figure order).
    pub const ALL: [DynamicCase; 7] = [
        DynamicCase::MoeMixtral,
        DynamicCase::MoeLlama,
        DynamicCase::Pruning,
        DynamicCase::Freezing,
        DynamicCase::SparseAttention,
        DynamicCase::EarlyExit,
        DynamicCase::MixtureOfDepths,
    ];

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            DynamicCase::MoeMixtral => "MoE (Mixtral 8x7B)",
            DynamicCase::MoeLlama => "MoE (LLaMA-MoE-3.5B)",
            DynamicCase::Pruning => "Gradual Pruning",
            DynamicCase::Freezing => "Layer Freezing",
            DynamicCase::SparseAttention => "Dynamic Sparse Attention",
            DynamicCase::EarlyExit => "Early Exit",
            DynamicCase::MixtureOfDepths => "Mixture of Depths",
        }
    }

    /// Whether the case uses the MoE/MoD cluster (128 GPUs in the paper)
    /// instead of the 720-GPU cluster.
    pub fn uses_moe_cluster(&self) -> bool {
        matches!(
            self,
            DynamicCase::MoeMixtral | DynamicCase::MoeLlama | DynamicCase::MixtureOfDepths
        )
    }

    /// The model this case trains (GPT cases take the layer count).
    pub fn model(&self, gpt_layers: usize) -> Model {
        match self {
            DynamicCase::MoeMixtral => Model::from_preset(ModelPreset::Mixtral8x7b),
            DynamicCase::MoeLlama => Model::from_preset(ModelPreset::LlamaMoe3_5b),
            _ => Model::from_preset(ModelPreset::Gpt { layers: gpt_layers }),
        }
    }

    /// The label the paper uses for this case's non-DynMo comparison point.
    pub fn sota_label(&self) -> Option<&'static str> {
        match self {
            DynamicCase::MoeMixtral | DynamicCase::MoeLlama => Some("Tutel"),
            DynamicCase::Freezing => Some("Egeria"),
            DynamicCase::SparseAttention => Some("Dense Attn."),
            DynamicCase::EarlyExit => Some("No Early Exit"),
            DynamicCase::Pruning | DynamicCase::MixtureOfDepths => None,
        }
    }
}

/// The balancing configurations compared in Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BalancerKind {
    /// Static Megatron-LM (uniform layer split, never rebalanced).
    StaticMegatron,
    /// Static DeepSpeed (parameter-balanced split, never rebalanced).
    StaticDeepSpeedParam,
    /// The case-specific SoTA comparison point (Tutel / Egeria / dense
    /// attention / no early exit), run without rebalancing.
    Sota,
    /// DynMo centralized partitioning, balancing parameter counts.
    PartitionByParam,
    /// DynMo centralized partitioning, balancing layer execution times.
    PartitionByTime,
    /// DynMo diffusion, balancing parameter counts.
    DiffusionByParam,
    /// DynMo diffusion, balancing layer execution times.
    DiffusionByTime,
}

impl BalancerKind {
    /// The standard comparison set of Figure 3 (static baselines + the four
    /// DynMo variants).  The SoTA point is added separately where the case
    /// has one.
    pub const FIGURE3: [BalancerKind; 6] = [
        BalancerKind::StaticMegatron,
        BalancerKind::StaticDeepSpeedParam,
        BalancerKind::PartitionByParam,
        BalancerKind::PartitionByTime,
        BalancerKind::DiffusionByParam,
        BalancerKind::DiffusionByTime,
    ];

    /// Whether this configuration rebalances dynamically (a DynMo variant).
    pub fn is_dynamic(&self) -> bool {
        matches!(
            self,
            BalancerKind::PartitionByParam
                | BalancerKind::PartitionByTime
                | BalancerKind::DiffusionByParam
                | BalancerKind::DiffusionByTime
        )
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            BalancerKind::StaticMegatron => "Static (Megatron-LM)",
            BalancerKind::StaticDeepSpeedParam => "Static (DeepSpeed)",
            BalancerKind::Sota => "SoTA baseline",
            BalancerKind::PartitionByParam => "DynMo (Partition, by Param)",
            BalancerKind::PartitionByTime => "DynMo (Partition, by Time)",
            BalancerKind::DiffusionByParam => "DynMo (Diffusion, by Param)",
            BalancerKind::DiffusionByTime => "DynMo (Diffusion, by Time)",
        }
    }

    fn objective(&self) -> BalanceObjective {
        match self {
            BalancerKind::PartitionByParam | BalancerKind::DiffusionByParam => {
                BalanceObjective::ByParams
            }
            _ => BalanceObjective::ByTime,
        }
    }
}

/// One experiment cell: a case, model size, scale, pipeline schedule, and
/// whether re-packing is enabled for the DynMo variants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CaseConfig {
    /// The dynamic-model case.
    pub case: DynamicCase,
    /// GPT layer count (ignored by the MoE cases).
    pub gpt_layers: usize,
    /// The experiment scale.
    pub scale: ExperimentScale,
    /// Pipeline schedule pinned for every configuration in the cell.
    /// `None` (the default) uses the paper's setup: 1F1B for the Megatron/
    /// DeepSpeed/DynMo rows and the "almost zero-bubble" baseline schedule
    /// for the SoTA row; `Some(s)` runs *every* row — SoTA included —
    /// under `s`.
    pub schedule: Option<ScheduleKind>,
    /// Whether DynMo variants may re-pack onto fewer GPUs.
    pub repack: bool,
    /// Periodic checkpointing interval for the trainer (None = disabled,
    /// the paper-faithful default: the paper assumes a reliable fleet).
    pub checkpoint_interval: Option<u64>,
}

impl CaseConfig {
    /// A config at the given scale with re-packing disabled.
    pub fn new(case: DynamicCase, gpt_layers: usize, scale: ExperimentScale) -> Self {
        CaseConfig {
            case,
            gpt_layers,
            scale,
            schedule: None,
            repack: false,
            checkpoint_interval: None,
        }
    }

    /// Pin one pipeline schedule for every row of the cell (builder style).
    pub fn with_schedule(mut self, schedule: ScheduleKind) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Enable periodic trainer checkpointing (builder style); the write
    /// cost lands in the overhead report's `recovery` bucket.
    pub fn with_checkpointing(mut self, interval: u64) -> Self {
        self.checkpoint_interval = Some(interval);
        self
    }

    /// The cluster shape for this case at this scale.
    pub fn cluster(&self) -> ClusterConfig {
        if self.case.uses_moe_cluster() {
            self.scale.moe_cluster()
        } else {
            self.scale.gpt_cluster()
        }
    }
}

/// The outcome of running one (case, balancer) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfigurationResult {
    /// The balancer configuration that produced the result.
    pub balancer: BalancerKind,
    /// Display label of the configuration.
    pub label: String,
    /// The pipeline schedule the run actually used (the SoTA row upgrades
    /// the cell's 1F1B default to the zero-bubble baseline schedule).
    pub schedule: ScheduleKind,
    /// The full training report.
    pub report: TrainingReport,
}

/// Build the dynamism engine the given (case, balancer) cell trains with.
/// The engine differs from the DynMo rows only for the SoTA baseline rows
/// (Tutel caps expert overload; Egeria adds bookkeeping overhead; the dense
/// attention / no-early-exit baselines disable the mechanism entirely).
pub fn build_engine(
    case: DynamicCase,
    model: &Model,
    scale: ExperimentScale,
    balancer: BalancerKind,
    seed: u64,
) -> Box<dyn DynamismEngine + Send> {
    let schedules = scale.schedules();
    let sota = balancer == BalancerKind::Sota;
    match case {
        DynamicCase::MoeMixtral | DynamicCase::MoeLlama => {
            let inner = MoeEngine::new(model, RoutingStrategy::TokenChoiceAuxLoss, seed);
            if sota {
                Box::new(TutelMoeEngine::new(model, inner))
            } else {
                Box::new(inner)
            }
        }
        DynamicCase::Pruning => Box::new(GradualPruningEngine::new(model, schedules.pruning, seed)),
        DynamicCase::Freezing => {
            if sota {
                Box::new(EgeriaEngine::new(model, schedules.freezing, seed))
            } else {
                Box::new(FreezingEngine::new(model, schedules.freezing, seed))
            }
        }
        DynamicCase::SparseAttention => {
            let mode = if sota {
                AttentionMode::Dense
            } else {
                AttentionMode::DynamicSparse
            };
            Box::new(SparseAttentionEngine::new(model, mode, seed))
        }
        DynamicCase::EarlyExit => {
            let method = if sota {
                EarlyExitMethod::None
            } else {
                EarlyExitMethod::Calm
            };
            Box::new(EarlyExitEngine::new(model, method, seed))
        }
        DynamicCase::MixtureOfDepths => Box::new(MixtureOfDepthsEngine::new(
            model,
            ModConfig::paper_default(),
            seed,
        )),
    }
}

/// Run one experiment cell and return its result.
pub fn run_configuration(config: &CaseConfig, balancer: BalancerKind) -> ConfigurationResult {
    let model = config.case.model(config.gpt_layers);
    let cluster = config.cluster();
    // The paper's setup: DynMo and the static rows run Megatron's 1F1B,
    // while the SoTA comparison point runs the strongest ("almost
    // zero-bubble") schedule, so DynMo's wins come from removing dynamic
    // imbalance rather than from a weaker baseline schedule.  A cell that
    // pins a schedule compares every row under that one.
    let schedule = config.schedule.unwrap_or_else(|| {
        if balancer == BalancerKind::Sota {
            ScheduleKind::ZeroBubbleH1
        } else {
            ScheduleKind::OneFOneB
        }
    });
    let trainer_config = TrainerConfig {
        schedule,
        ..TrainerConfig::paper_defaults(cluster.clone(), config.scale.iterations())
    };

    // The DynMo rows rebalance dynamically and, when the case re-packs,
    // consolidate under the cluster's device memory.
    let policy = RebalancePolicy {
        frequency: None,
        repack: config.repack,
    };
    let controller = match balancer {
        BalancerKind::StaticMegatron | BalancerKind::StaticDeepSpeedParam | BalancerKind::Sota => {
            static_controller()
        }
        BalancerKind::PartitionByParam | BalancerKind::PartitionByTime => RebalanceController::new(
            Box::new(PartitionBalancer::new()),
            balancer.objective(),
            policy,
        ),
        BalancerKind::DiffusionByParam | BalancerKind::DiffusionByTime => RebalanceController::new(
            Box::new(DiffusionBalancer::new()),
            balancer.objective(),
            policy,
        ),
    };

    let initial = match balancer {
        BalancerKind::StaticDeepSpeedParam => {
            deepspeed_initial_assignment(&model, cluster.pipeline_stages)
        }
        _ => megatron_initial_assignment(&model, cluster.pipeline_stages),
    };

    let mut engine = build_engine(config.case, &model, config.scale, balancer, 1234);
    let mut trainer =
        Trainer::new(model, trainer_config, controller).with_initial_assignment(initial);
    if let Some(interval) = config.checkpoint_interval {
        trainer = trainer.with_checkpointing(
            Box::new(dynmo_resilience::MemoryCheckpointStore::new()),
            interval,
        );
    }
    let report = trainer.run(engine.as_mut());

    ConfigurationResult {
        balancer,
        label: if balancer == BalancerKind::Sota {
            config
                .case
                .sota_label()
                .unwrap_or("SoTA baseline")
                .to_string()
        } else {
            balancer.label().to_string()
        },
        schedule,
        report,
    }
}

/// Run the full comparison set for one case config: static baselines, the
/// SoTA point (when the case has one), and the four DynMo variants.
pub fn run_comparison(config: &CaseConfig) -> Vec<ConfigurationResult> {
    let mut kinds: Vec<BalancerKind> = vec![
        BalancerKind::StaticMegatron,
        BalancerKind::StaticDeepSpeedParam,
    ];
    if config.case.sota_label().is_some() {
        kinds.push(BalancerKind::Sota);
    }
    kinds.extend([
        BalancerKind::PartitionByParam,
        BalancerKind::PartitionByTime,
        BalancerKind::DiffusionByParam,
        BalancerKind::DiffusionByTime,
    ]);
    kinds
        .into_iter()
        .map(|kind| run_configuration(config, kind))
        .collect()
}

/// The throughput of the reference baseline used by the paper's Figure 3
/// speedup annotations: the case's SoTA/mechanism-off point when one exists
/// (Dense attention, No early exit, Tutel, Egeria), otherwise the best of
/// the static Megatron-LM / DeepSpeed rows.
pub fn reference_throughput(results: &[ConfigurationResult]) -> f64 {
    let sota = results
        .iter()
        .find(|r| r.balancer == BalancerKind::Sota)
        .map(|r| r.report.tokens_per_second);
    match sota {
        Some(tps) if tps > 0.0 => tps,
        _ => results
            .iter()
            .filter(|r| !r.balancer.is_dynamic())
            .map(|r| r.report.tokens_per_second)
            .fold(0.0, f64::max),
    }
}

/// The paper's headline speedup: the best DynMo variant over the case's
/// reference baseline (see [`reference_throughput`]); this matches the
/// Figure 3 caption, which divides by "the highest among static Megatron-LM
/// and DeepSpeed (or SoTA baseline, when available)".
pub fn headline_speedup(results: &[ConfigurationResult]) -> f64 {
    let best_dynamic = results
        .iter()
        .filter(|r| r.balancer.is_dynamic())
        .map(|r| r.report.tokens_per_second)
        .fold(0.0, f64::max);
    let reference = reference_throughput(results);
    if reference <= 0.0 {
        0.0
    } else {
        best_dynamic / reference
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_metadata_is_consistent() {
        assert_eq!(DynamicCase::ALL.len(), 7);
        for case in DynamicCase::ALL {
            assert!(!case.label().is_empty());
            let model = case.model(24);
            assert!(model.num_layers() > 2);
        }
        assert!(DynamicCase::MoeMixtral.uses_moe_cluster());
        assert!(DynamicCase::MixtureOfDepths.uses_moe_cluster());
        assert!(!DynamicCase::Pruning.uses_moe_cluster());
        assert_eq!(DynamicCase::Freezing.sota_label(), Some("Egeria"));
        assert_eq!(DynamicCase::Pruning.sota_label(), None);
    }

    #[test]
    fn balancer_kind_metadata() {
        assert!(BalancerKind::DiffusionByTime.is_dynamic());
        assert!(!BalancerKind::StaticMegatron.is_dynamic());
        assert_eq!(
            BalancerKind::PartitionByParam.objective(),
            BalanceObjective::ByParams
        );
        assert_eq!(
            BalancerKind::DiffusionByTime.objective(),
            BalanceObjective::ByTime
        );
        let labels: std::collections::HashSet<_> =
            BalancerKind::FIGURE3.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), BalancerKind::FIGURE3.len());
    }

    #[test]
    fn engines_are_built_for_every_case_and_balancer() {
        let scale = ExperimentScale::Smoke;
        for case in DynamicCase::ALL {
            let model = case.model(24);
            for kind in [
                BalancerKind::StaticMegatron,
                BalancerKind::Sota,
                BalancerKind::DiffusionByTime,
            ] {
                if kind == BalancerKind::Sota && case.sota_label().is_none() {
                    continue;
                }
                let mut engine = build_engine(case, &model, scale, kind, 7);
                let update = engine.step(0);
                assert_eq!(update.num_layers(), model.num_layers());
                update.validate().unwrap();
            }
        }
    }

    #[test]
    fn default_scale_early_exit_shows_dynmo_winning() {
        // The Default scale is needed here because early exit only
        // rebalances every ~100 iterations, which the 60-iteration smoke
        // scale never reaches.
        let config = CaseConfig::new(DynamicCase::EarlyExit, 24, ExperimentScale::Default);
        let static_run = run_configuration(&config, BalancerKind::StaticMegatron);
        let dynmo_run = run_configuration(&config, BalancerKind::PartitionByTime);
        assert!(
            dynmo_run.report.tokens_per_second > static_run.report.tokens_per_second,
            "dynmo {} vs static {}",
            dynmo_run.report.tokens_per_second,
            static_run.report.tokens_per_second
        );
        assert!(dynmo_run.report.rebalance_events > 0);
        assert_eq!(static_run.report.rebalance_events, 0);
    }

    #[test]
    fn schedules_thread_through_case_configs() {
        let base_config = CaseConfig::new(DynamicCase::EarlyExit, 24, ExperimentScale::Smoke);
        let zb_config = base_config.with_schedule(ScheduleKind::ZeroBubbleH1);
        assert_eq!(base_config.schedule, None);
        assert_eq!(zb_config.schedule, Some(ScheduleKind::ZeroBubbleH1));
        let base = run_configuration(&base_config, BalancerKind::StaticMegatron);
        let zb = run_configuration(&zb_config, BalancerKind::StaticMegatron);
        assert_eq!(base.schedule, ScheduleKind::OneFOneB);
        assert_eq!(zb.schedule, ScheduleKind::ZeroBubbleH1);
        // Same workload, stronger schedule: the bubble can only shrink.
        assert!(
            zb.report.average_bubble_ratio <= base.report.average_bubble_ratio + 1e-9,
            "ZB-H1 bubble {} vs 1F1B {}",
            zb.report.average_bubble_ratio,
            base.report.average_bubble_ratio
        );
    }

    #[test]
    fn sota_rows_run_the_zero_bubble_h1_schedule() {
        // The paper compares against "almost zero-bubble" baselines: with
        // no pinned schedule the SoTA row runs ZB-H1...
        let config = CaseConfig::new(DynamicCase::EarlyExit, 24, ExperimentScale::Smoke);
        let sota = run_configuration(&config, BalancerKind::Sota);
        assert_eq!(sota.schedule, ScheduleKind::ZeroBubbleH1);
        // ...while DynMo rows run the paper's 1F1B default...
        let dynmo = run_configuration(&config, BalancerKind::PartitionByTime);
        assert_eq!(dynmo.schedule, ScheduleKind::OneFOneB);
        // ...and an explicit pin — even to 1F1B itself — wins everywhere,
        // SoTA row included.
        for pin in [ScheduleKind::GPipe, ScheduleKind::OneFOneB] {
            let pinned = config.with_schedule(pin);
            assert_eq!(run_configuration(&pinned, BalancerKind::Sota).schedule, pin);
        }
    }

    #[test]
    fn headline_speedup_compares_best_dynamic_to_best_baseline() {
        let mk = |kind: BalancerKind, tps: f64| ConfigurationResult {
            balancer: kind,
            label: kind.label().to_string(),
            schedule: ScheduleKind::OneFOneB,
            report: {
                let config = CaseConfig::new(DynamicCase::EarlyExit, 24, ExperimentScale::Smoke);
                let mut r = run_configuration(&config, BalancerKind::StaticMegatron).report;
                r.tokens_per_second = tps;
                r
            },
        };
        let results = vec![
            mk(BalancerKind::StaticMegatron, 1000.0),
            mk(BalancerKind::Sota, 1200.0),
            mk(BalancerKind::PartitionByTime, 3000.0),
            mk(BalancerKind::DiffusionByTime, 2400.0),
        ];
        assert!((headline_speedup(&results) - 2.5).abs() < 1e-9);
        assert_eq!(headline_speedup(&[]), 0.0);
    }
}
