//! Heterogeneous-cluster sweep: the fig3-style comparison re-run on a
//! mixed-generation cluster.
//!
//! The paper evaluates DynMo on a uniform H100 fleet, where all imbalance
//! comes from the *model* (pruning, freezing, early exit...).  On a real
//! multi-generation cluster the hardware itself is imbalanced: an even
//! Megatron-LM split bottlenecks on the slowest generation no matter how
//! good the schedule is.  This sweep runs the same (case × configuration)
//! grid on a uniform cluster and on a 3-generation (H100/A100/V100)
//! cluster and reports the *margin* — best DynMo throughput over best
//! static throughput — for both, showing the margin growing with
//! heterogeneity.
//!
//! Static baselines: Megatron-LM even split under 1F1B, and the same split
//! under the "almost zero-bubble" ZB-H1 schedule (a stronger schedule does
//! not fix a hardware-imbalanced split).  DynMo rows: Partition and
//! Diffusion, both by time, rebalancing every 10 iterations so even the
//! smoke scale reaches steady state.

use dynmo_baselines::{megatron_initial_assignment, static_controller};
use dynmo_core::balancer::{BalanceObjective, DiffusionBalancer, PartitionBalancer};
use dynmo_core::controller::{RebalanceController, RebalancePolicy};
use dynmo_core::report::TrainingReport;
use dynmo_core::trainer::{Trainer, TrainerConfig};
use dynmo_dynamics::RebalanceFrequency;
use dynmo_model::{ClusterConfig, DeviceSpec};
use dynmo_pipeline::ScheduleKind;
use serde::{Deserialize, Serialize};

use crate::cases::{build_engine, DynamicCase};
use crate::scale::ExperimentScale;

/// The two cluster flavors the sweep compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClusterFlavor {
    /// All stages on the same device generation (H100).
    Uniform,
    /// Three generations: H100 / A100 / V100 thirds of the pipeline.
    ThreeGen,
}

impl ClusterFlavor {
    /// Both flavors, uniform first.
    pub const ALL: [ClusterFlavor; 2] = [ClusterFlavor::Uniform, ClusterFlavor::ThreeGen];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            ClusterFlavor::Uniform => "uniform",
            ClusterFlavor::ThreeGen => "3-gen",
        }
    }

    /// The cluster of this flavor at the given pipeline shape.
    pub fn cluster(&self, pipeline_stages: usize, data_parallel: usize) -> ClusterConfig {
        match self {
            ClusterFlavor::Uniform => ClusterConfig::homogeneous(
                8,
                pipeline_stages,
                data_parallel,
                DeviceSpec::h100_sxm5(),
            ),
            ClusterFlavor::ThreeGen => {
                ClusterConfig::hetero_three_gen(8, pipeline_stages, data_parallel)
            }
        }
    }
}

/// The configurations compared on every cluster flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HeteroConfiguration {
    /// Megatron-LM even split under 1F1B, never rebalanced.
    StaticMegatron,
    /// The same even split under the ZB-H1 schedule, never rebalanced.
    StaticZeroBubble,
    /// DynMo centralized partitioning (by time), rebalancing every 10.
    DynmoPartition,
    /// DynMo diffusion (by time), rebalancing every 10.
    DynmoDiffusion,
}

impl HeteroConfiguration {
    /// All four configurations, baselines first.
    pub const ALL: [HeteroConfiguration; 4] = [
        HeteroConfiguration::StaticMegatron,
        HeteroConfiguration::StaticZeroBubble,
        HeteroConfiguration::DynmoPartition,
        HeteroConfiguration::DynmoDiffusion,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            HeteroConfiguration::StaticMegatron => "Static (Megatron-LM)",
            HeteroConfiguration::StaticZeroBubble => "Static (ZB-H1)",
            HeteroConfiguration::DynmoPartition => "DynMo (Partition, by Time)",
            HeteroConfiguration::DynmoDiffusion => "DynMo (Diffusion, by Time)",
        }
    }

    /// Whether the configuration rebalances (a DynMo variant).
    pub fn is_dynamic(&self) -> bool {
        matches!(
            self,
            HeteroConfiguration::DynmoPartition | HeteroConfiguration::DynmoDiffusion
        )
    }

    fn schedule(&self) -> ScheduleKind {
        match self {
            HeteroConfiguration::StaticZeroBubble => ScheduleKind::ZeroBubbleH1,
            _ => ScheduleKind::OneFOneB,
        }
    }

    fn controller(&self) -> RebalanceController {
        let every10 = RebalancePolicy {
            frequency: Some(RebalanceFrequency::EveryN(10)),
            repack: false,
        };
        match self {
            HeteroConfiguration::StaticMegatron | HeteroConfiguration::StaticZeroBubble => {
                static_controller()
            }
            HeteroConfiguration::DynmoPartition => RebalanceController::new(
                Box::new(PartitionBalancer::new()),
                BalanceObjective::ByTime,
                every10,
            ),
            HeteroConfiguration::DynmoDiffusion => RebalanceController::new(
                Box::new(DiffusionBalancer::new()),
                BalanceObjective::ByTime,
                every10,
            ),
        }
    }
}

/// One row of the sweep: a (case, cluster, configuration) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeteroRow {
    /// The dynamic-model case label.
    pub case: String,
    /// The cluster flavor label (`uniform` / `3-gen`).
    pub cluster: String,
    /// The configuration label.
    pub configuration: String,
    /// The pipeline schedule the row ran.
    pub schedule: String,
    /// End-to-end training throughput.
    pub tokens_per_second: f64,
    /// Average pipeline bubble ratio.
    pub bubble_ratio: f64,
    /// Rebalances performed over the run (0 for static rows).
    pub rebalance_events: u64,
}

/// The margin summary of one case: best-DynMo over best-static throughput
/// on each flavor, and how much the margin grows with heterogeneity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeteroMargin {
    /// The dynamic-model case label.
    pub case: String,
    /// Best DynMo / best static on the uniform cluster.
    pub uniform_margin: f64,
    /// Best DynMo / best static on the 3-generation cluster.
    pub hetero_margin: f64,
    /// `hetero_margin / uniform_margin` (> 1 when heterogeneity widens
    /// DynMo's advantage).
    pub growth: f64,
}

/// Everything the sweep produces, serialized to `results/hetero_sweep.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeteroSweepReport {
    /// Every (case × cluster × configuration) cell.
    pub rows: Vec<HeteroRow>,
    /// Per-case margin summary across the two flavors.
    pub margins: Vec<HeteroMargin>,
}

/// Pipeline shape of the sweep at a given scale.
fn pipeline_shape(scale: ExperimentScale) -> (usize, usize, usize) {
    // (pipeline_stages, data_parallel, gpt_layers); stages divisible by 3
    // so the 3-generation cluster gets equal thirds.
    match scale {
        ExperimentScale::Smoke => (6, 1, 24),
        ExperimentScale::Default => (12, 2, 36),
        ExperimentScale::Paper => (24, 4, 48),
    }
}

/// The cases the sweep covers: one mechanism whose drift is gradual
/// (freezing) and one whose drift is stepwise (pruning) — enough to show
/// the margin effect is not mechanism-specific.
pub const HETERO_CASES: [DynamicCase; 2] = [DynamicCase::Freezing, DynamicCase::Pruning];

/// Run one (case, flavor, configuration) cell and return its report.
pub fn run_hetero_cell(
    case: DynamicCase,
    flavor: ClusterFlavor,
    configuration: HeteroConfiguration,
    scale: ExperimentScale,
) -> TrainingReport {
    let (stages, data_parallel, layers) = pipeline_shape(scale);
    let cluster = flavor.cluster(stages, data_parallel);
    let model = case.model(layers);
    let trainer_config = TrainerConfig {
        schedule: configuration.schedule(),
        ..TrainerConfig::paper_defaults(cluster.clone(), scale.iterations())
    };
    let initial = megatron_initial_assignment(&model, cluster.pipeline_stages);
    let mut engine = build_engine(
        case,
        &model,
        scale,
        crate::cases::BalancerKind::StaticMegatron,
        1234,
    );
    let mut trainer = Trainer::new(model, trainer_config, configuration.controller())
        .with_initial_assignment(initial);
    trainer.run(engine.as_mut())
}

/// Run the full sweep: every case on both flavors under all four
/// configurations, with the per-case margin summary.
pub fn run_hetero_sweep(scale: ExperimentScale) -> HeteroSweepReport {
    let mut rows = Vec::new();
    let mut margins = Vec::new();
    for case in HETERO_CASES {
        let margin_of = |flavor: ClusterFlavor, rows: &mut Vec<HeteroRow>| {
            let mut best_static = 0.0f64;
            let mut best_dynamic = 0.0f64;
            for configuration in HeteroConfiguration::ALL {
                let report = run_hetero_cell(case, flavor, configuration, scale);
                if configuration.is_dynamic() {
                    best_dynamic = best_dynamic.max(report.tokens_per_second);
                } else {
                    best_static = best_static.max(report.tokens_per_second);
                }
                rows.push(HeteroRow {
                    case: case.label().to_string(),
                    cluster: flavor.label().to_string(),
                    configuration: configuration.label().to_string(),
                    schedule: format!("{:?}", configuration.schedule()),
                    tokens_per_second: report.tokens_per_second,
                    bubble_ratio: report.average_bubble_ratio,
                    rebalance_events: report.rebalance_events,
                });
            }
            if best_static > 0.0 {
                best_dynamic / best_static
            } else {
                0.0
            }
        };
        let uniform_margin = margin_of(ClusterFlavor::Uniform, &mut rows);
        let hetero_margin = margin_of(ClusterFlavor::ThreeGen, &mut rows);
        margins.push(HeteroMargin {
            case: case.label().to_string(),
            uniform_margin,
            hetero_margin,
            growth: if uniform_margin > 0.0 {
                hetero_margin / uniform_margin
            } else {
                0.0
            },
        });
    }
    HeteroSweepReport { rows, margins }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hetero_margin_exceeds_uniform_margin() {
        // The acceptance criterion of the hetero refactor: on a
        // 3-generation cluster DynMo's advantage over the static baselines
        // is *larger* than on the uniform cluster, for every case.
        let report = run_hetero_sweep(ExperimentScale::Smoke);
        assert_eq!(report.margins.len(), HETERO_CASES.len());
        assert_eq!(
            report.rows.len(),
            HETERO_CASES.len() * ClusterFlavor::ALL.len() * HeteroConfiguration::ALL.len()
        );
        for margin in &report.margins {
            assert!(
                margin.hetero_margin > margin.uniform_margin,
                "{}: hetero margin {:.3} should exceed uniform margin {:.3}",
                margin.case,
                margin.hetero_margin,
                margin.uniform_margin
            );
            assert!(margin.growth > 1.0);
            // The hetero margin is a real win, not a rounding artifact: on
            // the 3-generation cluster the even split bottlenecks on the
            // slowest generation.
            assert!(margin.hetero_margin > 1.1, "{}", margin.hetero_margin);
        }
    }

    #[test]
    fn static_rows_never_rebalance_and_dynamic_rows_do() {
        let static_report = run_hetero_cell(
            DynamicCase::Freezing,
            ClusterFlavor::ThreeGen,
            HeteroConfiguration::StaticMegatron,
            ExperimentScale::Smoke,
        );
        assert_eq!(static_report.rebalance_events, 0);
        let dynamic_report = run_hetero_cell(
            DynamicCase::Freezing,
            ClusterFlavor::ThreeGen,
            HeteroConfiguration::DynmoPartition,
            ExperimentScale::Smoke,
        );
        assert!(dynamic_report.rebalance_events > 0);
    }
}
