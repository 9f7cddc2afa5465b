//! Figure 3 sweep: end-to-end training throughput for the six dynamic-model
//! cases, comparing static Megatron-LM / DeepSpeed (and the case's SoTA
//! system where one exists) against the four DynMo variants, plus the
//! optional re-packing ablation (§3.4.2 / §5.1: re-packing adds only ~4–11%
//! on top of rebalancing).

use dynmo_core::report::TrainingReport;
use serde::Serialize;

use crate::cases::{
    reference_throughput, run_comparison, run_configuration, BalancerKind, CaseConfig,
    ConfigurationResult, DynamicCase,
};
use crate::idleness::layer_sweep;
use crate::repack::SHRINKING_CASES;
use crate::scale::ExperimentScale;

/// One configuration row of Figure 3, or one case of the re-pack ablation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ThroughputRow {
    /// Dynamic-model case label (suffixed `(repack ablation)` for the
    /// ablation's rows).
    pub case: String,
    /// GPT layer count (32 for the MoE models).
    pub layers: usize,
    /// Configuration label.
    pub configuration: String,
    /// Training throughput.
    pub tokens_per_second: f64,
    /// Throughput over the panel's reference baseline (the ablation's rows:
    /// with over without re-packing).
    pub speedup_vs_best_baseline: f64,
    /// Pipeline-aggregated idle / (busy + idle).
    pub bubble_ratio: f64,
    /// Balancing overhead as a fraction of training time.
    pub overhead_fraction: f64,
}

/// One Figure 3 panel: every configuration of one (case, layer count).
pub struct ThroughputPanel {
    /// The dynamic-model case.
    pub case: DynamicCase,
    /// GPT layer count (32 for the MoE models).
    pub layers: usize,
    /// One result per configuration, in table order.
    pub results: Vec<ConfigurationResult>,
}

impl ThroughputPanel {
    /// The panel's rows, speedups taken over [`reference_throughput`].
    pub fn rows(&self) -> Vec<ThroughputRow> {
        let reference = reference_throughput(&self.results);
        self.results
            .iter()
            .map(|result| ThroughputRow {
                case: self.case.label().to_string(),
                layers: self.layers,
                configuration: result.label.clone(),
                tokens_per_second: result.report.tokens_per_second,
                speedup_vs_best_baseline: if reference > 0.0 {
                    result.report.tokens_per_second / reference
                } else {
                    0.0
                },
                bubble_ratio: result.report.average_bubble_ratio,
                overhead_fraction: result.report.overhead_fraction,
            })
            .collect()
    }
}

/// One case of the re-pack ablation: DynMo (Partition, by Time) on the
/// 24-layer model without and with re-packing.
pub struct RepackAblation {
    /// The dynamic-model case.
    pub case: DynamicCase,
    /// The run without re-packing.
    pub without: TrainingReport,
    /// The run with re-packing.
    pub with: TrainingReport,
}

impl RepackAblation {
    /// Throughput gained by re-packing, as a fraction.
    pub fn delta(&self) -> f64 {
        self.with.tokens_per_second / self.without.tokens_per_second - 1.0
    }

    fn row(&self) -> ThroughputRow {
        ThroughputRow {
            case: format!("{} (repack ablation)", self.case.label()),
            layers: 24,
            configuration: "DynMo (Partition, by Time) + re-pack".to_string(),
            tokens_per_second: self.with.tokens_per_second,
            speedup_vs_best_baseline: 1.0 + self.delta(),
            bubble_ratio: self.with.average_bubble_ratio,
            overhead_fraction: self.with.overhead_fraction,
        }
    }
}

/// Figure 3's panels and, when asked for, the re-pack ablation.
pub struct ThroughputSweep {
    /// The two MoE panels at 32 layers, then each GPT case at every layer
    /// count of the scale.
    pub panels: Vec<ThroughputPanel>,
    /// One entry per shrinking case; empty unless the ablation ran.
    pub ablation: Vec<RepackAblation>,
}

impl ThroughputSweep {
    /// The artifact's rows: every panel's in order, then the ablation's.
    pub fn rows(&self) -> Vec<ThroughputRow> {
        let panels = self.panels.iter().flat_map(ThroughputPanel::rows);
        panels
            .chain(self.ablation.iter().map(RepackAblation::row))
            .collect()
    }
}

/// Run Figure 3, and the re-pack ablation when `ablate_repack` is set.
pub fn run_throughput_sweep(scale: ExperimentScale, ablate_repack: bool) -> ThroughputSweep {
    let panel = |case: DynamicCase, layers: usize| ThroughputPanel {
        case,
        layers,
        results: run_comparison(&CaseConfig::new(case, layers, scale)),
    };
    let mut panels = Vec::new();
    for case in [DynamicCase::MoeMixtral, DynamicCase::MoeLlama] {
        panels.push(panel(case, 32));
    }
    let layer_counts = layer_sweep(scale);
    for case in DynamicCase::GPT_CASES {
        for &layers in &layer_counts {
            panels.push(panel(case, layers));
        }
    }
    let ablation = if ablate_repack {
        SHRINKING_CASES
            .into_iter()
            .map(|case| {
                let config = CaseConfig::new(case, 24, scale);
                let repacked = CaseConfig {
                    repack: true,
                    ..config
                };
                RepackAblation {
                    case,
                    without: run_configuration(&config, BalancerKind::PartitionByTime).report,
                    with: run_configuration(&repacked, BalancerKind::PartitionByTime).report,
                }
            })
            .collect()
    } else {
        Vec::new()
    };
    ThroughputSweep { panels, ablation }
}
