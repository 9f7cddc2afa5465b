//! Figure 1 sweep: average GPU idleness per iteration for dynamic GPT
//! models.
//!
//! For each of the six dynamic-model schemes the paper reports how idle the
//! pipeline's GPUs are when *no* dynamic rebalancing is applied (static
//! Megatron-style partitioning), compared against the scheme's own baseline
//! (dense attention, no early exit, static dense model, ...).

use dynmo_core::report::TrainingReport;
use dynmo_pipeline::ScheduleKind;
use serde::Serialize;

use crate::cases::{run_configuration, BalancerKind, CaseConfig, DynamicCase};
use crate::scale::ExperimentScale;

/// One (case, configuration, layer count) row of Figure 1.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IdlenessRow {
    /// Dynamic-model case label.
    pub case: String,
    /// Scheme or configuration within the case.
    pub configuration: String,
    /// GPT layer count (32 for the MoE models).
    pub layers: usize,
    /// Average per-worker idle fraction (Figure 1's y-axis).
    pub idleness: f64,
    /// Pipeline-aggregated idle / (busy + idle).
    pub bubble_ratio: f64,
    /// Eq. 2 load imbalance `(L_max − L_min) / mean(L)`.
    pub imbalance: f64,
}

impl IdlenessRow {
    fn new(case: DynamicCase, configuration: &str, layers: usize, report: &TrainingReport) -> Self {
        IdlenessRow {
            case: case.label().to_string(),
            configuration: configuration.to_string(),
            layers,
            idleness: report.average_idleness,
            bubble_ratio: report.average_bubble_ratio,
            imbalance: report.mean_imbalance,
        }
    }
}

/// The GPT layer counts of a scale.
pub(crate) fn layer_sweep(scale: ExperimentScale) -> Vec<usize> {
    match scale {
        ExperimentScale::Smoke => vec![24],
        _ => vec![24, 32, 40, 48],
    }
}

/// Run Figure 1's rows in table order: the two MoE models, each GPT case at
/// every layer count, then the schedule ablation.  Every row runs under
/// static partitioning, apart from each GPT case's scheme-free baseline.
pub fn run_idleness_sweep(scale: ExperimentScale) -> Vec<IdlenessRow> {
    let mut rows = Vec::new();

    // MoE: Mixtral and LLaMA-MoE under their routers (no rebalancing).
    for case in [DynamicCase::MoeMixtral, DynamicCase::MoeLlama] {
        let config = CaseConfig::new(case, 32, scale);
        let result = run_configuration(&config, BalancerKind::StaticMegatron);
        rows.push(IdlenessRow::new(
            case,
            "token-choice (aux loss)",
            32,
            &result.report,
        ));
    }

    // GPT cases: sweep the paper's layer counts; report the dynamic scheme
    // under static partitioning and, where it exists, the scheme-free
    // baseline for contrast.
    let layer_counts = layer_sweep(scale);
    for case in DynamicCase::GPT_CASES {
        for &layers in &layer_counts {
            let config = CaseConfig::new(case, layers, scale);
            let dynamic = run_configuration(&config, BalancerKind::StaticMegatron);
            rows.push(IdlenessRow::new(
                case,
                "static partitioning",
                layers,
                &dynamic.report,
            ));
            if let Some(label) = case.sota_label() {
                let baseline = run_configuration(&config, BalancerKind::Sota);
                rows.push(IdlenessRow::new(case, label, layers, &baseline.report));
            }
        }
    }

    // Schedule ablation: the same dynamic workload under all four pipeline
    // schedules (static partitioning).  This is the bubble a balancer
    // starts from — the paper's Figure 1 baseline runs the strongest
    // ("almost zero-bubble") member of this family.
    for schedule in ScheduleKind::ALL {
        let config = CaseConfig::new(DynamicCase::EarlyExit, 24, scale).with_schedule(schedule);
        let result = run_configuration(&config, BalancerKind::StaticMegatron);
        rows.push(IdlenessRow::new(
            DynamicCase::EarlyExit,
            &schedule.label(),
            24,
            &result.report,
        ));
    }
    rows
}
