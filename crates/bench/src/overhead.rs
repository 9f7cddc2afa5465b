//! Figure 4 (right) sweep: DynMo's load-balancing overhead, broken down.
//!
//! For every dynamic-model case the paper reports DynMo's total overhead as
//! a percentage of training time, broken into profiling, the balancing
//! algorithm, and layer migration, together with the rebalance frequency
//! used.  The sweep runs the DynMo (Partition, by Time) configuration, plus
//! a fourth *recovery* column — the resilience subsystem's checkpoint-write
//! cost, with periodic checkpointing enabled at a tenth of the run length —
//! which the paper does not have (the paper assumes a reliable fleet).

use dynmo_core::report::TrainingReport;
use serde::Serialize;

use crate::cases::{run_configuration, BalancerKind, CaseConfig, DynamicCase};
use crate::idleness::layer_sweep;
use crate::scale::ExperimentScale;

/// One (case, layer count) row of Figure 4 (right); shares are percent of
/// training time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OverheadRow {
    /// Dynamic-model case label.
    pub case: String,
    /// GPT layer count (32 for the MoE models).
    pub layers: usize,
    /// Total overhead.
    pub overhead_percent: f64,
    /// Profiling share.
    pub profiling_percent: f64,
    /// Balancing-algorithm share.
    pub algorithm_percent: f64,
    /// Layer-migration share.
    pub migration_percent: f64,
    /// Checkpoint-write share.
    pub recovery_percent: f64,
    /// Rebalances applied over the run.
    pub rebalance_events: u64,
}

impl OverheadRow {
    fn new(case: DynamicCase, layers: usize, report: &TrainingReport) -> Self {
        let total = report.total_time.max(f64::MIN_POSITIVE);
        let overhead = &report.overhead;
        OverheadRow {
            case: case.label().to_string(),
            layers,
            overhead_percent: report.overhead_fraction * 100.0,
            profiling_percent: overhead.profiling / total * 100.0,
            algorithm_percent: overhead.algorithm / total * 100.0,
            migration_percent: overhead.migration / total * 100.0,
            recovery_percent: overhead.recovery / total * 100.0,
            rebalance_events: report.rebalance_events,
        }
    }
}

/// Run Figure 4 (right)'s rows in table order: the two MoE models at 32
/// layers, then each GPT case at every layer count of the scale.
pub fn run_overhead_sweep(scale: ExperimentScale) -> Vec<OverheadRow> {
    let checkpoint_interval = (scale.iterations() / 10).max(1);
    let run = |case: DynamicCase, layers: usize| {
        let config = CaseConfig::new(case, layers, scale).with_checkpointing(checkpoint_interval);
        let result = run_configuration(&config, BalancerKind::PartitionByTime);
        OverheadRow::new(case, layers, &result.report)
    };
    let mut rows = Vec::new();
    for case in [DynamicCase::MoeMixtral, DynamicCase::MoeLlama] {
        rows.push(run(case, 32));
    }
    let layer_counts = layer_sweep(scale);
    for case in DynamicCase::GPT_CASES {
        for &layers in &layer_counts {
            rows.push(run(case, layers));
        }
    }
    rows
}
