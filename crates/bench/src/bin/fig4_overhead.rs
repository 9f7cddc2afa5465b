//! Figure 4 (right) — load-balancing overhead breakdown.
//!
//! For every dynamic-model case the paper reports DynMo's total overhead as
//! a percentage of training time, broken into profiling, the balancing
//! algorithm, and layer migration, together with the rebalance frequency
//! used.  This binary reproduces that table with the DynMo (Partition, by
//! Time) configuration, plus a fourth *recovery* column — the resilience
//! subsystem's checkpoint-write cost, with periodic checkpointing enabled
//! at a tenth of the run length — which the paper does not have (the paper
//! assumes a reliable fleet).

use dynmo_bench::{
    dump_json, run_configuration, BalancerKind, CaseConfig, DynamicCase, ExperimentScale, Table,
};
use serde::Serialize;

#[derive(Serialize)]
struct OverheadRow {
    case: String,
    layers: usize,
    overhead_percent: f64,
    profiling_percent: f64,
    algorithm_percent: f64,
    migration_percent: f64,
    recovery_percent: f64,
    rebalance_events: u64,
}

fn main() {
    let scale = ExperimentScale::from_process_args(&[]);
    println!("Figure 4 (right): load-balancing overhead breakdown (scale: {scale:?})\n");

    let layer_counts = match scale {
        ExperimentScale::Smoke => vec![24],
        _ => vec![24, 32, 40, 48],
    };

    let mut rows: Vec<OverheadRow> = Vec::new();
    let mut table = Table::new(
        "DynMo overhead as a fraction of training time",
        &[
            "Case",
            "Layers/Model",
            "Total",
            "Profiling",
            "Algorithm",
            "Migration",
            "Recovery",
            "Rebalances",
        ],
    );

    let checkpoint_interval = (scale.iterations() / 10).max(1);
    for case in [DynamicCase::MoeMixtral, DynamicCase::MoeLlama] {
        let config = CaseConfig::new(case, 32, scale).with_checkpointing(checkpoint_interval);
        let result = run_configuration(&config, BalancerKind::PartitionByTime);
        add_row(&mut table, &mut rows, case, 32, &result.report);
    }

    for case in DynamicCase::GPT_CASES {
        for &layers in &layer_counts {
            let config =
                CaseConfig::new(case, layers, scale).with_checkpointing(checkpoint_interval);
            let result = run_configuration(&config, BalancerKind::PartitionByTime);
            add_row(&mut table, &mut rows, case, layers, &result.report);
        }
    }

    table.print();
    if let Some(path) = dump_json("fig4_overhead", &rows) {
        println!("(raw rows written to {})", path.display());
    }
}

fn add_row(
    table: &mut Table,
    rows: &mut Vec<OverheadRow>,
    case: DynamicCase,
    layers: usize,
    report: &dynmo_core::report::TrainingReport,
) {
    let total = report.total_time.max(f64::MIN_POSITIVE);
    let overhead = &report.overhead;
    table.add_row(vec![
        case.label().to_string(),
        layers.to_string(),
        format!("{:.2}%", report.overhead_fraction * 100.0),
        format!("{:.2}%", overhead.profiling / total * 100.0),
        format!("{:.3}%", overhead.algorithm / total * 100.0),
        format!("{:.3}%", overhead.migration / total * 100.0),
        format!("{:.3}%", overhead.recovery / total * 100.0),
        report.rebalance_events.to_string(),
    ]);
    rows.push(OverheadRow {
        case: case.label().to_string(),
        layers,
        overhead_percent: report.overhead_fraction * 100.0,
        profiling_percent: overhead.profiling / total * 100.0,
        algorithm_percent: overhead.algorithm / total * 100.0,
        migration_percent: overhead.migration / total * 100.0,
        recovery_percent: overhead.recovery / total * 100.0,
        rebalance_events: report.rebalance_events,
    });
}
