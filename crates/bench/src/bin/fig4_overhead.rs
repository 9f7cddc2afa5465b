//! Figure 4 (right) — load-balancing overhead breakdown.
//!
//! For every dynamic-model case the paper reports DynMo's total overhead as
//! a percentage of training time, broken into profiling, the balancing
//! algorithm, and layer migration, together with the rebalance frequency
//! used.  This binary prints that table with the DynMo (Partition, by
//! Time) configuration, plus a fourth *recovery* column (checkpoint
//! writes) the paper does not have; see [`dynmo_bench::run_overhead_sweep`].

use dynmo_bench::{dump_json, run_overhead_sweep, ExperimentScale, Table};

fn main() {
    let scale = ExperimentScale::from_process_args(&[]);
    println!("Figure 4 (right): load-balancing overhead breakdown (scale: {scale:?})\n");

    let rows = run_overhead_sweep(scale);

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
    for row in &rows {
        table.add_row(vec![
            row.case.clone(),
            row.layers.to_string(),
            format!("{:.2}%", row.overhead_percent),
            format!("{:.2}%", row.profiling_percent),
            format!("{:.3}%", row.algorithm_percent),
            format!("{:.3}%", row.migration_percent),
            format!("{:.3}%", row.recovery_percent),
            row.rebalance_events.to_string(),
        ]);
    }

    table.print();
    if let Some(path) = dump_json("fig4_overhead", &rows) {
        println!("(raw rows written to {})", path.display());
    }
}
