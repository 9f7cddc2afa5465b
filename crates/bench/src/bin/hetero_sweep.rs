//! Hetero sweep — DynMo's margin over the static baselines on a uniform
//! vs a 3-generation (H100/A100/V100) cluster.
//!
//! Flags:
//! * `--scale {smoke|default|paper}` — experiment size (default: `default`).
//!
//! Output: per-cell throughput tables, one `margin ...` line per case
//! (asserted by CI), and the full report as `results/hetero_sweep.json`.

use dynmo_bench::{
    dump_json, fmt, run_hetero_sweep, ClusterFlavor, ExperimentScale, HeteroSweepReport, Table,
    HETERO_CASES,
};

fn main() {
    let scale = ExperimentScale::from_process_args(&[]);
    println!("Hetero sweep: uniform vs 3-generation cluster (scale: {scale:?})\n");

    let report = run_hetero_sweep(scale);
    print_tables(&report);

    for margin in &report.margins {
        println!(
            "margin {}: uniform {:.2}x | 3-gen {:.2}x | growth {:.2}x",
            margin.case, margin.uniform_margin, margin.hetero_margin, margin.growth
        );
    }

    if let Some(path) = dump_json("hetero_sweep", &report) {
        println!("\n(raw rows written to {})", path.display());
    }
}

fn print_tables(report: &HeteroSweepReport) {
    for case in HETERO_CASES {
        for flavor in ClusterFlavor::ALL {
            let mut table = Table::new(
                &format!("{} — {} cluster", case.label(), flavor.label()),
                &[
                    "Configuration",
                    "Schedule",
                    "Tokens/sec",
                    "Bubble",
                    "Rebalances",
                ],
            );
            for row in report
                .rows
                .iter()
                .filter(|r| r.case == case.label() && r.cluster == flavor.label())
            {
                table.add_row(vec![
                    row.configuration.clone(),
                    row.schedule.clone(),
                    fmt(row.tokens_per_second, 0),
                    format!("{:.1}%", row.bubble_ratio * 100.0),
                    row.rebalance_events.to_string(),
                ]);
            }
            table.print();
            println!();
        }
    }
}
