//! Figure 3 — end-to-end training throughput for the six dynamic-model
//! cases, comparing static Megatron-LM / DeepSpeed (and the case's SoTA
//! system where one exists) against the four DynMo variants; see
//! [`dynmo_bench::run_throughput_sweep`].
//!
//! Flags:
//! * `--scale {smoke|default|paper}` — experiment size (default: `default`).
//! * `--ablate-repack` — additionally run the best DynMo variant with
//!   re-packing enabled, reproducing the paper's claim that re-packing adds
//!   only ~4–11% on top of rebalancing (§3.4.2 / §5.1).

use dynmo_bench::{
    dump_json, fmt, headline_speedup, run_throughput_sweep, ExperimentScale, RepackAblation, Table,
    ThroughputPanel,
};

fn main() {
    let scale = ExperimentScale::from_process_args(&[("--ablate-repack", &[])]);
    let ablate_repack = std::env::args().any(|a| a == "--ablate-repack");
    println!("Figure 3: end-to-end training throughput (scale: {scale:?})\n");

    let sweep = run_throughput_sweep(scale, ablate_repack);
    for panel in &sweep.panels {
        print_panel(panel);
    }
    if ablate_repack {
        print_ablation(&sweep.ablation);
    }

    if let Some(path) = dump_json("fig3_throughput", &sweep.rows()) {
        println!("(raw rows written to {})", path.display());
    }
}

fn print_panel(panel: &ThroughputPanel) {
    let mut table = Table::new(
        &format!("{} — {} layers", panel.case.label(), panel.layers),
        &[
            "Configuration",
            "Tokens/sec",
            "Speedup",
            "Bubble",
            "Overhead",
        ],
    );
    for row in panel.rows() {
        table.add_row(vec![
            row.configuration,
            fmt(row.tokens_per_second, 0),
            format!("{:.2}x", row.speedup_vs_best_baseline),
            format!("{:.1}%", row.bubble_ratio * 100.0),
            format!("{:.2}%", row.overhead_fraction * 100.0),
        ]);
    }
    table.print();
    println!(
        "  headline speedup (best DynMo / best non-DynMo): {:.2}x\n",
        headline_speedup(&panel.results)
    );
}

fn print_ablation(ablation: &[RepackAblation]) {
    println!("Re-packing ablation (best DynMo variant, with vs without re-packing):\n");
    let mut table = Table::new(
        "ABL-REPACK — re-packing on top of rebalancing",
        &[
            "Case",
            "Without re-pack (tok/s)",
            "With re-pack (tok/s)",
            "Delta",
            "Avg GPUs (w/ re-pack)",
        ],
    );
    for cell in ablation {
        table.add_row(vec![
            cell.case.label().to_string(),
            fmt(cell.without.tokens_per_second, 0),
            fmt(cell.with.tokens_per_second, 0),
            format!("{:+.1}%", cell.delta() * 100.0),
            format!("{:.1}", cell.with.average_active_workers),
        ]);
    }
    table.print();
}
