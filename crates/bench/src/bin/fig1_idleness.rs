//! Figure 1 — average GPU idleness per iteration for dynamic GPT models.
//!
//! For each of the six dynamic-model schemes the paper reports how idle the
//! pipeline's GPUs are when *no* dynamic rebalancing is applied (static
//! Megatron-style partitioning), compared against the scheme's own baseline
//! (dense attention, no early exit, static dense model, ...).  Run with
//! `--scale {smoke|default|paper}`.

use dynmo_bench::{dump_json, pct, run_idleness_sweep, ExperimentScale, Table};

fn main() {
    let scale = ExperimentScale::from_process_args(&[]);
    println!("Figure 1: average GPU idleness (scale: {scale:?})\n");

    let rows = run_idleness_sweep(scale);

    let mut table = Table::new(
        "Figure 1 — average idleness per iteration (static partitioning)",
        &[
            "Case",
            "Configuration",
            "Layers",
            "Idleness",
            "Bubble ratio",
            "ΔL (Eq.2)",
        ],
    );
    for row in &rows {
        table.add_row(vec![
            row.case.clone(),
            row.configuration.clone(),
            row.layers.to_string(),
            pct(row.idleness),
            pct(row.bubble_ratio),
            format!("{:.2}", row.imbalance),
        ]);
    }

    table.print();
    if let Some(path) = dump_json("fig1_idleness", &rows) {
        println!("(raw rows written to {})", path.display());
    }
}
