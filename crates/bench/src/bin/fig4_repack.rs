//! Figure 4 (left/middle/bottom) — re-packing models onto fewer GPUs.
//!
//! Reproduces two pieces of the paper's Figure 4:
//!
//! 1. Throughput and throughput-per-GPU when the pipeline is packed onto
//!    8 / 6 / 4 / 2 GPUs (per model size), with OOM detection when a model
//!    no longer fits ([`dynmo_bench::run_packed_sweep`]).
//! 2. The average number of GPUs used over the whole training run when
//!    DynMo re-packs dynamically as the model shrinks (gradual pruning,
//!    layer freezing, early exit; [`dynmo_bench::run_average_gpu_sweep`]).
//!
//! Use `--section {packed|avg-gpus|all}` to select a part and `--scale` as
//! usual.

use dynmo_bench::{
    dump_json, fmt, run_average_gpu_sweep, run_packed_sweep, ExperimentScale, Table,
    SHRINKING_CASES,
};

fn main() {
    let scale =
        ExperimentScale::from_process_args(&[("--section", &["packed", "avg-gpus", "all"])]);
    let args: Vec<String> = std::env::args().collect();
    let section = args
        .windows(2)
        .find(|w| w[0] == "--section")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "all".to_string());
    println!("Figure 4: re-packing to fewer GPUs (scale: {scale:?})\n");

    if section == "packed" || section == "all" {
        packed_gpu_tables(scale);
    }
    if section == "avg-gpus" || section == "all" {
        average_gpu_table(scale);
    }
}

/// Part 1: one table per case of throughput, throughput/GPU and OOM.
fn packed_gpu_tables(scale: ExperimentScale) {
    let rows = run_packed_sweep(scale);
    for case in SHRINKING_CASES {
        let mut table = Table::new(
            &format!("{} — packed onto fewer GPUs", case.label()),
            &["Layers", "GPUs", "Tokens/sec", "Tokens/sec/GPU", "Status"],
        );
        for row in rows.iter().filter(|row| row.case == case.label()) {
            let (throughput, per_gpu, status) = if row.oom {
                ("-".into(), "-".into(), "OOM")
            } else {
                (
                    fmt(row.tokens_per_second, 0),
                    fmt(row.tokens_per_second_per_gpu, 0),
                    "ok",
                )
            };
            table.add_row(vec![
                row.layers.to_string(),
                row.gpus.to_string(),
                throughput,
                per_gpu,
                status.into(),
            ]);
        }
        table.print();
    }
    if let Some(path) = dump_json("fig4_packed", &rows) {
        println!("(raw rows written to {})", path.display());
    }
}

/// Part 2: the average number of GPUs used under dynamic re-packing (the
/// Figure 4 bottom panel).
fn average_gpu_table(scale: ExperimentScale) {
    let rows = run_average_gpu_sweep(scale);
    let mut table = Table::new(
        "Average number of GPUs used over the training run (dynamic re-packing)",
        &["Case", "Layers", "Avg GPUs", "Final GPUs"],
    );
    for row in &rows {
        table.add_row(vec![
            row.case.clone(),
            row.layers.to_string(),
            fmt(row.average_gpus, 1),
            row.final_gpus.to_string(),
        ]);
    }
    table.print();
    if let Some(path) = dump_json("fig4_avg_gpus", &rows) {
        println!("(raw rows written to {})", path.display());
    }
}
