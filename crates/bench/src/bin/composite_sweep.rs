//! Composite-dynamics sweep — stacked mechanisms through both balancers.
//!
//! Fans a grid of 2- and 3-mechanism stacks (MoE routing skew, gradual
//! pruning, layer freezing, early exit — composed multiplicatively by
//! `ComposedEngine`) × {Partition, Diffusion} × {1F1B, ZB-H1} across
//! threads with rayon.  Every cell runs a failure-free training session
//! *and* a checkpoint → crash → resume session, and records whether the
//! recovered trajectory is bit-identical to the failure-free one.  Rows are
//! written to `results/composite_sweep.json` (schema in
//! `crates/bench/README.md`).  Run with `--scale {smoke|default|paper}`.

use dynmo_bench::{dump_json, fmt, pct, run_composite_sweep, ExperimentScale, Table};

fn main() {
    let scale = ExperimentScale::from_process_args(&[]);
    println!("Composite dynamics sweep (scale: {scale:?})\n");

    let cells = run_composite_sweep(scale);

    let mut table = Table::new(
        "Composite stacks — failure-free throughput and recovery fidelity",
        &[
            "Stack",
            "Balancer",
            "Schedule",
            "Tokens/s",
            "Bubble",
            "Rebalances",
            "Recovery",
        ],
    );
    for cell in &cells {
        table.add_row(vec![
            cell.stack.clone(),
            cell.balancer.clone(),
            cell.schedule.clone(),
            fmt(cell.tokens_per_second, 0),
            pct(cell.bubble_ratio),
            cell.rebalance_events.to_string(),
            if cell.recovery_bit_identical {
                "bit-identical".to_string()
            } else {
                "MISMATCH".to_string()
            },
        ]);
    }
    table.print();

    let recovered = cells.iter().filter(|c| c.recovery_bit_identical).count();
    println!(
        "\n{recovered}/{} cells replayed their mid-run crash bit-identically.",
        cells.len()
    );
    assert_eq!(
        recovered,
        cells.len(),
        "some composite cells did not recover bit-identically"
    );

    if let Some(path) = dump_json("composite_sweep", &cells) {
        println!("({} sweep rows written to {})", cells.len(), path.display());
    }
}
