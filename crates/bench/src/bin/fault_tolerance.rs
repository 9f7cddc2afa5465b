//! Fault tolerance — recovery time vs checkpoint interval vs world size.
//!
//! Beyond the paper: DynMo's elastic story assumes a reliable fleet, so
//! this figure characterizes the resilience subsystem instead.  For each
//! (world size, checkpoint interval) cell the harness trains on the real
//! multi-rank runtime, kills one rank mid-run via a `FaultPlan`, recovers
//! on the surviving world, and reports:
//!
//! * the simulated recovery time (restore + communicator rebuild + replay),
//! * the iterations replayed (bounded by the checkpoint interval),
//! * the total checkpoint-write overhead paid to keep that bound,
//! * whether the recovered run's final state matches a failure-free run of
//!   the same seed bit-for-bit (it must).
//!
//! Run with `--scale {smoke|default|paper}`.

use dynmo_bench::{dump_json, fmt, run_fault_tolerance_sweep, ExperimentScale, Table};

fn main() {
    let scale = ExperimentScale::from_process_args(&[]);
    println!(
        "Fault tolerance: recovery time vs checkpoint interval vs world size (scale: {scale:?})\n"
    );

    let rows = run_fault_tolerance_sweep(scale);

    let mut table = Table::new(
        "Kill one rank mid-training, recover from the last checkpoint",
        &[
            "World",
            "Ckpt every",
            "Recovery (s)",
            "Replayed",
            "Ckpts",
            "Ckpt cost (s)",
            "Resilience ovh",
            "State match",
        ],
    );
    for row in &rows {
        table.add_row(vec![
            row.world_size.to_string(),
            row.checkpoint_interval.to_string(),
            fmt(row.recovery_time, 2),
            row.replayed_iterations.to_string(),
            row.checkpoints_taken.to_string(),
            fmt(row.checkpoint_overhead, 2),
            format!("{:.1}%", row.recovery_overhead_percent),
            if row.state_matches_failure_free {
                "yes"
            } else {
                "DIVERGED"
            }
            .to_string(),
        ]);
    }

    table.print();
    println!(
        "Expected trade-off: shorter intervals replay less on failure but pay\n\
         more checkpoint-write overhead; the recovered state must match the\n\
         failure-free run bit-for-bit in every cell."
    );
    if let Some(path) = dump_json("fault_tolerance", &rows) {
        println!("(raw rows written to {})", path.display());
    }
}
