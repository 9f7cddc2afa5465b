//! Fleet sweep — closed-loop co-location vs a static GPU split.
//!
//! Flags:
//! * `--scale {smoke|default|paper}` — experiment size (default: `default`).
//!
//! Output: per-cell tenant tables, one `margin fleet ...` line (asserted
//! and byte-compared across thread counts by CI), and the full report as
//! `results/BENCH_fleet.json`.  Exits non-zero if the closed loop fails
//! to beat the static split on either axis or the trainer trajectory pin
//! breaks — the margins are the bench's acceptance gate, not just prose.

use dynmo_bench::{dump_json, fmt, run_fleet_sweep, ExperimentScale, FleetCellReport};

fn main() {
    let scale = ExperimentScale::from_process_args(&[]);
    println!("Fleet sweep: closed-loop controller vs static split (scale: {scale:?})\n");

    let report = run_fleet_sweep(scale);
    print_cell(&report.closed);
    print_cell(&report.static_split);

    println!(
        "reference (undisturbed world-12 training): {} tokens/s",
        fmt(report.reference_tokens_per_second, 0)
    );
    println!(
        "trajectory pin: {} pre-steal chunk boundaries bit-identical to the reference: {}",
        report.pinned_boundaries, report.trajectory_pinned
    );
    println!();
    println!(
        "margin fleet {}: peak slo closed {:.1}% vs static {:.1}% | training loss closed {:.1}% vs static {:.1}%",
        report.scale,
        report.closed.peak_attainment * 100.0,
        report.static_split.peak_attainment * 100.0,
        report.closed.training_loss * 100.0,
        report.static_split.training_loss * 100.0,
    );

    if let Some(path) = dump_json("BENCH_fleet", &report) {
        println!("\n(raw rows written to {})", path.display());
    }

    assert!(
        report.peak_attainment_margin_pp > 0.0,
        "the closed loop must beat the static split at the diurnal peak"
    );
    assert!(
        report.training_loss_margin_pp > 0.0,
        "the closed loop must lose less training throughput than the static split"
    );
    assert!(
        report.trajectory_pinned,
        "pre-steal trainer trajectory must be bit-identical to the undisturbed run"
    );
}

fn print_cell(cell: &FleetCellReport) {
    let mut table = dynmo_bench::Table::new(
        &format!(
            "{} — peak slo {:.1}%, day slo {:.1}%, training {} tokens/s (loss {:.1}%)",
            cell.label,
            cell.peak_attainment * 100.0,
            cell.attainment * 100.0,
            fmt(cell.trainer_tokens_per_second, 0),
            cell.training_loss * 100.0,
        ),
        &[
            "Tenant",
            "Requests",
            "Peak reqs",
            "Peak SLO",
            "Day SLO",
            "p99 TTFT",
        ],
    );
    for t in &cell.tenants {
        table.add_row(vec![
            t.tenant.clone(),
            t.requests.to_string(),
            t.peak_requests.to_string(),
            format!("{:.1}%", t.peak_attainment * 100.0),
            format!("{:.1}%", t.attainment * 100.0),
            format!("{:.2}s", t.p99_ttft),
        ]);
    }
    table.print();
    println!(
        "  trainer: {} iterations, mean world {:.1}, {} steals / {} returns / {} preemptions, {} rescales ({:.1}s checkpoint cost)\n",
        cell.trainer_iterations,
        cell.trainer_mean_world,
        cell.steals,
        cell.returns,
        cell.preemptions,
        cell.trainer_rescales,
        cell.trainer_rescale_cost,
    );
}
