//! Lemma 2 — empirical convergence of the diffusion balancer vs its
//! theoretical Õ(N²) round bound.
//!
//! The paper proves that the decentralized diffusion balancer γ-converges in
//! `O(N² log(SN/γ) log N)` rounds.  This binary measures the actual number
//! of rounds needed on randomized workloads for growing worker counts and
//! prints it next to the bound, confirming the bound holds (and by how much
//! slack).

use dynmo_bench::{dump_json, ExperimentScale, Table};
use dynmo_core::balancer::{BalanceObjective, BalanceRequest, DiffusionBalancer, LoadBalancer};
use dynmo_core::load_imbalance;
use dynmo_pipeline::LayerLoad;
use serde::Serialize;

#[derive(Serialize)]
struct ConvergenceRow {
    workers: usize,
    layers: usize,
    rounds: u64,
    bound: f64,
    imbalance_before: f64,
    imbalance_after: f64,
    /// Wall-clock seconds using the O(p) incremental potential update.
    seconds_incremental: f64,
    /// Wall-clock seconds recomputing the full O(p²) potential per
    /// candidate move (the pre-fix behaviour), for the same workload.
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

fn synthetic_loads(layers: usize, seed: u64) -> Vec<LayerLoad> {
    // Deterministic skewed layer times: a mix of heavy and light layers.
    (0..layers)
        .map(|i| {
            let x = ((i as u64 + 1).wrapping_mul(seed).wrapping_mul(2654435761)) % 1000;
            let time = 0.2 + (x as f64 / 1000.0) * 2.8;
            LayerLoad {
                layer_id: i,
                fwd_time: time / 3.0,
                bwd_time: 2.0 * time / 3.0,
                param_count: (time * 1.0e6) as u64,
                static_bytes: (time * 1.6e7) as u64,
                activation_bytes: 1_000,
                migration_bytes: (time * 1.6e7) as u64,
            }
        })
        .collect()
}

fn main() {
    let scale = ExperimentScale::from_process_args(&[]);
    println!("Lemma 2: diffusion-balancer convergence (scale: {scale:?})\n");

    let worker_counts: Vec<usize> = match scale {
        ExperimentScale::Smoke => vec![4, 8],
        _ => vec![2, 4, 8, 16, 24, 32, 48, 64],
    };

    let mut rows = Vec::new();
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
    let full_recompute = DiffusionBalancer {
        use_incremental_potential: false,
        ..DiffusionBalancer::new()
    };
    let trials = match scale {
        ExperimentScale::Smoke => 3,
        _ => 7,
    };
    for &workers in &worker_counts {
        let layers = workers * 4;
        let loads = synthetic_loads(layers, 7);
        let request = BalanceRequest::new(&loads, workers, u64::MAX, BalanceObjective::ByTime);
        let uniform = dynmo_pipeline::StageAssignment::uniform(layers, workers);
        let before = load_imbalance(&dynmo_core::balancer::stage_weights(
            &uniform,
            &loads,
            BalanceObjective::ByTime,
        ));
        let outcome = balancer.rebalance(&request);
        let seconds_incremental = time_median(trials, || {
            std::hint::black_box(balancer.rebalance(&request));
        });
        let seconds_full_recompute = time_median(trials, || {
            std::hint::black_box(full_recompute.rebalance(&request));
        });
        // Both paths must commit exactly the same moves.
        assert_eq!(
            outcome.assignment,
            full_recompute.rebalance(&request).assignment
        );
        let after = load_imbalance(&dynmo_core::balancer::stage_weights(
            &outcome.assignment,
            &loads,
            BalanceObjective::ByTime,
        ));
        let total: f64 = loads.iter().map(|l| l.total_time()).sum();
        let bound = balancer.lemma2_round_bound(workers, total);
        table.add_row(vec![
            workers.to_string(),
            layers.to_string(),
            outcome.rounds.to_string(),
            format!("{bound:.0}"),
            format!("{before:.3}"),
            format!("{after:.3}"),
            format!("{:.2} ms", seconds_incremental * 1e3),
            format!("{:.2} ms", seconds_full_recompute * 1e3),
        ]);
        rows.push(ConvergenceRow {
            workers,
            layers,
            rounds: outcome.rounds,
            bound,
            imbalance_before: before,
            imbalance_after: after,
            seconds_incremental,
            seconds_full_recompute,
        });
        assert!(
            (outcome.rounds as f64) <= bound,
            "Lemma 2 bound violated at {workers} workers"
        );
    }
    table.print();
    println!("All measured round counts are within the Lemma 2 bound.");
    if let Some(row) = rows.iter().find(|r| r.workers == 64) {
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
}
