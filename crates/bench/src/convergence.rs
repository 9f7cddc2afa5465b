//! Lemma 2 sweep: empirical convergence of the diffusion balancer against
//! its theoretical Õ(N²) round bound.
//!
//! The paper proves that the decentralized diffusion balancer γ-converges in
//! `O(N² log(SN/γ) log N)` rounds.  The sweep counts the rounds actually
//! needed on skewed synthetic workloads for growing worker counts, next to
//! the bound.  It asserts that every count is within the bound and that the
//! balancer's O(p) incremental potential update commits the same moves as
//! the full O(p²) recompute.

use dynmo_core::balancer::{
    stage_weights, BalanceObjective, BalanceRequest, DiffusionBalancer, LoadBalancer,
};
use dynmo_pipeline::{metrics, LayerLoad, StageAssignment};
use serde::Serialize;

use crate::scale::ExperimentScale;

/// One worker count of the Lemma 2 sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ConvergenceRow {
    /// Pipeline workers the layers are balanced over.
    pub workers: usize,
    /// Layers balanced (four per worker).
    pub layers: usize,
    /// Diffusion rounds until convergence.
    pub rounds: u64,
    /// Lemma 2's round bound for this worker count and total load.
    pub bound: f64,
    /// Eq. 2 imbalance of the uniform split the balancer starts from.
    pub imbalance_before: f64,
    /// Eq. 2 imbalance after balancing.
    pub imbalance_after: f64,
}

/// The worker counts of a scale.
fn convergence_worker_counts(scale: ExperimentScale) -> Vec<usize> {
    match scale {
        ExperimentScale::Smoke => vec![4, 8],
        _ => vec![2, 4, 8, 16, 24, 32, 48, 64],
    }
}

/// The sweep's deterministic, skewed layer times: a mix of heavy and light
/// layers.
pub fn convergence_loads(layers: usize) -> Vec<LayerLoad> {
    let seed = 7u64;
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

/// The diffusion balancer recomputing the full O(p²) potential per
/// candidate move: the reference its O(p) incremental update must match.
pub fn full_recompute_balancer() -> DiffusionBalancer {
    DiffusionBalancer {
        use_incremental_potential: false,
    }
}

/// Run the Lemma 2 rows, one per worker count of the scale, each with four
/// layers per worker.
///
/// # Panics
///
/// If a round count exceeds its bound, or the incremental and the full
/// potential paths commit different moves.
pub fn run_convergence_sweep(scale: ExperimentScale) -> Vec<ConvergenceRow> {
    let balancer = DiffusionBalancer::new();
    let full_recompute = full_recompute_balancer();
    let imbalance = |assignment: &StageAssignment, loads: &[LayerLoad]| {
        metrics::imbalance(&stage_weights(assignment, loads, BalanceObjective::ByTime))
    };
    convergence_worker_counts(scale)
        .into_iter()
        .map(|workers| {
            let layers = workers * 4;
            let loads = convergence_loads(layers);
            let request = BalanceRequest::new(&loads, workers, u64::MAX, BalanceObjective::ByTime);
            let outcome = balancer.rebalance(&request);
            assert_eq!(
                outcome.assignment,
                full_recompute.rebalance(&request).assignment,
                "both potential paths must commit the same moves at {workers} workers"
            );
            let total: f64 = loads.iter().map(|l| l.total_time()).sum();
            let bound = balancer.lemma2_round_bound(workers, total);
            assert!(
                (outcome.rounds as f64) <= bound,
                "Lemma 2 bound violated at {workers} workers"
            );
            ConvergenceRow {
                workers,
                layers,
                rounds: outcome.rounds,
                bound,
                imbalance_before: imbalance(&StageAssignment::uniform(layers, workers), &loads),
                imbalance_after: imbalance(&outcome.assignment, &loads),
            }
        })
        .collect()
}
