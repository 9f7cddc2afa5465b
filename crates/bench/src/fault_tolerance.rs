//! Fault-tolerance sweep: recovery time vs checkpoint interval vs world size.
//!
//! Beyond the paper: DynMo's elastic story assumes a reliable fleet, so
//! this sweep characterizes the resilience subsystem instead.  For each
//! (world size, checkpoint interval) cell the harness trains on the real
//! multi-rank runtime, kills one rank mid-run via a `FaultPlan`, recovers
//! on the surviving world, and compares the recovered state with a
//! failure-free run of the same seed.  It is the one sweep that runs on
//! `dynmo-runtime`'s rank threads.

use dynmo_core::recovery::{
    run_resilient, ResilientTrainingConfig, WorkloadConfig, ITERATION_COST,
};
use dynmo_runtime::FaultPlan;
use serde::Serialize;

use crate::scale::ExperimentScale;

/// One (world size, checkpoint interval) cell of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultToleranceRow {
    /// Ranks at the start of the run.
    pub world_size: usize,
    /// Iterations between periodic checkpoints.
    pub checkpoint_interval: u64,
    /// Training iterations of the run.
    pub iterations: u64,
    /// Iteration at which the last rank is killed.
    pub kill_at: u64,
    /// Simulated recovery time (restore + communicator rebuild + replay).
    pub recovery_time: f64,
    /// Iterations replayed after the kill (bounded by the interval).
    pub replayed_iterations: u64,
    /// Checkpoints written over the run.
    pub checkpoints_taken: u64,
    /// Simulated checkpoint-write overhead paid to keep that bound.
    pub checkpoint_overhead: f64,
    /// Resilience overhead as a percentage of the simulated run time.
    pub recovery_overhead_percent: f64,
    /// Whether the recovered run's final state equals the failure-free
    /// run's bit for bit (it must).
    pub state_matches_failure_free: bool,
}

/// The (world sizes, checkpoint intervals, iterations) grid of a scale.
fn grid(scale: ExperimentScale) -> (Vec<usize>, Vec<u64>, u64) {
    match scale {
        ExperimentScale::Smoke => (vec![4], vec![5, 10], 40),
        ExperimentScale::Default => (vec![4, 6, 8], vec![5, 10, 20, 40], 120),
        ExperimentScale::Paper => (vec![4, 8, 12, 16], vec![5, 10, 25, 50, 100], 400),
    }
}

/// Run every cell of the scale's grid, in world-size-major order, each as a
/// failure-free run and a run that kills the last rank at 3/5 of the way.
pub fn run_fault_tolerance_sweep(scale: ExperimentScale) -> Vec<FaultToleranceRow> {
    let (world_sizes, intervals, iterations) = grid(scale);
    let kill_at = iterations * 3 / 5;
    let mut rows = Vec::new();
    for &world_size in &world_sizes {
        for &interval in &intervals {
            let workload = WorkloadConfig::small(world_size * 3, 42);
            let run = |fault_plan| {
                run_resilient(&ResilientTrainingConfig {
                    world_size,
                    iterations,
                    workload,
                    fault_plan,
                    checkpoint_interval: interval,
                })
            };
            let clean = run(FaultPlan::none()).expect("failure-free run");
            let faulty =
                run(FaultPlan::none().kill(world_size - 1, kill_at)).expect("fault-injected run");

            let recovery_time: f64 = faulty.recoveries.iter().map(|r| r.cost).sum();
            // A simulated iteration-time budget turns the overhead into a
            // fraction, mirroring the Figure 4 presentation.
            let run_time = iterations as f64 * ITERATION_COST;
            rows.push(FaultToleranceRow {
                world_size,
                checkpoint_interval: interval,
                iterations,
                kill_at,
                recovery_time,
                replayed_iterations: faulty.replayed_iterations,
                checkpoints_taken: faulty.checkpoints_taken,
                checkpoint_overhead: faulty.overhead.recovery - recovery_time,
                recovery_overhead_percent: faulty.overhead.recovery / run_time * 100.0,
                state_matches_failure_free: faulty.weights_checksum == clean.weights_checksum,
            });
        }
    }
    rows
}
