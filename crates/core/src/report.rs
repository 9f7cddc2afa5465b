//! End-to-end training reports produced by the [`crate::trainer::Trainer`].

use serde::{Deserialize, Serialize};

use crate::overhead::OverheadBreakdown;

/// The measurable outcome of one simulated training run — the quantities
/// behind the paper's Figures 1, 3 and 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Name of the balancing configuration (e.g. `diffusion/by-time`,
    /// `static/by-time`).
    pub balancer: String,
    /// Name of the dynamism engine (e.g. `pruning/target-90%`).
    pub dynamism: String,
    /// Number of training iterations simulated.
    pub iterations: u64,
    /// Total simulated training time in seconds (compute + exposed
    /// communication + balancing overhead).
    pub total_time: f64,
    /// Total tokens processed across all data-parallel replicas.
    pub total_tokens: u64,
    /// End-to-end throughput in tokens/second (the Figure 3 y-axis).
    pub tokens_per_second: f64,
    /// Average per-iteration GPU idleness fraction (the Figure 1 y-axis).
    pub average_idleness: f64,
    /// Average pipeline bubble ratio over the run.
    pub average_bubble_ratio: f64,
    /// Mean load imbalance ΔL (Eq. 2) observed across the run.
    pub mean_imbalance: f64,
    /// Load imbalance at the final iteration.
    pub final_imbalance: f64,
    /// Balancing overhead breakdown (profiling / algorithm / migration).
    pub overhead: OverheadBreakdown,
    /// Overhead as a fraction of total training time.
    pub overhead_fraction: f64,
    /// Number of rebalance events executed.
    pub rebalance_events: u64,
    /// Average number of GPUs (per pipeline) in use over the run — the
    /// Figure 4 "average number of GPUs" metric.
    pub average_active_workers: f64,
    /// Active workers (pipeline stages in use) at the end of the run.
    pub final_active_workers: usize,
    /// Total GPU-seconds consumed (active workers × data parallel × time).
    pub gpu_seconds: f64,
    /// Throughput per GPU in tokens/second/GPU (the Figure 4 left axis,
    /// i.e. the performance-per-dollar proxy).
    pub tokens_per_second_per_gpu: f64,
    /// FNV-1a over the simulated per-iteration trajectory (iteration time,
    /// tokens, imbalance, assignment).  Deterministic for a given
    /// configuration and seed, so a recovered run proves bit-identical
    /// replay by matching the failure-free run's value.
    pub trajectory_checksum: u64,
}

impl TrainingReport {
    /// Speedup of this run relative to a baseline run on the same workload.
    pub fn speedup_over(&self, baseline: &TrainingReport) -> f64 {
        if baseline.tokens_per_second <= 0.0 {
            return 0.0;
        }
        self.tokens_per_second / baseline.tokens_per_second
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(tps: f64) -> TrainingReport {
        TrainingReport {
            balancer: "test".into(),
            dynamism: "test".into(),
            iterations: 10,
            total_time: 1.0,
            total_tokens: 1000,
            tokens_per_second: tps,
            average_idleness: 0.1,
            average_bubble_ratio: 0.1,
            mean_imbalance: 0.2,
            final_imbalance: 0.1,
            overhead: OverheadBreakdown::new(),
            overhead_fraction: 0.0,
            rebalance_events: 0,
            average_active_workers: 4.0,
            final_active_workers: 4,
            gpu_seconds: 4.0,
            tokens_per_second_per_gpu: tps / 4.0,
            trajectory_checksum: 0,
        }
    }

    #[test]
    fn speedup_is_a_throughput_ratio() {
        let fast = report(2000.0);
        let slow = report(1000.0);
        assert_eq!(fast.speedup_over(&slow), 2.0);
        assert_eq!(slow.speedup_over(&fast), 0.5);
        let zero = report(0.0);
        assert_eq!(fast.speedup_over(&zero), 0.0);
    }
}
