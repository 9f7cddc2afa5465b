//! Load-balancing overhead accounting (paper §5.2 and Figure 4, right).
//!
//! The paper breaks DynMo's overhead into three components — profiling, the
//! balancing algorithm itself, and the migration of layers between GPUs —
//! and reports them as a percentage of end-to-end training time per case.
//! [`OverheadBreakdown`] accumulates those three buckets, plus a fourth
//! *recovery* bucket introduced by the resilience subsystem: checkpoint
//! writes, checkpoint restores, communicator rebuilds, and replayed
//! iterations after a failure or an elastic re-scale.
//!
//! Every bucket is *modeled* seconds on the simulated clock: the balancing
//! algorithm is priced per layer and round
//! ([`BALANCER_SECONDS_PER_LAYER_ROUND`](crate::controller::BALANCER_SECONDS_PER_LAYER_ROUND)),
//! not timed on the host, so the buckets feed `total()`/`fraction_of()`,
//! are checkpointed, and replay bit-for-bit on resume.  Host time is
//! measured outside the library.

use serde::{Deserialize, Serialize};

/// Accumulated overhead of DynMo's balancing machinery, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OverheadBreakdown {
    /// Time spent in profiling iterations.
    pub profiling: f64,
    /// Time spent running the balancing algorithm (decision time).
    pub algorithm: f64,
    /// Time spent migrating layer state between workers.
    pub migration: f64,
    /// Time spent on resilience: checkpoint writes/restores, communicator
    /// rebuilds, and replayed iterations after failures.
    pub recovery: f64,
    /// Number of rebalance events that contributed to the totals.
    pub rebalance_events: u64,
    /// Number of recovery/checkpoint events that contributed to `recovery`.
    pub recovery_events: u64,
}

impl OverheadBreakdown {
    /// A zeroed breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one rebalance event's costs.
    pub fn record(&mut self, profiling: f64, algorithm: f64, migration: f64) {
        self.profiling += profiling;
        self.algorithm += algorithm;
        self.migration += migration;
        self.rebalance_events += 1;
    }

    /// Record one resilience event's cost (a checkpoint write, a restore +
    /// replay, or a communicator rebuild).
    pub fn record_recovery(&mut self, seconds: f64) {
        self.recovery += seconds;
        self.recovery_events += 1;
    }

    /// Total overhead in seconds.
    pub fn total(&self) -> f64 {
        self.profiling + self.algorithm + self.migration + self.recovery
    }

    /// Overhead as a fraction of `training_time` (0 when training time is
    /// not positive).
    pub fn fraction_of(&self, training_time: f64) -> f64 {
        if training_time <= 0.0 {
            return 0.0;
        }
        self.total() / training_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_the_three_buckets() {
        let mut o = OverheadBreakdown::new();
        o.record(1.0, 0.1, 0.5);
        o.record(2.0, 0.2, 1.0);
        assert_eq!(o.profiling, 3.0);
        assert!((o.algorithm - 0.3).abs() < 1e-12);
        assert_eq!(o.migration, 1.5);
        assert_eq!(o.rebalance_events, 2);
        assert!((o.total() - 4.8).abs() < 1e-12);
    }

    #[test]
    fn fraction_of_training_time() {
        let mut o = OverheadBreakdown::new();
        o.record(1.0, 1.0, 2.0);
        assert!((o.fraction_of(400.0) - 0.01).abs() < 1e-12);
        assert_eq!(o.fraction_of(0.0), 0.0);
        assert_eq!(o.fraction_of(-5.0), 0.0);
    }

    #[test]
    fn recovery_bucket_feeds_the_total_and_fraction() {
        let mut o = OverheadBreakdown::new();
        o.record_recovery(2.0);
        o.record_recovery(1.0);
        assert_eq!(o.recovery, 3.0);
        assert_eq!(o.recovery_events, 2);
        assert_eq!(o.total(), 3.0);
        assert!((o.fraction_of(300.0) - 0.01).abs() < 1e-12);
        // Rebalance buckets are untouched.
        assert_eq!(o.rebalance_events, 0);
        assert_eq!(o.profiling, 0.0);
    }
}
