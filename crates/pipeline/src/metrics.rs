//! Simulation outputs: per-iteration timing, idleness, and bubble ratio.

use serde::{Deserialize, Serialize};

use crate::schedule::Op;

/// A scheduled execution span of one op on one worker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpSpan {
    /// The op that was executed.
    pub op: Op,
    /// Start time in seconds from the beginning of the iteration.
    pub start: f64,
    /// End time in seconds.
    pub end: f64,
}

/// The full execution timeline of one worker within an iteration.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WorkerTimeline {
    /// Ordered op spans.
    pub spans: Vec<OpSpan>,
}

impl WorkerTimeline {
    /// Total busy time (sum of span durations).
    pub fn busy_time(&self) -> f64 {
        self.spans.iter().map(|s| s.end - s.start).sum()
    }

    /// Completion time of the last span (0 if the worker did nothing).
    pub fn finish_time(&self) -> f64 {
        self.spans.iter().map(|s| s.end).fold(0.0, f64::max)
    }
}

/// The result of simulating one training iteration on one pipeline.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct IterationReport {
    /// Iteration makespan in seconds (time until the last worker finishes).
    pub makespan: f64,
    /// Per-worker busy time in seconds.
    pub per_worker_busy: Vec<f64>,
    /// Per-worker idle time in seconds (`makespan - busy`).
    pub per_worker_idle: Vec<f64>,
    /// Per-worker execution timelines.  Empty in a report from
    /// [`PipelineSimulator::simulate_timing`](crate::PipelineSimulator::simulate_timing),
    /// which builds no op spans.
    pub timelines: Vec<WorkerTimeline>,
    /// Per-stage compute time for a single micro-batch (fwd+bwd), i.e. the
    /// load vector the balancers see.
    pub stage_compute_times: Vec<f64>,
}

impl IterationReport {
    /// Average idleness fraction across workers, in `[0, 1]`: the quantity
    /// plotted on the y-axis of the paper's Figure 1.
    pub fn average_idleness(&self) -> f64 {
        if self.makespan <= 0.0 || self.per_worker_idle.is_empty() {
            return 0.0;
        }
        let total_idle: f64 = self.per_worker_idle.iter().sum();
        total_idle / (self.makespan * self.per_worker_idle.len() as f64)
    }

    /// Bubble ratio: idle time relative to busy time, aggregated over the
    /// pipeline (the way "bubble ratio" is reported in the paper's text,
    /// e.g. "~25% bubble ratio" for Mixtral).
    pub fn bubble_ratio(&self) -> f64 {
        let busy: f64 = self.per_worker_busy.iter().sum();
        if busy <= 0.0 {
            return 0.0;
        }
        let idle: f64 = self.per_worker_idle.iter().sum();
        idle / (busy + idle)
    }

    /// Training throughput in tokens/second given the number of tokens the
    /// pipeline processed this iteration.
    pub fn tokens_per_second(&self, tokens_per_iteration: u64) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        tokens_per_iteration as f64 / self.makespan
    }

    /// The load-imbalance metric ΔL of Equation 2 of the paper, computed
    /// over the per-stage compute times: `(L_max − L_min) / mean(L)`.
    pub fn load_imbalance(&self) -> f64 {
        imbalance(&self.stage_compute_times)
    }
}

/// Equation 2 of the paper: `(L_max − L_min) / mean(L)`, with empty or
/// all-zero load vectors mapping to 0.
pub fn imbalance(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let max = loads.iter().copied().fold(f64::MIN, f64::max);
    let min = loads.iter().copied().fold(f64::MAX, f64::min);
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    (max - min) / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::OpKind;

    fn span(start: f64, end: f64) -> OpSpan {
        OpSpan {
            op: Op {
                kind: OpKind::Forward,
                microbatch: 0,
                chunk: 0,
            },
            start,
            end,
        }
    }

    #[test]
    fn timeline_busy_and_finish_times() {
        let t = WorkerTimeline {
            spans: vec![span(0.0, 1.0), span(2.0, 3.5)],
        };
        assert_eq!(t.busy_time(), 2.5);
        assert_eq!(t.finish_time(), 3.5);
        assert_eq!(WorkerTimeline::default().busy_time(), 0.0);
        assert_eq!(WorkerTimeline::default().finish_time(), 0.0);
    }

    fn report(busy: Vec<f64>, makespan: f64, stage_times: Vec<f64>) -> IterationReport {
        let idle = busy.iter().map(|b| makespan - b).collect();
        IterationReport {
            makespan,
            per_worker_busy: busy,
            per_worker_idle: idle,
            timelines: vec![],
            stage_compute_times: stage_times,
        }
    }

    #[test]
    fn idleness_and_bubble_ratio() {
        // Two workers, makespan 10, busy 10 and 5 → idle 0 and 5.
        let r = report(vec![10.0, 5.0], 10.0, vec![1.0, 0.5]);
        assert!((r.average_idleness() - 0.25).abs() < 1e-12);
        assert!((r.bubble_ratio() - 5.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn perfectly_balanced_pipeline_has_zero_idleness() {
        let r = report(vec![10.0, 10.0, 10.0], 10.0, vec![1.0, 1.0, 1.0]);
        assert_eq!(r.average_idleness(), 0.0);
        assert_eq!(r.bubble_ratio(), 0.0);
        assert_eq!(r.load_imbalance(), 0.0);
    }

    #[test]
    fn degenerate_reports_do_not_divide_by_zero() {
        let r = report(vec![], 0.0, vec![]);
        assert_eq!(r.average_idleness(), 0.0);
        assert_eq!(r.bubble_ratio(), 0.0);
        assert_eq!(r.tokens_per_second(100), 0.0);
        assert_eq!(r.load_imbalance(), 0.0);
    }

    #[test]
    fn throughput_is_tokens_over_makespan() {
        let r = report(vec![2.0], 2.0, vec![1.0]);
        assert_eq!(r.tokens_per_second(4096), 2048.0);
    }

    #[test]
    fn imbalance_matches_equation_two() {
        // loads 1, 2, 3 → (3-1)/2 = 1.
        assert!((imbalance(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        // Uniform loads → 0.
        assert_eq!(imbalance(&[2.0, 2.0]), 0.0);
        // Empty and zero vectors → 0.
        assert_eq!(imbalance(&[]), 0.0);
        assert_eq!(imbalance(&[0.0, 0.0]), 0.0);
    }
}
