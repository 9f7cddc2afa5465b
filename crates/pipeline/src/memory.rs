//! Per-stage memory accounting and OOM detection.
//!
//! Re-packing (Algorithm 2) and the balancers both operate "subject to the
//! constraints of memory capacity per worker" (§3.1).  This module converts
//! a stage assignment plus per-layer loads into per-stage byte totals and
//! flags stages that exceed the device capacity — the `OOM` entries shown in
//! the paper's Figure 4 when a model no longer fits on 2 or 4 GPUs.

use serde::{Deserialize, Serialize};

use crate::load::{aggregate_stage_loads, LayerLoad};
use crate::schedule::ScheduleKind;
use crate::stage::StageAssignment;

/// Memory accounting for every stage of a pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageMemoryReport {
    /// Total bytes required on each stage.
    pub per_stage_bytes: Vec<u64>,
    /// The device capacity the stages were checked against.
    pub capacity: u64,
    /// Whether each stage fits within the capacity.
    pub fits: Vec<bool>,
}

impl StageMemoryReport {
    /// Whether every stage fits in memory.
    pub fn all_fit(&self) -> bool {
        self.fits.iter().all(|&f| f)
    }
}

/// Number of micro-batches whose activations are simultaneously alive on
/// `stage` under the given schedule (`p` stages, `m` micro-batches).
///
/// * GPipe holds every forward activation until its backward.
/// * 1F1B stage `s` holds at most `min(p − s, m)`.
/// * Interleaved 1F1B holds `warmup + 1` micro-batch *chunks*, each `1/v`
///   of the stage, so the stage-equivalent count is `⌈(2·(p−s−1) +
///   (v−1)·p + 1) / v⌉` (capped at `m`) — strictly more than 1F1B: the
///   shorter bubble is bought with a deeper ramp-up.  When `m == p` the
///   schedule has no steady state (all forwards run before any backward)
///   and every stage holds all `m` micro-batches, like GPipe.
/// * ZB-H1 preserves 1F1B's activation footprint by design (the weight
///   half of each backward runs immediately after the input half, while
///   the activations are still required).
pub fn inflight_microbatches(
    schedule: ScheduleKind,
    stage: usize,
    num_stages: usize,
    num_microbatches: usize,
) -> usize {
    let m = num_microbatches;
    let p = num_stages;
    // A worker holds the activations of its warm-up forwards plus the one
    // micro-batch (chunk) in flight through its steady-state alternation;
    // deriving the count from the schedule's own warm-up depth keeps the
    // memory model and the op order coupled by construction.
    let v = schedule.effective_virtual_stages(p, m);
    let chunks_held = (schedule.warmup_ops(stage, p, m) + 1).min(m * v);
    // Each chunk holds 1/v of the stage's activations; round the
    // stage-equivalent count up.
    chunks_held.div_ceil(v).min(m).max(1)
}

/// Compute per-stage memory usage for `assignment` over `loads` and check it
/// against `capacity`.
pub fn check_stage_memory(
    assignment: &StageAssignment,
    loads: &[LayerLoad],
    capacity: u64,
    schedule: ScheduleKind,
    num_microbatches: usize,
) -> StageMemoryReport {
    let stages = aggregate_stage_loads(loads, assignment);
    let p = assignment.num_stages();
    let per_stage_bytes: Vec<u64> = stages
        .iter()
        .enumerate()
        .map(|(s, load)| {
            let inflight = inflight_microbatches(schedule, s, p, num_microbatches) as u64;
            load.static_bytes + load.activation_bytes * inflight
        })
        .collect();
    let fits: Vec<bool> = per_stage_bytes.iter().map(|&b| b <= capacity).collect();
    StageMemoryReport {
        per_stage_bytes,
        capacity,
        fits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(id: usize, static_bytes: u64, act: u64) -> LayerLoad {
        LayerLoad {
            layer_id: id,
            fwd_time: 1.0,
            bwd_time: 2.0,
            param_count: 10,
            static_bytes,
            activation_bytes: act,
            migration_bytes: static_bytes,
        }
    }

    #[test]
    fn inflight_counts_follow_the_schedule() {
        // 1F1B: the first stage holds the most in-flight activations.
        assert_eq!(inflight_microbatches(ScheduleKind::OneFOneB, 0, 4, 32), 4);
        assert_eq!(inflight_microbatches(ScheduleKind::OneFOneB, 3, 4, 32), 1);
        // ...capped by the micro-batch count.
        assert_eq!(inflight_microbatches(ScheduleKind::OneFOneB, 0, 8, 2), 2);
        // GPipe holds everything.
        assert_eq!(inflight_microbatches(ScheduleKind::GPipe, 2, 4, 32), 32);
        // ZB-H1 matches 1F1B's footprint by construction.
        for stage in 0..4 {
            assert_eq!(
                inflight_microbatches(ScheduleKind::ZeroBubbleH1, stage, 4, 32),
                inflight_microbatches(ScheduleKind::OneFOneB, stage, 4, 32)
            );
        }
        // Interleaving (v=2, p=4): stage 0 holds ⌈(6+4+1)/2⌉ = 6 stage-
        // equivalents — more than 1F1B's 4; the last stage holds ⌈5/2⌉ = 3.
        let inter = ScheduleKind::Interleaved1F1B { virtual_stages: 2 };
        assert_eq!(inflight_microbatches(inter, 0, 4, 32), 6);
        assert_eq!(inflight_microbatches(inter, 3, 4, 32), 3);
        assert!(
            inflight_microbatches(inter, 0, 4, 32)
                > inflight_microbatches(ScheduleKind::OneFOneB, 0, 4, 32)
        );
        // A single chunk degenerates to 1F1B, and m caps everything.
        let inter1 = ScheduleKind::Interleaved1F1B { virtual_stages: 1 };
        assert_eq!(inflight_microbatches(inter1, 1, 4, 32), 3);
        assert_eq!(inflight_microbatches(inter, 0, 8, 2), 2);
        // m == p has no steady state (all-forwards-then-all-backwards):
        // every stage holds all m micro-batches, like GPipe.
        for stage in 0..4 {
            assert_eq!(inflight_microbatches(inter, stage, 4, 4), 4);
        }
    }

    #[test]
    fn memory_report_flags_oom_stages() {
        let loads = vec![
            load(0, 600, 10),
            load(1, 600, 10),
            load(2, 100, 10),
            load(3, 100, 10),
        ];
        // Stage 0 gets the two big layers → 1200 + activations; capacity 1000.
        let assignment = StageAssignment::from_counts(&[2, 2]);
        let report = check_stage_memory(&assignment, &loads, 1000, ScheduleKind::OneFOneB, 4);
        assert!(!report.all_fit());
        assert_eq!(report.fits, vec![false, true]);
    }

    #[test]
    fn activation_memory_depends_on_stage_depth_under_1f1b() {
        let loads = vec![load(0, 0, 100), load(1, 0, 100)];
        let assignment = StageAssignment::from_counts(&[1, 1]);
        let report = check_stage_memory(&assignment, &loads, u64::MAX, ScheduleKind::OneFOneB, 8);
        // Stage 0 holds 2 in-flight, stage 1 holds 1.
        assert_eq!(report.per_stage_bytes, vec![200, 100]);
    }

    #[test]
    fn gpipe_holds_all_microbatch_activations() {
        let loads = vec![load(0, 0, 100)];
        let assignment = StageAssignment::from_counts(&[1]);
        let report = check_stage_memory(&assignment, &loads, u64::MAX, ScheduleKind::GPipe, 8);
        assert_eq!(report.per_stage_bytes, vec![800]);
    }

    #[test]
    fn all_fit_when_capacity_is_large() {
        let loads = vec![load(0, 100, 10), load(1, 100, 10)];
        let assignment = StageAssignment::from_counts(&[1, 1]);
        let report = check_stage_memory(&assignment, &loads, 1 << 40, ScheduleKind::OneFOneB, 4);
        assert!(report.all_fit());
    }

    #[test]
    fn zero_capacity_fits_nothing() {
        let loads = vec![load(0, 100, 10)];
        let assignment = StageAssignment::from_counts(&[1]);
        let report = check_stage_memory(&assignment, &loads, 0, ScheduleKind::OneFOneB, 1);
        assert!(!report.all_fit());
    }
}
