//! Workload re-packing onto fewer workers (paper §3.4, Algorithm 2).
//!
//! As dynamism shrinks the total workload (pruning, freezing, early exit),
//! DynMo consolidates layers onto fewer GPUs with a first-fit pass over
//! worker pairs, subject to the per-GPU memory budget, and releases the
//! emptied GPUs to the job manager.  Re-packing is scheduled at the end of a
//! training iteration (on the existing synchronization barrier) and is
//! infrequent compared to rebalancing.
//!
//! Algorithm 2 decides *how many* workers the workload needs: [`plan_repack`]
//! returns the workers that keep layers and those it frees.  Its
//! pairwise merges can interleave stages (a worker may take a layer from a
//! distant predecessor), which no pipeline can run, so the layers are not
//! placed here: the rebalance controller re-balances them onto the kept
//! worker count (a contiguous layout), and
//! [`MigrationPlan`](crate::migration::MigrationPlan) prices the moves
//! from the old layout to that one.
//!
//! Algorithm 2's `MAX_MEM` is the memory capacity the rebalance controller
//! is handed, filled to at most 90% per destination.  Its
//! `target_num_workers` (the paper lets the user pick any target, unlike
//! PipeTransformer's divide-by-two) is fixed at 2, the value every figure
//! runs.

use dynmo_pipeline::{LayerLoad, StageAssignment};
use serde::{Deserialize, Serialize};

/// Re-packing never consolidates below this many active workers
/// (`target_num_workers` in Algorithm 2).
pub(crate) const TARGET_WORKERS: usize = 2;

/// A destination worker is filled to at most this fraction of the memory
/// budget.
const UTILIZATION_CAP: f64 = 0.9;

/// The outcome of a re-packing decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepackPlan {
    /// Workers that still hold layers after re-packing.
    pub active_workers: Vec<usize>,
    /// Workers freed by this plan (to be released to the job manager).
    pub released_workers: Vec<usize>,
    /// Per-worker memory usage after re-packing, in bytes.
    pub memory_after: Vec<u64>,
}

/// Run Algorithm 2 (first-fit pairwise consolidation) over the current
/// layout.
///
/// * `assignment` — the current layout.
/// * `loads` — profiled per-layer loads (for memory accounting).
/// * `inflight` — in-flight micro-batches per stage (activation memory).
/// * `max_memory` — per-worker memory budget in bytes (`MAX_MEM`).
pub fn plan_repack(
    assignment: &StageAssignment,
    loads: &[LayerLoad],
    inflight: &[usize],
    max_memory: u64,
) -> RepackPlan {
    let num_stages = assignment.num_stages();
    assert_eq!(inflight.len(), num_stages, "one inflight count per stage");
    assert_eq!(
        loads.len(),
        assignment.num_layers(),
        "one load per assigned layer"
    );
    let budget = (max_memory as f64 * UTILIZATION_CAP) as u64;

    // Current per-worker memory usage.
    let mut mem_usage: Vec<u64> = assignment
        .ranges()
        .zip(inflight)
        .map(|(layers, &inflight)| {
            loads[layers]
                .iter()
                .map(|load| load.static_bytes + load.activation_bytes * inflight as u64)
                .sum()
        })
        .collect();
    let held: Vec<bool> = assignment.counts().iter().map(|&c| c > 0).collect();
    let mut active = held.clone();

    // Algorithm 2: for each pair (src, dst) with src < dst, if the combined
    // usage fits and we are still above the target, move everything from
    // src to dst and deactivate src.
    for src in 0..num_stages {
        for dst in (src + 1)..num_stages {
            if !active[src] || !active[dst] {
                continue;
            }
            let active_count = active.iter().filter(|&&a| a).count();
            if active_count <= TARGET_WORKERS {
                break;
            }
            if mem_usage[src] + mem_usage[dst] <= budget {
                mem_usage[dst] += mem_usage[src];
                mem_usage[src] = 0;
                active[src] = false;
            }
        }
    }

    RepackPlan {
        active_workers: (0..num_stages).filter(|&s| active[s]).collect(),
        released_workers: (0..num_stages).filter(|&s| held[s] && !active[s]).collect(),
        memory_after: mem_usage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(id: usize, static_bytes: u64) -> LayerLoad {
        LayerLoad {
            layer_id: id,
            fwd_time: 1.0,
            bwd_time: 2.0,
            param_count: 100,
            static_bytes,
            activation_bytes: 0,
            migration_bytes: static_bytes,
        }
    }

    fn simple_case(
        per_layer_bytes: u64,
        layers_per_stage: usize,
        stages: usize,
    ) -> (StageAssignment, Vec<LayerLoad>) {
        let num_layers = layers_per_stage * stages;
        let assignment = StageAssignment::uniform(num_layers, stages);
        let loads: Vec<LayerLoad> = (0..num_layers).map(|i| load(i, per_layer_bytes)).collect();
        (assignment, loads)
    }

    #[test]
    fn repack_consolidates_when_memory_allows() {
        // 4 stages × 2 layers × 100 bytes; budget 1000 × 0.9 = 900 ⇒ three
        // stages' worth fits on one worker, but re-packing stops at 2.
        let (assignment, loads) = simple_case(100, 2, 4);
        let plan = plan_repack(&assignment, &loads, &[1; 4], 1_000);
        assert_eq!(plan.active_workers, vec![2, 3]);
        assert_eq!(plan.released_workers, vec![0, 1]);
        // Algorithm 2's pairwise first-fit cascades: stage 0 merges into 1,
        // then 1 (now 4 layers) into 2, which ends up holding 6 layers.
        assert_eq!(plan.memory_after, vec![0, 0, 600, 200]);
    }

    #[test]
    fn repack_respects_the_memory_budget() {
        // Each stage holds 400 bytes; budget 900 × 0.9 = 810 ⇒ only pairs
        // can merge (400+400=800 ≤ 810, but 1200 > 810), so six stages
        // stop at three, above the target of 2.
        let (assignment, loads) = simple_case(200, 2, 6);
        let plan = plan_repack(&assignment, &loads, &[1; 6], 900);
        assert_eq!(plan.active_workers, vec![1, 3, 5]);
        for &mem in &plan.memory_after {
            assert!(mem <= 810);
        }
        // At 440 bytes a stage, a pair (880) fits the full budget of 900
        // but not its usable 810, so nothing merges; at a budget of 978
        // (usable 880) the pairs merge.
        let (assignment, loads) = simple_case(220, 2, 4);
        let plan = plan_repack(&assignment, &loads, &[1; 4], 900);
        assert!(plan.released_workers.is_empty());
        let plan = plan_repack(&assignment, &loads, &[1; 4], 978);
        assert_eq!(plan.released_workers, vec![0, 2]);
    }

    #[test]
    fn repack_honors_the_target_worker_count() {
        let (assignment, loads) = simple_case(10, 2, 8);
        let plan = plan_repack(&assignment, &loads, &[1; 8], u64::MAX / 4);
        assert_eq!(plan.active_workers.len(), TARGET_WORKERS);
        assert_eq!(plan.released_workers.len(), 8 - TARGET_WORKERS);
    }

    #[test]
    fn repack_is_a_no_op_when_nothing_fits_together() {
        let (assignment, loads) = simple_case(800, 2, 4);
        let plan = plan_repack(&assignment, &loads, &[1; 4], 1_000);
        assert!(plan.released_workers.is_empty());
        assert_eq!(plan.active_workers, vec![0, 1, 2, 3]);
        assert_eq!(plan.memory_after, vec![1_600; 4]);
    }

    #[test]
    fn a_first_fit_merge_may_skip_a_worker() {
        // Three one-layer stages of 60, 50 and 30 bytes under a usable 90:
        // stage 0 does not fit with stage 1 but does with stage 2, so
        // Algorithm 2 frees worker 0 and keeps 1 and 2 (a placement no
        // pipeline could run, which is why the controller re-balances onto
        // the kept worker count instead of placing layers here).
        let assignment = StageAssignment::uniform(3, 3);
        let loads = vec![load(0, 60), load(1, 50), load(2, 30)];
        let plan = plan_repack(&assignment, &loads, &[1; 3], 100);
        assert_eq!(plan.active_workers, vec![1, 2]);
        assert_eq!(plan.released_workers, vec![0]);
        assert_eq!(plan.memory_after, vec![0, 50, 90]);
    }

    #[test]
    fn activation_memory_counts_against_the_budget() {
        // Static memory alone would allow merging, but activations (scaled
        // by in-flight micro-batches) push the pair over budget.
        let assignment = StageAssignment::uniform(6, 3);
        let loads: Vec<LayerLoad> = (0..6)
            .map(|i| LayerLoad {
                layer_id: i,
                fwd_time: 1.0,
                bwd_time: 2.0,
                param_count: 1,
                static_bytes: 100,
                activation_bytes: 200,
                migration_bytes: 100,
            })
            .collect();
        // Budget 1500 × 0.9 = 1350.  With 2 in-flight: each stage =
        // 2·(100 + 400) = 1000, pair = 2000 > 1350 ⇒ no merge.
        let plan = plan_repack(&assignment, &loads, &[2, 2, 2], 1_500);
        assert!(plan.released_workers.is_empty());
        // With 1 in-flight: each stage = 600, pair = 1200 ≤ 1350 ⇒ merge.
        let plan = plan_repack(&assignment, &loads, &[1, 1, 1], 1_500);
        assert!(!plan.released_workers.is_empty());
    }

    #[test]
    fn already_empty_stages_are_not_reported_as_released() {
        // Stage 3 is already empty before re-packing; releasing it again
        // would double-free it at the job manager.
        let assignment = StageAssignment::from_counts(&[2, 2, 2, 0]);
        let loads: Vec<LayerLoad> = (0..6).map(|i| load(i, 10)).collect();
        let plan = plan_repack(&assignment, &loads, &[1; 4], 1_000_000);
        assert_eq!(plan.released_workers, vec![0]);
    }

    #[test]
    #[should_panic(expected = "one inflight count per stage")]
    fn inflight_length_must_match_stages() {
        let (assignment, loads) = simple_case(10, 1, 4);
        let _ = plan_repack(&assignment, &loads, &[1; 2], 100);
    }
}
