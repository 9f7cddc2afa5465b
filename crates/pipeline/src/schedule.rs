//! Micro-batch schedules for pipeline parallelism.
//!
//! The paper's experiments use Megatron-style pipeline schedules (its
//! Figure 1 uses the "almost zero-bubble" scheme as the best-known
//! baseline).  Four schedules are implemented, spanning that space.  With
//! `p` stages, `m` micro-batches, per-micro-batch forward time `f` and
//! backward time `b` on a balanced pipeline, their inherent bubbles are:
//!
//! * **GPipe** — all forwards, then all backwards; bubble time
//!   `(p−1)·(f+b)` and every forward activation is held until its backward.
//! * **1F1B** (PipeDream-flush / Megatron default) — a warm-up of `p−s−1`
//!   forwards on stage `s` followed by alternating forward/backward; the
//!   same `(p−1)·(f+b)` bubble as GPipe but with at most `p−s` activations
//!   in flight.
//! * **Interleaved 1F1B** ([`ScheduleKind::Interleaved1F1B`], Megatron's
//!   `--num-layers-per-virtual-pipeline-stage` scheme) — each worker hosts
//!   `v` model chunks ("virtual stages"), so the pipeline ramps up in
//!   per-chunk steps of `(f+b)/v` and the bubble shrinks to
//!   `(p−1)·(f+b)/v`, at the cost of `v×` more activation ramp-up and more
//!   frequent boundary traffic.
//! * **ZB-H1** ([`ScheduleKind::ZeroBubbleH1`], the memory-neutral schedule
//!   of the zero-bubble pipeline-parallelism family) — the backward pass is
//!   split into an input-gradient half ([`OpKind::BackwardInput`], on the
//!   critical path to the previous stage) and a weight-gradient half
//!   ([`OpKind::BackwardWeight`], local fill work).  The gradient chain
//!   propagates at `b/2` per stage instead of `b`, shrinking the balanced
//!   bubble from `(p−1)·(f+b)` to `(p−1)·(f+b/2)` without holding more
//!   activations than 1F1B.
//!
//! What matters for DynMo is the *extra* bubble created when per-stage
//! compute times diverge, which all four schedules expose identically
//! through the simulator; the schedule choice sets the baseline each
//! balancer is measured against.

use serde::{Deserialize, Serialize};

/// Which pipeline schedule to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScheduleKind {
    /// All forward micro-batches, then all backward micro-batches.
    GPipe,
    /// One-forward-one-backward (Megatron's default non-interleaved
    /// schedule).
    OneFOneB,
    /// Megatron's interleaved 1F1B: every worker hosts `virtual_stages`
    /// model chunks, shrinking the warm-up bubble by that factor.
    Interleaved1F1B {
        /// Model chunks per worker (`v`); `1` degenerates to [`OneFOneB`].
        ///
        /// [`OneFOneB`]: ScheduleKind::OneFOneB
        virtual_stages: usize,
    },
    /// ZB-H1-style zero-bubble schedule: backward split into input-gradient
    /// and weight-gradient halves, with the weight half used as fill work.
    ZeroBubbleH1,
}

impl ScheduleKind {
    /// The four schedule family members at their canonical settings, in
    /// bubble-size order (largest first) — the sweep grid and figure bins
    /// iterate this list.
    pub const ALL: [ScheduleKind; 4] = [
        ScheduleKind::GPipe,
        ScheduleKind::OneFOneB,
        ScheduleKind::Interleaved1F1B { virtual_stages: 2 },
        ScheduleKind::ZeroBubbleH1,
    ];

    /// Number of model chunks each worker hosts (1 for everything except
    /// the interleaved schedule).
    pub fn virtual_stages(&self) -> usize {
        match self {
            ScheduleKind::Interleaved1F1B { virtual_stages } => (*virtual_stages).max(1),
            _ => 1,
        }
    }

    /// The number of chunks the schedule actually uses for a pipeline of
    /// `num_stages` over `num_microbatches`: 1 whenever the interleaved
    /// schedule degrades to plain 1F1B (a single chunk, or a micro-batch
    /// count the chunk rotation cannot divide evenly over the ranks).
    pub fn effective_virtual_stages(&self, num_stages: usize, num_microbatches: usize) -> usize {
        let v = self.virtual_stages();
        if v > 1 && num_microbatches.is_multiple_of(num_stages) {
            v
        } else {
            1
        }
    }

    /// Number of warm-up forward ops (micro-batch *chunks* under the
    /// interleaved schedule) the worker at `stage` runs before its first
    /// backward.  This is the single source of the ramp-up depth: both
    /// [`worker_op_order`] and the memory model's in-flight activation
    /// count derive from it, so the two cannot drift apart.
    pub fn warmup_ops(&self, stage: usize, num_stages: usize, num_microbatches: usize) -> usize {
        let m = num_microbatches;
        let p = num_stages;
        match self {
            // GPipe runs every forward before any backward.
            ScheduleKind::GPipe => m,
            ScheduleKind::OneFOneB | ScheduleKind::ZeroBubbleH1 => (p - stage - 1).min(m),
            ScheduleKind::Interleaved1F1B { .. } => {
                let v = self.effective_virtual_stages(p, m);
                if v == 1 {
                    return (p - stage - 1).min(m);
                }
                // Megatron's warm-up: two extra slots per stage of depth
                // plus a full round per extra chunk; when m == p there is
                // no steady state and the schedule degenerates to
                // all-forwards-then-all-backwards (Megatron's
                // `num_microbatches == p` special case).
                if m == p {
                    m * v
                } else {
                    ((p - stage - 1) * 2 + (v - 1) * p).min(m * v)
                }
            }
        }
    }

    /// Whether the backward pass is split into input-gradient and
    /// weight-gradient ops.
    pub fn splits_backward(&self) -> bool {
        matches!(self, ScheduleKind::ZeroBubbleH1)
    }

    /// Human-readable label used in tables and sweep artifacts.
    pub fn label(&self) -> String {
        match self {
            ScheduleKind::GPipe => "GPipe".to_string(),
            ScheduleKind::OneFOneB => "1F1B".to_string(),
            ScheduleKind::Interleaved1F1B { virtual_stages } => {
                format!("Interleaved 1F1B (v={virtual_stages})")
            }
            ScheduleKind::ZeroBubbleH1 => "ZB-H1".to_string(),
        }
    }
}

/// The kind of work item a worker executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Forward pass of one micro-batch through the worker's stage (chunk).
    Forward,
    /// Full (fused) backward pass of one micro-batch.
    Backward,
    /// Input-gradient half of a split backward: computes the gradient
    /// handed to the previous stage, so it sits on the pipeline's critical
    /// path.
    BackwardInput,
    /// Weight-gradient half of a split backward: purely local work with no
    /// cross-stage consumer, schedulable into bubbles.
    BackwardWeight,
}

/// One work item in a worker's local order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Op {
    /// Forward, backward, or one half of a split backward.
    pub kind: OpKind,
    /// Micro-batch index.
    pub microbatch: usize,
    /// Model-chunk index on the worker (always 0 unless the schedule is
    /// interleaved; chunk `c` of worker `w` is virtual stage `c·p + w`).
    pub chunk: usize,
}

impl Op {
    fn new(kind: OpKind, microbatch: usize, chunk: usize) -> Self {
        Op {
            kind,
            microbatch,
            chunk,
        }
    }

    /// Compact label used for trace/timeline exports: `F3` (forward of
    /// micro-batch 3), `B3` (fused backward), `Bi3`/`Bw3` (split backward
    /// halves), with a `.c<chunk>` suffix for interleaved model chunks
    /// beyond the first (e.g. `F3.c1`).
    pub fn trace_label(&self) -> String {
        let kind = match self.kind {
            OpKind::Forward => "F",
            OpKind::Backward => "B",
            OpKind::BackwardInput => "Bi",
            OpKind::BackwardWeight => "Bw",
        };
        if self.chunk == 0 {
            format!("{kind}{}", self.microbatch)
        } else {
            format!("{kind}{}.c{}", self.microbatch, self.chunk)
        }
    }
}

/// Map position `i` of a rank's forward (or backward) sequence under the
/// interleaved schedule to its `(chunk, microbatch)`.
///
/// Megatron orders the `m·v` micro-batch-chunks in groups of `p`
/// micro-batches: within a group the rank runs chunk 0 for all `p`
/// micro-batches, then chunk 1, and so on; backwards visit chunks in
/// reverse.  Requires `p | m` (enforced by the caller's fallback).
fn interleaved_position(
    i: usize,
    num_stages: usize,
    v: usize,
    m: usize,
    forward: bool,
) -> (usize, usize) {
    debug_assert!(m.is_multiple_of(num_stages));
    let full_group = num_stages * v;
    let pos = i % full_group;
    let chunk = pos / num_stages;
    let microbatch = (i / full_group) * num_stages + pos % num_stages;
    let chunk = if forward { chunk } else { v - 1 - chunk };
    (chunk, microbatch)
}

/// The order in which the worker at `stage` (of `num_stages`) executes its
/// ops over `num_microbatches` micro-batches.
///
/// For [`ScheduleKind::Interleaved1F1B`] the worker runs `v` forwards and
/// `v` backwards per micro-batch (one per chunk); for
/// [`ScheduleKind::ZeroBubbleH1`] every backward is two ops
/// ([`OpKind::BackwardInput`] then [`OpKind::BackwardWeight`]); otherwise
/// each micro-batch contributes one forward and one fused backward.
pub fn worker_op_order(
    kind: ScheduleKind,
    stage: usize,
    num_stages: usize,
    num_microbatches: usize,
) -> Vec<Op> {
    assert!(stage < num_stages, "stage {stage} out of {num_stages}");
    let m = num_microbatches;
    let p = num_stages;
    let warmup = kind.warmup_ops(stage, p, m);
    match kind {
        ScheduleKind::GPipe => {
            let mut ops = Vec::with_capacity(2 * m);
            for mb in 0..m {
                ops.push(Op::new(OpKind::Forward, mb, 0));
            }
            // Backwards in reverse order (LIFO, freeing the most recent
            // activations first, as GPipe does).
            for mb in (0..m).rev() {
                ops.push(Op::new(OpKind::Backward, mb, 0));
            }
            ops
        }
        ScheduleKind::OneFOneB => one_f_one_b_order(warmup, m),
        ScheduleKind::Interleaved1F1B { .. } => {
            let v = kind.effective_virtual_stages(p, m);
            if v == 1 {
                // One chunk per worker is exactly the non-interleaved
                // schedule.  Megatron also requires the micro-batch count
                // to divide evenly over the ranks (its chunk rotation
                // deadlocks otherwise — the warm-up formula assumes full
                // groups); rather than reject such shapes, which DynMo's
                // re-packing can create mid-run by shrinking the stage
                // count, degrade gracefully to 1F1B.
                return one_f_one_b_order(warmup, m);
            }
            let total = m * v;
            let mut ops = Vec::with_capacity(2 * total);
            for i in 0..warmup {
                let (chunk, mb) = interleaved_position(i, p, v, m, true);
                ops.push(Op::new(OpKind::Forward, mb, chunk));
            }
            for i in 0..(total - warmup) {
                let (chunk, mb) = interleaved_position(warmup + i, p, v, m, true);
                ops.push(Op::new(OpKind::Forward, mb, chunk));
                let (chunk, mb) = interleaved_position(i, p, v, m, false);
                ops.push(Op::new(OpKind::Backward, mb, chunk));
            }
            for i in (total - warmup)..total {
                let (chunk, mb) = interleaved_position(i, p, v, m, false);
                ops.push(Op::new(OpKind::Backward, mb, chunk));
            }
            ops
        }
        ScheduleKind::ZeroBubbleH1 => {
            // 1F1B's warm-up and flush, with every backward split into the
            // critical-path input-gradient half and a weight-gradient half
            // that immediately reuses the still-hot activations (keeping
            // the in-flight activation count at 1F1B's level).
            let mut ops = Vec::with_capacity(3 * m);
            for mb in 0..warmup {
                ops.push(Op::new(OpKind::Forward, mb, 0));
            }
            for i in 0..(m - warmup) {
                ops.push(Op::new(OpKind::Forward, warmup + i, 0));
                ops.push(Op::new(OpKind::BackwardInput, i, 0));
                ops.push(Op::new(OpKind::BackwardWeight, i, 0));
            }
            for mb in (m - warmup)..m {
                ops.push(Op::new(OpKind::BackwardInput, mb, 0));
                ops.push(Op::new(OpKind::BackwardWeight, mb, 0));
            }
            ops
        }
    }
}

/// Non-interleaved 1F1B: `warmup` forwards, steady alternation, cool-down
/// backwards.
fn one_f_one_b_order(warmup: usize, m: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(2 * m);
    for mb in 0..warmup {
        ops.push(Op::new(OpKind::Forward, mb, 0));
    }
    // Steady state: 1F1B pairs.
    for i in 0..(m - warmup) {
        ops.push(Op::new(OpKind::Forward, warmup + i, 0));
        ops.push(Op::new(OpKind::Backward, i, 0));
    }
    // Cool-down: remaining backwards.
    for mb in (m - warmup)..m {
        ops.push(Op::new(OpKind::Backward, mb, 0));
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_kinds(ops: &[Op]) -> (usize, usize) {
        let fwd = ops.iter().filter(|o| o.kind == OpKind::Forward).count();
        let bwd = ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Backward | OpKind::BackwardInput))
            .count();
        (fwd, bwd)
    }

    #[test]
    fn every_schedule_runs_each_microbatch_once_forward_and_once_backward() {
        for kind in [ScheduleKind::GPipe, ScheduleKind::OneFOneB] {
            for num_stages in [1, 2, 4, 8] {
                for m in [1, 2, 4, 8, 32] {
                    for stage in 0..num_stages {
                        let ops = worker_op_order(kind, stage, num_stages, m);
                        let (fwd, bwd) = count_kinds(&ops);
                        assert_eq!(fwd, m, "{kind:?} stage {stage}/{num_stages} m={m}");
                        assert_eq!(bwd, m);
                        // Each microbatch appears exactly once per direction.
                        let mut seen_f = vec![false; m];
                        let mut seen_b = vec![false; m];
                        for op in &ops {
                            let seen = match op.kind {
                                OpKind::Forward => &mut seen_f,
                                OpKind::Backward => &mut seen_b,
                                _ => unreachable!("fused schedules never split backward"),
                            };
                            assert!(!seen[op.microbatch]);
                            seen[op.microbatch] = true;
                            assert_eq!(op.chunk, 0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn interleaved_covers_every_microbatch_chunk_pair_once_per_direction() {
        for v in [1, 2, 3, 4] {
            let kind = ScheduleKind::Interleaved1F1B { virtual_stages: v };
            for num_stages in [1usize, 2, 4] {
                for m in [1usize, 2, 3, 4, 8, 9] {
                    let effective = kind.effective_virtual_stages(num_stages, m);
                    for stage in 0..num_stages {
                        let ops = worker_op_order(kind, stage, num_stages, m);
                        assert_eq!(ops.len(), 2 * m * effective, "v={v} p={num_stages} m={m}");
                        let mut seen_f = vec![vec![false; m]; effective];
                        let mut seen_b = vec![vec![false; m]; effective];
                        for op in &ops {
                            let seen = match op.kind {
                                OpKind::Forward => &mut seen_f,
                                OpKind::Backward => &mut seen_b,
                                _ => unreachable!("interleaved never splits backward"),
                            };
                            assert!(!seen[op.chunk][op.microbatch]);
                            seen[op.chunk][op.microbatch] = true;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn interleaved_falls_back_to_1f1b_when_microbatches_do_not_divide() {
        // Megatron rejects m % p != 0; the reproduction degrades to the
        // non-interleaved schedule instead so re-packing to an awkward
        // stage count cannot crash a run.
        let kind = ScheduleKind::Interleaved1F1B { virtual_stages: 2 };
        for stage in 0..4 {
            assert_eq!(
                worker_op_order(kind, stage, 4, 6),
                worker_op_order(ScheduleKind::OneFOneB, stage, 4, 6)
            );
        }
        assert_eq!(kind.effective_virtual_stages(4, 6), 1);
        assert_eq!(kind.effective_virtual_stages(4, 8), 2);
        assert_eq!(kind.effective_virtual_stages(3, 6), 2);
    }

    #[test]
    fn zero_bubble_emits_split_backward_pairs() {
        let p = 4;
        let m = 8;
        for stage in 0..p {
            let ops = worker_op_order(ScheduleKind::ZeroBubbleH1, stage, p, m);
            assert_eq!(ops.len(), 3 * m);
            let inputs: Vec<usize> = ops
                .iter()
                .filter(|o| o.kind == OpKind::BackwardInput)
                .map(|o| o.microbatch)
                .collect();
            let weights: Vec<usize> = ops
                .iter()
                .filter(|o| o.kind == OpKind::BackwardWeight)
                .map(|o| o.microbatch)
                .collect();
            assert_eq!(inputs, (0..m).collect::<Vec<_>>());
            assert_eq!(weights, (0..m).collect::<Vec<_>>());
            // The weight half never precedes its input half.
            for mb in 0..m {
                let bi = ops
                    .iter()
                    .position(|o| o.kind == OpKind::BackwardInput && o.microbatch == mb)
                    .unwrap();
                let bw = ops
                    .iter()
                    .position(|o| o.kind == OpKind::BackwardWeight && o.microbatch == mb)
                    .unwrap();
                assert!(bw > bi);
            }
        }
    }

    #[test]
    fn interleaved_with_one_chunk_is_plain_1f1b() {
        for stage in 0..4 {
            assert_eq!(
                worker_op_order(
                    ScheduleKind::Interleaved1F1B { virtual_stages: 1 },
                    stage,
                    4,
                    8
                ),
                worker_op_order(ScheduleKind::OneFOneB, stage, 4, 8)
            );
        }
    }

    #[test]
    fn interleaved_runs_chunk_zero_first_and_reverses_for_backward() {
        let kind = ScheduleKind::Interleaved1F1B { virtual_stages: 2 };
        let p = 2;
        let ops = worker_op_order(kind, 0, p, 4);
        // First p forwards are chunk 0, next p are chunk 1.
        assert!(ops[..p].iter().all(|o| o.chunk == 0));
        assert!(ops[p..2 * p].iter().all(|o| o.chunk == 1));
        // The first backward touches the last chunk.
        let first_bwd = ops.iter().find(|o| o.kind == OpKind::Backward).unwrap();
        assert_eq!(first_bwd.chunk, 1);
        assert_eq!(first_bwd.microbatch, 0);
    }

    #[test]
    fn schedule_kind_helpers() {
        assert_eq!(ScheduleKind::GPipe.virtual_stages(), 1);
        assert_eq!(
            ScheduleKind::Interleaved1F1B { virtual_stages: 4 }.virtual_stages(),
            4
        );
        assert_eq!(
            ScheduleKind::Interleaved1F1B { virtual_stages: 0 }.virtual_stages(),
            1
        );
        assert!(ScheduleKind::ZeroBubbleH1.splits_backward());
        assert!(!ScheduleKind::OneFOneB.splits_backward());
        assert_eq!(ScheduleKind::ALL.len(), 4);
        let labels: std::collections::HashSet<String> =
            ScheduleKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn gpipe_runs_all_forwards_before_any_backward() {
        let ops = worker_op_order(ScheduleKind::GPipe, 1, 4, 6);
        let first_bwd = ops.iter().position(|o| o.kind == OpKind::Backward).unwrap();
        assert!(ops[..first_bwd].iter().all(|o| o.kind == OpKind::Forward));
        assert_eq!(first_bwd, 6);
    }

    #[test]
    fn one_f_one_b_warmup_depends_on_stage_depth() {
        let p = 4;
        let m = 8;
        // First stage has the longest warm-up (p-1 forwards).
        let ops0 = worker_op_order(ScheduleKind::OneFOneB, 0, p, m);
        let first_bwd0 = ops0
            .iter()
            .position(|o| o.kind == OpKind::Backward)
            .unwrap();
        assert_eq!(first_bwd0, p - 1 + 1); // warmup forwards + 1 steady forward
                                           // Last stage alternates immediately.
        let ops3 = worker_op_order(ScheduleKind::OneFOneB, p - 1, p, m);
        assert_eq!(ops3[0].kind, OpKind::Forward);
        assert_eq!(ops3[1].kind, OpKind::Backward);
        assert_eq!(ops3[0].microbatch, 0);
        assert_eq!(ops3[1].microbatch, 0);
    }

    #[test]
    fn one_f_one_b_backwards_are_in_microbatch_order() {
        let ops = worker_op_order(ScheduleKind::OneFOneB, 1, 4, 8);
        let bwd_order: Vec<usize> = ops
            .iter()
            .filter(|o| o.kind == OpKind::Backward)
            .map(|o| o.microbatch)
            .collect();
        assert_eq!(bwd_order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn warmup_is_capped_by_microbatch_count() {
        // 8 stages but only 2 microbatches: warm-up cannot exceed 2.
        let ops = worker_op_order(ScheduleKind::OneFOneB, 0, 8, 2);
        let (fwd, bwd) = count_kinds(&ops);
        assert_eq!(fwd, 2);
        assert_eq!(bwd, 2);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn stage_out_of_range_panics() {
        let _ = worker_op_order(ScheduleKind::GPipe, 4, 4, 2);
    }
}
