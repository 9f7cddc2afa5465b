//! Simulation of one pipeline-parallel training iteration.
//!
//! Given per-stage compute times (from the profiler / cost model), the
//! simulator replays the chosen micro-batch schedule while honoring:
//!
//! * in-order execution within each worker (the schedule's op order),
//! * activation dependencies between adjacent (virtual) stages on the
//!   forward path, input-gradient dependencies in the reverse direction,
//!   and the local ordering of split-backward halves — each cross-worker
//!   edge paying the α–β cost of the link between the two workers, sized
//!   per boundary from the sending stage's boundary tensor, and
//! * empty stages (workers released by DynMo's re-packing): these are
//!   bypassed entirely — no ops are scheduled on them and their neighbours
//!   exchange tensors over a single direct link, matching the paper's
//!   post-repack topology.
//!
//! An iteration is a dependency DAG whose *shape* depends only on the
//! schedule, the number `q` of non-empty stages and the micro-batch count
//! `m`; a call changes only the values on it, the op durations and the
//! per-boundary α–β weights.  [`PipelineSimulator`] therefore keeps the
//! topology of the last shape it ran, rebuilt only when `q` or `m`
//! changes: its ops in a precomputed topological order, grouped into
//! wavefronts of independent ops, each op with `u32` slots for its
//! predecessors (the previous op on its worker plus at most two producers)
//! tagged with weight slots.  [`PipelineSimulator::simulate_timing`] is
//! one linear max/+ pass over that order: an op starts at the max over
//! its predecessors of `end + weight`.  It yields the makespan and
//! per-worker busy and idle time in a report the simulator owns, and
//! builds no op spans, so a warm call allocates nothing.
//! [`PipelineSimulator::simulate`] runs the same pass and then replays it
//! into per-worker op spans: each span's start is recomputed from the
//! pass's end times through the same helper, so only a caller that reads
//! spans (an enabled telemetry recorder, a test) pays for them.  `max`
//! over the same finite values is order-independent, and every worker's
//! ops still come in chain order (so busy time sums in the same order), so
//! the pass reproduces the legacy rescan loop bit for bit; that loop stays
//! as the oracle, [`PipelineSimulator::simulate_reference`].
//! Forward-only pricing for the serving engine needs no graph at all:
//! [`PipelineSimulator::forward_makespan`] (`&mut self`) is a one-row
//! recurrence over a row the simulator keeps between calls.
//!
//! The output is the iteration makespan plus per-worker busy/idle time — the
//! quantities behind the paper's Figure 1 (idleness), Figure 3 (throughput)
//! and the bubble-ratio claims in §5.1.

use dynmo_model::ModelConfig;

use crate::comm::CommCostModel;
use crate::load::StageLoad;
use crate::metrics::{IterationReport, OpSpan, WorkerTimeline};
use crate::schedule::{worker_op_order, Op, OpKind, ScheduleKind};

/// Simulator for a single pipeline (one data-parallel replica).
#[derive(Debug, Clone)]
pub struct PipelineSimulator {
    comm: CommCostModel,
    schedule: ScheduleKind,
    /// The DAG of the last simulated shape.
    topology: Option<Topology>,
    /// The per-call tables of the last pass, reused across calls.
    scratch: Scratch,
    /// The report [`PipelineSimulator::simulate_timing`] refills.
    report: IterationReport,
    /// Scratch row of [`PipelineSimulator::forward_makespan`], reused
    /// across calls.
    forward_row: Vec<f64>,
}

/// The per-call tables of one pass (slot layouts in [`Topology`]), kept
/// for the span replay and refilled in place by the next call.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The physical stage of each compressed worker: the non-empty stages
    /// in order.
    real: Vec<usize>,
    /// Op duration per duration slot.
    durations: Vec<f64>,
    /// Edge cost per weight slot.
    weights: Vec<f64>,
}

/// One op of a [`Topology`], at its topological position.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The previous op on the worker.
    chain: u32,
    /// `(producer, weight slot)` pairs: the activation, input-gradient or
    /// forward op this one consumes.  An absent predecessor (here or in
    /// `chain`) is the zero end slot past the last op, paired with the zero
    /// weight slot.
    producers: [(u32, u32); 2],
    /// Compressed worker index.
    worker: u32,
    /// The op's kind, micro-batch and chunk (see [`Op`]), stored narrow.
    kind: OpKind,
    microbatch: u32,
    chunk: u32,
}

/// The dependency DAG of one shape `(q, m)` under the simulator's
/// schedule, ops in wavefront order (see [`Topology::build`]).
///
/// Per-call tables index into it: duration slot `4·i + kind as usize`
/// holds the duration of an op of that kind on compressed worker `i`;
/// weight slot 0 is zero, slot `1 + vs` prices the activation edge into
/// virtual stage `vs` and slot `1 + q·v + vs` the input-gradient edge into
/// it (virtual stage of chunk `c` on compressed worker `i` is `c·q + i`).
#[derive(Debug, Clone)]
struct Topology {
    q: usize,
    m: usize,
    /// Model chunks per worker at this shape.
    v: usize,
    nodes: Vec<Node>,
    /// Op count of each compressed worker.
    ops_per_worker: Vec<usize>,
    /// Per-call scratch: each node's end time, then the zero end slot.
    end: Vec<f64>,
}

impl Topology {
    /// Order the ops of every worker's schedule by wavefront: each sweep
    /// over the workers places the next op of every worker whose
    /// producers were placed by an earlier sweep, so the ops of one sweep
    /// are independent.  A sweep that places nothing means the schedule
    /// deadlocks.
    fn build(schedule: ScheduleKind, q: usize, m: usize) -> Self {
        const UNPLACED: u32 = u32::MAX;
        let v = schedule.effective_virtual_stages(q, m);
        let total_vs = q * v;
        let orders: Vec<Vec<Op>> = (0..q).map(|i| worker_op_order(schedule, i, q, m)).collect();
        let ops_per_worker: Vec<usize> = orders.iter().map(Vec::len).collect();
        let n: usize = ops_per_worker.iter().sum();
        let absent = (u32::try_from(n).expect("op count fits in u32"), 0);

        // Position of the forward, and of the input-gradient producer
        // (fused backward or BackwardInput), per virtual stage and
        // micro-batch.
        let mut fwd_at = vec![UNPLACED; total_vs * m];
        let mut grad_at = vec![UNPLACED; total_vs * m];
        let mut last = vec![absent.0; q];
        let mut cursor = vec![0usize; q];
        let mut nodes: Vec<Node> = Vec::with_capacity(n);
        while nodes.len() < n {
            let placed = nodes.len();
            for (i, order) in orders.iter().enumerate() {
                let Some(&op) = order.get(cursor[i]) else {
                    continue;
                };
                let vs = op.chunk * q + i;
                let at = vs * m + op.microbatch;
                let producers = match op.kind {
                    // Activation from the previous virtual stage.
                    OpKind::Forward if vs > 0 => [(fwd_at[at - m], (1 + vs) as u32), absent],
                    OpKind::Forward => [absent, absent],
                    // The worker's own forward of this micro-batch and the
                    // input gradient from the next virtual stage.
                    OpKind::Backward | OpKind::BackwardInput => [
                        (fwd_at[at], 0),
                        if vs + 1 < total_vs {
                            (grad_at[at + m], (1 + total_vs + vs) as u32)
                        } else {
                            absent
                        },
                    ],
                    // Local: only after the matching input-gradient op.
                    OpKind::BackwardWeight => [(grad_at[at], 0), absent],
                };
                if producers
                    .iter()
                    .any(|&(pred, _)| pred as usize >= placed && pred != absent.0)
                {
                    continue;
                }
                let id = nodes.len() as u32;
                match op.kind {
                    OpKind::Forward => fwd_at[at] = id,
                    OpKind::Backward | OpKind::BackwardInput => grad_at[at] = id,
                    OpKind::BackwardWeight => {}
                }
                nodes.push(Node {
                    chain: last[i],
                    producers,
                    worker: i as u32,
                    kind: op.kind,
                    microbatch: op.microbatch as u32,
                    chunk: op.chunk as u32,
                });
                last[i] = id;
                cursor[i] += 1;
            }
            assert!(
                nodes.len() > placed,
                "pipeline schedule deadlocked ({placed} of {n} ops scheduled)"
            );
        }
        Topology {
            q,
            m,
            v,
            nodes,
            ops_per_worker,
            end: vec![0.0; n + 1],
        }
    }
}

/// When `node` starts: the max over every predecessor of `end + weight`,
/// from a floor of zero.  The previous op on the worker has weight zero,
/// and every end (the zero slot too) is at least +0.0, so its end stands
/// for both its term and the floor.  The pass and the span replay both
/// price starts here, so their spans agree bit for bit.
#[inline]
fn start_of(node: &Node, end: &[f64], weights: &[f64]) -> f64 {
    let [a, b] = node
        .producers
        .map(|(pred, slot)| end[pred as usize] + weights[slot as usize]);
    end[node.chain as usize].max(a.max(b))
}

impl PipelineSimulator {
    /// Create a simulator with the given communication model and schedule.
    pub fn new(comm: CommCostModel, schedule: ScheduleKind) -> Self {
        PipelineSimulator {
            comm,
            schedule,
            topology: None,
            scratch: Scratch::default(),
            report: IterationReport::default(),
            forward_row: Vec::new(),
        }
    }

    /// The schedule being simulated.
    pub fn schedule(&self) -> ScheduleKind {
        self.schedule
    }

    /// Simulate one iteration of `num_microbatches` micro-batches over the
    /// given per-stage loads and return the timing report, with every
    /// worker's op spans.
    pub fn simulate(
        &mut self,
        model: &ModelConfig,
        stage_loads: &[StageLoad],
        num_microbatches: usize,
    ) -> IterationReport {
        self.pass(model, stage_loads, num_microbatches);
        let mut report = self.report.clone();
        report.timelines = self.replay(stage_loads.len());
        report
    }

    /// [`PipelineSimulator::simulate`] without the op spans: the same
    /// makespan, busy, idle and stage-time bits, in a report the simulator
    /// owns and refills on every call, whose `timelines` are empty.  After
    /// one call at a shape, later calls at that shape allocate nothing.
    pub fn simulate_timing(
        &mut self,
        model: &ModelConfig,
        stage_loads: &[StageLoad],
        num_microbatches: usize,
    ) -> &IterationReport {
        self.pass(model, stage_loads, num_microbatches);
        &self.report
    }

    /// The max/+ pass: refill the scratch tables, the topology's end times
    /// and `self.report`, whose timelines stay empty.
    fn pass(&mut self, model: &ModelConfig, stage_loads: &[StageLoad], m: usize) {
        let p = stage_loads.len();
        assert!(p > 0, "at least one pipeline stage is required");
        assert!(m > 0, "at least one micro-batch is required");

        // Released (empty) stages take no part in the schedule: the
        // pipeline is compressed to its non-empty stages and each skipped
        // boundary becomes one direct link between the real neighbours.
        let Scratch {
            real,
            durations,
            weights,
        } = &mut self.scratch;
        real.clear();
        real.extend((0..p).filter(|&s| !stage_loads[s].is_empty()));
        let q = real.len();
        let report = &mut self.report;
        // A released worker keeps the busy time of an empty timeline.
        report.per_worker_busy.clear();
        report
            .per_worker_busy
            .resize(p, WorkerTimeline::default().busy_time());
        let mut makespan = 0.0f64;
        if q > 0 {
            if self.topology.as_ref().is_none_or(|t| (t.q, t.m) != (q, m)) {
                self.topology = Some(Topology::build(self.schedule, q, m));
            }
            let topology = self.topology.as_mut().expect("topology built above");
            let v = topology.v;
            let total_vs = q * v;

            // Interleaving splits a worker's layers evenly across its `v`
            // chunks, so each chunk costs `1/v` of the stage.
            let kinds: &[OpKind] = if self.schedule.splits_backward() {
                &[
                    OpKind::Forward,
                    OpKind::BackwardInput,
                    OpKind::BackwardWeight,
                ]
            } else {
                &[OpKind::Forward, OpKind::Backward]
            };
            durations.clear();
            durations.resize(4 * q, 0.0);
            for (i, &stage) in real.iter().enumerate() {
                let load = &stage_loads[stage];
                for &kind in kinds {
                    let duration = match kind {
                        OpKind::Forward => load.fwd_time,
                        OpKind::Backward => load.bwd_time,
                        OpKind::BackwardInput => load.bwd_input_time(),
                        OpKind::BackwardWeight => load.bwd_weight_time(),
                    } / v as f64;
                    assert!(
                        duration.is_finite() && duration >= 0.0,
                        "op duration must be finite and non-negative"
                    );
                    durations[4 * i + kind as usize] = duration;
                }
            }

            // One α–β evaluation per boundary, not per micro-batch.  The
            // input-gradient edge into `vs` crosses the boundary whose
            // forward tensor `vs` produced.
            weights.clear();
            weights.resize(1 + 2 * total_vs, 0.0);
            for vs in 0..total_vs {
                let i = vs % q;
                if vs > 0 {
                    let prev = (vs - 1) % q;
                    if prev != i {
                        weights[1 + vs] = self.comm.boundary_transfer_time(
                            model,
                            &stage_loads[real[prev]],
                            real[prev],
                            real[i],
                        );
                    }
                }
                if vs + 1 < total_vs {
                    let next = (vs + 1) % q;
                    if next != i {
                        weights[1 + total_vs + vs] = self.comm.gradient_transfer_time(
                            model,
                            &stage_loads[real[i]],
                            real[next],
                            real[i],
                        );
                    }
                }
            }

            let end = &mut topology.end;
            for (k, node) in topology.nodes.iter().enumerate() {
                let start = start_of(node, end, weights);
                let stop = start + durations[4 * node.worker as usize + node.kind as usize];
                end[k] = stop;
                makespan = makespan.max(stop);
                // Every worker's ops come in chain order, so busy time
                // sums in the order `WorkerTimeline::busy_time` does.
                report.per_worker_busy[real[node.worker as usize]] += stop - start;
            }
        }

        report.makespan = makespan;
        report.per_worker_idle.clear();
        report
            .per_worker_idle
            .extend(report.per_worker_busy.iter().map(|b| makespan - b));
        report.stage_compute_times.clear();
        report
            .stage_compute_times
            .extend(stage_loads.iter().map(StageLoad::total_time));
    }

    /// Rebuild the last pass's op spans over `p` workers, a released
    /// worker's empty.  A span's end is the pass's, and its start is
    /// recomputed through the pass's own [`start_of`], so both are the
    /// pass's bits.
    fn replay(&self, p: usize) -> Vec<WorkerTimeline> {
        let mut timelines = vec![WorkerTimeline::default(); p];
        let real = &self.scratch.real;
        let Some(topology) = self.topology.as_ref().filter(|_| !real.is_empty()) else {
            return timelines;
        };
        for (i, &count) in topology.ops_per_worker.iter().enumerate() {
            timelines[real[i]].spans.reserve_exact(count);
        }
        let end = &topology.end;
        for (node, &stop) in topology.nodes.iter().zip(end) {
            timelines[real[node.worker as usize]].spans.push(OpSpan {
                op: Op {
                    kind: node.kind,
                    microbatch: node.microbatch as usize,
                    chunk: node.chunk as usize,
                },
                start: start_of(node, end, &self.scratch.weights),
                end: stop,
            });
        }
        timelines
    }

    /// The makespan of one *forward-only* pass of `num_microbatches`
    /// micro-batches — the inference iteration a serving engine runs: every
    /// stage executes its forward for each micro-batch in order,
    /// activations flow downstream paying the per-boundary α–β cost, and
    /// no backward ops run (so `StageLoad::bwd_time` is ignored).  Released
    /// (empty) stages are bypassed exactly as in
    /// [`PipelineSimulator::simulate`], and the schedule kind is irrelevant
    /// (all training schedules order forwards identically).
    ///
    /// No graph is built: micro-batch `mb` starts on stage `s` at
    /// `max(end[s][mb−1], end[s−1][mb] + w[s])`, kept in one row that the
    /// simulator owns and reuses across calls.
    pub fn forward_makespan(
        &mut self,
        model: &ModelConfig,
        stage_loads: &[StageLoad],
        num_microbatches: usize,
    ) -> f64 {
        assert!(
            !stage_loads.is_empty(),
            "at least one pipeline stage is required"
        );
        assert!(num_microbatches > 0, "at least one micro-batch is required");
        // `row[mb]`: end of micro-batch `mb` on the previous real stage,
        // overwritten in place with the current stage's.
        let row = &mut self.forward_row;
        row.clear();
        row.resize(num_microbatches, 0.0);
        let mut makespan = 0.0f64;
        let mut prev: Option<usize> = None;
        for (stage, load) in stage_loads.iter().enumerate() {
            if load.is_empty() {
                continue;
            }
            assert!(
                load.fwd_time.is_finite() && load.fwd_time >= 0.0,
                "op duration must be finite and non-negative"
            );
            let weight = prev.map(|from| {
                self.comm
                    .boundary_transfer_time(model, &stage_loads[from], from, stage)
            });
            let mut last = 0.0f64;
            for end in row.iter_mut() {
                let start = match weight {
                    Some(weight) => last.max(*end + weight),
                    None => last,
                };
                last = start + load.fwd_time;
                *end = last;
            }
            // Ends grow along a worker's chain, so its last is its max.
            makespan = makespan.max(last);
            prev = Some(stage);
        }
        makespan
    }

    /// The legacy busy-poll simulator, kept as a bit-for-bit oracle for
    /// [`PipelineSimulator::simulate`] (see `tests/pipeline_schedules.rs`): it rescans
    /// every worker's op queue after each scheduling round — `O(p·ops)`
    /// per sweep — with NaN sentinels for unmet dependencies.  Supports the
    /// schedules the legacy loop knew ([`ScheduleKind::GPipe`] and
    /// [`ScheduleKind::OneFOneB`]) over fully non-empty stage loads, at the
    /// fixed communication semantics (per-boundary activation sizing on the
    /// forward path, [`CommCostModel::gradient_transfer_time`] on the
    /// backward path).
    ///
    /// # Panics
    ///
    /// On interleaved or split-backward schedules, and on empty stages —
    /// both are features of [`PipelineSimulator::simulate`] only.
    pub fn simulate_reference(
        &self,
        model: &ModelConfig,
        stage_loads: &[StageLoad],
        num_microbatches: usize,
    ) -> IterationReport {
        assert!(
            matches!(self.schedule, ScheduleKind::GPipe | ScheduleKind::OneFOneB),
            "the reference simulator only supports GPipe and 1F1B"
        );
        assert!(
            stage_loads.iter().all(|l| !l.is_empty()),
            "the reference simulator does not model empty-stage bypass"
        );
        let p = stage_loads.len();
        assert!(p > 0, "at least one pipeline stage is required");
        assert!(num_microbatches > 0, "at least one micro-batch is required");
        let m = num_microbatches;

        let orders: Vec<Vec<Op>> = (0..p)
            .map(|s| worker_op_order(self.schedule, s, p, m))
            .collect();

        let mut fwd_finish = vec![vec![f64::NAN; m]; p];
        let mut bwd_finish = vec![vec![f64::NAN; m]; p];
        let mut worker_time = vec![0.0f64; p];
        let mut next_idx = vec![0usize; p];
        let mut timelines: Vec<WorkerTimeline> = vec![WorkerTimeline::default(); p];
        let total_ops = 2 * m * p;
        let mut scheduled = 0usize;

        while scheduled < total_ops {
            let mut progressed = false;
            for s in 0..p {
                while next_idx[s] < orders[s].len() {
                    let op = orders[s][next_idx[s]];
                    let ready = match op.kind {
                        OpKind::Forward => {
                            if s == 0 {
                                Some(0.0)
                            } else {
                                let dep = fwd_finish[s - 1][op.microbatch];
                                if dep.is_nan() {
                                    None
                                } else {
                                    Some(
                                        dep + self.comm.boundary_transfer_time(
                                            model,
                                            &stage_loads[s - 1],
                                            s - 1,
                                            s,
                                        ),
                                    )
                                }
                            }
                        }
                        OpKind::Backward => {
                            let own_fwd = fwd_finish[s][op.microbatch];
                            if own_fwd.is_nan() {
                                None
                            } else if s == p - 1 {
                                Some(own_fwd)
                            } else {
                                let dep = bwd_finish[s + 1][op.microbatch];
                                if dep.is_nan() {
                                    None
                                } else {
                                    Some(own_fwd.max(
                                        dep + self.comm.gradient_transfer_time(
                                            model,
                                            &stage_loads[s],
                                            s + 1,
                                            s,
                                        ),
                                    ))
                                }
                            }
                        }
                        _ => unreachable!("reference schedules never split backward"),
                    };
                    let Some(ready) = ready else { break };
                    let duration = match op.kind {
                        OpKind::Forward => stage_loads[s].fwd_time,
                        _ => stage_loads[s].bwd_time,
                    };
                    let start = worker_time[s].max(ready);
                    let end = start + duration;
                    match op.kind {
                        OpKind::Forward => fwd_finish[s][op.microbatch] = end,
                        _ => bwd_finish[s][op.microbatch] = end,
                    }
                    timelines[s].spans.push(OpSpan { op, start, end });
                    worker_time[s] = end;
                    next_idx[s] += 1;
                    scheduled += 1;
                    progressed = true;
                }
            }
            assert!(
                progressed,
                "pipeline schedule deadlocked ({} of {} ops scheduled)",
                scheduled, total_ops
            );
        }

        finish_report(stage_loads, timelines)
    }
}

/// Assemble the [`IterationReport`] from per-worker timelines, computing
/// makespan and busy time from the spans.
fn finish_report(stage_loads: &[StageLoad], timelines: Vec<WorkerTimeline>) -> IterationReport {
    let makespan = timelines
        .iter()
        .map(|t| t.finish_time())
        .fold(0.0, f64::max);
    let per_worker_busy: Vec<f64> = timelines.iter().map(|t| t.busy_time()).collect();
    let per_worker_idle: Vec<f64> = per_worker_busy.iter().map(|b| makespan - b).collect();
    let stage_compute_times: Vec<f64> = stage_loads.iter().map(|l| l.total_time()).collect();
    IterationReport {
        makespan,
        per_worker_busy,
        per_worker_idle,
        timelines,
        stage_compute_times,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmo_model::{ClusterConfig, DeviceSpec};

    fn zero_comm_cluster(stages: usize) -> ClusterConfig {
        // A device with effectively infinite bandwidth and zero latency so
        // analytic pipeline formulas hold exactly in tests.
        ClusterConfig::homogeneous(
            stages.max(1),
            stages,
            1,
            DeviceSpec {
                sustained_flops: 1.0,
                memory_capacity: u64::MAX,
                intra_node_bandwidth: f64::INFINITY,
                inter_node_bandwidth: f64::INFINITY,
                link_latency: 0.0,
                kernel_launch_overhead: 0.0,
            },
        )
    }

    fn stage(fwd: f64) -> StageLoad {
        StageLoad {
            fwd_time: fwd,
            bwd_time: 2.0 * fwd,
            param_count: 1000,
            static_bytes: 1 << 20,
            activation_bytes: 6 * 34 * 2048 * 2 * 1024,
            // 0 = the model's flat residual-stream tensor, so
            // comm-sensitive tests see non-zero boundary traffic.
            boundary_bytes: 0,
            num_layers: 6,
        }
    }

    fn released() -> StageLoad {
        StageLoad::default()
    }

    fn simulate(schedule: ScheduleKind, fwd_times: &[f64], microbatches: usize) -> IterationReport {
        simulate_loads(
            schedule,
            &fwd_times.iter().map(|&f| stage(f)).collect::<Vec<_>>(),
            microbatches,
        )
    }

    fn simulate_loads(
        schedule: ScheduleKind,
        loads: &[StageLoad],
        microbatches: usize,
    ) -> IterationReport {
        let comm = CommCostModel::new(zero_comm_cluster(loads.len()));
        PipelineSimulator::new(comm, schedule).simulate(&ModelConfig::gpt(24), loads, microbatches)
    }

    #[test]
    fn single_stage_has_no_bubble() {
        for schedule in [
            ScheduleKind::GPipe,
            ScheduleKind::OneFOneB,
            ScheduleKind::Interleaved1F1B { virtual_stages: 2 },
            ScheduleKind::ZeroBubbleH1,
        ] {
            let r = simulate(schedule, &[1.0], 4);
            // 4 microbatches × (1 + 2) seconds.
            assert!(
                (r.makespan - 12.0).abs() < 1e-9,
                "{schedule:?}: makespan {}",
                r.makespan
            );
            assert!(r.average_idleness() < 1e-9);
            assert!(r.bubble_ratio() < 1e-9);
        }
    }

    #[test]
    fn balanced_gpipe_matches_analytic_makespan() {
        // p balanced stages, m microbatches, zero comm: GPipe makespan is
        // (m + p − 1) · (f + b) with f=1, b=2.
        let p = 4;
        let m = 8;
        let r = simulate(ScheduleKind::GPipe, &vec![1.0; p], m);
        let expected = (m as f64 + p as f64 - 1.0) * 3.0;
        assert!(
            (r.makespan - expected).abs() < 1e-9,
            "makespan {} vs expected {expected}",
            r.makespan
        );
    }

    #[test]
    fn balanced_1f1b_matches_analytic_makespan() {
        // Balanced 1F1B with zero comm: makespan = (p−1)·(f+b) + m·(f+b)
        // = (m + p − 1)(f+b) — same steady-state as GPipe for equal f+b
        // per stage, which is the standard result for non-interleaved 1F1B.
        let p = 4;
        let m = 8;
        let r = simulate(ScheduleKind::OneFOneB, &vec![1.0; p], m);
        let expected = (m as f64 + p as f64 - 1.0) * 3.0;
        assert!(
            (r.makespan - expected).abs() < 1e-9,
            "makespan {} vs expected {expected}",
            r.makespan
        );
    }

    #[test]
    fn balanced_interleaved_shrinks_the_warmup_bubble_by_v() {
        // Interleaved 1F1B with v chunks per worker: the ramp-up advances
        // in (f+b)/v steps, so makespan = m·(f+b) + (p−1)·(f+b)/v.
        let p = 4;
        let m = 16;
        for v in [2, 4] {
            let r = simulate(
                ScheduleKind::Interleaved1F1B { virtual_stages: v },
                &vec![1.0; p],
                m,
            );
            let expected = m as f64 * 3.0 + (p as f64 - 1.0) * 3.0 / v as f64;
            assert!(
                (r.makespan - expected).abs() < 1e-9,
                "v={v}: makespan {} vs expected {expected}",
                r.makespan
            );
        }
    }

    #[test]
    fn balanced_zero_bubble_h1_matches_analytic_makespan() {
        // ZB-H1 with an even backward split: the warm-up ramp costs
        // (p−1)·f, the gradient chain drains at b/2 per stage, and the
        // weight halves fill the remaining gaps, so makespan
        // = m·(f+b) + (p−1)·(f + b/2).
        let p = 4;
        let m = 16;
        let r = simulate(ScheduleKind::ZeroBubbleH1, &vec![1.0; p], m);
        let expected = m as f64 * 3.0 + (p as f64 - 1.0) * (1.0 + 1.0);
        assert!(
            (r.makespan - expected).abs() < 1e-9,
            "makespan {} vs expected {expected}",
            r.makespan
        );
    }

    #[test]
    fn advanced_schedules_strictly_beat_1f1b_on_balanced_stages() {
        let p = 4;
        let m = 4 * p;
        let base = simulate(ScheduleKind::OneFOneB, &vec![1.0; p], m);
        for schedule in [
            ScheduleKind::Interleaved1F1B { virtual_stages: 2 },
            ScheduleKind::ZeroBubbleH1,
        ] {
            let r = simulate(schedule, &vec![1.0; p], m);
            assert!(
                r.bubble_ratio() < base.bubble_ratio(),
                "{schedule:?}: bubble {} vs 1F1B {}",
                r.bubble_ratio(),
                base.bubble_ratio()
            );
            assert!(r.makespan < base.makespan);
        }
    }

    #[test]
    fn no_schedule_deadlocks_across_shapes() {
        // The engine asserts internally when a schedule deadlocks; sweep
        // the shape grid (including ragged m for the interleaved
        // generalization) to prove liveness and op-count conservation.
        for schedule in [
            ScheduleKind::GPipe,
            ScheduleKind::OneFOneB,
            ScheduleKind::Interleaved1F1B { virtual_stages: 2 },
            ScheduleKind::Interleaved1F1B { virtual_stages: 3 },
            ScheduleKind::ZeroBubbleH1,
        ] {
            for p in [1usize, 2, 3, 4, 8] {
                for m in [1usize, 2, 3, 5, 8, 16] {
                    let r = simulate(schedule, &vec![1.0; p], m);
                    let v = schedule.effective_virtual_stages(p, m);
                    let ops_per_worker = match schedule {
                        ScheduleKind::ZeroBubbleH1 => 3 * m,
                        _ => 2 * m * v,
                    };
                    for t in &r.timelines {
                        assert_eq!(t.spans.len(), ops_per_worker, "{schedule:?} p={p} m={m}");
                    }
                    // All schedules do the same total work.
                    let busy: f64 = r.per_worker_busy.iter().sum();
                    assert!((busy - (p * m) as f64 * 3.0).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn inherent_bubble_shrinks_with_more_microbatches() {
        let p = 4;
        let small = simulate(ScheduleKind::OneFOneB, &vec![1.0; p], 4);
        let large = simulate(ScheduleKind::OneFOneB, &vec![1.0; p], 32);
        assert!(large.average_idleness() < small.average_idleness());
        // With m ≫ p the bubble approaches (p−1)/(m+p−1).
        let expected = (p as f64 - 1.0) / (32.0 + p as f64 - 1.0);
        assert!((large.average_idleness() - expected).abs() < 0.02);
    }

    #[test]
    fn imbalanced_stage_creates_extra_idleness() {
        let balanced = simulate(ScheduleKind::OneFOneB, &[1.0, 1.0, 1.0, 1.0], 16);
        let imbalanced = simulate(ScheduleKind::OneFOneB, &[1.0, 1.0, 1.0, 3.0], 16);
        assert!(imbalanced.average_idleness() > balanced.average_idleness() + 0.2);
        // The slow stage itself is (nearly) never idle.
        let slow_idle = imbalanced.per_worker_idle[3];
        assert!(slow_idle / imbalanced.makespan < 0.2);
        // Makespan is dominated by the slow stage: ≥ m × its per-mb time.
        assert!(imbalanced.makespan >= 16.0 * 9.0);
        // Imbalance metric reflects the 3× stage (Eq. 2).
        assert!(imbalanced.load_imbalance() > 1.0);
    }

    #[test]
    fn throughput_drops_when_one_stage_slows_down() {
        let tokens = 16 * 2 * 2048;
        let balanced = simulate(ScheduleKind::OneFOneB, &[1.0; 4], 16);
        let imbalanced = simulate(ScheduleKind::OneFOneB, &[1.0, 1.0, 1.0, 2.0], 16);
        assert!(balanced.tokens_per_second(tokens) > 1.5 * imbalanced.tokens_per_second(tokens));
    }

    #[test]
    fn released_stages_are_bypassed_entirely() {
        // Two real stages with a released (layer-less) stage between them:
        // the empty worker schedules no ops and the pipeline behaves as a
        // two-stage pipeline over a single direct 0 → 2 link.
        let loads = [stage(1.0), released(), stage(1.0)];
        let r = simulate_loads(ScheduleKind::OneFOneB, &loads, 8);
        assert!(r.timelines[1].spans.is_empty());
        assert_eq!(r.per_worker_busy[1], 0.0);
        // Identical to simulating just the two real stages.
        let two = simulate_loads(ScheduleKind::OneFOneB, &[stage(1.0), stage(1.0)], 8);
        assert_eq!(r.makespan, two.makespan);
        assert_eq!(r.per_worker_busy[0], two.per_worker_busy[0]);
        assert_eq!(r.per_worker_busy[2], two.per_worker_busy[1]);
    }

    #[test]
    fn bypassing_a_released_stage_pays_one_hop_instead_of_two() {
        // With real link costs the legacy loop made a released middle stage
        // relay the tensor — two transfers, s−1 → s → s+1.  The bypass
        // pays a single direct hop: the layout must match a two-stage
        // pipeline at the same per-hop cost exactly, and beat a cluster
        // whose links are priced like the old two-hop relay.
        // every hop crosses a node boundary (one GPU per node)
        let cluster = ClusterConfig::homogeneous(
            1,
            3,
            1,
            DeviceSpec {
                sustained_flops: 1.0,
                memory_capacity: u64::MAX,
                intra_node_bandwidth: 1.0e9,
                inter_node_bandwidth: 1.0e8,
                link_latency: 0.05,
                kernel_launch_overhead: 0.0,
            },
        );
        let model = ModelConfig::gpt(24);
        let mut sim =
            PipelineSimulator::new(CommCostModel::new(cluster.clone()), ScheduleKind::OneFOneB);
        let bypassed = sim.simulate(&model, &[stage(1.0), released(), stage(1.0)], 8);
        // The same two real stages at the same physical distance (0 and 2).
        // A two-stage pipeline at adjacent slots pays the same per-hop cost
        // here because every hop is inter-node in this cluster.
        let direct = sim.simulate(&model, &[stage(1.0), stage(1.0)], 8);
        assert!((bypassed.makespan - direct.makespan).abs() < 1e-9);
        // And strictly cheaper than paying the boundary twice: simulate the
        // two-hop relay by doubling the per-hop latency.
        let relay_cluster = ClusterConfig {
            device: DeviceSpec {
                link_latency: 0.1,
                inter_node_bandwidth: 5.0e7,
                ..cluster.device
            },
            ..cluster
        };
        let relay =
            PipelineSimulator::new(CommCostModel::new(relay_cluster), ScheduleKind::OneFOneB)
                .simulate(&model, &[stage(1.0), stage(1.0)], 8);
        assert!(bypassed.makespan < relay.makespan);
    }

    #[test]
    fn all_stages_released_yields_an_empty_iteration() {
        let r = simulate_loads(ScheduleKind::OneFOneB, &[released(), released()], 4);
        assert_eq!(r.makespan, 0.0);
        assert!(r.per_worker_busy.iter().all(|&b| b == 0.0));
        assert_eq!(r.average_idleness(), 0.0);
    }

    #[test]
    fn communication_latency_increases_makespan() {
        let loads = vec![stage(1.0); 4];
        let model = ModelConfig::gpt(24);
        let fast = PipelineSimulator::new(
            CommCostModel::new(zero_comm_cluster(4)),
            ScheduleKind::OneFOneB,
        )
        .simulate(&model, &loads, 8);
        // every hop crosses a (slow) node boundary
        let slow_cluster = ClusterConfig::homogeneous(
            1,
            4,
            1,
            DeviceSpec {
                sustained_flops: 1.0,
                memory_capacity: u64::MAX,
                intra_node_bandwidth: 1.0e9,
                inter_node_bandwidth: 1.0e8,
                link_latency: 0.05,
                kernel_launch_overhead: 0.0,
            },
        );
        let slow = PipelineSimulator::new(CommCostModel::new(slow_cluster), ScheduleKind::OneFOneB)
            .simulate(&model, &loads, 8);
        assert!(slow.makespan > fast.makespan);
    }

    #[test]
    fn reference_simulator_agrees_with_the_engine() {
        // Spot check here; the exhaustive randomized comparison lives in
        // the workspace-level property tests.
        let model = ModelConfig::gpt(24);
        let loads = vec![stage(1.0), stage(0.7), stage(1.3), stage(1.0)];
        let cluster = ClusterConfig::homogeneous(2, 4, 1, DeviceSpec::h100_sxm5());
        for schedule in [ScheduleKind::GPipe, ScheduleKind::OneFOneB] {
            let mut sim = PipelineSimulator::new(CommCostModel::new(cluster.clone()), schedule);
            let engine = sim.simulate(&model, &loads, 7);
            let reference = sim.simulate_reference(&model, &loads, 7);
            assert_eq!(engine.makespan, reference.makespan);
            assert_eq!(engine.per_worker_busy, reference.per_worker_busy);
        }
    }

    #[test]
    #[should_panic(expected = "at least one pipeline stage")]
    fn zero_stages_is_rejected() {
        let comm = CommCostModel::new(zero_comm_cluster(1));
        let mut sim = PipelineSimulator::new(comm, ScheduleKind::GPipe);
        let _ = sim.simulate(&ModelConfig::gpt(24), &[], 4);
    }

    #[test]
    #[should_panic(expected = "at least one micro-batch")]
    fn zero_microbatches_is_rejected() {
        let comm = CommCostModel::new(zero_comm_cluster(1));
        let mut sim = PipelineSimulator::new(comm, ScheduleKind::GPipe);
        let _ = sim.simulate(&ModelConfig::gpt(24), &[stage(1.0)], 0);
    }

    #[test]
    fn forward_only_matches_the_analytic_fill_drain_makespan() {
        // p balanced stages, m micro-batches, zero comm: a forward-only
        // pipeline completes in (m + p − 1) · f.
        let p = 4;
        let m = 8;
        let comm = CommCostModel::new(zero_comm_cluster(p));
        let mut sim = PipelineSimulator::new(comm, ScheduleKind::OneFOneB);
        let mut loads: Vec<StageLoad> = (0..p).map(|_| stage(1.0)).collect();
        let makespan = sim.forward_makespan(&ModelConfig::gpt(24), &loads, m);
        let expected = (m as f64 + p as f64 - 1.0) * 1.0;
        assert!(
            (makespan - expected).abs() < 1e-9,
            "makespan {makespan} vs expected {expected}"
        );
        // No backward ops run: bwd_time is ignored.
        for load in &mut loads {
            load.bwd_time = 1.0e6;
        }
        assert_eq!(
            sim.forward_makespan(&ModelConfig::gpt(24), &loads, m),
            makespan
        );
    }

    #[test]
    fn forward_only_bypasses_released_stages_and_prices_boundaries() {
        let model = ModelConfig::gpt(24);
        let cluster = ClusterConfig::homogeneous(
            1,
            3,
            1,
            DeviceSpec {
                sustained_flops: 1.0,
                memory_capacity: u64::MAX,
                intra_node_bandwidth: 1.0e9,
                inter_node_bandwidth: 1.0e8,
                link_latency: 0.05,
                kernel_launch_overhead: 0.0,
            },
        );
        let mut sim = PipelineSimulator::new(CommCostModel::new(cluster), ScheduleKind::OneFOneB);
        let bypassed = sim.forward_makespan(&model, &[stage(1.0), released(), stage(1.0)], 8);
        let direct = sim.forward_makespan(&model, &[stage(1.0), stage(1.0)], 8);
        assert!((bypassed - direct).abs() < 1e-9);
        // A shrunk boundary tensor lowers the forward hand-off cost.
        let mut shrunk = [stage(1.0), stage(1.0)];
        shrunk[0].boundary_bytes = 1;
        let cheap = sim.forward_makespan(&model, &shrunk, 8);
        assert!(cheap < direct);
    }

    #[test]
    fn forward_only_is_faster_than_the_training_iteration() {
        let loads = vec![stage(1.0); 4];
        let comm = CommCostModel::new(zero_comm_cluster(4));
        let mut sim = PipelineSimulator::new(comm, ScheduleKind::OneFOneB);
        let model = ModelConfig::gpt(24);
        let fwd = sim.forward_makespan(&model, &loads, 8);
        let train = sim.simulate(&model, &loads, 8);
        assert!(fwd < train.makespan);
    }

    #[test]
    #[should_panic(expected = "op duration must be finite and non-negative")]
    fn a_non_finite_duration_is_rejected() {
        let mut bad = stage(1.0);
        bad.bwd_time = f64::NAN;
        let _ = simulate_loads(ScheduleKind::ZeroBubbleH1, &[stage(1.0), bad], 4);
    }

    #[test]
    fn timelines_are_consistent_with_busy_times() {
        for schedule in [
            ScheduleKind::OneFOneB,
            ScheduleKind::Interleaved1F1B { virtual_stages: 2 },
            ScheduleKind::ZeroBubbleH1,
        ] {
            let r = simulate(schedule, &[1.0, 2.0, 1.0], 6);
            for (busy, timeline) in r.per_worker_busy.iter().zip(r.timelines.iter()) {
                assert!((busy - timeline.busy_time()).abs() < 1e-9);
                // Spans never overlap and are ordered.
                for w in timeline.spans.windows(2) {
                    assert!(w[1].start >= w[0].end - 1e-12);
                }
            }
        }
    }
}
