//! Workspace-level tests for the pipeline simulator:
//!
//! * a property test pinning the engine bit-for-bit to the legacy
//!   busy-poll simulator (`PipelineSimulator::simulate_reference`) across
//!   random stage loads for the schedules the legacy loop supported,
//! * a property test pinning the lean timing pass
//!   (`PipelineSimulator::simulate_timing`) to the full simulation, bit for
//!   bit, across all schedules, random loads and released stages,
//! * a digest pinning every simulated bit of every schedule over a shape
//!   grid with released stages and heterogeneous clusters, and
//! * integration tests for the claims the new schedules exist to make —
//!   interleaved 1F1B and ZB-H1 strictly beat 1F1B's bubble on balanced
//!   stages once `m ≥ 4·p`, and released stages are bypassed end-to-end.

use dynmo::model::{ClusterConfig, DeviceSpec, ModelConfig};
use dynmo::pipeline::load::StageLoad;
use dynmo::pipeline::{CommCostModel, IterationReport, PipelineSimulator, ScheduleKind};
use proptest::prelude::*;

/// Every schedule the simulator runs, interleaving at two depths.
const SCHEDULES: [ScheduleKind; 5] = [
    ScheduleKind::GPipe,
    ScheduleKind::OneFOneB,
    ScheduleKind::Interleaved1F1B { virtual_stages: 2 },
    ScheduleKind::Interleaved1F1B { virtual_stages: 3 },
    ScheduleKind::ZeroBubbleH1,
];

fn cluster(stages: usize, gpus_per_node: usize) -> ClusterConfig {
    ClusterConfig::homogeneous(gpus_per_node, stages, 1, DeviceSpec::h100_sxm5())
}

/// Stage loads with per-stage compute times and boundary tensors, all
/// non-empty (the legacy reference does not model the empty-stage bypass).
/// `boundary_scales` shrink each stage's outgoing hidden-state tensor
/// relative to the model's flat residual stream, exercising the
/// per-boundary cost path.
fn stage_loads(fwd_times: &[f64], boundary_scales: &[f64]) -> Vec<StageLoad> {
    let model = ModelConfig::gpt(24);
    let flat =
        (model.micro_batch_size * model.seq_len * model.hidden_size * model.param_bytes) as f64;
    fwd_times
        .iter()
        .zip(boundary_scales.iter())
        .map(|(&fwd, &scale)| StageLoad {
            fwd_time: fwd,
            bwd_time: 2.0 * fwd,
            param_count: 1_000_000,
            static_bytes: 1 << 24,
            activation_bytes: 1 << 20,
            boundary_bytes: (flat * scale) as u64,
            num_layers: 4,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The event-driven engine reproduces the legacy rescan loop exactly —
    /// same makespan bits, same per-worker busy times — for GPipe and 1F1B
    /// over random loads, micro-batch counts, and link localities.
    #[test]
    fn engine_matches_legacy_simulator_bit_for_bit(
        fwd_times in prop::collection::vec(0.001f64..2.0, 1..12),
        boundary_scales in prop::collection::vec(0.05f64..2.0, 12..13),
        microbatches in 1usize..24,
        gpus_per_node in 1usize..5,
    ) {
        let model = ModelConfig::gpt(24);
        let loads = stage_loads(&fwd_times, &boundary_scales[..fwd_times.len()]);
        for schedule in [ScheduleKind::GPipe, ScheduleKind::OneFOneB] {
            let mut sim = PipelineSimulator::new(
                CommCostModel::new(cluster(loads.len(), gpus_per_node)),
                schedule,
            );
            let engine = sim.simulate(&model, &loads, microbatches);
            let reference = sim.simulate_reference(&model, &loads, microbatches);
            prop_assert_eq!(
                engine.makespan.to_bits(),
                reference.makespan.to_bits(),
                "{:?}: engine {} vs reference {}",
                schedule,
                engine.makespan,
                reference.makespan
            );
            prop_assert_eq!(engine.per_worker_busy.len(), reference.per_worker_busy.len());
            for (e, r) in engine.per_worker_busy.iter().zip(reference.per_worker_busy.iter()) {
                prop_assert_eq!(e.to_bits(), r.to_bits());
            }
        }
    }

    /// The lean pass gives the full simulation's makespan, busy, idle and
    /// stage-time bits with no spans, and alternating the two calls on one
    /// simulator, across layouts that share its topology and layouts that
    /// rebuild it, changes neither.
    #[test]
    fn lean_timing_pass_matches_the_full_simulation_bit_for_bit(
        fwd_times in prop::collection::vec(0.001f64..2.0, 1..10),
        boundary_scales in prop::collection::vec(0.05f64..2.0, 10..11),
        released in 0usize..16,
        microbatches in 1usize..24,
        gpus_per_node in 1usize..5,
    ) {
        let model = ModelConfig::gpt(24);
        let full = stage_loads(&fwd_times, &boundary_scales[..fwd_times.len()]);
        let mut layouts = vec![full.clone()];
        // A stage index past the end leaves every stage real.
        if released < full.len() {
            let mut bypassed = full.clone();
            bypassed[released] = StageLoad::default();
            layouts.push(bypassed);
        }
        for schedule in SCHEDULES {
            let comm = CommCostModel::new(cluster(full.len(), gpus_per_node));
            let expected: Vec<IterationReport> = layouts
                .iter()
                .map(|loads| {
                    PipelineSimulator::new(comm.clone(), schedule).simulate(&model, loads, microbatches)
                })
                .collect();
            let mut sim = PipelineSimulator::new(comm, schedule);
            for _ in 0..2 {
                for (loads, expected) in layouts.iter().zip(&expected) {
                    let lean = sim.simulate_timing(&model, loads, microbatches);
                    prop_assert!(lean.timelines.is_empty(), "{:?}", schedule);
                    prop_assert_eq!(timing_bits(lean), timing_bits(expected), "{:?}", schedule);
                    let replayed = sim.simulate(&model, loads, microbatches);
                    prop_assert_eq!(timing_bits(&replayed), timing_bits(expected));
                    prop_assert_eq!(&replayed.timelines, &expected.timelines, "{:?}", schedule);
                }
            }
        }
    }

    /// Bypassing a released stage is exactly equivalent to simulating the
    /// compressed pipeline of its real stages at their physical positions.
    #[test]
    fn released_stage_bypass_matches_the_compressed_pipeline(
        fwd_times in prop::collection::vec(0.01f64..2.0, 2..8),
        microbatches in 1usize..16,
    ) {
        let model = ModelConfig::gpt(24);
        let scales = vec![1.0; fwd_times.len()];
        let mut loads = stage_loads(&fwd_times, &scales);
        // Release the middle stage.
        let released = loads.len() / 2;
        loads[released] = StageLoad::default();
        let mut sim = PipelineSimulator::new(
            CommCostModel::new(cluster(loads.len(), loads.len())),
            ScheduleKind::OneFOneB,
        );
        let bypassed = sim.simulate(&model, &loads, microbatches);
        prop_assert!(bypassed.timelines[released].spans.is_empty());
        prop_assert_eq!(bypassed.per_worker_busy[released], 0.0);
        // Same pipeline with the released stage dropped outright (all
        // links intra-node here, so physical re-indexing is cost-neutral).
        let compressed: Vec<StageLoad> = loads
            .iter()
            .enumerate()
            .filter(|(s, _)| *s != released)
            .map(|(_, l)| *l)
            .collect();
        let direct = PipelineSimulator::new(
            CommCostModel::new(cluster(compressed.len(), loads.len())),
            ScheduleKind::OneFOneB,
        )
        .simulate(&model, &compressed, microbatches);
        prop_assert_eq!(bypassed.makespan.to_bits(), direct.makespan.to_bits());
    }
}

/// A report's makespan, busy, idle and stage times as bits, each vector
/// behind its length.
fn timing_bits(report: &IterationReport) -> Vec<u64> {
    let mut bits = vec![report.makespan.to_bits()];
    for values in [
        &report.per_worker_busy,
        &report.per_worker_idle,
        &report.stage_compute_times,
    ] {
        bits.push(values.len() as u64);
        bits.extend(values.iter().map(|v| v.to_bits()));
    }
    bits
}

/// Interleaved 1F1B and ZB-H1 must show strictly lower bubble ratios than
/// non-interleaved 1F1B on balanced stages with `m ≥ 4·p`.
#[test]
fn advanced_schedules_beat_1f1b_bubble_on_balanced_stages() {
    let model = ModelConfig::gpt(24);
    for p in [4usize, 8] {
        let m = 4 * p;
        let loads = stage_loads(&vec![1.0e-3; p], &vec![1.0; p]);
        let run = |schedule: ScheduleKind| {
            PipelineSimulator::new(CommCostModel::new(cluster(p, 4)), schedule)
                .simulate(&model, &loads, m)
        };
        let base = run(ScheduleKind::OneFOneB);
        for schedule in [
            ScheduleKind::Interleaved1F1B { virtual_stages: 2 },
            ScheduleKind::ZeroBubbleH1,
        ] {
            let report = run(schedule);
            assert!(
                report.bubble_ratio() < base.bubble_ratio(),
                "p={p}: {schedule:?} bubble {} vs 1F1B {}",
                report.bubble_ratio(),
                base.bubble_ratio()
            );
            assert!(report.makespan < base.makespan);
        }
    }
}

/// The sweep artifact's headline claim holds through the public API: more
/// virtual stages keep shrinking the balanced interleaved bubble.
#[test]
fn deeper_interleaving_keeps_shrinking_the_bubble() {
    let model = ModelConfig::gpt(24);
    let p = 4;
    let m = 8 * p;
    let loads = stage_loads(&vec![1.0e-3; p], &vec![1.0; p]);
    let bubble = |v: usize| {
        PipelineSimulator::new(
            CommCostModel::new(cluster(p, p)),
            ScheduleKind::Interleaved1F1B { virtual_stages: v },
        )
        .simulate(&model, &loads, m)
        .bubble_ratio()
    };
    let b1 = bubble(1);
    let b2 = bubble(2);
    let b4 = bubble(4);
    assert!(b2 < b1, "v=2 bubble {b2} vs v=1 {b1}");
    assert!(b4 < b2, "v=4 bubble {b4} vs v=2 {b2}");
}

/// Every simulated bit of a shape grid, folded into one FNV-1a digest:
/// makespan, per-worker busy and idle, and each span's kind, micro-batch,
/// chunk, start and end, plus every forward-only makespan.  The grid covers
/// all schedules (interleaving at v = 2 and 3, including the shapes where
/// p ∤ m falls back to 1F1B), stage counts 1–8, micro-batch counts 1–16,
/// a released first, middle and last stage, and homogeneous and
/// three-generation clusters.  One simulator serves each (cluster,
/// schedule) pair across all shapes, so topology reuse is covered too.
#[test]
fn simulated_outputs_match_the_pinned_digest() {
    use dynmo::resilience::Fnv1a;

    const PINNED: u64 = 0x34af_ae98_1b10_28e8;
    let model = ModelConfig::gpt(24);
    let schedules = [
        ScheduleKind::GPipe,
        ScheduleKind::OneFOneB,
        ScheduleKind::Interleaved1F1B { virtual_stages: 2 },
        ScheduleKind::Interleaved1F1B { virtual_stages: 3 },
        ScheduleKind::ZeroBubbleH1,
    ];
    let mut digest = Fnv1a::new();
    let mut put = |value: u64| digest.write(&value.to_le_bytes());
    for p in [1usize, 2, 3, 5, 8] {
        let fwd_times: Vec<f64> = (0..p).map(|s| 0.3 + 0.17 * ((7 * s) % 5) as f64).collect();
        let scales: Vec<f64> = (0..p).map(|s| 0.25 + 0.5 * (s % 3) as f64).collect();
        let full = stage_loads(&fwd_times, &scales);
        let layouts: Vec<Vec<StageLoad>> = [None, Some(0), Some(p / 2), Some(p - 1)]
            .into_iter()
            .map(|released| {
                let mut loads = full.clone();
                if let Some(s) = released {
                    loads[s] = StageLoad::default();
                }
                loads
            })
            .collect();
        let clusters = [
            cluster(p, 1),
            cluster(p, 4),
            ClusterConfig::hetero_three_gen(4, p, 1),
        ];
        for cluster in &clusters {
            for schedule in schedules {
                let mut sim = PipelineSimulator::new(CommCostModel::new(cluster.clone()), schedule);
                for m in [1usize, 3, 8, 16] {
                    for loads in &layouts {
                        let report = sim.simulate(&model, loads, m);
                        put(report.makespan.to_bits());
                        for (busy, idle) in
                            report.per_worker_busy.iter().zip(&report.per_worker_idle)
                        {
                            put(busy.to_bits());
                            put(idle.to_bits());
                        }
                        for timeline in &report.timelines {
                            put(timeline.spans.len() as u64);
                            for span in &timeline.spans {
                                put(span.op.kind as u64);
                                put(span.op.microbatch as u64);
                                put(span.op.chunk as u64);
                                put(span.start.to_bits());
                                put(span.end.to_bits());
                            }
                        }
                        put(sim.forward_makespan(&model, loads, m).to_bits());
                    }
                }
            }
        }
    }
    assert_eq!(digest.state(), PINNED, "digest {:#018x}", digest.state());
}
