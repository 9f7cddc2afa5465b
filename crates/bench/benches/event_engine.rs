//! Criterion bench of the pipeline simulator per phase, every schedule at
//! two shapes: the largest grid corner of `pipeline_sweep` (`p = 32`,
//! `m = 512`) and a deeper one (`p = 128`, `m = 1024`).  Three rows per
//! schedule split a simulation into its phases:
//!
//! * `timing` — `simulate_timing` on one simulator reused across
//!   iterations: the lean max/+ pass over the cached topology alone (the
//!   trainer's case when no recorder is enabled);
//! * `cached` — `simulate` on a reused simulator: the pass plus the replay
//!   that builds every op span;
//! * `cold` — `simulate` on a fresh simulator per iteration, so the
//!   topology build is timed too.
//!
//! So build = cold − cached, pass = timing and replay = cached − timing.
//! The legacy busy-poll loop (`simulate_reference`, GPipe and 1F1B only)
//! runs on the identical input as the yardstick.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dynmo_model::{ClusterConfig, DeviceSpec, ModelConfig};
use dynmo_pipeline::load::StageLoad;
use dynmo_pipeline::{CommCostModel, PipelineSimulator, ScheduleKind};

fn skewed_loads(stages: usize) -> Vec<StageLoad> {
    (0..stages)
        .map(|s| {
            // Mild imbalance so the engines exercise real dependency
            // stalls, not the degenerate balanced fast path.
            let skew = 1.0 + 0.3 * (s as f64 / (stages - 1) as f64);
            StageLoad {
                fwd_time: 2.0e-3 * skew,
                bwd_time: 4.0e-3 * skew,
                param_count: 12 * 1024 * 1024,
                static_bytes: 0,
                activation_bytes: 0,
                boundary_bytes: 0,
                num_layers: 1,
            }
        })
        .collect()
}

fn bench_shape(c: &mut Criterion, stages: usize, microbatches: usize) {
    let model = ModelConfig::gpt(32);
    let cluster = ClusterConfig::homogeneous(8, stages, 1, DeviceSpec::h100_sxm5());
    let comm = CommCostModel::new(cluster);
    let loads = skewed_loads(stages);
    let mut group = c.benchmark_group(format!("pipeline_simulate_p{stages}_m{microbatches}"));
    for schedule in ScheduleKind::ALL {
        let mut cached = PipelineSimulator::new(comm.clone(), schedule);
        group.bench_with_input(
            BenchmarkId::new("timing", schedule.label()),
            &loads,
            |b, loads| {
                b.iter(|| cached.simulate_timing(&model, loads, microbatches).makespan);
            },
        );
        group.bench_with_input(
            BenchmarkId::new("cached", schedule.label()),
            &loads,
            |b, loads| {
                b.iter(|| cached.simulate(&model, loads, microbatches));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("cold", schedule.label()),
            &loads,
            |b, loads| {
                b.iter(|| {
                    PipelineSimulator::new(comm.clone(), schedule).simulate(
                        &model,
                        loads,
                        microbatches,
                    )
                });
            },
        );
        if matches!(schedule, ScheduleKind::GPipe | ScheduleKind::OneFOneB) {
            group.bench_with_input(
                BenchmarkId::new("reference", schedule.label()),
                &loads,
                |b, loads| {
                    b.iter(|| cached.simulate_reference(&model, loads, microbatches));
                },
            );
        }
    }
    group.finish();
}

fn bench_event_engine(c: &mut Criterion) {
    bench_shape(c, 32, 512);
    bench_shape(c, 128, 1024);
}

criterion_group!(benches, bench_event_engine);
criterion_main!(benches);
