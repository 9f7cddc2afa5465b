//! Criterion bench of the pipeline simulator at paper scale (`p = 32`,
//! `m = 512` — the largest grid corner of `pipeline_sweep`), every
//! schedule timed twice:
//!
//! * `cached` — one simulator reused across iterations, so only the
//!   linear max/+ pass over the cached topology is timed (the trainer's
//!   case: it re-simulates the same shape after every rebalance);
//! * `cold` — a fresh simulator per iteration, so the topology build is
//!   timed too (the case of a trainer run that simulates one shape once).
//!
//! The legacy busy-poll loop (`simulate_reference`, GPipe and 1F1B only)
//! runs on the identical input as the yardstick.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dynmo_model::{ClusterConfig, DeviceSpec, ModelConfig};
use dynmo_pipeline::load::StageLoad;
use dynmo_pipeline::{CommCostModel, PipelineSimulator, ScheduleKind};

const PAPER_STAGES: usize = 32;
const PAPER_MICROBATCHES: usize = 512;

fn paper_scale_loads() -> Vec<StageLoad> {
    (0..PAPER_STAGES)
        .map(|s| {
            // Mild imbalance so the engines exercise real dependency
            // stalls, not the degenerate balanced fast path.
            let skew = 1.0 + 0.3 * (s as f64 / (PAPER_STAGES - 1) as f64);
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

fn bench_event_engine(c: &mut Criterion) {
    let model = ModelConfig::gpt(32);
    let cluster = ClusterConfig::homogeneous(8, PAPER_STAGES, 1, DeviceSpec::h100_sxm5());
    let comm = CommCostModel::new(cluster);
    let loads = paper_scale_loads();
    let mut group = c.benchmark_group("pipeline_simulate_p32_m512");
    for schedule in ScheduleKind::ALL {
        let mut cached = PipelineSimulator::new(comm.clone(), schedule);
        group.bench_with_input(
            BenchmarkId::new("cached", schedule.label()),
            &loads,
            |b, loads| {
                b.iter(|| cached.simulate(&model, loads, PAPER_MICROBATCHES));
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
                        PAPER_MICROBATCHES,
                    )
                });
            },
        );
        if matches!(schedule, ScheduleKind::GPipe | ScheduleKind::OneFOneB) {
            group.bench_with_input(
                BenchmarkId::new("reference", schedule.label()),
                &loads,
                |b, loads| {
                    b.iter(|| cached.simulate_reference(&model, loads, PAPER_MICROBATCHES));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_event_engine);
criterion_main!(benches);
