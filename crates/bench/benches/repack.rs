//! Criterion bench behind Figure 4: the cost of one re-packing decision
//! (Algorithm 2) and of building the resulting migration plan, across worker
//! counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dynmo_core::migration::MigrationPlan;
use dynmo_core::repack::plan_repack;
use dynmo_pipeline::{LayerLoad, StageAssignment};

fn loads(layers: usize) -> Vec<LayerLoad> {
    (0..layers)
        .map(|i| LayerLoad {
            layer_id: i,
            fwd_time: 0.01,
            bwd_time: 0.02,
            param_count: 1_000_000,
            static_bytes: 8_000_000,
            activation_bytes: 500_000,
            migration_bytes: 8_000_000,
        })
        .collect()
}

fn bench_repack(c: &mut Criterion) {
    let mut group = c.benchmark_group("repack_decision");
    for &workers in &[8usize, 24, 48] {
        let layers = workers * 4;
        let assignment = StageAssignment::uniform(layers, workers);
        let layer_loads = loads(layers);
        let inflight = vec![4usize; workers];
        let max_memory = 200_000_000;
        group.bench_with_input(
            BenchmarkId::new("plan_repack", workers),
            &assignment,
            |b, assignment| {
                b.iter(|| plan_repack(assignment, &layer_loads, &inflight, max_memory));
            },
        );
        let plan = plan_repack(&assignment, &layer_loads, &inflight, max_memory);
        group.bench_with_input(
            BenchmarkId::new("migration_plan", workers),
            &plan.new_assignment,
            |b, new_assignment| {
                b.iter(|| MigrationPlan::between(&assignment, new_assignment, &layer_loads));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_repack);
criterion_main!(benches);
