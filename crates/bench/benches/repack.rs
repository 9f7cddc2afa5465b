//! Criterion bench behind Figure 4: the cost of one re-packing decision
//! (Algorithm 2) and of building the migration plan to the layout the
//! controller re-balances onto the kept workers, across worker counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dynmo_core::balancer::{BalanceObjective, PartitionBalancer};
use dynmo_core::controller::{RebalanceController, RebalancePolicy};
use dynmo_core::migration::MigrationPlan;
use dynmo_core::repack::plan_repack;
use dynmo_model::ClusterConfig;
use dynmo_pipeline::{CommCostModel, LayerLoad, StageAssignment};

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
    let controller = RebalanceController::new(
        Box::new(PartitionBalancer::new()),
        BalanceObjective::ByTime,
        RebalancePolicy {
            frequency: None,
            repack: true,
        },
    );
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
        let comm = CommCostModel::new(ClusterConfig::single_node(workers));
        let outcome = controller.rebalance(
            &assignment,
            &layer_loads,
            max_memory,
            &inflight,
            &comm,
            16,
            &vec![1.0; workers],
            &vec![max_memory; workers],
        );
        group.bench_with_input(
            BenchmarkId::new("migration_plan", workers),
            &outcome.assignment,
            |b, repacked| {
                b.iter(|| MigrationPlan::between(&assignment, repacked, &layer_loads));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_repack);
criterion_main!(benches);
