//! Criterion bench behind Figure 1: how long one pipeline-iteration
//! simulation takes per dynamic-model case, and what idleness it reports.
//! (The figure itself is regenerated by the `fig1_idleness` binary; this
//! bench keeps the per-iteration simulation cost visible so regressions in
//! the simulator show up in `cargo bench`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dynmo_bench::{build_engine, BalancerKind, DynamicCase, ExperimentScale};
use dynmo_core::profiler::profile_layers;
use dynmo_model::ClusterConfig;
use dynmo_pipeline::{
    load::aggregate_stage_loads, CommCostModel, PipelineSimulator, ScheduleKind, StageAssignment,
};

fn bench_idleness(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_iteration_simulation");
    let scale = ExperimentScale::Smoke;
    for case in [
        DynamicCase::MoeMixtral,
        DynamicCase::Pruning,
        DynamicCase::Freezing,
        DynamicCase::SparseAttention,
        DynamicCase::EarlyExit,
        DynamicCase::MixtureOfDepths,
    ] {
        let model = case.model(24);
        let cluster = ClusterConfig::single_node(4);
        let mut engine = build_engine(case, &model, scale, BalancerKind::StaticMegatron, 1);
        let update = engine.step(0);
        let loads = profile_layers(&model, &update, &cluster.device);
        let assignment = StageAssignment::uniform(model.num_layers(), 4);
        let stage_loads = aggregate_stage_loads(&loads, &assignment);
        let mut simulator =
            PipelineSimulator::new(CommCostModel::new(cluster), ScheduleKind::OneFOneB);
        let model_cfg = model.config().clone();
        group.bench_with_input(
            BenchmarkId::from_parameter(case.label()),
            &stage_loads,
            |b, stage_loads| {
                b.iter(|| simulator.simulate(&model_cfg, stage_loads, 16));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_idleness);
criterion_main!(benches);
