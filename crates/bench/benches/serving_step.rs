//! Criterion bench of the dynamism work in one serving engine step under
//! CALM early exit, on GPT-24 (the `ServingConfig::small` model).  Three
//! rows, each per call:
//!
//! * `by_value` — `inference_step`, which builds a fresh `LoadUpdate` and
//!   drops it;
//! * `into` — `inference_step_into`, which refills one update in place
//!   (the serving engine's call);
//! * `validate` — `LoadUpdate::validate`, which the serving engine runs on
//!   every update.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dynmo_dynamics::{DynamismEngine, EarlyExitEngine, EarlyExitMethod};
use dynmo_model::Model;
use dynmo_serve::ServingConfig;

fn bench_serving_step(c: &mut Criterion) {
    let model = Model::from_preset(ServingConfig::small(1).preset);
    let layers = format!("{}_layers", model.num_layers());
    let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 7);
    let mut iteration = 0u64;
    let mut group = c.benchmark_group("serving_step_calm");
    group.bench_function(BenchmarkId::new("by_value", &layers), |b| {
        b.iter(|| {
            iteration += 1;
            engine.inference_step(iteration)
        });
    });
    let mut update = engine.inference_step(0);
    group.bench_function(BenchmarkId::new("into", &layers), |b| {
        b.iter(|| {
            iteration += 1;
            engine.inference_step_into(iteration, &mut update);
            black_box(&update);
        });
    });
    group.bench_function(BenchmarkId::new("validate", &layers), |b| {
        b.iter(|| black_box(&update).validate());
    });
    group.finish();
}

criterion_group!(benches, bench_serving_step);
criterion_main!(benches);
