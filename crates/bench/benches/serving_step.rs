//! Criterion bench of serving engine steps on GPT-24 (the
//! `ServingConfig::small` model).  Two groups, each row per call.
//!
//! `serving_step_calm`, the dynamism work in one engine step under CALM
//! early exit:
//!
//! * `by_value` — `inference_step`, which builds a fresh `LoadUpdate` and
//!   drops it;
//! * `into` — `inference_step_into`, which refills one update in place
//!   (the serving engine's call);
//! * `validate` — `LoadUpdate::validate`, which the serving engine runs on
//!   every update.
//!
//! `serving_trace`, a whole serving run end to end: a fresh two-replica
//! deployment with records dropped serves a fixed 600 s Poisson trace at
//! 4 req/s (the trace of `tests/allocations.rs`, 2,425 requests; ~120,000
//! engine steps at the identity and ~142,000 under CALM, whose shorter
//! steps batch fewer decodes):
//!
//! * `identity` — no dynamism engine, so steps run at the identity update;
//! * `calm` — a fresh CALM early-exit engine, stepped on every engine step.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dynmo_dynamics::{DynamismEngine, EarlyExitEngine, EarlyExitMethod};
use dynmo_model::Model;
use dynmo_serve::{ArrivalProcess, LengthModel, RequestTrace, ServingConfig, ServingEngine};

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

fn bench_serving_trace(c: &mut Criterion) {
    let mut config = ServingConfig::small(2);
    config.retain_records = false;
    let lengths = LengthModel {
        mean_prompt_tokens: 256,
        mean_output_tokens: 64,
        spread: 0.4,
    };
    let trace = RequestTrace::generate(&ArrivalProcess::Poisson { rate: 4.0 }, 600.0, &lengths, 7);
    let model = Model::from_preset(config.preset);
    let label = format!("{}_requests", trace.num_requests());
    let deployment = || ServingEngine::new(config.clone()).expect("valid deployment");
    let mut group = c.benchmark_group("serving_trace");
    group.bench_function(BenchmarkId::new("identity", &label), |b| {
        b.iter(|| deployment().serve(black_box(&trace), None).engine_steps);
    });
    group.bench_function(BenchmarkId::new("calm", &label), |b| {
        b.iter(|| {
            let mut calm = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 7);
            deployment()
                .serve(black_box(&trace), Some(&mut calm))
                .engine_steps
        });
    });
    group.finish();
}

criterion_group!(benches, bench_serving_step, bench_serving_trace);
criterion_main!(benches);
