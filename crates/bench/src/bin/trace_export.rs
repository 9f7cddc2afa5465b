//! Perfetto timeline export — one trace, three subsystems.
//!
//! Runs a training session (p = 8 pipeline ranks, m = 32 micro-batches,
//! CALM early exit, dynamic rebalancing, periodic checkpoints), an
//! autoscaled serving session on a bursty trace, and a fault-injected
//! resilient run, each with a telemetry recorder attached, and assembles
//! the three event streams into one Chrome-trace-event JSON artifact
//! (`results/trace_export.trace.json`) that `ui.perfetto.dev` opens
//! directly: one Perfetto *process* per subsystem, one *thread* per
//! pipeline rank / serving replica, with rebalance / checkpoint /
//! scale-out / fault / restore markers pinned across their process.
//!
//! The binary re-validates its own artifact with
//! [`dynmo_telemetry::validate_trace_json`] before exiting, so CI's
//! smoke-run is a structural test of the whole export path.  Timestamps
//! are *simulated* seconds (the resilience group uses the iteration index
//! as its time axis); recording changes nothing simulated — the trainer's
//! trajectory checksum is asserted against an unrecorded twin run.

use std::sync::Arc;

use dynmo_bench::ExperimentScale;
use dynmo_core::balancer::{BalanceObjective, PartitionBalancer};
use dynmo_core::controller::{RebalanceController, RebalancePolicy};
use dynmo_core::recovery::{run_resilient, ResilientTrainingConfig, WorkloadConfig};
use dynmo_core::trainer::{Trainer, TrainerConfig};
use dynmo_dynamics::{EarlyExitEngine, EarlyExitMethod};
use dynmo_model::{ClusterConfig, DeviceSpec, Model, ModelPreset};
use dynmo_pipeline::ScheduleKind;
use dynmo_resilience::MemoryCheckpointStore;
use dynmo_runtime::FaultPlan;
use dynmo_serve::{
    ArrivalProcess, AutoscalerConfig, LengthModel, RequestTrace, ServingConfig, ServingEngine,
};
use dynmo_telemetry::{
    validate_trace_json, MarkerKind, MemoryRecorder, Recorder, Stopwatch, TraceBuilder,
};

const STAGES: usize = 8;
const MICROBATCHES: usize = 32;
const TRACE_PATH: &str = "results/trace_export.trace.json";

fn trainer_config(iterations: u64) -> TrainerConfig {
    TrainerConfig {
        cluster: ClusterConfig::homogeneous(4, STAGES, 1, DeviceSpec::h100_sxm5()),
        schedule: ScheduleKind::OneFOneB,
        num_iterations: iterations,
        num_microbatches: MICROBATCHES,
        allreduce_overlap: 0.8,
    }
}

fn dynamic_controller() -> RebalanceController {
    RebalanceController::new(
        Box::new(PartitionBalancer::new()),
        BalanceObjective::ByTime,
        RebalancePolicy::dynamic(),
    )
}

/// The training session: per-rank op spans + rebalance/checkpoint markers.
fn record_training(recorder: Arc<MemoryRecorder>) {
    let iterations = 150u64; // > the early-exit engine's EveryN(100) cadence
    let model = Model::from_preset(ModelPreset::Gpt { layers: 32 });

    let mut traced = Trainer::new(
        model.clone(),
        trainer_config(iterations),
        dynamic_controller(),
    )
    .with_checkpointing(Box::new(MemoryCheckpointStore::new()), 50)
    .with_recorder(recorder);
    let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 7);
    let (traced_report, host_seconds) = Stopwatch::time(|| traced.run(&mut engine));

    let mut plain = Trainer::new(
        model.clone(),
        trainer_config(iterations),
        dynamic_controller(),
    )
    .with_checkpointing(Box::new(MemoryCheckpointStore::new()), 50);
    let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 7);
    let plain_report = plain.run(&mut engine);

    assert_eq!(
        traced_report.trajectory_checksum, plain_report.trajectory_checksum,
        "recording must not change the simulated trajectory"
    );
    println!(
        "training:   {} iterations, checksum {:016x}, traced run {:.1} ms host time",
        iterations,
        traced_report.trajectory_checksum,
        host_seconds * 1e3
    );
}

/// The serving session: per-replica engine-step spans + scale markers.
fn record_serving(recorder: Arc<MemoryRecorder>) {
    let process = ArrivalProcess::Bursty {
        base_rate: 2.0,
        spike_rate: 40.0,
        spike_start: 10.0,
        spike_duration: 20.0,
    };
    let lengths = LengthModel {
        mean_prompt_tokens: 256,
        mean_output_tokens: 64,
        spread: 0.4,
    };
    let trace = RequestTrace::generate(&process, 40.0, &lengths, 21);
    let mut config = ServingConfig::small(1);
    config.max_replicas = 4;
    let config = config.with_autoscaler(AutoscalerConfig::responsive(2.0, 1, 4));
    let report = ServingEngine::new(config)
        .expect("serving config is valid")
        .with_recorder(recorder)
        .serve(&trace, None);
    assert!(
        report.scale_out_events() >= 1,
        "the bursty trace must trigger a scale-out"
    );
    println!(
        "serving:    {} requests, {} engine steps, {} scale-outs / {} scale-ins, p99 TTFT {:.2} s",
        report.completed,
        report.engine_steps,
        report.scale_out_events(),
        report.scale_in_events(),
        report.ttft.p99
    );
}

/// The resilient run: fault/restore markers + replay spans on an
/// iteration-index time axis.
fn record_resilience(recorder: Arc<MemoryRecorder>) {
    let config = ResilientTrainingConfig {
        world_size: 4,
        iterations: 35,
        workload: WorkloadConfig::small(12, 42),
        fault_plan: FaultPlan::none().kill(2, 18),
        checkpoint_interval: 10,
    };
    let (report, host_seconds) = Stopwatch::time(|| run_resilient(&config));
    let report = report.expect("resilient run completes");
    assert!(!report.recoveries.is_empty(), "the kill must be recovered");

    recorder.counter(0, "world_size", 0.0, report.initial_world_size as f64);
    for recovery in &report.recoveries {
        let detected = recovery.detected_at as f64;
        recorder.instant(
            0,
            MarkerKind::Fault,
            &format!("ranks {:?}", recovery.failed_ranks),
            detected,
            &[("iteration", recovery.detected_at.to_string())],
        );
        recorder.instant(
            0,
            MarkerKind::Restore,
            &format!("from iter {}", recovery.resumed_from),
            detected,
            &[
                ("replayed", recovery.replayed.to_string()),
                ("world_size_after", recovery.world_size_after.to_string()),
                ("cost_s", format!("{:.4}", recovery.cost)),
            ],
        );
        recorder.span(
            0,
            0,
            &format!("replay {}..{}", recovery.resumed_from, recovery.detected_at),
            recovery.resumed_from as f64,
            detected,
        );
        recorder.counter(0, "world_size", detected, recovery.world_size_after as f64);
    }
    println!(
        "resilience: {} iterations, {} recoveries, {} iterations replayed, run {:.1} ms host time",
        report.iterations,
        report.recoveries.len(),
        report.replayed_iterations,
        host_seconds * 1e3
    );
}

fn main() {
    // Accepted for CI-invocation uniformity; the export is fixed-size.
    let _ = ExperimentScale::from_process_args(&[]);
    println!("Perfetto trace export (p = {STAGES}, m = {MICROBATCHES})\n");

    let training = Arc::new(MemoryRecorder::new());
    let serving = Arc::new(MemoryRecorder::new());
    let resilience = Arc::new(MemoryRecorder::new());
    record_training(training.clone());
    record_serving(serving.clone());
    record_resilience(resilience.clone());

    let mut trace = TraceBuilder::new();
    trace.process_name(0, "training (p=8, m=32, CALM early exit)");
    for rank in 0..STAGES {
        trace.thread_name(0, rank as u64, &format!("rank {rank}"));
    }
    trace.add_events(0, &training.take());

    trace.process_name(1, "serving (bursty trace, autoscaled)");
    for replica in 0..4usize {
        trace.thread_name(1, replica as u64, &format!("replica {replica}"));
    }
    trace.add_events(1, &serving.take());

    trace.process_name(2, "resilience (iteration time axis)");
    trace.thread_name(2, 0, "replay");
    trace.add_events(2, &resilience.take());

    let json = trace.to_json();
    let stats = validate_trace_json(&json).expect("emitted trace must validate");
    assert!(stats.spans > 0, "trace must carry op spans");
    assert!(
        stats.span_tracks >= STAGES,
        "one span track per pipeline rank (got {})",
        stats.span_tracks
    );
    assert_eq!(stats.processes, 3, "training + serving + resilience");
    for required in ["rebalance", "checkpoint", "scale_out", "fault", "restore"] {
        assert!(
            stats
                .instant_names
                .iter()
                .any(|name| name.starts_with(&format!("{required}: "))),
            "trace must carry a `{required}` marker (names: {:?})",
            stats.instant_names
        );
    }

    trace.write(TRACE_PATH).expect("results/ is writable");
    println!(
        "\n{} events ({} spans on {} tracks, {} instants, {} counters) -> {}",
        stats.events, stats.spans, stats.span_tracks, stats.instants, stats.counters, TRACE_PATH
    );
    println!("open in https://ui.perfetto.dev (Open trace file)");
}
