//! Figure 4 (left/middle/bottom) — re-packing models onto fewer GPUs.
//!
//! Reproduces three pieces of the paper's Figure 4:
//!
//! 1. Throughput and throughput-per-GPU when the pipeline is packed onto
//!    8 / 6 / 4 / 2 GPUs (per model size), with OOM detection when a model
//!    no longer fits.
//! 2. The average number of GPUs used over the whole training run when
//!    DynMo re-packs dynamically as the model shrinks (gradual pruning,
//!    layer freezing, early exit).
//! 3. The re-pack trigger points along the run.
//!
//! Use `--section {packed|avg-gpus|all}` to select a part and `--scale` as
//! usual.

use dynmo_bench::{dump_json, fmt, BalancerKind, CaseConfig, DynamicCase, ExperimentScale, Table};
use dynmo_core::balancer::BalanceObjective;
use dynmo_core::controller::{RebalanceController, RebalancePolicy};
use dynmo_core::repack::RepackConfig;
use dynmo_core::trainer::{Trainer, TrainerConfig};
use dynmo_core::PartitionBalancer;
use dynmo_model::{ClusterConfig, DeviceSpec, Model, ModelPreset};
use dynmo_pipeline::memory::{check_stage_memory, inflight_microbatches};
use dynmo_pipeline::{ScheduleKind, StageAssignment};
use serde::Serialize;

#[derive(Serialize)]
struct PackedRow {
    case: String,
    layers: usize,
    gpus: usize,
    tokens_per_second: f64,
    tokens_per_second_per_gpu: f64,
    oom: bool,
}

#[derive(Serialize)]
struct AvgGpuRow {
    case: String,
    layers: usize,
    average_gpus: f64,
    final_gpus: usize,
}

fn main() {
    let scale =
        ExperimentScale::from_process_args(&[("--section", &["packed", "avg-gpus", "all"])]);
    let args: Vec<String> = std::env::args().collect();
    let section = args
        .windows(2)
        .find(|w| w[0] == "--section")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "all".to_string());
    println!("Figure 4: re-packing to fewer GPUs (scale: {scale:?})\n");

    if section == "packed" || section == "all" {
        packed_gpu_sweep(scale);
    }
    if section == "avg-gpus" || section == "all" {
        average_gpu_usage(scale);
    }
}

/// Part 1: run each model size on a fixed number of GPUs (8/6/4/2) under
/// the early-exit workload and report throughput, throughput/GPU, and OOM.
fn packed_gpu_sweep(scale: ExperimentScale) {
    let layer_counts = match scale {
        ExperimentScale::Smoke => vec![24],
        _ => vec![24, 32, 40, 48],
    };
    // The re-packing experiments use a single node with up to 8 GPUs in
    // pipeline parallelism (paper §5.3) and a device small enough that deep
    // models eventually stop fitting (so the OOM entries of Figure 4 appear).
    let device = DeviceSpec {
        memory_capacity: 24 * 1024 * 1024 * 1024,
        ..DeviceSpec::h100_sxm5()
    };
    let mut rows: Vec<PackedRow> = Vec::new();
    for case in [
        DynamicCase::Pruning,
        DynamicCase::Freezing,
        DynamicCase::EarlyExit,
    ] {
        let mut table = Table::new(
            &format!("{} — packed onto fewer GPUs", case.label()),
            &["Layers", "GPUs", "Tokens/sec", "Tokens/sec/GPU", "Status"],
        );
        for &layers in &layer_counts {
            for &gpus in &[8usize, 6, 4, 2] {
                let model = Model::from_preset(ModelPreset::Gpt { layers });
                let cluster = ClusterConfig::homogeneous(8, gpus, 1, device);
                let trainer_config = TrainerConfig {
                    num_microbatches: 4 * gpus,
                    ..TrainerConfig::paper_defaults(cluster.clone(), scale.iterations().min(200))
                };

                // OOM check against the device capacity before running.
                let engine_update = dynmo_dynamics::LoadUpdate::identity(model.num_layers());
                let loads =
                    dynmo_core::profiler::profile_layers(&model, &engine_update, &cluster.device);
                let assignment = StageAssignment::uniform(model.num_layers(), gpus);
                let memory = check_stage_memory(
                    &assignment,
                    &loads,
                    cluster.device.memory_capacity,
                    ScheduleKind::OneFOneB,
                    trainer_config.num_microbatches,
                );
                if !memory.all_fit() {
                    table.add_row(vec![
                        layers.to_string(),
                        gpus.to_string(),
                        "-".into(),
                        "-".into(),
                        "OOM".into(),
                    ]);
                    rows.push(PackedRow {
                        case: case.label().to_string(),
                        layers,
                        gpus,
                        tokens_per_second: 0.0,
                        tokens_per_second_per_gpu: 0.0,
                        oom: true,
                    });
                    continue;
                }

                let controller = RebalanceController::new(
                    Box::new(PartitionBalancer::new()),
                    BalanceObjective::ByTime,
                    RebalancePolicy::dynamic(),
                );
                let mut engine = dynmo_bench::build_engine(
                    case,
                    &model,
                    scale,
                    BalancerKind::PartitionByTime,
                    7,
                );
                let mut trainer = Trainer::new(model, trainer_config, controller);
                let report = trainer.run(engine.as_mut());
                table.add_row(vec![
                    layers.to_string(),
                    gpus.to_string(),
                    fmt(report.tokens_per_second, 0),
                    fmt(report.tokens_per_second / gpus as f64, 0),
                    "ok".into(),
                ]);
                rows.push(PackedRow {
                    case: case.label().to_string(),
                    layers,
                    gpus,
                    tokens_per_second: report.tokens_per_second,
                    tokens_per_second_per_gpu: report.tokens_per_second / gpus as f64,
                    oom: false,
                });
            }
        }
        table.print();
    }
    if let Some(path) = dump_json("fig4_packed", &rows) {
        println!("(raw rows written to {})", path.display());
    }
}

/// Part 2: let DynMo re-pack dynamically during training and report the
/// average number of GPUs used (the Figure 4 bottom panel).
fn average_gpu_usage(scale: ExperimentScale) {
    let layer_counts = match scale {
        ExperimentScale::Smoke => vec![24],
        _ => vec![24, 32, 40, 48],
    };
    let mut rows: Vec<AvgGpuRow> = Vec::new();
    let mut table = Table::new(
        "Average number of GPUs used over the training run (dynamic re-packing)",
        &["Case", "Layers", "Avg GPUs", "Final GPUs"],
    );
    for case in [
        DynamicCase::Pruning,
        DynamicCase::Freezing,
        DynamicCase::EarlyExit,
    ] {
        for &layers in &layer_counts {
            let config = CaseConfig {
                repack: true,
                ..CaseConfig::new(case, layers, scale)
            };
            // Single-node 8-GPU pipeline, as in the paper's §5.3 setup; the
            // device memory is scaled down so that the memory-capacity
            // constraint binds for these (small) GPT models the way 80 GB
            // binds for the paper's full-size runs.
            let model = Model::from_preset(ModelPreset::Gpt { layers });
            let device = DeviceSpec {
                memory_capacity: 20 * 1024 * 1024 * 1024,
                ..DeviceSpec::h100_sxm5()
            };
            let cluster = ClusterConfig {
                device,
                ..ClusterConfig::single_node(8)
            };
            let trainer_config = TrainerConfig {
                num_microbatches: 32,
                ..TrainerConfig::paper_defaults(cluster.clone(), scale.iterations())
            };
            let controller = RebalanceController::new(
                Box::new(PartitionBalancer::new()),
                BalanceObjective::ByTime,
                RebalancePolicy::dynamic_with_repack(RepackConfig {
                    max_memory: cluster.device.memory_capacity,
                    target_num_workers: 2,
                    utilization_cap: 0.9,
                }),
            );
            let mut engine =
                dynmo_bench::build_engine(case, &model, scale, BalancerKind::PartitionByTime, 3);
            let mut trainer = Trainer::new(model, trainer_config, controller);
            let report = trainer.run(engine.as_mut());
            table.add_row(vec![
                case.label().to_string(),
                layers.to_string(),
                fmt(report.average_active_workers, 1),
                report.final_active_workers.to_string(),
            ]);
            rows.push(AvgGpuRow {
                case: case.label().to_string(),
                layers,
                average_gpus: report.average_active_workers,
                final_gpus: report.final_active_workers,
            });
            let _ = config;
        }
    }
    table.print();
    if let Some(path) = dump_json("fig4_avg_gpus", &rows) {
        println!("(raw rows written to {})", path.display());
    }
}

/// Kept for parity with the paper's description of the schedule-driven
/// in-flight activation accounting; used in the OOM pre-check above.
#[allow(dead_code)]
fn max_inflight(stages: usize, microbatches: usize) -> usize {
    inflight_microbatches(ScheduleKind::OneFOneB, 0, stages, microbatches)
}
