//! Figure 4 (left/middle/bottom) sweeps: re-packing models onto fewer GPUs.
//!
//! [`run_packed_sweep`] runs each model size on a fixed 8 / 6 / 4 / 2 GPUs
//! and reports throughput, throughput per GPU, and OOM when a model no
//! longer fits.  [`run_average_gpu_sweep`] lets DynMo re-pack dynamically
//! as the model shrinks and reports the average number of GPUs used over
//! the run (the bottom panel).

use dynmo_core::balancer::BalanceObjective;
use dynmo_core::controller::{RebalanceController, RebalancePolicy};
use dynmo_core::trainer::{Trainer, TrainerConfig};
use dynmo_core::PartitionBalancer;
use dynmo_model::{ClusterConfig, DeviceSpec, Model, ModelPreset};
use dynmo_pipeline::memory::check_stage_memory;
use dynmo_pipeline::{ScheduleKind, StageAssignment};
use serde::Serialize;

use crate::cases::{build_engine, BalancerKind, DynamicCase};
use crate::idleness::layer_sweep;
use crate::scale::ExperimentScale;

/// The cases whose models shrink as they train (gradual pruning, layer
/// freezing, early exit), in table order.
pub const SHRINKING_CASES: [DynamicCase; 3] = [
    DynamicCase::Pruning,
    DynamicCase::Freezing,
    DynamicCase::EarlyExit,
];

/// One (case, layer count, GPU count) row of Figure 4 (left/middle).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PackedRow {
    /// Dynamic-model case label.
    pub case: String,
    /// GPT layer count.
    pub layers: usize,
    /// Pipeline stages the model is packed onto.
    pub gpus: usize,
    /// Training throughput (0 when the model does not fit).
    pub tokens_per_second: f64,
    /// Throughput per GPU (0 when the model does not fit).
    pub tokens_per_second_per_gpu: f64,
    /// The uniform partition overflows device memory.
    pub oom: bool,
}

/// One (case, layer count) row of Figure 4 (bottom).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AverageGpuRow {
    /// Dynamic-model case label.
    pub case: String,
    /// GPT layer count.
    pub layers: usize,
    /// GPUs held, averaged over the run.
    pub average_gpus: f64,
    /// GPUs held at the end of the run.
    pub final_gpus: usize,
}

/// A Partition-by-time controller with the given policy.
fn partition_by_time(policy: RebalancePolicy) -> RebalanceController {
    RebalanceController::new(
        Box::new(PartitionBalancer::new()),
        BalanceObjective::ByTime,
        policy,
    )
}

/// Run Figure 4 (left/middle)'s rows in table order: each shrinking case,
/// each layer count of the scale, packed onto 8, 6, 4 and 2 GPUs under the
/// case's own workload.  A configuration whose uniform partition overflows
/// device memory is an OOM row and is not run.
pub fn run_packed_sweep(scale: ExperimentScale) -> Vec<PackedRow> {
    // The re-packing experiments use a single node with up to 8 GPUs in
    // pipeline parallelism (paper §5.3), on a 24 GB device.  Every
    // configuration the scales run (24–48 layers on 8 down to 2 GPUs) still
    // fits its uniform partition on it, so no row is an OOM row and the
    // paper's OOM entries do not appear; the memory check only guards a
    // configuration that would overflow.
    let device = DeviceSpec {
        memory_capacity: 24 * 1024 * 1024 * 1024,
        ..DeviceSpec::h100_sxm5()
    };
    let mut rows = Vec::new();
    for case in SHRINKING_CASES {
        for &layers in &layer_sweep(scale) {
            for gpus in [8usize, 6, 4, 2] {
                let model = Model::from_preset(ModelPreset::Gpt { layers });
                let cluster = ClusterConfig::homogeneous(8, gpus, 1, device);
                let trainer_config = TrainerConfig {
                    num_microbatches: 4 * gpus,
                    ..TrainerConfig::paper_defaults(cluster.clone(), scale.iterations().min(200))
                };
                let identity = dynmo_dynamics::LoadUpdate::identity(model.num_layers());
                let loads =
                    dynmo_core::profiler::profile_layers(&model, &identity, &cluster.device);
                let memory = check_stage_memory(
                    &StageAssignment::uniform(model.num_layers(), gpus),
                    &loads,
                    cluster.device.memory_capacity,
                    ScheduleKind::OneFOneB,
                    trainer_config.num_microbatches,
                );
                let tokens_per_second = if memory.all_fit() {
                    let mut engine =
                        build_engine(case, &model, scale, BalancerKind::PartitionByTime, 7);
                    let controller = partition_by_time(RebalancePolicy::dynamic());
                    let mut trainer = Trainer::new(model, trainer_config, controller);
                    trainer.run(engine.as_mut()).tokens_per_second
                } else {
                    0.0
                };
                rows.push(PackedRow {
                    case: case.label().to_string(),
                    layers,
                    gpus,
                    tokens_per_second,
                    tokens_per_second_per_gpu: tokens_per_second / gpus as f64,
                    oom: !memory.all_fit(),
                });
            }
        }
    }
    rows
}

/// Run Figure 4 (bottom)'s rows in table order: each shrinking case at each
/// layer count of the scale, trained on a single 8-GPU node with dynamic
/// re-packing down to as few as 2 GPUs.
pub fn run_average_gpu_sweep(scale: ExperimentScale) -> Vec<AverageGpuRow> {
    let mut rows = Vec::new();
    for case in SHRINKING_CASES {
        for &layers in &layer_sweep(scale) {
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
            let controller = partition_by_time(RebalancePolicy {
                frequency: None,
                repack: true,
            });
            let mut engine = build_engine(case, &model, scale, BalancerKind::PartitionByTime, 3);
            let mut trainer = Trainer::new(model, trainer_config, controller);
            let report = trainer.run(engine.as_mut());
            rows.push(AverageGpuRow {
                case: case.label().to_string(),
                layers,
                average_gpus: report.average_active_workers,
                final_gpus: report.final_active_workers,
            });
        }
    }
    rows
}
