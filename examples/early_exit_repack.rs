//! Early exit with re-packing — the case the paper singles out as the one
//! that "benefits greatly from re-packing", because tokens exiting early
//! drain the load from the *later* pipeline stages specifically (§4.2.5).
//!
//! The example trains a 48-layer GPT with CALM-style early exit under three
//! configurations — static, DynMo rebalancing only, and DynMo with
//! re-packing — and prints throughput, throughput per GPU, and the GPUs
//! actually used.
//!
//! ```text
//! cargo run --release --example early_exit_repack
//! ```

use dynmo::baselines::static_controller;
use dynmo::core::balancer::{BalanceObjective, PartitionBalancer};
use dynmo::core::controller::{RebalanceController, RebalancePolicy};
use dynmo::core::report::TrainingReport;
use dynmo::core::trainer::{Trainer, TrainerConfig};
use dynmo::dynamics::{EarlyExitEngine, EarlyExitMethod};
use dynmo::model::{ClusterConfig, Model, ModelPreset};

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Static,
    Rebalance,
    RebalanceAndRepack,
}

fn run(mode: Mode) -> TrainingReport {
    let model = Model::from_preset(ModelPreset::Gpt { layers: 48 });
    let cluster = ClusterConfig::single_node(8);
    let config = TrainerConfig::paper_defaults(cluster.clone(), 400);
    let controller = match mode {
        Mode::Static => static_controller(),
        Mode::Rebalance => RebalanceController::new(
            Box::new(PartitionBalancer::new()),
            BalanceObjective::ByTime,
            RebalancePolicy::dynamic(),
        ),
        Mode::RebalanceAndRepack => RebalanceController::new(
            Box::new(PartitionBalancer::new()),
            BalanceObjective::ByTime,
            RebalancePolicy {
                frequency: None,
                repack: true,
            },
        ),
    };
    let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 21);
    let mut trainer = Trainer::new(model, config, controller);
    trainer.run(&mut engine)
}

fn main() {
    println!("Early exit (CALM) on GPT-48L, 8-stage pipeline, 400 iterations\n");
    let static_report = run(Mode::Static);
    let rebalance_report = run(Mode::Rebalance);
    let repack_report = run(Mode::RebalanceAndRepack);

    println!(
        "{:<28} {:>14} {:>16} {:>10}",
        "Configuration", "tokens/s", "tokens/s/GPU", "avg GPUs"
    );
    for (name, report) in [
        ("Static (Megatron-LM)", &static_report),
        ("DynMo (rebalance only)", &rebalance_report),
        ("DynMo (rebalance + re-pack)", &repack_report),
    ] {
        println!(
            "{name:<28} {:>14.0} {:>16.0} {:>10.1}",
            report.tokens_per_second,
            report.tokens_per_second_per_gpu,
            report.average_active_workers
        );
    }

    println!(
        "\nRebalancing speedup over static:        {:.2}x",
        rebalance_report.speedup_over(&static_report)
    );
    println!(
        "Additional effect of re-packing:         {:+.1}% throughput, {:.1} → {:.1} average GPUs",
        (repack_report.tokens_per_second / rebalance_report.tokens_per_second - 1.0) * 100.0,
        rebalance_report.average_active_workers,
        repack_report.average_active_workers
    );
    println!(
        "Per-GPU efficiency gain from re-packing: {:.2}x",
        repack_report.tokens_per_second_per_gpu / rebalance_report.tokens_per_second_per_gpu
    );
}
