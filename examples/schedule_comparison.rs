//! Compare the four pipeline schedules on the same training run.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example schedule_comparison
//! ```
//!
//! Trains a 32-layer GPT with adaptive layer freezing on an 8-stage
//! pipeline under each of GPipe, 1F1B, interleaved 1F1B (2 virtual stages
//! per worker) and the ZB-H1 zero-bubble schedule, and prints the bubble
//! each schedule leaves behind — the baseline a balancer starts from.  The
//! paper's Figure 1 measures idleness against the strongest ("almost
//! zero-bubble") member of this family.

use dynmo::baselines::static_controller;
use dynmo::core::report::TrainingReport;
use dynmo::core::trainer::{Trainer, TrainerConfig};
use dynmo::dynamics::{FreezingEngine, FreezingPolicy};
use dynmo::model::{ClusterConfig, Model, ModelPreset};
use dynmo::pipeline::ScheduleKind;

fn run(schedule: ScheduleKind) -> TrainingReport {
    let model = Model::from_preset(ModelPreset::Gpt { layers: 32 });
    let cluster = ClusterConfig::single_node(8);
    let config = TrainerConfig {
        schedule,
        ..TrainerConfig::paper_defaults(cluster, 200)
    };
    let mut engine = FreezingEngine::new(&model, FreezingPolicy::paper_default(), 42);
    let mut trainer = Trainer::new(model, config, static_controller());
    trainer.run(&mut engine)
}

fn main() {
    println!("Pipeline schedules: freezing GPT-32L on an 8-stage pipeline (static split)\n");

    for schedule in ScheduleKind::ALL {
        let report = run(schedule);
        println!(
            "{:<24} {:>12.0} tokens/s   idleness {:>5.1}%   bubble {:>5.1}%",
            schedule.label(),
            report.tokens_per_second,
            report.average_idleness * 100.0,
            report.average_bubble_ratio * 100.0,
        );
    }

    println!(
        "\nThe paper's static baseline schedule: {}",
        ScheduleKind::ZeroBubbleH1.label()
    );
}
