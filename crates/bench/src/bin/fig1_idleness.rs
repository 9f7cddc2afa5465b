//! Figure 1 — average GPU idleness per iteration for dynamic GPT models.
//!
//! For each of the six dynamic-model schemes the paper reports how idle the
//! pipeline's GPUs are when *no* dynamic rebalancing is applied (static
//! Megatron-style partitioning), compared against the scheme's own baseline
//! (dense attention, no early exit, static dense model, ...).  Run with
//! `--scale {smoke|default|paper}`.

use dynmo_bench::{
    dump_json, pct, run_configuration, BalancerKind, CaseConfig, DynamicCase, ExperimentScale,
    Table,
};
use dynmo_pipeline::ScheduleKind;
use serde::Serialize;

#[derive(Serialize)]
struct IdlenessRow {
    case: String,
    configuration: String,
    layers: usize,
    idleness: f64,
    bubble_ratio: f64,
    imbalance: f64,
}

fn main() {
    let scale = ExperimentScale::from_process_args(&[]);
    println!("Figure 1: average GPU idleness (scale: {scale:?})\n");

    let mut rows: Vec<IdlenessRow> = Vec::new();
    let mut table = Table::new(
        "Figure 1 — average idleness per iteration (static partitioning)",
        &[
            "Case",
            "Configuration",
            "Layers",
            "Idleness",
            "Bubble ratio",
            "ΔL (Eq.2)",
        ],
    );

    // MoE: Mixtral and LLaMA-MoE under their routers (no rebalancing).
    for case in [DynamicCase::MoeMixtral, DynamicCase::MoeLlama] {
        let config = CaseConfig::new(case, 32, scale);
        let result = run_configuration(&config, BalancerKind::StaticMegatron);
        push(
            &mut table,
            &mut rows,
            case,
            "token-choice (aux loss)",
            32,
            &result.report,
        );
    }

    // GPT cases: sweep the paper's layer counts; report the dynamic scheme
    // under static partitioning and, where it exists, the scheme-free
    // baseline for contrast.
    let layer_counts = layer_sweep(scale);
    for case in DynamicCase::GPT_CASES {
        for &layers in &layer_counts {
            let config = CaseConfig::new(case, layers, scale);
            let dynamic = run_configuration(&config, BalancerKind::StaticMegatron);
            push(
                &mut table,
                &mut rows,
                case,
                "static partitioning",
                layers,
                &dynamic.report,
            );
            if case.sota_label().is_some() {
                let baseline = run_configuration(&config, BalancerKind::Sota);
                push(
                    &mut table,
                    &mut rows,
                    case,
                    case.sota_label().unwrap_or("baseline"),
                    layers,
                    &baseline.report,
                );
            }
        }
    }

    // Schedule ablation: the same dynamic workload under all four pipeline
    // schedules (static partitioning).  This is the bubble a balancer
    // starts from — the paper's Figure 1 baseline runs the strongest
    // ("almost zero-bubble") member of this family.
    for schedule in ScheduleKind::ALL {
        let config = CaseConfig::new(DynamicCase::EarlyExit, 24, scale).with_schedule(schedule);
        let result = run_configuration(&config, BalancerKind::StaticMegatron);
        push(
            &mut table,
            &mut rows,
            DynamicCase::EarlyExit,
            &schedule.label(),
            24,
            &result.report,
        );
    }

    table.print();
    if let Some(path) = dump_json("fig1_idleness", &rows) {
        println!("(raw rows written to {})", path.display());
    }
}

fn layer_sweep(scale: ExperimentScale) -> Vec<usize> {
    match scale {
        ExperimentScale::Smoke => vec![24],
        _ => vec![24, 32, 40, 48],
    }
}

fn push(
    table: &mut Table,
    rows: &mut Vec<IdlenessRow>,
    case: DynamicCase,
    configuration: &str,
    layers: usize,
    report: &dynmo_core::report::TrainingReport,
) {
    table.add_row(vec![
        case.label().to_string(),
        configuration.to_string(),
        layers.to_string(),
        pct(report.average_idleness),
        pct(report.average_bubble_ratio),
        format!("{:.2}", report.mean_imbalance),
    ]);
    rows.push(IdlenessRow {
        case: case.label().to_string(),
        configuration: configuration.to_string(),
        layers,
        idleness: report.average_idleness,
        bubble_ratio: report.average_bubble_ratio,
        imbalance: report.mean_imbalance,
    });
}
