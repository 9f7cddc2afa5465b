//! Figure 3 — end-to-end training throughput for the six dynamic-model
//! cases, comparing static Megatron-LM / DeepSpeed (and the case's SoTA
//! system where one exists) against the four DynMo variants.
//!
//! Flags:
//! * `--scale {smoke|default|paper}` — experiment size (default: `default`).
//! * `--ablate-repack` — additionally run the best DynMo variant with
//!   re-packing enabled, reproducing the paper's claim that re-packing adds
//!   only ~4–11% on top of rebalancing (§3.4.2 / §5.1).

use dynmo_bench::cases::reference_throughput;
use dynmo_bench::{
    dump_json, fmt, headline_speedup, run_comparison, run_configuration, BalancerKind, CaseConfig,
    ConfigurationResult, DynamicCase, ExperimentScale, Table,
};
use serde::Serialize;

#[derive(Serialize)]
struct ThroughputRow {
    case: String,
    layers: usize,
    configuration: String,
    tokens_per_second: f64,
    speedup_vs_best_baseline: f64,
    bubble_ratio: f64,
    overhead_fraction: f64,
}

fn main() {
    let scale = ExperimentScale::from_process_args(&[("--ablate-repack", &[])]);
    let ablate_repack = std::env::args().any(|a| a == "--ablate-repack");
    println!("Figure 3: end-to-end training throughput (scale: {scale:?})\n");

    let mut all_rows: Vec<ThroughputRow> = Vec::new();

    // MoE panels (Mixtral 8x7B and LLaMA-MoE-3.5B).
    for case in [DynamicCase::MoeMixtral, DynamicCase::MoeLlama] {
        let config = CaseConfig::new(case, 32, scale);
        let results = run_comparison(&config);
        print_case_table(case, 32, &results, &mut all_rows);
    }

    // GPT panels over the layer sweep.
    let layer_counts = layer_sweep(scale);
    for case in DynamicCase::GPT_CASES {
        for &layers in &layer_counts {
            let config = CaseConfig::new(case, layers, scale);
            let results = run_comparison(&config);
            print_case_table(case, layers, &results, &mut all_rows);
        }
    }

    if ablate_repack {
        ablation_repack(scale, &mut all_rows);
    }

    if let Some(path) = dump_json("fig3_throughput", &all_rows) {
        println!("(raw rows written to {})", path.display());
    }
}

fn layer_sweep(scale: ExperimentScale) -> Vec<usize> {
    match scale {
        ExperimentScale::Smoke => vec![24],
        _ => vec![24, 32, 40, 48],
    }
}

fn print_case_table(
    case: DynamicCase,
    layers: usize,
    results: &[ConfigurationResult],
    all_rows: &mut Vec<ThroughputRow>,
) {
    let reference = reference_throughput(results);
    let mut table = Table::new(
        &format!("{} — {} layers", case.label(), layers),
        &[
            "Configuration",
            "Tokens/sec",
            "Speedup",
            "Bubble",
            "Overhead",
        ],
    );
    for result in results {
        let speedup = if reference > 0.0 {
            result.report.tokens_per_second / reference
        } else {
            0.0
        };
        table.add_row(vec![
            result.label.clone(),
            fmt(result.report.tokens_per_second, 0),
            format!("{speedup:.2}x"),
            format!("{:.1}%", result.report.average_bubble_ratio * 100.0),
            format!("{:.2}%", result.report.overhead_fraction * 100.0),
        ]);
        all_rows.push(ThroughputRow {
            case: case.label().to_string(),
            layers,
            configuration: result.label.clone(),
            tokens_per_second: result.report.tokens_per_second,
            speedup_vs_best_baseline: speedup,
            bubble_ratio: result.report.average_bubble_ratio,
            overhead_fraction: result.report.overhead_fraction,
        });
    }
    table.print();
    println!(
        "  headline speedup (best DynMo / best non-DynMo): {:.2}x\n",
        headline_speedup(results)
    );
}

fn ablation_repack(scale: ExperimentScale, all_rows: &mut Vec<ThroughputRow>) {
    println!("Re-packing ablation (best DynMo variant, with vs without re-packing):\n");
    let mut table = Table::new(
        "ABL-REPACK — re-packing on top of rebalancing",
        &[
            "Case",
            "Without re-pack (tok/s)",
            "With re-pack (tok/s)",
            "Delta",
            "Avg GPUs (w/ re-pack)",
        ],
    );
    for case in [
        DynamicCase::Pruning,
        DynamicCase::Freezing,
        DynamicCase::EarlyExit,
    ] {
        let without = run_configuration(
            &CaseConfig::new(case, 24, scale),
            BalancerKind::PartitionByTime,
        );
        let with = run_configuration(
            &CaseConfig {
                repack: true,
                ..CaseConfig::new(case, 24, scale)
            },
            BalancerKind::PartitionByTime,
        );
        let delta = with.report.tokens_per_second / without.report.tokens_per_second - 1.0;
        table.add_row(vec![
            case.label().to_string(),
            fmt(without.report.tokens_per_second, 0),
            fmt(with.report.tokens_per_second, 0),
            format!("{:+.1}%", delta * 100.0),
            format!("{:.1}", with.report.average_active_workers),
        ]);
        all_rows.push(ThroughputRow {
            case: format!("{} (repack ablation)", case.label()),
            layers: 24,
            configuration: "DynMo (Partition, by Time) + re-pack".to_string(),
            tokens_per_second: with.report.tokens_per_second,
            speedup_vs_best_baseline: 1.0 + delta,
            bubble_ratio: with.report.average_bubble_ratio,
            overhead_fraction: with.report.overhead_fraction,
        });
    }
    table.print();
}
