//! Inference-serving sweep — continuous batching with SLO metrics and
//! elastic autoscaling.
//!
//! Fans a `(trace × early-exit × balancer × {fixed, elastic})` grid across
//! threads (rayon) through `dynmo-serve`'s continuous-batching engine and
//! writes one JSON artifact (`results/serving_sweep.json`).  Every elastic
//! cell sees byte-identical traffic to its fixed twin; the binary asserts
//! that at least one elastic cell recorded a scale-out *and* beat its twin
//! on p99 TTFT — the serving analogue of the paper's elasticity claim.
//! Run with `--scale {smoke|default|paper}`.

use dynmo_bench::serving::{run_serving_sweep, ServingCell, ServingSweepConfig};
use dynmo_bench::{dump_json, fmt, pct, ExperimentScale, Table};

fn main() {
    let scale = ExperimentScale::from_process_args(&[]);
    let config = ServingSweepConfig::for_scale(scale);
    println!(
        "Inference serving sweep (scale: {scale:?}, {} cells)\n",
        config.cells().len()
    );

    let cells = run_serving_sweep(&config);

    let mut table = Table::new(
        "Serving sweep — p99 TTFT / TPOT by trace (partition balancer)",
        &[
            "Trace",
            "Exit",
            "Elastic",
            "TTFT p50",
            "TTFT p99",
            "TPOT p99",
            "Goodput",
            "SLO",
            "GPUs",
            "Scale +/-",
        ],
    );
    for cell in cells.iter().filter(|c| c.balancer == "partition") {
        table.add_row(vec![
            cell.trace.clone(),
            if cell.early_exit { "calm" } else { "off" }.to_string(),
            if cell.elastic { "yes" } else { "no" }.to_string(),
            fmt(cell.ttft_p50, 3),
            fmt(cell.ttft_p99, 3),
            fmt(cell.tpot_p99, 4),
            fmt(cell.goodput_rps, 2),
            pct(cell.slo_attainment),
            fmt(cell.mean_gpus, 1),
            format!("{}/{}", cell.scale_out_events, cell.scale_in_events),
        ]);
    }
    table.print();

    // Every cell must conserve its requests.
    for cell in &cells {
        assert_eq!(
            cell.completed, cell.requests,
            "cell {}/{}/{} dropped requests",
            cell.trace, cell.balancer, cell.elastic
        );
    }

    // The elasticity acceptance check: at least one elastic cell recorded
    // a scale-out and beat its fixed twin's p99 TTFT on the same trace.
    let twin = |of: &ServingCell| {
        cells.iter().find(|c| {
            !c.elastic
                && c.trace == of.trace
                && c.early_exit == of.early_exit
                && c.balancer == of.balancer
        })
    };
    let wins: Vec<(&ServingCell, &ServingCell)> = cells
        .iter()
        .filter(|c| c.elastic && c.scale_out_events >= 1)
        .filter_map(|c| twin(c).map(|f| (c, f)))
        .filter(|(elastic, fixed)| elastic.ttft_p99 < fixed.ttft_p99)
        .collect();
    assert!(
        !wins.is_empty(),
        "no elastic cell scaled out and beat its fixed twin on p99 TTFT"
    );
    let (best_elastic, best_fixed) = wins
        .iter()
        .max_by(|a, b| {
            (a.1.ttft_p99 / a.0.ttft_p99)
                .partial_cmp(&(b.1.ttft_p99 / b.0.ttft_p99))
                .expect("latencies are finite")
        })
        .expect("wins is non-empty");
    println!(
        "Best elasticity win: {} (exit {}): p99 TTFT {:.2} s -> {:.2} s ({:.1}x) with {} scale-outs",
        best_elastic.trace,
        if best_elastic.early_exit { "calm" } else { "off" },
        best_fixed.ttft_p99,
        best_elastic.ttft_p99,
        best_fixed.ttft_p99 / best_elastic.ttft_p99,
        best_elastic.scale_out_events
    );

    if let Some(path) = dump_json("serving_sweep", &cells) {
        println!("({} sweep rows written to {})", cells.len(), path.display());
    }
}
