//! Golden artifacts: the smoke-scale sweep outputs, pinned byte for byte.
//!
//! Each test runs one sweep in-process at [`ExperimentScale::Smoke`] and
//! compares its pretty JSON (exactly what the sweep binary writes under
//! `results/`) with the committed copy under `tests/golden/`.  Together they
//! pin the trainer's run, re-pack release, checkpoint-resume and
//! elastic-rescale paths, the multi-rank kill-and-recover harness on the
//! runtime, the pipeline schedules, the serving engine, the diffusion
//! balancer's convergence and the SpMM kernel cost model: a change that
//! moves any simulated number fails here.  When a move is intended,
//! regenerate the files as `crates/bench/README.md` describes and review the
//! diff.

use std::path::Path;

use dynmo_bench::{
    run_average_gpu_sweep, run_composite_sweep, run_convergence_sweep, run_crossover_sweep,
    run_fault_tolerance_sweep, run_fleet_sweep, run_hetero_sweep, run_idleness_sweep,
    run_overhead_sweep, run_packed_sweep, run_serving_sweep, run_sweep, run_throughput_sweep,
    ExperimentScale, ServingSweepConfig, SweepConfig,
};

fn assert_matches_golden(file: &str, actual: Result<String, serde_json::Error>) {
    let actual = actual.expect("the sweep report serializes");
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("reading {}: {err}", path.display()));
    if actual == expected {
        return;
    }
    let (line, (want, got)) = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
        .unwrap_or((
            expected.lines().count().min(actual.lines().count()),
            ("<end of file>", "<end of file>"),
        ));
    panic!(
        "{} no longer matches the sweep's output (first difference at line {}):\n  golden: {want}\n  actual: {got}",
        path.display(),
        line + 1
    );
}

#[test]
fn composite_sweep_matches_the_golden_artifact() {
    let cells = run_composite_sweep(ExperimentScale::Smoke);
    assert_matches_golden("composite_sweep.json", serde_json::to_string_pretty(&cells));
}

#[test]
fn fault_tolerance_matches_the_golden_artifact() {
    let rows = run_fault_tolerance_sweep(ExperimentScale::Smoke);
    assert_matches_golden("fault_tolerance.json", serde_json::to_string_pretty(&rows));
}

#[test]
fn fig1_idleness_matches_the_golden_artifact() {
    let rows = run_idleness_sweep(ExperimentScale::Smoke);
    assert_matches_golden("fig1_idleness.json", serde_json::to_string_pretty(&rows));
}

#[test]
fn fig3_throughput_matches_the_golden_artifact() {
    // With the re-pack ablation: its rows follow the flagless run's, so one
    // file pins both runs.
    let rows = run_throughput_sweep(ExperimentScale::Smoke, true).rows();
    assert_matches_golden("fig3_throughput.json", serde_json::to_string_pretty(&rows));
}

#[test]
fn fig4_packed_matches_the_golden_artifact() {
    let rows = run_packed_sweep(ExperimentScale::Smoke);
    assert_matches_golden("fig4_packed.json", serde_json::to_string_pretty(&rows));
}

#[test]
fn fig4_avg_gpus_matches_the_golden_artifact() {
    let rows = run_average_gpu_sweep(ExperimentScale::Smoke);
    assert_matches_golden("fig4_avg_gpus.json", serde_json::to_string_pretty(&rows));
}

#[test]
fn fig4_overhead_matches_the_golden_artifact() {
    let rows = run_overhead_sweep(ExperimentScale::Smoke);
    assert_matches_golden("fig4_overhead.json", serde_json::to_string_pretty(&rows));
}

#[test]
fn fleet_sweep_matches_the_golden_artifact() {
    let report = run_fleet_sweep(ExperimentScale::Smoke);
    assert_matches_golden("BENCH_fleet.json", serde_json::to_string_pretty(&report));
}

#[test]
fn hetero_sweep_matches_the_golden_artifact() {
    let report = run_hetero_sweep(ExperimentScale::Smoke);
    assert_matches_golden("hetero_sweep.json", serde_json::to_string_pretty(&report));
}

#[test]
fn lemma2_convergence_matches_the_golden_artifact() {
    // The sweep itself asserts the Lemma 2 bound and that both potential
    // paths commit the same moves.
    let rows = run_convergence_sweep(ExperimentScale::Smoke);
    assert_matches_golden(
        "lemma2_convergence.json",
        serde_json::to_string_pretty(&rows),
    );
}

#[test]
fn pipeline_sweep_matches_the_golden_artifact() {
    let cells = run_sweep(&SweepConfig::for_scale(ExperimentScale::Smoke));
    assert_matches_golden("pipeline_sweep.json", serde_json::to_string_pretty(&cells));
}

#[test]
fn serving_sweep_matches_the_golden_artifact() {
    let cells = run_serving_sweep(&ServingSweepConfig::for_scale(ExperimentScale::Smoke));
    assert_matches_golden("serving_sweep.json", serde_json::to_string_pretty(&cells));
}

#[test]
fn spmm_crossover_matches_the_golden_artifact() {
    let rows = run_crossover_sweep();
    assert_matches_golden("spmm_crossover.json", serde_json::to_string_pretty(&rows));
}
