//! Thread-pool benchmark — wall-clock for the three sweep bins at 1 thread
//! vs the host's thread count.
//!
//! Writes `results/BENCH_pool.json` with, per sweep bin, the median and
//! quartiles of the wall-clock under a 1-thread and an `host_threads`-thread
//! pool over N alternating repeats, the median of the per-repeat speedups,
//! and whether the two runs produced byte-identical serialized rows.
//!
//! Speedups are a property of the *host*: on a single-core container both
//! pools degenerate to one worker and every speedup is ~1×; on an 8-core
//! host the pipeline sweep's embarrassingly parallel grid reaches ≳3×.
//! `host_threads` is recorded so readers can interpret the numbers.

use std::time::Instant;

use dynmo_bench::serving::{run_serving_sweep, ServingSweepConfig};
use dynmo_bench::sweep::{run_sweep, SweepConfig};
use dynmo_bench::{dump_json, fmt, run_composite_sweep, ExperimentScale, Table};
use dynmo_telemetry::nearest_rank;
use serde::Serialize;

/// Median and quartiles of one leg's wall-clock seconds over the repeats.
#[derive(Debug, Serialize)]
struct Quartiles {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Quartiles {
    /// Nearest-rank quartiles of `samples`.
    fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Quartiles {
            q1: nearest_rank(&sorted, 0.25),
            median: nearest_rank(&sorted, 0.5),
            q3: nearest_rank(&sorted, 0.75),
        }
    }
}

/// One sweep bin's before/after numbers.
#[derive(Debug, Serialize)]
struct SweepTiming {
    bin: String,
    cells: usize,
    threads1_secs: Quartiles,
    threads_host_secs: Quartiles,
    speedup: f64,
    identical: bool,
}

/// The whole artifact.
#[derive(Debug, Serialize)]
struct PoolBench {
    host_threads: usize,
    scale: String,
    repeats: usize,
    sweeps: Vec<SweepTiming>,
}

/// Wall-clock seconds of one call of `f`, with its result.
// Benchmarking is a sanctioned wall-clock use (see clippy.toml).
#[allow(clippy::disallowed_methods)]
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let value = f();
    (started.elapsed().as_secs_f64(), value)
}

/// Wall-clock of `run` on each pool over `repeats` pairs of runs.  The
/// pools take turns repeat by repeat, so a change in host load lands on
/// both legs rather than on one side of the speedup, and the speedup is the
/// median of the per-pair ratios.
fn bench_sweep<T, F>(
    bin: &str,
    repeats: usize,
    single: &rayon::ThreadPool,
    multi: &rayon::ThreadPool,
    run: F,
) -> SweepTiming
where
    T: Send + Serialize,
    F: Fn() -> Vec<T> + Send + Sync,
{
    let (mut t1, mut tn) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..repeats {
        let (secs1, rows1) = timed(|| single.install(&run));
        let (secs_n, rows_n) = timed(|| multi.install(&run));
        t1.push(secs1);
        tn.push(secs_n);
        last = Some((rows1, rows_n));
    }
    let (rows1, rows_n) = last.expect("at least one repeat");
    let serialize = |rows: &[T]| serde_json::to_string(rows).expect("rows serialize");
    let ratios: Vec<f64> = t1.iter().zip(&tn).map(|(a, b)| a / b).collect();
    SweepTiming {
        bin: bin.to_string(),
        cells: rows1.len(),
        threads1_secs: Quartiles::of(&t1),
        threads_host_secs: Quartiles::of(&tn),
        speedup: Quartiles::of(&ratios).median,
        identical: serialize(&rows1) == serialize(&rows_n),
    }
}

fn main() {
    let scale = ExperimentScale::from_process_args(&[]);
    let host_threads = rayon::current_num_threads();
    let repeats = match scale {
        ExperimentScale::Smoke => 2,
        _ => 10,
    };
    println!("Thread-pool benchmark (scale: {scale:?}, host threads: {host_threads})\n");

    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool construction cannot fail");
    let multi = rayon::ThreadPoolBuilder::new()
        .num_threads(host_threads)
        .build()
        .expect("pool construction cannot fail");

    let mut sweeps = Vec::new();

    let config = SweepConfig::for_scale(scale);
    sweeps.push(bench_sweep(
        "pipeline_sweep",
        repeats,
        &single,
        &multi,
        || run_sweep(&config),
    ));

    let serving = ServingSweepConfig::for_scale(scale);
    sweeps.push(bench_sweep(
        "serving_sweep",
        repeats,
        &single,
        &multi,
        || run_serving_sweep(&serving),
    ));

    sweeps.push(bench_sweep(
        "composite_sweep",
        repeats,
        &single,
        &multi,
        || run_composite_sweep(scale),
    ));

    let mut table = Table::new(
        "Thread pool — median wall-clock by thread count",
        &[
            "Workload",
            "Cells",
            "1 thread",
            &format!("{host_threads} threads"),
            "Speedup",
            "Identical",
        ],
    );
    for s in &sweeps {
        table.add_row(vec![
            s.bin.clone(),
            s.cells.to_string(),
            fmt(s.threads1_secs.median, 3),
            fmt(s.threads_host_secs.median, 3),
            fmt(s.speedup, 2),
            s.identical.to_string(),
        ]);
    }
    table.print();

    for s in &sweeps {
        assert!(s.identical, "{}: thread counts changed the artifact", s.bin);
    }

    let bench = PoolBench {
        host_threads,
        scale: format!("{scale:?}").to_lowercase(),
        repeats,
        sweeps,
    };
    if let Some(path) = dump_json("BENCH_pool", &bench) {
        println!("(pool benchmark written to {})", path.display());
    }
}
