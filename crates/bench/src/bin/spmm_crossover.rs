//! §4.2.2 — SpMM backend crossover.
//!
//! The paper selects Sputnik for sparse kernels because (a) it beats
//! cuSPARSE across the deep-learning sparsity range and (b) it overtakes
//! dense cuBLAS at ≈75% sparsity.  This binary sweeps sparsity and prints
//! the modeled kernel times for all three backends (reproducing the
//! crossover; see [`dynmo_bench::run_crossover_sweep`]), and cross-checks
//! the *shape* with real CPU kernels (this crate's CSR SpMM vs dense GEMM),
//! whose own crossover appears at high sparsity for the same reason: work
//! is proportional to the number of stored values.  The modeled rows go to
//! `results/spmm_crossover.json` and the CPU times to
//! `results/spmm_crossover.host.json`.

use std::time::Instant;

use dynmo_bench::{
    dump_json, run_crossover_sweep, ExperimentScale, Table, CROSSOVER_GEMM,
    CROSSOVER_SPARSITY_PERCENTS,
};
use dynmo_sparse::{spmm, CsrMatrix, DenseMatrix, KernelCostModel};
use serde::Serialize;

/// The host-time columns of one row.
#[derive(Serialize)]
struct HostRow {
    sparsity: f64,
    cpu_dense_us: f64,
    cpu_sparse_us: f64,
}

fn random_dense(rows: usize, cols: usize, sparsity: f64, seed: u64) -> DenseMatrix {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            if next() < sparsity {
                0.0
            } else {
                (next() - 0.5) as f32
            }
        })
        .collect();
    DenseMatrix::from_vec(rows, cols, data)
}

// Benchmarking is a sanctioned wall-clock use (see clippy.toml).
#[allow(clippy::disallowed_methods)]
fn time_us<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1.0e6 / reps as f64
}

fn main() {
    let scale = ExperimentScale::from_process_args(&[]);
    println!("SpMM crossover sweep (scale: {scale:?})\n");

    let rows = run_crossover_sweep();

    // The CPU check shape is smaller than the modeled GPU shape so the
    // sweep completes quickly.
    let (cm, cn, ck) = match scale {
        ExperimentScale::Smoke => (128usize, 64usize, 128usize),
        _ => (512, 128, 512),
    };
    let reps = if scale == ExperimentScale::Smoke {
        2
    } else {
        5
    };

    let mut table = Table::new(
        "Kernel time vs sparsity (model: H100; CPU cross-check in µs)",
        &[
            "Sparsity",
            "cuBLAS (µs)",
            "cuSPARSE (µs)",
            "Sputnik (µs)",
            "Best",
            "CPU dense (µs)",
            "CPU CSR (µs)",
        ],
    );
    let mut host_rows = Vec::new();
    for (row, pct) in rows.iter().zip(CROSSOVER_SPARSITY_PERCENTS) {
        // Real CPU kernels on a smaller shape.
        let a_dense = random_dense(cm, ck, row.sparsity, 42 + pct);
        let b = random_dense(ck, cn, 0.0, 7);
        let a_csr = CsrMatrix::from_dense(&a_dense);
        let cpu_dense = time_us(
            || {
                let _ = a_dense.matmul(&b);
            },
            reps,
        );
        let cpu_sparse = time_us(
            || {
                let _ = spmm(&a_csr, &b);
            },
            reps,
        );

        table.add_row(vec![
            format!("{pct}%"),
            format!("{:.1}", row.cublas_model_us),
            format!("{:.1}", row.cusparse_model_us),
            format!("{:.1}", row.sputnik_model_us),
            row.best_backend.clone(),
            format!("{cpu_dense:.0}"),
            format!("{cpu_sparse:.0}"),
        ]);
        host_rows.push(HostRow {
            sparsity: row.sparsity,
            cpu_dense_us: cpu_dense,
            cpu_sparse_us: cpu_sparse,
        });
    }
    table.print();
    let (gm, gn, gk) = CROSSOVER_GEMM;
    println!(
        "Modeled Sputnik/cuBLAS crossover sparsity: {:.0}%",
        KernelCostModel::h100().sputnik_crossover_sparsity(gm, gn, gk) * 100.0
    );
    if let Some(path) = dump_json("spmm_crossover", &rows) {
        println!("(raw rows written to {})", path.display());
    }
    if let Some(path) = dump_json("spmm_crossover.host", &host_rows) {
        println!("(host times written to {})", path.display());
    }
}
