//! §4.2.2 — SpMM backend crossover.
//!
//! The paper selects Sputnik for sparse kernels because (a) it beats
//! cuSPARSE across the deep-learning sparsity range and (b) it overtakes
//! dense cuBLAS at ≈75% sparsity.  This binary sweeps sparsity and prints
//! the modeled kernel times for all three backends (reproducing the
//! crossover), and cross-checks the *shape* with real CPU kernels (this
//! crate's CSR SpMM vs dense GEMM), whose own crossover appears at high
//! sparsity for the same reason: work is proportional to the number of
//! stored values.

use std::time::Instant;

use dynmo_bench::{dump_json, ExperimentScale, Table};
use dynmo_sparse::{spmm, CsrMatrix, DenseMatrix, KernelCostModel, SpmmBackend};
use serde::Serialize;

#[derive(Serialize)]
struct SweepRow {
    sparsity: f64,
    cublas_model_us: f64,
    cusparse_model_us: f64,
    sputnik_model_us: f64,
    best_backend: String,
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

    // Modeled GPU shape: a transformer FFN GEMM; CPU check shape is smaller
    // so the sweep completes quickly.
    let (gm, gn, gk) = (4096usize, 4096, 1024);
    let (cm, cn, ck) = match scale {
        ExperimentScale::Smoke => (128usize, 64usize, 128usize),
        _ => (512, 128, 512),
    };
    let reps = if scale == ExperimentScale::Smoke {
        2
    } else {
        5
    };

    let model = KernelCostModel::h100();
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
    let mut rows = Vec::new();
    for pct in [0, 30, 50, 70, 75, 80, 90, 95, 99] {
        let sparsity = pct as f64 / 100.0;
        let cublas = model.cublas_time(gm, gn, gk) * 1.0e6;
        let cusparse = model.cusparse_time(gm, gn, gk, sparsity) * 1.0e6;
        let sputnik = model.sputnik_time(gm, gn, gk, sparsity) * 1.0e6;
        let best = match model.best_backend(gm, gn, gk, sparsity) {
            SpmmBackend::CublasDense => "cuBLAS",
            SpmmBackend::Cusparse => "cuSPARSE",
            SpmmBackend::Sputnik => "Sputnik",
        };

        // Real CPU kernels on a smaller shape.
        let a_dense = random_dense(cm, ck, sparsity, 42 + pct);
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
            format!("{cublas:.1}"),
            format!("{cusparse:.1}"),
            format!("{sputnik:.1}"),
            best.to_string(),
            format!("{cpu_dense:.0}"),
            format!("{cpu_sparse:.0}"),
        ]);
        rows.push(SweepRow {
            sparsity,
            cublas_model_us: cublas,
            cusparse_model_us: cusparse,
            sputnik_model_us: sputnik,
            best_backend: best.to_string(),
            cpu_dense_us: cpu_dense,
            cpu_sparse_us: cpu_sparse,
        });
    }
    table.print();
    println!(
        "Modeled Sputnik/cuBLAS crossover sparsity: {:.0}%",
        model.sputnik_crossover_sparsity(gm, gn, gk) * 100.0
    );
    if let Some(path) = dump_json("spmm_crossover", &rows) {
        println!("(raw rows written to {})", path.display());
    }
}
