//! §4.2.2 sweep: the SpMM backend crossover.
//!
//! The paper selects Sputnik for sparse kernels because (a) it beats
//! cuSPARSE across the deep-learning sparsity range and (b) it overtakes
//! dense cuBLAS at ≈75% sparsity.  The sweep prices all three backends on
//! one transformer FFN GEMM with the H100 kernel cost model at each
//! sparsity level, which reproduces the crossover.

use dynmo_sparse::{KernelCostModel, SpmmBackend};
use serde::Serialize;

/// The modeled GEMM shape `(m, n, k)`: a transformer FFN projection.
pub const CROSSOVER_GEMM: (usize, usize, usize) = (4096, 4096, 1024);

/// The sparsity levels of the sweep, in percent.
pub const CROSSOVER_SPARSITY_PERCENTS: [u64; 9] = [0, 30, 50, 70, 75, 80, 90, 95, 99];

/// One sparsity level of the crossover sweep; kernel times in µs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CrossoverRow {
    /// Fraction of zero weights.
    pub sparsity: f64,
    /// Dense cuBLAS GEMM time.
    pub cublas_model_us: f64,
    /// cuSPARSE SpMM time.
    pub cusparse_model_us: f64,
    /// Sputnik SpMM time.
    pub sputnik_model_us: f64,
    /// The fastest backend: `"cuBLAS"`, `"cuSPARSE"` or `"Sputnik"`.
    pub best_backend: String,
}

/// Run the crossover rows, one per level of
/// [`CROSSOVER_SPARSITY_PERCENTS`].  The modeled shape is the same at
/// every scale.
pub fn run_crossover_sweep() -> Vec<CrossoverRow> {
    let model = KernelCostModel::h100();
    let (m, n, k) = CROSSOVER_GEMM;
    CROSSOVER_SPARSITY_PERCENTS
        .iter()
        .map(|&pct| {
            let sparsity = pct as f64 / 100.0;
            let best = match model.best_backend(m, n, k, sparsity) {
                SpmmBackend::CublasDense => "cuBLAS",
                SpmmBackend::Cusparse => "cuSPARSE",
                SpmmBackend::Sputnik => "Sputnik",
            };
            CrossoverRow {
                sparsity,
                cublas_model_us: model.cublas_time(m, n, k) * 1.0e6,
                cusparse_model_us: model.cusparse_time(m, n, k, sparsity) * 1.0e6,
                sputnik_model_us: model.sputnik_time(m, n, k, sparsity) * 1.0e6,
                best_backend: best.to_string(),
            }
        })
        .collect()
}
