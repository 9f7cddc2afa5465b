//! # dynmo-sparse
//!
//! Sparse-tensor support for the gradual-pruning experiments of the DynMo
//! paper (§4.2.2).
//!
//! The paper's pruning path stores pruned weights in compressed sparse row
//! (CSR) format and replaces dense matrix multiplications (DMM) with sparse
//! ones (SpMM), using PyTorch bindings to Sputnik's CUDA kernels because
//! "Sputnik begins to outperform cuBLAS around 75% sparsity".  This crate
//! provides:
//!
//! * a real [`csr::CsrMatrix`] data structure with dense round-tripping and
//!   a [`spmm()`] CPU kernel (rayon-parallel, `A · B` with `A` sparse) so
//!   the pruning pipeline operates on actual sparse data; the
//!   `spmm_crossover` bench times it against the dense
//!   [`DenseMatrix::matmul`] reference,
//! * magnitude-based selection utilities ([`topk`], [`prune`]) used by the
//!   distributed global-pruning algorithm (Algorithm 1), and
//! * calibrated *kernel cost models* ([`kernel_cost`]) for cuBLAS dense
//!   GEMM, cuSPARSE SpMM, and Sputnik SpMM, reproducing the crossover
//!   behaviour the paper reports (Sputnik wins beyond ~75% sparsity; it
//!   beats cuSPARSE across deep-learning sparsity levels).

#![warn(missing_docs)]

pub mod csr;
pub mod dense;
pub mod kernel_cost;
pub mod prune;
pub mod spmm;
pub mod topk;

pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use kernel_cost::{KernelCostModel, SpmmBackend};
pub use prune::prune_to_sparsity;
pub use spmm::spmm;
pub use topk::{top_k_indices_by_magnitude, top_k_magnitudes};
