//! Sparse × dense matrix multiplication (SpMM).
//!
//! This is the CPU analogue of the Sputnik SpMM kernel the paper binds into
//! PyTorch: it computes `C = A · B` where `A` is CSR and `B` is dense, with
//! the row loop parallelized by rayon (output rows are independent tasks,
//! the same decomposition Sputnik uses per thread block; each thread claims
//! a contiguous run of rows).

use rayon::prelude::*;

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;

/// Compute `A · B` where `A` is sparse (CSR) and `B` is dense.
pub fn spmm(a: &CsrMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "inner dimensions must agree: {}x{} × {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let n = b.cols();
    let mut out = vec![0.0f32; a.rows() * n];
    out.par_chunks_mut(n).enumerate().for_each(|(r, out_row)| {
        for (k, v) in a.row_entries(r) {
            let b_row = b.row(k);
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += v * bv;
            }
        }
    });
    DenseMatrix::from_vec(a.rows(), n, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_dense(rows: usize, cols: usize, sparsity: f64, seed: u64) -> DenseMatrix {
        // Small deterministic LCG so the test does not need the rand crate.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0)
        };
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            let keep = next() > sparsity * 2.0;
            let value = next() - 1.0;
            data.push(if keep { value as f32 } else { 0.0 });
        }
        DenseMatrix::from_vec(rows, cols, data)
    }

    #[test]
    fn spmm_matches_dense_reference_on_random_matrices() {
        for &(m, k, n, s) in &[
            (8usize, 6usize, 5usize, 0.3f64),
            (17, 23, 9, 0.45),
            (32, 32, 32, 0.4),
        ] {
            let a_dense = random_dense(m, k, s, 42);
            let b = random_dense(k, n, 0.0, 7);
            let a_csr = CsrMatrix::from_dense(&a_dense);
            let via_sparse = spmm(&a_csr, &b);
            let via_dense = a_dense.matmul(&b);
            assert!(
                via_sparse.max_abs_diff(&via_dense) < 1e-4,
                "mismatch for shape {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn empty_sparse_matrix_produces_zero_output() {
        let a = CsrMatrix::from_dense(&DenseMatrix::zeros(4, 4));
        let b = random_dense(4, 3, 0.0, 5);
        let c = spmm(&a, &b);
        assert!(c.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn spmm_rejects_mismatched_shapes() {
        let a = CsrMatrix::from_dense(&DenseMatrix::zeros(4, 4));
        let b = DenseMatrix::zeros(3, 3);
        let _ = spmm(&a, &b);
    }
}
