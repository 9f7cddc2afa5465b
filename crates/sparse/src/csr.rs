//! Compressed sparse row (CSR) matrices.
//!
//! CSR is the storage format the paper adopts for pruned weights: "a common
//! choice is the compressed sparse row (CSR) format, which necessitates
//! replacing dense matrix multiplications (DMM) with sparse equivalents
//! (SpMM)" (§4.2.2).  The row offsets and column indices are the extra
//! data DynMo must migrate between GPUs when a pruned layer moves stages.

use serde::{Deserialize, Serialize};

use crate::dense::DenseMatrix;

/// A CSR-format sparse `f32` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Convert a dense matrix to CSR, dropping exact zeros.
    pub fn from_dense(dense: &DenseMatrix) -> Self {
        let rows = dense.rows();
        let cols = dense.cols();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..rows {
            for (c, &v) in dense.row(r).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(values.len());
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Convert back to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                out.set(r, self.col_idx[i] as usize, self.values[i]);
            }
        }
        out
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (non-zero) values.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries that are zero, in `[0, 1]`.
    pub fn sparsity(&self) -> f64 {
        let total = (self.rows * self.cols) as f64;
        if total == 0.0 {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / total
    }

    /// Row offsets (length `rows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The non-zero entries of row `r` as `(column, value)` pairs.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let start = self.row_ptr[r];
        let end = self.row_ptr[r + 1];
        self.col_idx[start..end]
            .iter()
            .zip(self.values[start..end].iter())
            .map(|(&c, &v)| (c as usize, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dense() -> DenseMatrix {
        DenseMatrix::from_vec(
            3,
            4,
            vec![
                1.0, 0.0, 0.0, 2.0, //
                0.0, 0.0, 0.0, 0.0, //
                3.0, 0.0, 4.0, 0.0,
            ],
        )
    }

    #[test]
    fn dense_round_trip_preserves_values() {
        let d = sample_dense();
        let csr = CsrMatrix::from_dense(&d);
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.rows(), 3);
        assert_eq!(csr.cols(), 4);
        assert_eq!(csr.to_dense(), d);
    }

    #[test]
    fn sparsity_is_fraction_of_zeros() {
        let csr = CsrMatrix::from_dense(&sample_dense());
        assert!((csr.sparsity() - 8.0 / 12.0).abs() < 1e-12);
        let empty = CsrMatrix::from_dense(&DenseMatrix::zeros(0, 0));
        assert_eq!(empty.sparsity(), 0.0);
    }

    #[test]
    fn row_entries_iterates_in_column_order() {
        let csr = CsrMatrix::from_dense(&sample_dense());
        let row0: Vec<_> = csr.row_entries(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (3, 2.0)]);
        let row1: Vec<_> = csr.row_entries(1).collect();
        assert!(row1.is_empty());
    }

    #[test]
    fn fully_dense_and_fully_sparse_edge_cases() {
        let full = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let csr = CsrMatrix::from_dense(&full);
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.sparsity(), 0.0);

        let empty = DenseMatrix::zeros(2, 2);
        let csr = CsrMatrix::from_dense(&empty);
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.sparsity(), 1.0);
        assert_eq!(csr.to_dense(), empty);
    }
}
