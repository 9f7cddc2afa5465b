//! Focused unit tests for the sparse-tensor primitives that back DynMo's
//! gradual-pruning path (paper §4.2.2): CSR round-tripping, magnitude
//! pruning keeping the top-k entries by |w|, and SpMM agreement with the
//! dense reference GEMM.

use dynmo_sparse::{prune_to_sparsity, spmm, top_k_indices_by_magnitude, CsrMatrix, DenseMatrix};

/// Deterministic pseudo-random f32 stream (no external RNG crates offline).
fn pseudo_random_values(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let unit = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64;
            (unit as f32 - 0.5) * 4.0
        })
        .collect()
}

fn sparse_matrix(rows: usize, cols: usize, sparsity: f64, seed: u64) -> DenseMatrix {
    let mut data = pseudo_random_values(rows * cols, seed);
    prune_to_sparsity(&mut data, sparsity);
    DenseMatrix::from_vec(rows, cols, data)
}

#[test]
fn csr_round_trips_dense_matrices() {
    for (rows, cols, sparsity) in [(1, 1, 0.0), (7, 5, 0.5), (16, 16, 0.9), (3, 11, 1.0)] {
        let dense = sparse_matrix(rows, cols, sparsity, 42 + rows as u64);
        let csr = CsrMatrix::from_dense(&dense);
        assert_eq!(csr.rows(), rows);
        assert_eq!(csr.cols(), cols);
        let zeros = dense.data().iter().filter(|v| **v == 0.0).count();
        assert_eq!(csr.nnz(), rows * cols - zeros, "nnz mismatch at {sparsity}");
        assert_eq!(
            csr.to_dense(),
            dense,
            "round trip lost values at {sparsity}"
        );
    }
}

#[test]
fn csr_row_ptr_is_a_valid_prefix_sum() {
    let dense = sparse_matrix(9, 6, 0.7, 7);
    let csr = CsrMatrix::from_dense(&dense);
    let row_ptr = csr.row_ptr();
    assert_eq!(row_ptr.len(), csr.rows() + 1);
    assert_eq!(row_ptr[0], 0);
    assert_eq!(*row_ptr.last().unwrap(), csr.nnz());
    assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn magnitude_prune_keeps_exactly_the_top_k() {
    let values = pseudo_random_values(256, 1234);
    let keep = 64;
    let sparsity = 1.0 - keep as f64 / values.len() as f64;

    let mut pruned = values.clone();
    prune_to_sparsity(&mut pruned, sparsity);

    let top_k: std::collections::HashSet<usize> = top_k_indices_by_magnitude(&values, keep)
        .into_iter()
        .collect();
    assert_eq!(top_k.len(), keep);

    for (i, (&original, &now)) in values.iter().zip(pruned.iter()).enumerate() {
        if top_k.contains(&i) {
            assert_eq!(now, original, "top-k index {i} was pruned");
        } else {
            assert_eq!(now, 0.0, "non-top-k index {i} survived");
        }
    }
}

#[test]
fn prune_handles_degenerate_sparsity_targets() {
    let mut all = pseudo_random_values(32, 5);
    let achieved = prune_to_sparsity(&mut all, 1.0);
    assert_eq!(achieved, 1.0);
    assert!(all.iter().all(|v| *v == 0.0));

    let original = pseudo_random_values(32, 6);
    let mut none = original.clone();
    let achieved = prune_to_sparsity(&mut none, 0.0);
    assert!(achieved <= f64::EPSILON);
    assert_eq!(none, original);
}

#[test]
fn spmm_agrees_with_dense_gemm() {
    for (m, k, n, sparsity) in [(4, 4, 4, 0.5), (8, 16, 5, 0.75), (13, 7, 9, 0.95)] {
        let a_dense = sparse_matrix(m, k, sparsity, 100 + m as u64);
        let b = DenseMatrix::from_vec(k, n, pseudo_random_values(k * n, 200 + n as u64));
        let a_csr = CsrMatrix::from_dense(&a_dense);
        let sparse_result = spmm(&a_csr, &b);
        let dense_result = a_dense.matmul(&b);
        assert!(
            sparse_result.max_abs_diff(&dense_result) < 1e-4,
            "SpMM diverged from dense GEMM at {m}x{k}x{n}, sparsity {sparsity}"
        );
    }
}
