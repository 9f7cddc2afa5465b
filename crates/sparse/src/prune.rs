//! Magnitude-pruning primitives.
//!
//! [`prune_to_sparsity`] is the single-process form of the paper's
//! distributed global pruning (Algorithm 1): it computes a global magnitude
//! threshold from a target sparsity and zeroes what falls below it.  The
//! distributed orchestration (local top-k → gather → global top-k →
//! broadcast threshold) lives in `dynmo-dynamics::pruning`, which composes
//! [`crate::topk`] with the collectives of `dynmo-runtime`.

use crate::topk::kth_largest_magnitude;

/// Compute the magnitude threshold that retains exactly
/// `round((1 - sparsity) * len)` parameters of `values` (global magnitude
/// pruning): every value with `|v| >= threshold` is kept.
///
/// Returns `f32::INFINITY` when the sparsity is 1.0 (prune everything) and
/// `0.0` when it is 0.0 (keep everything).
fn global_magnitude_threshold(values: &[f32], sparsity: f64) -> f32 {
    let sparsity = sparsity.clamp(0.0, 1.0);
    if values.is_empty() || sparsity <= 0.0 {
        return 0.0;
    }
    let keep = ((1.0 - sparsity) * values.len() as f64).round() as usize;
    if keep == 0 {
        return f32::INFINITY;
    }
    kth_largest_magnitude(values, keep).unwrap_or(0.0)
}

/// Zero every element of `values` whose magnitude is strictly below
/// `threshold`.  Returns the number of retained (non-zeroed) elements.
fn apply_magnitude_threshold(values: &mut [f32], threshold: f32) -> usize {
    let mut kept = 0;
    for v in values.iter_mut() {
        if v.abs() >= threshold && *v != 0.0 {
            kept += 1;
        } else {
            *v = 0.0;
        }
    }
    kept
}

/// Prune `values` in place to the target `sparsity` using global magnitude
/// pruning, returning the achieved sparsity (which may differ slightly from
/// the target due to magnitude ties).
pub fn prune_to_sparsity(values: &mut [f32], sparsity: f64) -> f64 {
    let threshold = global_magnitude_threshold(values, sparsity);
    if threshold == 0.0 {
        // Keep-everything fast path; achieved sparsity is the existing
        // fraction of exact zeros.
        let zeros = values.iter().filter(|v| **v == 0.0).count();
        return zeros as f64 / values.len().max(1) as f64;
    }
    let kept = apply_magnitude_threshold(values, threshold);
    1.0 - kept as f64 / values.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_retains_expected_count() {
        let values = [0.1, -0.9, 0.5, -0.3, 0.7, 0.2];
        // 50% sparsity keeps 3 of 6: |0.9|, |0.7|, |0.5| → threshold 0.5.
        let t = global_magnitude_threshold(&values, 0.5);
        assert_eq!(t, 0.5);
        // 0% sparsity keeps everything.
        assert_eq!(global_magnitude_threshold(&values, 0.0), 0.0);
        // 100% sparsity keeps nothing.
        assert_eq!(global_magnitude_threshold(&values, 1.0), f32::INFINITY);
        // Out-of-range sparsity is clamped.
        assert_eq!(global_magnitude_threshold(&values, -3.0), 0.0);
    }

    #[test]
    fn apply_threshold_zeroes_small_magnitudes() {
        let mut values = vec![0.1, -0.9, 0.5, -0.3, 0.7, 0.2];
        let kept = apply_magnitude_threshold(&mut values, 0.5);
        assert_eq!(kept, 3);
        assert_eq!(values, vec![0.0, -0.9, 0.5, 0.0, 0.7, 0.0]);
    }

    #[test]
    fn prune_to_sparsity_hits_target_within_rounding() {
        let mut values: Vec<f32> = (1..=1000).map(|i| i as f32 / 1000.0).collect();
        let achieved = prune_to_sparsity(&mut values, 0.9);
        assert!((achieved - 0.9).abs() < 0.01, "achieved {achieved}");
        let zeros = values.iter().filter(|v| **v == 0.0).count();
        assert_eq!(zeros, 900);
        // Survivors are exactly the largest 100 values.
        assert!(values[900..].iter().all(|v| *v > 0.0));
    }

    #[test]
    fn prune_with_zero_sparsity_reports_existing_zero_fraction() {
        let mut values = vec![0.0, 1.0, 0.0, 2.0];
        let achieved = prune_to_sparsity(&mut values, 0.0);
        assert_eq!(achieved, 0.5);
        assert_eq!(values, vec![0.0, 1.0, 0.0, 2.0]);
    }

    #[test]
    fn empty_input_is_handled() {
        let mut values: Vec<f32> = vec![];
        assert_eq!(global_magnitude_threshold(&values, 0.5), 0.0);
        assert_eq!(prune_to_sparsity(&mut values, 0.5), 0.0);
    }
}
