//! The imbalance history of a training run.  ΔL itself (paper §2,
//! Equation 2) is `dynmo_pipeline::metrics::imbalance`.

use serde::{Deserialize, Serialize};

/// A rolling record of imbalance over training, used by the experiment
/// harness to plot "before vs after rebalancing" traces.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ImbalanceHistory {
    samples: Vec<(u64, f64)>,
}

impl ImbalanceHistory {
    /// Create an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the imbalance observed at `iteration`.
    pub fn record(&mut self, iteration: u64, imbalance: f64) {
        self.samples.push((iteration, imbalance));
    }

    /// All recorded samples in insertion order.
    pub fn samples(&self) -> &[(u64, f64)] {
        &self.samples
    }

    /// Mean imbalance over all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|(_, v)| v).sum::<f64>() / self.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_tracks_the_mean() {
        let mut h = ImbalanceHistory::new();
        assert_eq!(h.mean(), 0.0);
        h.record(0, 0.5);
        h.record(100, 1.5);
        h.record(200, 1.0);
        assert_eq!(h.samples().len(), 3);
        assert!((h.mean() - 1.0).abs() < 1e-12);
    }
}
