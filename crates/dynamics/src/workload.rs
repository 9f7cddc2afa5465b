//! Synthetic token-routing workload generation.
//!
//! The paper's MoE experiments observe routing imbalance on real token
//! streams (Wikipedia through Mixtral-8x7B / LLaMA-MoE).  Without those
//! weights, the *distribution* of tokens over experts is what matters for
//! load: this module generates token→expert assignment counts with a
//! configurable skew (a Zipf-like popularity profile plus per-iteration
//! noise), calibrated so the resulting per-layer imbalance matches the
//! regimes reported in the paper (≈25% for token-choice routing with an
//! auxiliary loss, single-digit percent for balanced-assignment routers).

use crate::rng::Prng;

/// Generates per-expert token counts for successive iterations.
#[derive(Debug, Clone)]
pub struct TokenStreamGenerator {
    num_experts: usize,
    tokens_per_batch: usize,
    rng: Prng,
    /// Stationary expert popularity, Zipf-like in the skew exponent (0 =
    /// uniform, larger = more skew); routing noise is added per iteration
    /// on top.
    popularity: Vec<f64>,
}

impl TokenStreamGenerator {
    /// Create a generator for `num_experts` experts and `tokens_per_batch`
    /// tokens per iteration with the given skew exponent.
    pub fn new(num_experts: usize, tokens_per_batch: usize, skew: f64, seed: u64) -> Self {
        assert!(num_experts > 0, "need at least one expert");
        let mut rng = Prng::seed_from(seed);
        let popularity = Self::sample_popularity(num_experts, skew, &mut rng);
        TokenStreamGenerator {
            num_experts,
            tokens_per_batch,
            rng,
            popularity,
        }
    }

    fn sample_popularity(num_experts: usize, skew: f64, rng: &mut Prng) -> Vec<f64> {
        // Zipf-like ranks with a random permutation so the "hot" expert is
        // not always expert 0.
        let mut weights: Vec<f64> = (1..=num_experts)
            .map(|r| 1.0 / (r as f64).powf(skew))
            .collect();
        // Fisher-Yates shuffle of the weights.
        for i in (1..weights.len()).rev() {
            let j = rng.next_below(i + 1);
            weights.swap(i, j);
        }
        let total: f64 = weights.iter().sum();
        weights.iter().map(|w| w / total).collect()
    }

    /// Draw the per-expert token counts for one iteration.  Counts sum to
    /// `tokens_per_batch` exactly.
    pub fn next_counts(&mut self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_experts];
        // Multinomial sampling via per-token draws would be O(tokens); for
        // the batch sizes simulated here (10^5-10^6 tokens) we instead use
        // the expectation plus binomial-like jitter, which preserves the
        // mean and variance structure at a fraction of the cost.
        let mut assigned = 0usize;
        for (e, slot) in counts.iter_mut().enumerate() {
            let expectation = self.popularity[e] * self.tokens_per_batch as f64;
            // ±6% multiplicative routing noise per iteration.
            let noise = 1.0 + (self.rng.next_f64() - 0.5) * 0.12;
            let count = (expectation * noise).round().max(0.0) as usize;
            *slot = count;
            assigned += count;
        }
        // Fix up rounding drift so the total is exact.
        if assigned != self.tokens_per_batch {
            let diff = self.tokens_per_batch as i64 - assigned as i64;
            let idx = self.rng.next_below(self.num_experts);
            let new = counts[idx] as i64 + diff;
            counts[idx] = new.max(0) as usize;
        }
        counts
    }

    /// The generator's RNG stream position, for checkpointing.
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Rewind the generator's RNG stream to a position captured with
    /// [`TokenStreamGenerator::rng_state`] (checkpoint restore).  The
    /// stationary popularity is reproduced by construction from the seed,
    /// so the stream position is the only mutable state.
    pub fn set_rng_state(&mut self, state: u64) {
        self.rng = Prng::from_state(state);
    }
}

/// `max / mean` of a count vector — the per-layer load-amplification factor
/// of the most loaded expert (1.0 = perfectly balanced).
pub fn max_over_mean(counts: &[usize]) -> f64 {
    if counts.is_empty() {
        return 1.0;
    }
    let max = *counts.iter().max().unwrap() as f64;
    let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
    if mean <= 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_sum_to_the_batch_size() {
        let mut generator = TokenStreamGenerator::new(8, 4096, 0.5, 7);
        for _ in 0..20 {
            let counts = generator.next_counts();
            assert_eq!(counts.len(), 8);
            assert_eq!(counts.iter().sum::<usize>(), 4096);
        }
    }

    #[test]
    fn zero_skew_is_nearly_balanced() {
        let mut generator = TokenStreamGenerator::new(8, 100_000, 0.0, 3);
        let mut worst: f64 = 1.0;
        for _ in 0..10 {
            worst = worst.max(max_over_mean(&generator.next_counts()));
        }
        assert!(worst < 1.15, "worst imbalance {worst}");
    }

    #[test]
    fn higher_skew_produces_higher_imbalance() {
        let average_imbalance = |skew: f64| {
            let mut generator = TokenStreamGenerator::new(8, 100_000, skew, 11);
            (0..20)
                .map(|_| max_over_mean(&generator.next_counts()))
                .sum::<f64>()
                / 20.0
        };
        let low = average_imbalance(0.1);
        let high = average_imbalance(1.0);
        assert!(high > low + 0.2, "low {low}, high {high}");
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let mut a = TokenStreamGenerator::new(16, 8192, 0.6, 99);
        let mut b = TokenStreamGenerator::new(16, 8192, 0.6, 99);
        for _ in 0..5 {
            assert_eq!(a.next_counts(), b.next_counts());
        }
        // Different seeds diverge.
        let mut c = TokenStreamGenerator::new(16, 8192, 0.6, 100);
        let same: bool = (0..5).all(|_| a.next_counts() == c.next_counts());
        assert!(!same);
    }

    #[test]
    fn max_over_mean_edge_cases() {
        assert_eq!(max_over_mean(&[]), 1.0);
        assert_eq!(max_over_mean(&[0, 0]), 1.0);
        assert_eq!(max_over_mean(&[4, 4, 4, 4]), 1.0);
        assert_eq!(max_over_mean(&[8, 0, 0, 0]), 4.0);
    }

    #[test]
    #[should_panic(expected = "at least one expert")]
    fn zero_experts_is_rejected() {
        let _ = TokenStreamGenerator::new(0, 100, 0.5, 1);
    }
}
