//! Streaming quantile estimation: the P² algorithm and a latency-summary
//! sketch built on it.
//!
//! [`P2Quantile`] is the classic Jain & Chlamtac (1985) *P-squared*
//! estimator: five markers track the running quantile with O(1) memory and
//! O(1) update cost, adjusting marker heights with a piecewise-parabolic
//! prediction.  [`StreamingSummary`] bundles three sketches (p50/p95/p99)
//! with count/sum/min/max — and keeps an exact buffer for small series so
//! summaries are *bit-identical* to the sort-based path until the series
//! outgrows the buffer, at which point memory becomes O(1) in the number
//! of observations (ROADMAP item 2a: 10M-request traces must not hold 10M
//! latencies just to report a p99).

use serde::{Deserialize, Serialize};

/// The `q`-th percentile (0 < q ≤ 1) of an ascending-sorted slice using
/// the nearest-rank definition; 0 for an empty slice.  The workspace's one
/// exact percentile: [`StreamingSummary`]'s exact mode and the serving SLO
/// windows both take it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Streaming estimator of a single quantile with five markers (P²).
///
/// Exact (nearest-rank over the buffered observations) while `n ≤ 5`;
/// afterwards an O(1)-memory estimate whose error shrinks as the stream
/// grows.  Updates are deterministic: the estimate depends only on the
/// observation sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct P2Quantile {
    /// The target quantile in (0, 1).
    q: f64,
    /// Marker heights (the first five observations, sorted, until the
    /// estimator transitions to streaming mode).
    heights: Vec<f64>,
    /// Actual marker positions (1-based observation ranks).
    positions: Vec<f64>,
    /// Desired marker positions.
    desired: Vec<f64>,
    /// Desired-position increments per observation.
    increments: Vec<f64>,
    /// Observations seen.
    count: u64,
}

impl P2Quantile {
    /// A sketch for quantile `q` (e.g. `0.99`); panics unless `0 < q < 1`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1), got {q}");
        P2Quantile {
            q,
            heights: Vec::with_capacity(5),
            positions: vec![1.0, 2.0, 3.0, 4.0, 5.0],
            desired: vec![1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: vec![0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    /// Feed one observation.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        if self.count <= 5 {
            // Initialization: buffer and keep sorted; these double as the
            // exact small-n values and the initial marker heights.
            let at = self
                .heights
                .iter()
                .position(|h| x < *h)
                .unwrap_or(self.heights.len());
            self.heights.insert(at, x);
            return;
        }

        let h = &mut self.heights;
        // 1. Find the cell k (0-based: markers k and k+1 bracket x),
        //    stretching the extreme markers when x falls outside them.
        let k = if x < h[0] {
            h[0] = x;
            0
        } else if x >= h[4] {
            h[4] = x;
            3
        } else {
            // h[k] <= x < h[k+1] for some k in 0..=3.
            (0..4).find(|&i| x < h[i + 1]).unwrap_or(3)
        };

        // 2. Shift positions above the cell; advance all desired positions.
        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }

        // 3. Adjust the three interior markers toward their desired
        //    positions, preferring the parabolic prediction and falling
        //    back to linear interpolation when it would break monotonicity.
        for i in 1..4 {
            let mut n = [0.0f64; 5];
            n.copy_from_slice(&self.positions);
            let d = self.desired[i] - n[i];
            let room_up = n[i + 1] - n[i] > 1.0;
            let room_down = n[i - 1] - n[i] < -1.0;
            if (d >= 1.0 && room_up) || (d <= -1.0 && room_down) {
                let d = d.signum();
                let parabolic = h[i]
                    + d / (n[i + 1] - n[i - 1])
                        * ((n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]));
                h[i] = if h[i - 1] < parabolic && parabolic < h[i + 1] {
                    parabolic
                } else {
                    // Linear step toward the neighbour in direction d.
                    let j = if d > 0.0 { i + 1 } else { i - 1 };
                    h[i] + d * (h[j] - h[i]) / (n[j] - n[i])
                };
                self.positions[i] += d;
            }
        }
    }

    /// Current estimate: exact (nearest-rank) while `n ≤ 5`, the middle
    /// marker height afterwards; 0 before any observation.
    pub fn value(&self) -> f64 {
        if self.count <= 5 {
            nearest_rank(&self.heights, self.q)
        } else {
            self.heights[2]
        }
    }
}

/// The four numbers a latency summary reports, plus stream aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SummaryStats {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Observations seen.
    pub count: u64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
}

/// Observations a [`StreamingSummary`] keeps exactly: series up to this
/// length summarize exactly (and cheaply — one sort at summary time, not
/// per call).
const EXACT_LIMIT: usize = 8192;

/// Streaming p50/p95/p99/mean with a bounded exact buffer.
///
/// While the series fits in the buffer (8,192 values) the summary
/// is computed by sorting: [`nearest_rank`] percentiles and a mean summed
/// in sorted order, so small-n results are exact.  Past the limit
/// the buffer is dropped (not grown) and the three P² sketches take over:
/// peak memory becomes O(1) in the number of observations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingSummary {
    /// Exact values, kept only while `count <= EXACT_LIMIT`.
    exact: Option<Vec<f64>>,
    p50: P2Quantile,
    p95: P2Quantile,
    p99: P2Quantile,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for StreamingSummary {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingSummary {
    /// An empty summary, in exact mode.
    pub fn new() -> Self {
        StreamingSummary {
            exact: Some(Vec::new()),
            p50: P2Quantile::new(0.50),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Feed one observation.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.p50.observe(x);
        self.p95.observe(x);
        self.p99.observe(x);
        if let Some(buf) = &mut self.exact {
            if buf.len() < EXACT_LIMIT {
                buf.push(x);
            } else {
                // Outgrew the buffer: free it and rely on the sketches.
                self.exact = None;
            }
        }
    }

    /// Summarize the stream so far.  Exact mode reproduces the sort-based
    /// summary bit-for-bit; sketch mode reports P² estimates and the
    /// running mean.  An empty stream summarizes to all zeros.
    pub fn stats(&self) -> SummaryStats {
        if self.count == 0 {
            return SummaryStats::default();
        }
        match &self.exact {
            Some(values) => {
                // Sort, take nearest-rank percentiles, and average over
                // the *sorted* order (f64 addition is order-sensitive, so
                // the order is part of the pinned result).
                let mut sorted = values.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("observations are finite"));
                SummaryStats {
                    p50: nearest_rank(&sorted, 0.50),
                    p95: nearest_rank(&sorted, 0.95),
                    p99: nearest_rank(&sorted, 0.99),
                    mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
                    count: self.count,
                    min: self.min,
                    max: self.max,
                }
            }
            None => SummaryStats {
                p50: self.p50.value(),
                p95: self.p95.value(),
                p99: self.p99.value(),
                mean: self.sum / self.count as f64,
                count: self.count,
                min: self.min,
                max: self.max,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: deterministic, seedable, good enough for test streams.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn uniform01(state: &mut u64) -> f64 {
        (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(nearest_rank(&v, 0.50), 50.0);
        assert_eq!(nearest_rank(&v, 0.95), 95.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 0.5), 7.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn exact_for_five_or_fewer_observations() {
        let mut sk = P2Quantile::new(0.5);
        for (i, x) in [5.0, 1.0, 4.0, 2.0, 3.0].iter().enumerate() {
            sk.observe(*x);
            let mut sorted = [5.0, 1.0, 4.0, 2.0, 3.0][..=i].to_vec();
            sorted.sort_by(|a: &f64, b| a.partial_cmp(b).unwrap());
            assert_eq!(
                sk.value(),
                nearest_rank(&sorted, 0.5),
                "after {} obs",
                i + 1
            );
        }
        assert_eq!(sk.value(), 3.0);
    }

    #[test]
    fn median_of_uniform_stream_converges() {
        let mut sk = P2Quantile::new(0.5);
        let mut state = 42u64;
        for _ in 0..50_000 {
            sk.observe(uniform01(&mut state));
        }
        assert!((sk.value() - 0.5).abs() < 0.01, "median {}", sk.value());
    }

    #[test]
    fn p99_of_uniform_stream_converges() {
        let mut sk = P2Quantile::new(0.99);
        let mut state = 7u64;
        for _ in 0..50_000 {
            sk.observe(uniform01(&mut state));
        }
        assert!((sk.value() - 0.99).abs() < 0.005, "p99 {}", sk.value());
    }

    #[test]
    fn marker_heights_stay_sorted() {
        let mut sk = P2Quantile::new(0.95);
        let mut state = 11u64;
        for i in 0..10_000 {
            // A nasty mix: uniform noise plus occasional large spikes.
            let x = if i % 97 == 0 {
                100.0 + uniform01(&mut state)
            } else {
                uniform01(&mut state)
            };
            sk.observe(x);
            if sk.count > 5 {
                for w in sk.heights.windows(2) {
                    assert!(w[0] <= w[1], "markers out of order: {:?}", sk.heights);
                }
            }
        }
    }

    #[test]
    fn streaming_summary_is_bit_identical_to_sort_path_while_exact() {
        let mut state = 3u64;
        let values: Vec<f64> = (0..1000).map(|_| uniform01(&mut state) * 10.0).collect();
        let mut sum = StreamingSummary::new();
        for v in &values {
            sum.observe(*v);
        }
        assert!(sum.exact.is_some());
        let stats = sum.stats();
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(stats.p50, nearest_rank(&sorted, 0.50));
        assert_eq!(stats.p95, nearest_rank(&sorted, 0.95));
        assert_eq!(stats.p99, nearest_rank(&sorted, 0.99));
        assert_eq!(stats.mean, sorted.iter().sum::<f64>() / sorted.len() as f64);
        assert_eq!(stats.count, 1000);
    }

    #[test]
    fn summary_drops_the_buffer_past_the_limit() {
        let mut sum = StreamingSummary::new();
        let mut state = 5u64;
        for _ in 0..EXACT_LIMIT {
            sum.observe(uniform01(&mut state));
        }
        assert!(sum.exact.is_some());
        sum.observe(0.5);
        assert!(sum.exact.is_none(), "buffer must be freed past the limit");
        let stats = sum.stats();
        assert_eq!(stats.count, EXACT_LIMIT as u64 + 1);
        assert!(stats.p50 > 0.0 && stats.p50 < 1.0);
    }

    #[test]
    fn sketch_mode_tracks_exact_percentiles_on_large_streams() {
        let mut sum = StreamingSummary::new();
        let mut state = 1234u64;
        let mut values = Vec::new();
        for _ in 0..100_000 {
            // Log-normal-ish latency distribution.
            let u = uniform01(&mut state).max(1e-12);
            let v = uniform01(&mut state);
            let z = (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos();
            let x = (0.25 * z).exp();
            values.push(x);
            sum.observe(x);
        }
        assert!(sum.exact.is_none());
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let stats = sum.stats();
        for (est, q) in [(stats.p50, 0.50), (stats.p95, 0.95), (stats.p99, 0.99)] {
            let exact = nearest_rank(&values, q);
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.01, "q={q}: est {est} vs exact {exact} (rel {rel})");
        }
        let exact_mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!((stats.mean - exact_mean).abs() / exact_mean < 1e-9);
    }

    #[test]
    fn empty_summary_is_all_zeros() {
        assert_eq!(StreamingSummary::new().stats(), SummaryStats::default());
    }
}
