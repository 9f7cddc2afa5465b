//! Request-trace generators for the serving engine.
//!
//! A trace is a time-ordered list of inference requests, each with an
//! arrival time, a prompt length (tokens to prefill) and an output length
//! (tokens to decode).  Three synthetic arrival processes cover the usual
//! serving regimes — steady Poisson traffic, a bursty load spike, and a
//! slow diurnal swing — and [`RequestTrace::replayed`] wraps an explicit
//! request list (e.g. replayed production logs) in the same type.
//!
//! Generation is deterministic: the same process, duration, length model
//! and seed always produce the same trace, so sweep cells comparing
//! fixed-capacity against autoscaled serving see byte-identical traffic.

use dynmo_dynamics::rng::Prng;
use serde::{Deserialize, Serialize};

/// One inference request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Unique id within the trace (assigned in arrival order).
    pub id: u64,
    /// Arrival time in seconds from the start of the trace.
    pub arrival: f64,
    /// Prompt tokens to prefill before the first output token.
    pub prompt_tokens: usize,
    /// Output tokens to decode (≥ 1; the first is produced by prefill).
    pub output_tokens: usize,
}

impl Request {
    /// Total tokens the request ever holds in the KV cache.
    pub fn total_tokens(&self) -> usize {
        self.prompt_tokens + self.output_tokens
    }
}

/// The arrival process shaping a synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at `rate` requests/second.
    Poisson {
        /// Mean arrival rate in requests/second.
        rate: f64,
    },
    /// Poisson at `base_rate`, except during the spike window
    /// `[spike_start, spike_start + spike_duration)` where the rate jumps
    /// to `spike_rate` — the load-spike scenario the elastic autoscaler
    /// must absorb.
    Bursty {
        /// Off-spike arrival rate in requests/second.
        base_rate: f64,
        /// In-spike arrival rate in requests/second.
        spike_rate: f64,
        /// Spike onset in seconds.
        spike_start: f64,
        /// Spike length in seconds.
        spike_duration: f64,
    },
    /// Sinusoidal rate `mean_rate · (1 + amplitude · sin(2πt/period))` —
    /// a compressed day/night traffic swing.
    Diurnal {
        /// Mean arrival rate in requests/second.
        mean_rate: f64,
        /// Relative swing amplitude in `[0, 1)`.
        amplitude: f64,
        /// Period of one full swing in seconds.
        period: f64,
    },
}

impl ArrivalProcess {
    /// Instantaneous arrival rate at time `t`.
    pub fn rate_at(&self, t: f64) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::Bursty {
                base_rate,
                spike_rate,
                spike_start,
                spike_duration,
            } => {
                if t >= spike_start && t < spike_start + spike_duration {
                    spike_rate
                } else {
                    base_rate
                }
            }
            ArrivalProcess::Diurnal {
                mean_rate,
                amplitude,
                period,
            } => mean_rate * (1.0 + amplitude * (2.0 * std::f64::consts::PI * t / period).sin()),
        }
    }

    /// An upper bound on the rate over all times (the thinning envelope).
    pub fn peak_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::Bursty {
                base_rate,
                spike_rate,
                ..
            } => base_rate.max(spike_rate),
            ArrivalProcess::Diurnal {
                mean_rate,
                amplitude,
                ..
            } => mean_rate * (1.0 + amplitude.abs()),
        }
    }

    /// Short label for reports and sweep rows.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
            ArrivalProcess::Diurnal { .. } => "diurnal",
        }
    }
}

/// Per-request prompt/output length distribution: lengths are drawn
/// log-uniformly around the means, spanning `[mean/e^spread, mean·e^spread]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LengthModel {
    /// Mean prompt length in tokens.
    pub mean_prompt_tokens: usize,
    /// Mean output length in tokens.
    pub mean_output_tokens: usize,
    /// Log-spread of the lengths (0 = deterministic lengths).
    pub spread: f64,
}

impl LengthModel {
    /// A chat-style mix: medium prompts, shorter completions, ~3× spread.
    pub fn chat_default() -> Self {
        LengthModel {
            mean_prompt_tokens: 512,
            mean_output_tokens: 128,
            spread: 0.6,
        }
    }

    fn sample_len(&self, mean: usize, rng: &mut Prng) -> usize {
        let factor = ((rng.next_f64() - 0.5) * 2.0 * self.spread).exp();
        ((mean as f64 * factor).round() as usize).max(1)
    }

    /// Draw one (prompt, output) length pair.
    pub fn sample(&self, rng: &mut Prng) -> (usize, usize) {
        (
            self.sample_len(self.mean_prompt_tokens, rng),
            self.sample_len(self.mean_output_tokens, rng),
        )
    }
}

/// A time-ordered request trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestTrace {
    /// Trace label for reports (the arrival process, or a replay name).
    pub label: String,
    /// Requests in non-decreasing arrival order.
    pub requests: Vec<Request>,
}

impl RequestTrace {
    /// Generate a synthetic trace: arrivals from `process` over
    /// `[0, duration)` via Poisson thinning against the peak-rate
    /// envelope, lengths from `lengths`.  Deterministic in `seed`.
    pub fn generate(
        process: &ArrivalProcess,
        duration: f64,
        lengths: &LengthModel,
        seed: u64,
    ) -> Self {
        assert!(duration > 0.0, "trace duration must be positive");
        let peak = process.peak_rate();
        assert!(peak > 0.0, "arrival process must have a positive rate");
        let mut rng = Prng::seed_from(seed);
        let mut requests = Vec::new();
        let mut t = 0.0f64;
        loop {
            // Exponential gap at the envelope rate; (1 − u) > 0 always.
            t += -(1.0 - rng.next_f64()).ln() / peak;
            if t >= duration {
                break;
            }
            // Thinning: keep the candidate with probability rate(t)/peak.
            if rng.next_f64() * peak <= process.rate_at(t) {
                let (prompt_tokens, output_tokens) = lengths.sample(&mut rng);
                requests.push(Request {
                    id: requests.len() as u64,
                    arrival: t,
                    prompt_tokens,
                    output_tokens,
                });
            }
        }
        RequestTrace {
            label: process.label().to_string(),
            requests,
        }
    }

    /// Wrap an explicit request list (e.g. replayed production logs).
    /// Arrivals must be non-decreasing and non-negative, lengths positive;
    /// ids are re-assigned in order.
    pub fn replayed(label: &str, requests: Vec<(f64, usize, usize)>) -> Result<Self, String> {
        let mut out = Vec::with_capacity(requests.len());
        let mut last = 0.0f64;
        for (i, &(arrival, prompt_tokens, output_tokens)) in requests.iter().enumerate() {
            if !arrival.is_finite() || arrival < 0.0 {
                return Err(format!("request {i}: arrival {arrival} must be ≥ 0"));
            }
            if arrival < last {
                return Err(format!(
                    "request {i}: arrival {arrival} before previous arrival {last}"
                ));
            }
            if prompt_tokens == 0 || output_tokens == 0 {
                return Err(format!("request {i}: prompt and output must be ≥ 1 token"));
            }
            last = arrival;
            out.push(Request {
                id: i as u64,
                arrival,
                prompt_tokens,
                output_tokens,
            });
        }
        Ok(RequestTrace {
            label: label.to_string(),
            requests: out,
        })
    }

    /// Phase-shift every arrival by `offset` seconds modulo `period`,
    /// keeping the request population (lengths included) intact.  This is
    /// how several tenants share one diurnal day from independent seeds
    /// without correlated spikes: each tenant offsets its own generated
    /// trace by a different phase, so their crests land at different wall
    /// times.  Requests are re-sorted by their new arrivals (stable, so
    /// same-instant requests keep their relative order) and re-numbered.
    pub fn time_offset(&self, offset: f64, period: f64) -> RequestTrace {
        assert!(
            period > 0.0 && period.is_finite(),
            "offset period must be positive and finite"
        );
        assert!(offset.is_finite(), "offset must be finite");
        let mut requests = self.requests.clone();
        for request in &mut requests {
            request.arrival = (request.arrival + offset).rem_euclid(period);
        }
        requests.sort_by(|a, b| {
            a.arrival
                .partial_cmp(&b.arrival)
                .expect("arrivals are finite")
        });
        for (i, request) in requests.iter_mut().enumerate() {
            request.id = i as u64;
        }
        RequestTrace {
            label: self.label.clone(),
            requests,
        }
    }

    /// Number of requests in the trace.
    pub fn num_requests(&self) -> usize {
        self.requests.len()
    }

    /// Sum of every request's prompt + output tokens.
    pub fn total_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.total_tokens() as u64).sum()
    }

    /// Sum of the requested output tokens.
    #[cfg(test)]
    pub(crate) fn total_output_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.output_tokens as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_trace_hits_the_requested_rate() {
        let trace = RequestTrace::generate(
            &ArrivalProcess::Poisson { rate: 5.0 },
            200.0,
            &LengthModel::chat_default(),
            42,
        );
        let n = trace.num_requests() as f64;
        // 1000 expected arrivals; allow ±10%.
        assert!((n - 1000.0).abs() < 100.0, "n = {n}");
        // Sorted arrivals, ids in order, positive lengths.
        for (i, w) in trace.requests.windows(2).enumerate() {
            assert!(w[1].arrival >= w[0].arrival, "unsorted at {i}");
        }
        for (i, r) in trace.requests.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(r.prompt_tokens >= 1 && r.output_tokens >= 1);
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let p = ArrivalProcess::Bursty {
            base_rate: 2.0,
            spike_rate: 10.0,
            spike_start: 20.0,
            spike_duration: 10.0,
        };
        let a = RequestTrace::generate(&p, 60.0, &LengthModel::chat_default(), 7);
        let b = RequestTrace::generate(&p, 60.0, &LengthModel::chat_default(), 7);
        let c = RequestTrace::generate(&p, 60.0, &LengthModel::chat_default(), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn bursty_trace_concentrates_arrivals_in_the_spike() {
        let p = ArrivalProcess::Bursty {
            base_rate: 1.0,
            spike_rate: 20.0,
            spike_start: 40.0,
            spike_duration: 20.0,
        };
        let trace = RequestTrace::generate(&p, 100.0, &LengthModel::chat_default(), 3);
        let in_spike = trace
            .requests
            .iter()
            .filter(|r| r.arrival >= 40.0 && r.arrival < 60.0)
            .count() as f64;
        let outside = trace.num_requests() as f64 - in_spike;
        // 400 expected in-spike vs 80 outside.
        assert!(in_spike > 3.0 * outside, "{in_spike} vs {outside}");
    }

    #[test]
    fn diurnal_rate_swings_around_the_mean() {
        let p = ArrivalProcess::Diurnal {
            mean_rate: 4.0,
            amplitude: 0.8,
            period: 100.0,
        };
        assert!((p.rate_at(25.0) - 7.2).abs() < 1e-9); // crest
        assert!((p.rate_at(75.0) - 0.8).abs() < 1e-9); // trough
        assert!((p.peak_rate() - 7.2).abs() < 1e-9);
        let trace = RequestTrace::generate(&p, 200.0, &LengthModel::chat_default(), 5);
        let crest = trace
            .requests
            .iter()
            .filter(|r| (r.arrival % 100.0) < 50.0)
            .count();
        let trough = trace.num_requests() - crest;
        assert!(crest > 2 * trough, "{crest} vs {trough}");
    }

    #[test]
    fn length_model_spread_brackets_the_mean() {
        let lengths = LengthModel {
            mean_prompt_tokens: 100,
            mean_output_tokens: 50,
            spread: 0.5,
        };
        let mut rng = Prng::seed_from(1);
        for _ in 0..500 {
            let (p, o) = lengths.sample(&mut rng);
            assert!((60..=165).contains(&p), "prompt {p}");
            assert!((30..=83).contains(&o), "output {o}");
        }
        // Zero spread is deterministic.
        let fixed = LengthModel {
            spread: 0.0,
            ..lengths
        };
        assert_eq!(fixed.sample(&mut rng), (100, 50));
    }

    #[test]
    fn trace_mixing_is_seed_pinned_and_decorrelates_spikes() {
        // Two tenants draw independent diurnal days from their own seeds;
        // tenant B phase-shifts by half a period so the crests never
        // coincide.  The whole construction is deterministic in the seeds.
        let period = 100.0;
        let day = ArrivalProcess::Diurnal {
            mean_rate: 4.0,
            amplitude: 0.8,
            period,
        };
        let lengths = LengthModel::chat_default();
        let build = || {
            let a = RequestTrace::generate(&day, period, &lengths, 101);
            let b = RequestTrace::generate(&day, period, &lengths, 202).time_offset(50.0, period);
            (a, b)
        };
        let (a1, b1) = build();
        let (a2, b2) = build();
        assert_eq!(a1, a2, "mixing must be deterministic in the seed");
        assert_eq!(b1, b2, "offset traces must be deterministic in the seed");

        // The offset moved tenant B's crest into tenant A's trough: in the
        // first half-period A is busy and B is quiet, and vice versa.
        let first_half = |t: &RequestTrace| t.requests.iter().filter(|r| r.arrival < 50.0).count();
        let a_crest = first_half(&a1);
        let b_crest = first_half(&b1);
        assert!(
            a_crest * 2 > a1.num_requests(),
            "A peaks early: {a_crest}/{}",
            a1.num_requests()
        );
        assert!(
            b_crest * 2 < b1.num_requests(),
            "B peaks late: {b_crest}/{}",
            b1.num_requests()
        );

        // The offset is a pure phase shift: the request population (and so
        // the total token mass) is untouched.
        let b_raw = RequestTrace::generate(&day, period, &lengths, 202);
        assert_eq!(b1.num_requests(), b_raw.num_requests());
        assert_eq!(b1.total_tokens(), b_raw.total_tokens());
    }

    #[test]
    fn replayed_traces_validate_ordering_and_lengths() {
        let ok = RequestTrace::replayed("prod", vec![(0.0, 10, 5), (1.5, 20, 1)]).unwrap();
        assert_eq!(ok.num_requests(), 2);
        assert_eq!(ok.label, "prod");
        assert_eq!(ok.total_tokens(), 36);
        assert_eq!(ok.total_output_tokens(), 6);
        assert!(RequestTrace::replayed("bad", vec![(2.0, 1, 1), (1.0, 1, 1)]).is_err());
        assert!(RequestTrace::replayed("bad", vec![(-1.0, 1, 1)]).is_err());
        assert!(RequestTrace::replayed("bad", vec![(0.0, 0, 1)]).is_err());
        assert!(RequestTrace::replayed("bad", vec![(0.0, 1, 0)]).is_err());
    }
}
