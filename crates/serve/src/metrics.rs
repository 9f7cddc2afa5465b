//! Per-request records and the SLO-oriented serving report.
//!
//! The metrics mirror what production inference gateways alarm on:
//!
//! * **TTFT** (time to first token) — queueing + admission + prefill; the
//!   latency a user perceives before anything streams back.
//! * **TPOT** (time per output token) — the steady decode cadence after the
//!   first token.
//! * **End-to-end latency** — arrival to last token.
//! * **Goodput** — completed requests per second that met the SLO target,
//!   the metric an autoscaler is actually paid to defend.

use dynmo_telemetry::SummaryStats;
use serde::{Deserialize, Serialize};

use crate::autoscale::ScaleEvent;

/// Latency targets a request must meet to count toward goodput.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloTarget {
    /// Maximum acceptable time to first token, in seconds.
    pub ttft: f64,
    /// Maximum acceptable time per output token, in seconds.
    pub tpot: f64,
}

impl SloTarget {
    /// A chat-interactivity target: first token within 2 s, then ≥ 10
    /// tokens/s.
    pub fn chat_default() -> Self {
        SloTarget {
            ttft: 2.0,
            tpot: 0.1,
        }
    }

    /// Whether a completed request met both targets.
    pub fn met_by(&self, record: &RequestRecord) -> bool {
        record.ttft() <= self.ttft && record.tpot() <= self.tpot
    }
}

/// The lifecycle timestamps of one served request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    /// The request's trace id.
    pub id: u64,
    /// Replica that served the request.
    pub replica: usize,
    /// Arrival time (from the trace).
    pub arrival: f64,
    /// When admission control moved the request into the running batch.
    pub admitted: f64,
    /// When the first output token was produced (prefill completed).
    pub first_token: f64,
    /// When the last output token was produced.
    pub completion: f64,
    /// Prompt tokens prefilled.
    pub prompt_tokens: usize,
    /// Output tokens decoded.
    pub output_tokens: usize,
}

impl RequestRecord {
    /// Time to first token: arrival → first output token.
    pub fn ttft(&self) -> f64 {
        self.first_token - self.arrival
    }

    /// Time per output token after the first.  Defined as 0 for
    /// single-token outputs (there is no inter-token gap to measure).
    pub fn tpot(&self) -> f64 {
        if self.output_tokens <= 1 {
            0.0
        } else {
            (self.completion - self.first_token) / (self.output_tokens - 1) as f64
        }
    }

    /// End-to-end latency: arrival → last token.
    pub fn latency(&self) -> f64 {
        self.completion - self.arrival
    }
}

/// p50/p95/p99/mean of one latency series.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl LatencySummary {
    /// Adopt a [`dynmo_telemetry::StreamingSummary`]'s statistics: exact
    /// nearest-rank percentiles while its buffer lasts, P² estimates
    /// beyond, so a long trace's summary costs O(1) memory.
    pub fn from_stats(stats: &SummaryStats) -> Self {
        LatencySummary {
            p50: stats.p50,
            p95: stats.p95,
            p99: stats.p99,
            mean: stats.mean,
        }
    }
}

/// The outcome of serving one trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// Trace label.
    pub trace: String,
    /// Tenant the deployment served (from [`crate::ServingConfig::tenant`];
    /// `"default"` for single-tenant deployments).
    pub tenant: String,
    /// Requests in the trace.
    pub requests: usize,
    /// Requests served to completion (always equals `requests`; the
    /// scheduler never drops).
    pub completed: usize,
    /// Time the last request completed, in seconds.
    pub makespan: f64,
    /// Time-to-first-token summary.
    pub ttft: LatencySummary,
    /// Time-per-output-token summary.
    pub tpot: LatencySummary,
    /// End-to-end latency summary.
    pub latency: LatencySummary,
    /// The SLO target goodput was measured against.
    pub slo: SloTarget,
    /// Completed requests that met the SLO (counted online, so it is exact
    /// even when per-request records are not retained).
    pub slo_met: u64,
    /// Completed-requests-per-second that met the SLO.
    pub goodput_rps: f64,
    /// Completed requests per second, SLO-met or not.
    pub throughput_rps: f64,
    /// Decoded output tokens per second over the makespan.
    pub output_tokens_per_second: f64,
    /// Total output tokens decoded.
    pub total_output_tokens: u64,
    /// Total prompt tokens prefilled.
    pub total_prefill_tokens: u64,
    /// Engine steps executed across all replicas.
    pub engine_steps: u64,
    /// Time-weighted mean GPU count allocated to the service.
    pub mean_gpus: f64,
    /// Largest replica count ever active.
    pub peak_replicas: usize,
    /// Autoscaling actions, in time order (empty for fixed capacity).
    pub scale_events: Vec<ScaleEvent>,
    /// Per-replica KV capacity in tokens.
    pub kv_capacity_tokens: usize,
    /// Largest KV reservation (tokens) ever held by a single replica.
    pub peak_kv_tokens: usize,
    /// Per-request lifecycle records, in completion order (empty when the
    /// deployment ran with `retain_records: false`).
    pub records: Vec<RequestRecord>,
}

impl ServingReport {
    /// Fraction of completed requests that met the SLO.
    pub fn slo_attainment(&self) -> f64 {
        if self.completed == 0 {
            return 1.0;
        }
        self.slo_met as f64 / self.completed as f64
    }

    /// Scale-out events recorded (replicas added).
    pub fn scale_out_events(&self) -> usize {
        self.scale_events.iter().filter(|e| e.delta > 0).count()
    }

    /// Scale-in events recorded (replicas released).
    pub fn scale_in_events(&self) -> usize {
        self.scale_events.iter().filter(|e| e.delta < 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmo_telemetry::StreamingSummary;

    fn record(arrival: f64, first: f64, completion: f64, out: usize) -> RequestRecord {
        RequestRecord {
            id: 0,
            replica: 0,
            arrival,
            admitted: arrival,
            first_token: first,
            completion,
            prompt_tokens: 10,
            output_tokens: out,
        }
    }

    #[test]
    fn record_latencies_are_the_classic_definitions() {
        let r = record(1.0, 3.0, 7.0, 5);
        assert_eq!(r.ttft(), 2.0);
        assert_eq!(r.tpot(), 1.0);
        assert_eq!(r.latency(), 6.0);
        // Single-token outputs have no inter-token gap.
        assert_eq!(record(0.0, 1.0, 1.0, 1).tpot(), 0.0);
    }

    #[test]
    fn summary_aggregates_the_series() {
        let mut series = StreamingSummary::new();
        for x in [4.0, 1.0, 3.0, 2.0] {
            series.observe(x);
        }
        let s = LatencySummary::from_stats(&series.stats());
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p99, 4.0);
        assert_eq!(s.mean, 2.5);
        let empty = StreamingSummary::new().stats();
        assert_eq!(
            LatencySummary::from_stats(&empty),
            LatencySummary::default()
        );
    }

    #[test]
    fn slo_target_gates_on_both_ttft_and_tpot() {
        let slo = SloTarget {
            ttft: 2.0,
            tpot: 0.5,
        };
        assert!(slo.met_by(&record(0.0, 1.5, 3.0, 5))); // tpot 0.375
        assert!(!slo.met_by(&record(0.0, 2.5, 4.0, 5))); // ttft 2.5
        assert!(!slo.met_by(&record(0.0, 1.0, 4.0, 5))); // tpot 0.75
    }
}
