//! The structured event vocabulary recorders accept.
//!
//! Events are deliberately plain data: simulated-time spans on
//! `(group, lane)` tracks, instant markers, counter samples, and log
//! lines.  A *group* maps to a Perfetto process (a training run, a serving
//! fleet, a resilient world) and a *lane* to a thread within it (a
//! pipeline rank, a replica, an autoscaler).

use serde::{Deserialize, Serialize};

/// Severity of a [`LogEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LogLevel {
    /// Routine progress information.
    Info,
    /// Something degraded but the run continues (e.g. a checkpoint write
    /// failed and will be retried at the next interval).
    Warn,
    /// An unrecoverable condition reported before returning an error.
    Error,
}

impl LogLevel {
    /// Short uppercase label (`INFO`/`WARN`/`ERROR`).
    pub fn label(&self) -> &'static str {
        match self {
            LogLevel::Info => "INFO",
            LogLevel::Warn => "WARN",
            LogLevel::Error => "ERROR",
        }
    }
}

/// What an [`InstantEvent`] marks on the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MarkerKind {
    /// The rebalance controller committed a new assignment.
    Rebalance,
    /// A checkpoint was written.
    Checkpoint,
    /// State was restored from a checkpoint after a failure.
    Restore,
    /// The autoscaler added replicas.
    ScaleOut,
    /// The autoscaler drained and released replicas.
    ScaleIn,
    /// A fault was injected (a rank was killed).
    Fault,
    /// A fleet controller took GPUs away from the training job to relieve
    /// a serving tenant's SLO breach.
    GpuSteal,
    /// A fleet controller returned GPUs to the training job in a serving
    /// trough.
    GpuReturn,
    /// A fleet controller drained a lower-priority serving tenant to free
    /// GPUs for a higher-priority one.
    Preemption,
}

impl MarkerKind {
    /// Stable lowercase name used in trace `args` and track names.
    pub fn name(&self) -> &'static str {
        match self {
            MarkerKind::Rebalance => "rebalance",
            MarkerKind::Checkpoint => "checkpoint",
            MarkerKind::Restore => "restore",
            MarkerKind::ScaleOut => "scale_out",
            MarkerKind::ScaleIn => "scale_in",
            MarkerKind::Fault => "fault",
            MarkerKind::GpuSteal => "gpu_steal",
            MarkerKind::GpuReturn => "gpu_return",
            MarkerKind::Preemption => "preemption",
        }
    }
}

/// A completed span on one lane: `[start, end]` in simulated seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Track group (Perfetto process), e.g. one training run.
    pub group: usize,
    /// Lane within the group (Perfetto thread), e.g. a pipeline rank.
    pub lane: usize,
    /// Short span name (e.g. an op label like `F3`).
    pub name: String,
    /// Start time in simulated seconds.
    pub start: f64,
    /// End time in simulated seconds (`end >= start`).
    pub end: f64,
}

/// A zero-duration marker pinned to one point of a group's timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstantEvent {
    /// Track group the marker belongs to.
    pub group: usize,
    /// Marker classification (drives the marker lane it renders on).
    pub kind: MarkerKind,
    /// Human-readable marker name.
    pub name: String,
    /// Simulated time of the event.
    pub time: f64,
    /// Free-form key/value details rendered in the trace viewer.
    pub args: Vec<(String, String)>,
}

/// One sample of a numeric series (rendered as a counter track).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterEvent {
    /// Track group the counter belongs to.
    pub group: usize,
    /// Counter name (one chart per name).
    pub name: String,
    /// Simulated time of the sample.
    pub time: f64,
    /// Sampled value.
    pub value: f64,
}

/// A log line emitted by a library crate (replaces ad-hoc `eprintln!`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogEvent {
    /// Severity.
    pub level: LogLevel,
    /// Message text.
    pub message: String,
}

/// Any record a [`crate::Recorder`] can receive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A completed simulated-time span.
    Span(SpanEvent),
    /// An instant marker.
    Instant(InstantEvent),
    /// A counter sample.
    Counter(CounterEvent),
    /// A log line.
    Log(LogEvent),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_names_are_stable() {
        assert_eq!(MarkerKind::Rebalance.name(), "rebalance");
        assert_eq!(MarkerKind::ScaleIn.name(), "scale_in");
        assert_eq!(MarkerKind::Fault.name(), "fault");
        assert_eq!(MarkerKind::Preemption.name(), "preemption");
        assert_eq!(LogLevel::Warn.label(), "WARN");
    }

    #[test]
    fn events_round_trip_through_json() {
        let e = Event::Instant(InstantEvent {
            group: 1,
            kind: MarkerKind::Checkpoint,
            name: "ckpt@40".to_string(),
            time: 12.5,
            args: vec![("iteration".to_string(), "40".to_string())],
        });
        let text = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&text).unwrap();
        assert_eq!(back, e);
    }
}
