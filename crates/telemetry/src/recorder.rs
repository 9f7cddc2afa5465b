//! The [`Recorder`] trait plus the no-op and in-memory implementations.

use parking_lot::Mutex;

use dynmo_pipeline::metrics::IterationReport;

use crate::event::{CounterEvent, Event, InstantEvent, LogEvent, LogLevel, MarkerKind, SpanEvent};

/// Sink for structured telemetry events.
///
/// Library crates hold an `Arc<dyn Recorder>` and emit through the
/// convenience methods below; every method gates on [`Recorder::enabled`],
/// so with the default [`NullRecorder`] an instrumented code path costs one
/// virtual call and allocates nothing.
///
/// Recorders only ever receive *simulated* time.  Wall-clock measurement
/// goes through [`crate::Stopwatch`], in the bench harness only, so
/// recorded event streams — like the sweeps and trajectory checksums —
/// are bit-reproducible across machines and thread counts.
pub trait Recorder: Send + Sync {
    /// Whether events are being kept.  Emission sites may use this to skip
    /// building event payloads entirely.
    fn enabled(&self) -> bool;

    /// Record one event (called only when [`Recorder::enabled`] is true,
    /// but implementations must tolerate unconditional calls).
    fn record(&self, event: Event);

    /// Record a completed simulated-time span on `(group, lane)`.
    fn span(&self, group: usize, lane: usize, name: &str, start: f64, end: f64) {
        if self.enabled() {
            self.record(Event::Span(SpanEvent {
                group,
                lane,
                name: name.to_string(),
                start,
                end,
            }));
        }
    }

    /// Record an instant marker with key/value details.
    fn instant(
        &self,
        group: usize,
        kind: MarkerKind,
        name: &str,
        time: f64,
        args: &[(&str, String)],
    ) {
        if self.enabled() {
            self.record(Event::Instant(InstantEvent {
                group,
                kind,
                name: name.to_string(),
                time,
                args: args
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), v.clone()))
                    .collect(),
            }));
        }
    }

    /// Record a counter sample.
    fn counter(&self, group: usize, name: &str, time: f64, value: f64) {
        if self.enabled() {
            self.record(Event::Counter(CounterEvent {
                group,
                name: name.to_string(),
                time,
                value,
            }));
        }
    }

    /// Record a log line (the telemetry replacement for `eprintln!` in
    /// library crates).
    fn log(&self, level: LogLevel, message: &str) {
        if self.enabled() {
            self.record(Event::Log(LogEvent {
                level,
                message: message.to_string(),
            }));
        }
    }

    /// Record every op span of one simulated iteration: rank `r`'s
    /// timeline lands on lane `r` of `group`, offset by `t0` (the
    /// simulated time at which the iteration started) so consecutive
    /// iterations tile into one continuous per-rank track.  The trainer
    /// and the sweeps build spans only for an enabled recorder, so a
    /// disabled one is handed a report with empty timelines.
    fn record_iteration(&self, group: usize, iteration: u64, t0: f64, report: &IterationReport) {
        if !self.enabled() {
            return;
        }
        for (rank, timeline) in report.timelines.iter().enumerate() {
            for span in &timeline.spans {
                self.record(Event::Span(SpanEvent {
                    group,
                    lane: rank,
                    name: span.op.trace_label(),
                    start: t0 + span.start,
                    end: t0 + span.end,
                }));
            }
        }
        self.counter(group, "makespan", t0 + report.makespan, report.makespan);
        let _ = iteration;
    }
}

/// The default recorder: drops everything, reports `enabled() == false`.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: Event) {}
}

/// A recorder that buffers events in memory for later export.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    events: Mutex<Vec<Event>>,
}

impl MemoryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drain the buffered events, leaving the recorder empty.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock())
    }
}

impl Recorder for MemoryRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        self.events.lock().push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmo_pipeline::metrics::{OpSpan, WorkerTimeline};
    use dynmo_pipeline::schedule::{worker_op_order, ScheduleKind};

    #[test]
    fn null_recorder_is_disabled_and_silent() {
        let r = NullRecorder;
        assert!(!r.enabled());
        r.span(0, 0, "F0", 0.0, 1.0);
        r.log(LogLevel::Error, "dropped");
    }

    #[test]
    fn memory_recorder_buffers_in_order() {
        let r = MemoryRecorder::new();
        r.span(0, 1, "F0", 0.0, 1.0);
        r.instant(
            0,
            MarkerKind::Rebalance,
            "rebalance",
            1.0,
            &[("rounds", "3".to_string())],
        );
        r.counter(0, "replicas", 2.0, 4.0);
        r.log(LogLevel::Info, "hello");
        let events = r.take();
        assert_eq!(events.len(), 4);
        assert!(matches!(&events[0], Event::Span(s) if s.lane == 1 && s.name == "F0"));
        assert!(matches!(&events[1], Event::Instant(i) if i.kind == MarkerKind::Rebalance));
        assert!(matches!(&events[2], Event::Counter(c) if c.value == 4.0));
        assert!(matches!(&events[3], Event::Log(l) if l.message == "hello"));
        // Taking the events drained the recorder.
        assert!(r.take().is_empty());
    }

    #[test]
    fn record_iteration_offsets_spans_by_t0() {
        let ops = worker_op_order(ScheduleKind::OneFOneB, 0, 1, 2);
        let timeline = WorkerTimeline {
            spans: ops
                .iter()
                .enumerate()
                .map(|(i, op)| OpSpan {
                    op: *op,
                    start: i as f64,
                    end: i as f64 + 1.0,
                })
                .collect(),
        };
        let report = IterationReport {
            makespan: 4.0,
            per_worker_busy: vec![4.0],
            per_worker_idle: vec![0.0],
            timelines: vec![timeline],
            stage_compute_times: vec![4.0],
        };
        let r = MemoryRecorder::new();
        r.record_iteration(7, 0, 100.0, &report);
        let events = r.take();
        // 4 op spans + 1 makespan counter sample.
        assert_eq!(events.len(), 5);
        match &events[0] {
            Event::Span(s) => {
                assert_eq!(s.group, 7);
                assert_eq!(s.start, 100.0);
                assert_eq!(s.name, "F0");
            }
            other => panic!("expected span, got {other:?}"),
        }
    }
}
