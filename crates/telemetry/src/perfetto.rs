//! Chrome-trace-event (Perfetto) JSON export.
//!
//! [`TraceBuilder`] assembles a trace in the JSON *trace event format*
//! that `ui.perfetto.dev` and `chrome://tracing` open directly: complete
//! spans (`ph:"X"`, microsecond timestamps), process-scoped instant
//! markers (`ph:"i"`), counter tracks (`ph:"C"`) and process/thread name
//! metadata (`ph:"M"`).  Recorder groups map to Perfetto *processes* and
//! lanes to *threads*, so a training run renders as one track per pipeline
//! rank with rebalance/checkpoint markers pinned across the process.
//!
//! [`validate_trace_json`] re-parses an emitted artifact and checks the
//! structural rules above; CI runs it (via the `trace_export` bin) on
//! every push.

use std::fs;
use std::io;
use std::path::Path;

use serde::{Serialize, Value};

use crate::event::Event;

/// Lane (Perfetto tid) instant markers are attached to.
const MARKER_LANE: u64 = 9_000;
/// Lane (Perfetto tid) log lines are attached to.
const LOG_LANE: u64 = 9_001;

/// Newtype letting a hand-built [`Value`] tree ride through the
/// `serde_json` shim's `to_string` entry points.
struct Raw(Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn micros(seconds: f64) -> Value {
    Value::F64(seconds * 1e6)
}

/// Incrementally builds one trace-event JSON artifact.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    events: Vec<Value>,
}

impl TraceBuilder {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Name the process `pid` (one per recorder group).
    pub fn process_name(&mut self, pid: usize, name: &str) {
        self.metadata(pid, None, "process_name", name);
    }

    /// Name thread `tid` of process `pid` (one per lane).
    pub fn thread_name(&mut self, pid: usize, tid: u64, name: &str) {
        self.metadata(pid, Some(tid), "thread_name", name);
    }

    fn metadata(&mut self, pid: usize, tid: Option<u64>, kind: &str, name: &str) {
        let mut entries = vec![
            ("name", Value::Str(kind.to_string())),
            ("ph", Value::Str("M".to_string())),
            ("pid", Value::U64(pid as u64)),
        ];
        if let Some(tid) = tid {
            entries.push(("tid", Value::U64(tid)));
        }
        entries.push(("args", map(vec![("name", Value::Str(name.to_string()))])));
        self.events.push(map(entries));
    }

    /// Add a complete span (`ph:"X"`); times in seconds.
    pub fn span(&mut self, pid: usize, tid: u64, name: &str, start: f64, end: f64) {
        self.events.push(map(vec![
            ("name", Value::Str(name.to_string())),
            ("cat", Value::Str("sim".to_string())),
            ("ph", Value::Str("X".to_string())),
            ("ts", micros(start)),
            ("dur", micros((end - start).max(0.0))),
            ("pid", Value::U64(pid as u64)),
            ("tid", Value::U64(tid)),
        ]));
    }

    /// Add a process-scoped instant marker (`ph:"i"`, `s:"p"`).
    pub fn instant(&mut self, pid: usize, name: &str, time: f64, args: &[(String, String)]) {
        let arg_entries: Vec<(String, Value)> = args
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect();
        self.events.push(map(vec![
            ("name", Value::Str(name.to_string())),
            ("cat", Value::Str("marker".to_string())),
            ("ph", Value::Str("i".to_string())),
            ("s", Value::Str("p".to_string())),
            ("ts", micros(time)),
            ("pid", Value::U64(pid as u64)),
            ("tid", Value::U64(MARKER_LANE)),
            ("args", Value::Map(arg_entries)),
        ]));
    }

    /// Add one sample of counter `name` (`ph:"C"`).
    pub fn counter(&mut self, pid: usize, name: &str, time: f64, value: f64) {
        self.events.push(map(vec![
            ("name", Value::Str(name.to_string())),
            ("ph", Value::Str("C".to_string())),
            ("ts", micros(time)),
            ("pid", Value::U64(pid as u64)),
            ("args", map(vec![("value", Value::F64(value))])),
        ]));
    }

    /// Map recorded [`Event`]s into trace events.  Each event's `group`
    /// becomes process `pid_offset + group`; span lanes become threads,
    /// instants pin to the process marker lane (named `kind: name`), logs
    /// land on a dedicated log lane.
    pub fn add_events(&mut self, pid_offset: usize, events: &[Event]) {
        for event in events {
            match event {
                Event::Span(s) => {
                    self.span(pid_offset + s.group, s.lane as u64, &s.name, s.start, s.end);
                }
                Event::Instant(i) => {
                    let mut args: Vec<(String, String)> =
                        vec![("kind".to_string(), i.kind.name().to_string())];
                    args.extend(i.args.iter().cloned());
                    let name = format!("{}: {}", i.kind.name(), i.name);
                    self.instant(pid_offset + i.group, &name, i.time, &args);
                }
                Event::Counter(c) => {
                    self.counter(pid_offset + c.group, &c.name, c.time, c.value);
                }
                Event::Log(l) => {
                    // Logs have no simulated timestamp; pin them at t=0 on
                    // their own lane so they stay visible but out of the way.
                    self.events.push(map(vec![
                        (
                            "name",
                            Value::Str(format!("[{}] {}", l.level.label(), l.message)),
                        ),
                        ("cat", Value::Str("log".to_string())),
                        ("ph", Value::Str("i".to_string())),
                        ("s", Value::Str("t".to_string())),
                        ("ts", Value::F64(0.0)),
                        ("pid", Value::U64(pid_offset as u64)),
                        ("tid", Value::U64(LOG_LANE)),
                    ]));
                }
            }
        }
    }

    /// Render the trace as pretty-printed trace-event JSON.
    pub fn to_json(&self) -> String {
        let root = map(vec![
            ("displayTimeUnit", Value::Str("ms".to_string())),
            ("traceEvents", Value::Seq(self.events.clone())),
        ]);
        serde_json::to_string_pretty(&Raw(root)).expect("trace serialization cannot fail")
    }

    /// Write the trace JSON to `path`, creating parent directories.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_json())
    }
}

/// Aggregate structural facts about a validated trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Total trace events.
    pub events: usize,
    /// Complete spans (`ph:"X"`).
    pub spans: usize,
    /// Instant markers (`ph:"i"`).
    pub instants: usize,
    /// Counter samples (`ph:"C"`).
    pub counters: usize,
    /// Metadata records (`ph:"M"`).
    pub metadata: usize,
    /// Distinct `(pid, tid)` pairs carrying spans.
    pub span_tracks: usize,
    /// Distinct `pid`s seen across all events.
    pub processes: usize,
    /// Sorted, deduplicated instant-marker names.
    pub instant_names: Vec<String>,
}

fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::I64(n) => Some(*n as f64),
        Value::U64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

fn field<'a>(entries: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Parse `text` as trace-event JSON and check the structural rules the
/// exporter promises: a `traceEvents` array whose entries carry a phase,
/// a name, a numeric `pid`, and — for spans — numeric `ts` and
/// non-negative `dur`.  Returns counts for downstream assertions.
pub fn validate_trace_json(text: &str) -> Result<TraceStats, String> {
    let root = serde_json::parse_value(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let entries = root
        .as_map()
        .ok_or_else(|| "trace root must be a JSON object".to_string())?;
    let events = field(entries, "traceEvents")
        .ok_or_else(|| "missing traceEvents".to_string())?
        .as_seq()
        .ok_or_else(|| "traceEvents must be an array".to_string())?;

    let mut stats = TraceStats {
        events: events.len(),
        ..TraceStats::default()
    };
    let mut tracks = std::collections::BTreeSet::new();
    let mut processes = std::collections::BTreeSet::new();
    let mut names = std::collections::BTreeSet::new();

    for (i, event) in events.iter().enumerate() {
        let entries = event
            .as_map()
            .ok_or_else(|| format!("traceEvents[{i}] is not an object"))?;
        let ph = match field(entries, "ph") {
            Some(Value::Str(s)) => s.as_str(),
            _ => return Err(format!("traceEvents[{i}] missing phase `ph`")),
        };
        let name = match field(entries, "name") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err(format!("traceEvents[{i}] missing `name`")),
        };
        let pid = field(entries, "pid")
            .and_then(numeric)
            .ok_or_else(|| format!("traceEvents[{i}] missing numeric `pid`"))?;
        processes.insert(pid as u64);
        if ph != "M" && field(entries, "ts").and_then(numeric).is_none() {
            return Err(format!("traceEvents[{i}] ({ph}) missing numeric `ts`"));
        }
        match ph {
            "X" => {
                let dur = field(entries, "dur")
                    .and_then(numeric)
                    .ok_or_else(|| format!("traceEvents[{i}] span missing `dur`"))?;
                if dur < 0.0 {
                    return Err(format!("traceEvents[{i}] span has negative duration"));
                }
                let tid = field(entries, "tid")
                    .and_then(numeric)
                    .ok_or_else(|| format!("traceEvents[{i}] span missing `tid`"))?;
                tracks.insert((pid as u64, tid as u64));
                stats.spans += 1;
            }
            "i" => {
                names.insert(name);
                stats.instants += 1;
            }
            "C" => stats.counters += 1,
            "M" => stats.metadata += 1,
            other => return Err(format!("traceEvents[{i}] has unknown phase `{other}`")),
        }
    }

    stats.span_tracks = tracks.len();
    stats.processes = processes.len();
    stats.instant_names = names.into_iter().collect();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MarkerKind;
    use crate::recorder::{MemoryRecorder, Recorder};

    fn sample_trace() -> TraceBuilder {
        let r = MemoryRecorder::new();
        r.span(0, 0, "F0", 0.0, 1.0);
        r.span(0, 1, "F0", 1.0, 2.0);
        r.instant(
            0,
            MarkerKind::Rebalance,
            "iter 10",
            2.0,
            &[("rounds", "2".to_string())],
        );
        r.counter(0, "replicas", 2.5, 3.0);
        let mut trace = TraceBuilder::new();
        trace.process_name(0, "training");
        trace.thread_name(0, 0, "rank 0");
        trace.thread_name(0, 1, "rank 1");
        trace.add_events(0, &r.take());
        trace
    }

    #[test]
    fn emitted_trace_validates_and_counts_match() {
        let trace = sample_trace();
        let stats = validate_trace_json(&trace.to_json()).expect("trace must validate");
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.counters, 1);
        assert_eq!(stats.metadata, 3);
        assert_eq!(stats.span_tracks, 2);
        assert_eq!(stats.processes, 1);
        assert_eq!(stats.instant_names, vec!["rebalance: iter 10".to_string()]);
    }

    #[test]
    fn spans_convert_to_microseconds() {
        let mut trace = TraceBuilder::new();
        trace.span(0, 0, "F0", 1.5, 2.0);
        let json = trace.to_json();
        assert!(json.contains("1500000"), "ts must be µs: {json}");
        assert!(json.contains("500000"), "dur must be µs: {json}");
    }

    #[test]
    fn validation_rejects_malformed_traces() {
        assert!(validate_trace_json("[]").is_err());
        assert!(validate_trace_json("{\"traceEvents\": 3}").is_err());
        assert!(validate_trace_json("{\"traceEvents\": [{\"ph\": \"X\"}]}").is_err());
        let no_dur = r#"{"traceEvents": [{"ph": "X", "name": "F0", "pid": 0, "tid": 0, "ts": 0}]}"#;
        assert!(validate_trace_json(no_dur).is_err());
        assert!(validate_trace_json("not json").is_err());
    }

    #[test]
    fn group_offsets_become_processes() {
        let r = MemoryRecorder::new();
        r.span(0, 0, "a", 0.0, 1.0);
        r.span(1, 0, "b", 0.0, 1.0);
        let mut trace = TraceBuilder::new();
        trace.add_events(5, &r.take());
        let stats = validate_trace_json(&trace.to_json()).unwrap();
        assert_eq!(stats.processes, 2); // pids 5 and 6
        assert_eq!(stats.span_tracks, 2);
    }
}
