//! Telemetry neutrality pins: attaching a recorder to a sweep must not
//! change a single byte of the sweep artifact, and the recorded event
//! stream itself must be a deterministic set (same events regardless of
//! which thread simulated which cell).

use std::sync::Arc;

use dynmo_bench::{
    run_serving_cell, run_serving_cell_recorded, run_sweep, run_sweep_recorded, ExperimentScale,
    ServingCase, SweepConfig,
};
use dynmo_serve::{ArrivalProcess, ServeBalancerKind};
use dynmo_telemetry::{Event, MemoryRecorder};

/// A stable textual key for one recorded event (float bits included), used
/// to compare event streams as multisets.
fn event_key(event: &Event) -> String {
    match event {
        Event::Span(s) => format!(
            "span/{}/{}/{}/{:016x}/{:016x}",
            s.group,
            s.lane,
            s.name,
            s.start.to_bits(),
            s.end.to_bits()
        ),
        Event::Instant(i) => format!(
            "instant/{}/{}/{}/{:016x}/{:?}",
            i.group,
            i.kind.name(),
            i.name,
            i.time.to_bits(),
            i.args
        ),
        Event::Counter(c) => format!(
            "counter/{}/{}/{:016x}/{:016x}",
            c.group,
            c.name,
            c.time.to_bits(),
            c.value.to_bits()
        ),
        Event::Log(l) => format!("log/{}/{}", l.level.label(), l.message),
    }
}

fn sorted_keys(recorder: &MemoryRecorder) -> Vec<String> {
    let mut keys: Vec<String> = recorder.take().iter().map(event_key).collect();
    keys.sort();
    keys
}

#[test]
fn recorded_pipeline_sweep_is_byte_identical_to_plain() {
    let config = SweepConfig::for_scale(ExperimentScale::Smoke);
    let plain = run_sweep(&config);
    let recorder = MemoryRecorder::new();
    let recorded = run_sweep_recorded(&config, &recorder);

    let plain_json = serde_json::to_string_pretty(&plain).unwrap();
    let recorded_json = serde_json::to_string_pretty(&recorded).unwrap();
    assert_eq!(plain_json, recorded_json, "artifact bytes must not change");

    // Every cell recorded its per-rank timeline: at least one span per
    // stage of every cell, all on that cell's own group.
    let events = recorder.take();
    assert!(!events.is_empty());
    let groups: std::collections::BTreeSet<usize> = events
        .iter()
        .filter_map(|e| match e {
            Event::Span(s) => Some(s.group),
            _ => None,
        })
        .collect();
    assert_eq!(groups.len(), config.cells().len(), "one group per cell");
}

#[test]
fn recorded_event_stream_is_thread_independent() {
    // Two recorded runs of the same grid — scheduled by the thread pool
    // in whatever order — must record the same event multiset.
    let config = SweepConfig::for_scale(ExperimentScale::Smoke);
    let first = MemoryRecorder::new();
    let second = MemoryRecorder::new();
    run_sweep_recorded(&config, &first);
    run_sweep_recorded(&config, &second);
    assert_eq!(sorted_keys(&first), sorted_keys(&second));
}

#[test]
fn recorded_serving_cell_matches_plain_bit_for_bit() {
    let case = ServingCase {
        process: ArrivalProcess::Bursty {
            base_rate: 2.0,
            spike_rate: 30.0,
            spike_start: 8.0,
            spike_duration: 12.0,
        },
        duration: 30.0,
        early_exit: true,
        balancer: ServeBalancerKind::Partition,
        elastic: true,
        max_replicas: 4,
        seed: 0x5e11_ce11,
    };
    let plain = run_serving_cell(&case);
    let recorder = Arc::new(MemoryRecorder::new());
    let recorded = run_serving_cell_recorded(&case, recorder.clone());
    assert_eq!(
        serde_json::to_string_pretty(&plain).unwrap(),
        serde_json::to_string_pretty(&recorded).unwrap(),
        "serving cell bytes must not change"
    );
    assert!(
        !recorder.take().is_empty(),
        "the serving run recorded events"
    );
}
