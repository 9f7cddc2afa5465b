//! # dynmo-telemetry
//!
//! Observability for the DynMo stack: a structured event/span recorder,
//! streaming quantile sketches, wall-clock profiling scopes, and a
//! Chrome-trace-event/Perfetto exporter.
//!
//! The crate is built around one determinism contract, inherited from the
//! trainer's `trajectory_checksum` and the sweep byte-identity pins:
//!
//! * **Simulated time is data.** Span and instant events carry simulated
//!   seconds from the pipeline simulator.  Recording them is a pure
//!   function of the run, so enabling a recorder never changes a sweep
//!   artifact and traces themselves are reproducible bit-for-bit.
//! * **Wall-clock is measurement, not data.** [`Stopwatch`] is telemetry's
//!   only host-clock reader, and only the bench harness uses it.  No
//!   host-clock reading reaches a simulated clock, a checksum, a
//!   checkpoint, or a sweep artifact: apart from [`Stopwatch`] itself, no
//!   library crate reads the wall clock (`dynmo-lint` enforces this, and no
//!   library code carries a waiver).
//!
//! The entry point is the [`Recorder`] trait: library crates accept an
//! `Arc<dyn Recorder>` and emit events through it.  The default
//! [`NullRecorder`] reports `enabled() == false`, so every emission site
//! short-circuits to a single virtual call and instrumented code paths cost
//! nothing when observability is off.  [`MemoryRecorder`] buffers events
//! for later export through [`perfetto::TraceBuilder`], which writes a
//! JSON artifact openable directly in `ui.perfetto.dev`.

#![warn(missing_docs)]

pub mod event;
pub mod perfetto;
pub mod recorder;
pub mod sketch;
pub mod stopwatch;

pub use event::{CounterEvent, Event, InstantEvent, LogEvent, LogLevel, MarkerKind, SpanEvent};
pub use perfetto::{validate_trace_json, TraceBuilder, TraceStats};
pub use recorder::{MemoryRecorder, NullRecorder, Recorder};
pub use sketch::{nearest_rank, P2Quantile, StreamingSummary, SummaryStats};
pub use stopwatch::Stopwatch;
