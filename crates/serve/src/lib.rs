//! # dynmo-serve
//!
//! A continuous-batching inference serving subsystem for the DynMo
//! reproduction — the paper's dynamic-model mechanisms (early exit, MoE
//! routing, Mixture of Depths, pruning) pay off at inference time at least
//! as much as during training, and this crate opens that workload class on
//! top of the machinery the training side already built:
//!
//! * [`trace`] — request-trace generators (Poisson, bursty spike, diurnal
//!   swing, replayed logs) with per-request prompt/output lengths.
//! * [`batching`] — a vLLM-style iteration-level scheduler per replica:
//!   chunked prefill + one decode token per running request each engine
//!   step, with KV-cache admission control against the budgets computed by
//!   `dynmo_model::KvCacheModel`.
//! * [`engine`] — the deployment: replicated pipelines laid out by DynMo's
//!   balancers, engine steps priced by the pipeline simulator's
//!   forward-only recurrence, dynamism engines plugged in through
//!   their `inference_step_into` hook, which refills the deployment's
//!   load update in place (early-exit token retention shortens decode
//!   work and boundary bytes; MoE routing skews per-stage load).
//! * [`metrics`] — SLO metrics: TTFT, TPOT, p50/p95/p99 latency, goodput.
//! * [`autoscale`] — the SLO state and policy: the deployment's
//!   [`TtftWindow`] of completed requests and the autoscaler's settings.
//!   A deployment's own autoscaler adds replicas, laid out by the balancer,
//!   up to its GPU ceiling when a load spike pushes the window's p99 TTFT
//!   past target, then drains and releases them when the spike passes.  A
//!   fleet controller scales a deployment built with
//!   [`ServingEngine::external`] through the same replica lifecycle,
//!   reading the same window and last-action time.

#![warn(missing_docs)]

pub mod autoscale;
pub mod batching;
pub mod engine;
pub mod metrics;
pub mod trace;

pub use autoscale::{AutoscalerConfig, ScaleEvent, TtftWindow};
pub use batching::{ContinuousBatcher, StepPlan};
pub use engine::{
    fleet_clock, serve, GatewaySnapshot, ServeBalancerKind, ServingConfig, ServingEngine,
    ServingSession,
};
pub use metrics::{LatencySummary, RequestRecord, ServingReport, SloTarget};
pub use trace::{ArrivalProcess, LengthModel, Request, RequestTrace};
