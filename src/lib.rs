//! # DynMo — Balanced and Elastic End-to-end Training of Dynamic LLMs
//!
//! A from-scratch Rust reproduction of the SC'25 paper *"Balanced and
//! Elastic End-to-end Training of Dynamic LLMs"* (Wahib, Soyturk, Unat).
//!
//! This umbrella crate re-exports the workspace's sub-crates under one
//! name so applications and examples can depend on `dynmo` alone:
//!
//! * [`runtime`] — simulated multi-rank message-passing runtime (the NCCL
//!   substitute): point-to-point messages, the collectives DynMo uses,
//!   `commSplit` and failure-driven communicator rebuilds.
//! * [`model`] — GPT/Mixtral/LLaMA-MoE model shapes, FLOP & memory models.
//! * [`sparse`] — CSR tensors, SpMM kernels, magnitude pruning, kernel cost
//!   models (Sputnik/cuSPARSE/cuBLAS).
//! * [`dynamics`] — the six dynamic-model mechanisms: MoE routing, gradual
//!   pruning (Algorithm 1), layer freezing, dynamic sparse attention, early
//!   exit, Mixture of Depths.
//! * [`pipeline`] — pipeline schedules (GPipe/1F1B), the discrete-event
//!   pipeline simulator, communication/memory models, hybrid DP×PP
//!   throughput accounting.
//! * [`resilience`] — fault tolerance: versioned trainer checkpoints and
//!   the in-memory checkpoint store behind them.
//! * [`core`] — DynMo itself: profiler, Partition & Diffusion balancers,
//!   re-packing (Algorithm 2), elastic GPU release, the rebalance
//!   controller, the end-to-end [`core::trainer::Trainer`], and the
//!   [`core::recovery`] harness that survives rank failures and re-scales
//!   the world live.
//! * [`serve`] — continuous-batching inference serving: request traces,
//!   KV-cache admission control, SLO metrics (TTFT/TPOT/goodput), and an
//!   elastic autoscaler that grows/shrinks the replica fleet.
//! * [`telemetry`] — observability: the structured event/span recorder,
//!   streaming P² quantile sketches, wall-clock profiling scopes, and the
//!   Chrome-trace-event/Perfetto timeline exporter.
//! * [`baselines`] — the Megatron-LM, DeepSpeed, Tutel and Egeria comparison
//!   points.
//!
//! ## Quickstart
//!
//! ```
//! use dynmo::core::balancer::{BalanceObjective, PartitionBalancer};
//! use dynmo::core::controller::{RebalanceController, RebalancePolicy};
//! use dynmo::core::trainer::{Trainer, TrainerConfig};
//! use dynmo::dynamics::{EarlyExitEngine, EarlyExitMethod};
//! use dynmo::model::{ClusterConfig, Model, ModelPreset};
//!
//! // A 24-layer GPT on a 4-stage pipeline, trained with CALM-style early
//! // exit and DynMo's time-based partition balancer.
//! let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
//! let cluster = ClusterConfig::single_node(4);
//! let config = TrainerConfig::paper_defaults(cluster, 50);
//! let controller = RebalanceController::new(
//!     Box::new(PartitionBalancer::new()),
//!     BalanceObjective::ByTime,
//!     RebalancePolicy::dynamic(),
//! );
//! let mut engine = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 42);
//! let mut trainer = Trainer::new(model, config, controller);
//! let report = trainer.run(&mut engine);
//! assert!(report.tokens_per_second > 0.0);
//! ```

#![warn(missing_docs)]

pub use dynmo_baselines as baselines;
pub use dynmo_core as core;
pub use dynmo_dynamics as dynamics;
pub use dynmo_model as model;
pub use dynmo_pipeline as pipeline;
pub use dynmo_resilience as resilience;
pub use dynmo_runtime as runtime;
pub use dynmo_serve as serve;
pub use dynmo_sparse as sparse;
pub use dynmo_telemetry as telemetry;
