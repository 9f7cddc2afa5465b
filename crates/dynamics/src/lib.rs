//! # dynmo-dynamics
//!
//! The six dynamic-model mechanisms evaluated by the DynMo paper, each as an
//! engine that perturbs per-layer load over the course of training:
//!
//! | Paper §2.x | Engine | Source of imbalance |
//! |---|---|---|
//! | 2.1 Mixture of Experts | [`moe::MoeEngine`] | token→expert routing skew |
//! | 2.2 Parameter pruning | [`pruning::GradualPruningEngine`] | non-uniform global magnitude pruning |
//! | 2.3 Layer freezing | [`freezing::FreezingEngine`] | earlier layers freeze first |
//! | 2.4 Dynamic sparse attention | [`sparse_attention::SparseAttentionEngine`] | per-layer block sparsity from hashing |
//! | 2.5 Early exit | [`early_exit::EarlyExitEngine`] | tokens leave before later layers |
//! | 2.6 Mixture of Depths | [`mod_router::MixtureOfDepthsEngine`] | capacity routing around whole blocks |
//!
//! Every engine implements [`engine::DynamismEngine`]: at each training
//! iteration it returns a [`engine::LoadUpdate`] with per-layer forward /
//! backward compute multipliers, memory multipliers, and parameter-retention
//! fractions.  DynMo itself (in `dynmo-core`) treats these engines as black
//! boxes — it only sees the resulting profiled layer times — which mirrors
//! the paper's claim that the balancer is orthogonal to the dynamism scheme.
//!
//! The MoE/pruning engines also contain the *distributed* pieces the paper
//! implements explicitly: Algorithm 1 (global magnitude pruning: a gather of
//! local top-k magnitudes and a broadcast of the global threshold) runs on
//! the `dynmo-runtime` fabric in [`pruning::distributed_global_prune`].
//!
//! Mechanisms also *stack*: [`compose::ComposedEngine`] drives an ordered
//! set of engines against the same model and merges their `LoadUpdate`s
//! multiplicatively (frozen layers stay frozen, token-dropping shrinks each
//! boundary exactly once), opening the combined-mechanism scenario space —
//! an MoE model that is also gradually pruned and freezes converged layers.
//! Every engine can export/import an [`engine::EngineState`] snapshot (RNG
//! stream positions, masks, counters), so checkpointed runs restore each
//! sub-engine's state independently and replay bit-for-bit.

#![warn(missing_docs)]

pub mod compose;
pub mod early_exit;
pub mod engine;
pub mod freezing;
pub mod mod_router;
pub mod moe;
pub mod pruning;
pub mod rng;
pub mod sparse_attention;
pub mod workload;

pub use compose::{merge_updates, validate_composed, ComposedEngine};
pub use early_exit::{EarlyExitEngine, EarlyExitMethod};
pub use engine::{DynamismCase, DynamismEngine, EngineState, LoadUpdate, RebalanceFrequency};
pub use freezing::{FreezingEngine, FreezingPolicy};
pub use mod_router::{MixtureOfDepthsEngine, ModConfig};
pub use moe::{MoeEngine, RoutingStrategy};
pub use pruning::{distributed_global_prune, GradualPruningEngine, PruningSchedule};
pub use sparse_attention::{AttentionMode, SparseAttentionEngine};
pub use workload::TokenStreamGenerator;
