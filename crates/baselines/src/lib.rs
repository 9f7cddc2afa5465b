//! # dynmo-baselines
//!
//! The four comparison systems of the DynMo paper, reimplemented as initial
//! assignments and engine wrappers:
//!
//! * **Megatron-LM** (static): an even split of transformer layers across
//!   stages, applied once before training ([`static_balancers`]).
//! * **DeepSpeed** (static): the `parameters` partitioning method of
//!   `PipelineModule` (an equal number of parameters per stage), applied
//!   once before training ([`static_balancers`]).
//! * **Tutel** (MoE-tailored): adaptive MoE dispatch with a capacity factor
//!   that bounds per-expert overload by padding every expert to the cap
//!   ([`tutel`]).
//! * **Egeria** (layer freezing): a freezing controller that does not
//!   rebalance the pipeline and whose bookkeeping overhead grows with model
//!   depth ([`egeria`]).
//!
//! Each baseline plugs into the same `dynmo-core` trainer used for DynMo
//! itself, so every Figure-3/Figure-4 comparison runs through one code path.

#![warn(missing_docs)]

pub mod egeria;
pub mod static_balancers;
pub mod tutel;

pub use egeria::EgeriaEngine;
pub use static_balancers::{
    deepspeed_initial_assignment, megatron_initial_assignment, static_controller,
};
pub use tutel::TutelMoeEngine;
