//! # dynmo-runtime
//!
//! A simulated multi-rank, message-passing runtime that stands in for the
//! NCCL/MPI layer used by the DynMo paper (SC'25).
//!
//! The paper's implementation relies on NCCL peer-to-peer send/receive
//! for layer migration, a gather for Algorithm 1's global top-k, and
//! communicator splitting (`ncclCommSplit`) to release GPUs after
//! re-packing.  None of those require a GPU: they only require *rank and
//! communicator semantics*.  This crate provides exactly those semantics,
//! plus the broadcast, sum all-reduce and barrier its callers use and a
//! failure-driven communicator rebuild, on top of OS threads, one per
//! rank, and a fabric of per-rank message queues under one lock, so that
//! DynMo's distributed algorithms (Algorithm 1 global magnitude pruning,
//! re-packing's communicator split, layer migration) run verbatim, with
//! real message exchange, ordering, and tag matching.  A receive blocks
//! without a clock: it wakes when a message arrives or a rank fails, and
//! fails with [`RuntimeError::Deadlock`] when every live rank is blocked.
//!
//! ## Quick example
//!
//! ```
//! use dynmo_runtime::{launch, Payload};
//!
//! // Spawn a 4-rank "job"; every rank contributes its rank id and the
//! // all-reduce returns the sum on every rank.
//! let results = launch(4, |ctx| {
//!     let comm = ctx.world();
//!     let mine = vec![ctx.rank() as f32];
//!     let summed = comm.allreduce_sum_f32(&mine).unwrap();
//!     summed[0] as usize
//! })
//! .unwrap();
//! assert_eq!(results, vec![6, 6, 6, 6]);
//! # let _ = Payload::F32(vec![]);
//! ```

#![warn(missing_docs)]

pub mod collectives;
pub mod communicator;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod launcher;
pub mod payload;

pub use communicator::Communicator;
pub use error::{Result, RuntimeError};
pub use fabric::Fabric;
pub use fault::{FailureDetector, FaultInjector, FaultPlan, ScheduledKill};
pub use launcher::{launch, RankCtx};
pub use payload::Payload;

/// A tag used to match point-to-point messages, mirroring MPI tags.
pub type Tag = u32;

/// A global rank identifier within the fabric (i.e. the "GPU index" in the
/// paper's terminology: one MPI rank per GPU).
pub type RankId = usize;
