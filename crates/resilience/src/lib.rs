//! # dynmo-resilience
//!
//! Fault tolerance for DynMo's elastic training loop.
//!
//! The paper (§3.4.2) releases GPUs elastically but assumes the remaining
//! fleet never fails; this crate supplies the missing half of a
//! production-shaped story:
//!
//! * [`checkpoint`] — versioned, serde-serialized snapshots of trainer
//!   state: the stage→layer assignment, per-layer weight/optimizer proxies,
//!   pruning masks, frozen flags, and RNG stream positions, guarded by a
//!   checksum so a torn write is detected at restore time.
//! * [`store`] — the [`CheckpointStore`] trait and an in-memory store (for
//!   simulations and tests) that round-trips through the serialized
//!   representation.
//!
//! The recovery *coordinator* — which rebuilds the communicator over the
//! survivors, re-balances for the new world size, and replays from the last
//! checkpoint — lives in `dynmo-core` (`dynmo_core::recovery`), because it
//! drives the balancer and the overhead accounting; this crate deliberately
//! stays below `dynmo-core` in the dependency order so both the trainer and
//! the coordinator can use these types.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod store;

pub use checkpoint::{
    fnv1a, Checkpoint, CheckpointCostModel, CheckpointError, Fnv1a, LayerState, TrainerState,
    CHECKPOINT_VERSION,
};
pub use store::{CheckpointStore, MemoryCheckpointStore};
