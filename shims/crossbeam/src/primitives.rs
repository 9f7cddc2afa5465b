//! cfg-switched concurrency primitives.
//!
//! Normal builds alias straight to `std::sync`; building the workspace with
//! `RUSTFLAGS="--cfg dynmo_loom"` swaps the `Mutex` and `Condvar` the
//! channel is made of for their `loom` model-checked twins, so the loom test
//! suite explores all interleavings of the *real* implementation code, not
//! a copy.  The loom types degrade to plain std behavior when constructed
//! outside a `loom::model` closure, so the ordinary unit/stress tests keep
//! working under either cfg.

#[cfg(dynmo_loom)]
pub(crate) use loom::sync::{Condvar, Mutex};

#[cfg(not(dynmo_loom))]
pub(crate) use std::sync::{Condvar, Mutex};
