//! # dynmo-fleet
//!
//! A closed-loop fleet controller co-locating an **elastic training job**
//! and **multiple serving tenants** on one shared GPU pool — the
//! cluster-level payoff of the paper's core mechanism.  DynMo's
//! checkpoint-shrink-resume elasticity means a training job can donate
//! GPUs at any chunk boundary and take them back later without replaying
//! a single iteration; this crate closes the loop that decides *when*:
//!
//! * [`ElasticTrainer`] — the training job: one live trainer advancing in
//!   bounded chunks on a simulated clock, re-scaled in place at any
//!   boundary for the price of one checkpoint write.
//! * [`FleetController`] — the arbiter: it watches each tenant's windowed
//!   p99 TTFT and gateway age, steals GPUs from the trainer on SLO
//!   breaches (highest-priority tenant first), preempts low-priority
//!   tenants when the trainer is at its floor, and returns free GPUs to
//!   the trainer once traffic troughs — with hysteresis and cooldowns so
//!   the pool never thrashes.
//! * [`FleetReport`] — per-tenant serving reports plus the trainer's
//!   trajectory-checksum history, proving fleet interference never
//!   corrupted the training trajectory.
//!
//! Every decision runs on simulated clocks, so fleet runs are
//! bit-reproducible for a given configuration and seed — the property the
//! bench's cross-thread-count identity gate pins.

#![warn(missing_docs)]

pub mod controller;
pub mod trainer;

pub use controller::{
    FleetAction, FleetActionKind, FleetConfig, FleetController, FleetReport, TenantSpec,
    TRAINER_OWNER,
};
pub use trainer::{ElasticTrainer, ElasticTrainerSpec};
