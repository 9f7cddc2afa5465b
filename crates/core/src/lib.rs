//! # dynmo-core
//!
//! The DynMo system itself (paper §3): an autonomous, elastic load-balancing
//! layer for pipeline-parallel training of dynamic LLMs.
//!
//! The pieces map one-to-one onto the paper's Figure 2 flow:
//!
//! 1. **Dynamism** happens in the model (provided by `dynmo-dynamics`
//!    engines — MoE routing, pruning, freezing, sparse attention, early
//!    exit, MoD).
//! 2. **Profiling** ([`profiler`]) measures per-layer execution time and
//!    memory after each dynamism event (the "first iteration after each
//!    dynamism operation is used for profiling").
//! 3. **Load balancing** ([`balancer`]) redistributes layers across pipeline
//!    stages: the centralized [`balancer::PartitionBalancer`]
//!    (DeepSpeed-style partitioning by parameters or by execution time) and
//!    the decentralized iterative [`balancer::DiffusionBalancer`] (Lemma 2),
//!    both subject to per-worker memory constraints.
//! 4. **Re-packing** ([`repack`], Algorithm 2) consolidates the shrinking
//!    workload onto fewer GPUs; [`elastic`] releases the idle GPUs back to
//!    the job manager (the paper's ECK/Kubernetes integration, mocked here).
//! 5. **Training continues** ([`trainer`]) with the balanced pipeline; the
//!    [`controller`] decides when to rebalance and accounts for the
//!    overhead breakdown reported in the paper's Figure 4 (profiling /
//!    balancing algorithm / layer migration).
//! 6. **Failures are survived** ([`recovery`], beyond the paper): trainer
//!    state is checkpointed into a `dynmo-resilience` store, rank deaths
//!    injected by the runtime's `FaultPlan` are detected fabric-wide, the
//!    world is re-formed over the survivors, the balancer re-runs for the
//!    new world size, and training replays from the last checkpoint — with
//!    the cost charged to the overhead report's `recovery` bucket.

#![warn(missing_docs)]

pub mod balancer;
pub mod composite;
pub mod controller;
pub mod elastic;
pub mod imbalance;
pub mod migration;
pub mod overhead;
pub mod profiler;
pub mod recovery;
pub mod repack;
pub mod report;
pub mod trainer;

pub use balancer::{BalanceObjective, DiffusionBalancer, LoadBalancer, PartitionBalancer};
pub use composite::{run_composite_with_recovery, CompositeRecoveryReport, CompositeRunSpec};
pub use controller::{RebalanceController, RebalancePolicy};
pub use elastic::{FleetError, MockJobManager};
pub use migration::{MigrationPlan, MigrationStep};
pub use overhead::OverheadBreakdown;
pub use profiler::{profile_layers, profiling_cost};
pub use recovery::{
    run_elastic_rescale, run_resilient, ElasticRescaleConfig, ElasticRescaleReport, RecoveryEvent,
    ResilientRunReport, ResilientTrainingConfig, WorkloadConfig,
};
pub use repack::{plan_repack, RepackPlan};
pub use report::TrainingReport;
pub use trainer::{Trainer, TrainerConfig};
