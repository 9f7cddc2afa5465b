//! # dynmo-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! DynMo paper:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig1_idleness` | Figure 1 — average GPU idleness per dynamic-model scheme |
//! | `fig3_throughput` | Figure 3 — end-to-end training throughput and speedups |
//! | `fig4_repack` | Figure 4 (left/middle/bottom) — re-packing to fewer GPUs |
//! | `fig4_overhead` | Figure 4 (right) — load-balancing overhead breakdown |
//! | `lemma2_convergence` | Lemma 2 — diffusion convergence rounds vs the Õ(N²) bound |
//! | `spmm_crossover` | §4.2.2 — Sputnik vs cuBLAS vs cuSPARSE crossover |
//! | `fault_tolerance` | Beyond the paper — recovery time vs checkpoint interval vs world size |
//! | `pipeline_sweep` | Beyond the paper — rayon-parallel (schedule × p × m × imbalance) bubble grid |
//! | `composite_sweep` | Beyond the paper — stacked-mechanism (stack × balancer × schedule) grid with crash/recovery checks |
//! | `serving_sweep` | Beyond the paper — continuous-batching inference (trace × early-exit × balancer × elasticity) SLO grid |
//! | `bench_pool` | Beyond the paper — thread-pool wall-clock (sweep bins at 1 vs host threads), written to `results/BENCH_pool.json` |
//! | `hetero_sweep` | Beyond the paper — fig3-style margin comparison on a uniform vs 3-generation (H100/A100/V100) cluster, written to `results/hetero_sweep.json` |
//! | `fleet_sweep` | Beyond the paper — closed-loop fleet controller (elastic training + multi-tenant serving on one pool) vs a static GPU split, written to `results/BENCH_fleet.json` |
//!
//! Each binary accepts `--scale {smoke|default|paper}` to trade fidelity for
//! run time: `paper` uses the full 10,000-iteration schedules and the
//! 720-GPU / 128-GPU cluster shapes; `default` keeps the cluster shapes but
//! compresses the schedules into a few hundred iterations (the throughput
//! comparisons are steady-state properties, so the shape of the results is
//! preserved); `smoke` is a seconds-long sanity run used by CI.

#![warn(missing_docs)]

pub mod cases;
pub mod composite;
pub mod convergence;
pub mod crossover;
pub mod fault_tolerance;
pub mod fleet;
pub mod hetero;
pub mod idleness;
pub mod overhead;
pub mod repack;
pub mod scale;
pub mod serving;
pub mod sweep;
pub mod table;
pub mod throughput;

pub use cases::{
    build_engine, headline_speedup, reference_throughput, run_comparison, run_configuration,
    BalancerKind, CaseConfig, ConfigurationResult, DynamicCase,
};
pub use composite::{
    composite_grid, run_composite_cell, run_composite_sweep, standard_stacks, CompositeBalancer,
    CompositeCase, CompositeCell, Mechanism, StackSpec,
};
pub use convergence::{
    convergence_loads, full_recompute_balancer, run_convergence_sweep, ConvergenceRow,
};
pub use crossover::{
    run_crossover_sweep, CrossoverRow, CROSSOVER_GEMM, CROSSOVER_SPARSITY_PERCENTS,
};
pub use fault_tolerance::{run_fault_tolerance_sweep, FaultToleranceRow};
pub use fleet::{
    fleet_policy, run_closed_cell, run_fleet_sweep, run_static_cell, FleetCellReport,
    FleetSweepConfig, FleetSweepReport, FleetTenantOutcome,
};
pub use hetero::{
    run_hetero_cell, run_hetero_sweep, ClusterFlavor, HeteroConfiguration, HeteroMargin, HeteroRow,
    HeteroSweepReport, HETERO_CASES,
};
pub use idleness::{run_idleness_sweep, IdlenessRow};
pub use overhead::{run_overhead_sweep, OverheadRow};
pub use repack::{
    run_average_gpu_sweep, run_packed_sweep, AverageGpuRow, PackedRow, SHRINKING_CASES,
};
pub use scale::{ExperimentScale, Flag, ScaledSchedules};
pub use serving::{
    run_serving_cell, run_serving_cell_recorded, run_serving_sweep, ServingCase, ServingCell,
    ServingSweepConfig,
};
pub use sweep::{
    run_cell, run_cell_recorded, run_sweep, run_sweep_recorded, SweepCase, SweepCell, SweepConfig,
};
pub use table::{dump_json, fmt, pct, Table};
pub use throughput::{
    run_throughput_sweep, RepackAblation, ThroughputPanel, ThroughputRow, ThroughputSweep,
};
