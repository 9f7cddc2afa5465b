//! Surviving rank failures and re-scaling the world live.
//!
//! The paper's elastic path (§3.4.2) releases idle GPUs from a *healthy*
//! job; this example shows the production-shaped counterpart built on
//! `dynmo::resilience` + `dynmo::core::recovery`:
//!
//! 1. a fault-injected run — one rank is killed mid-training, the
//!    survivors detect it, rebuild the communicator world, re-balance, and
//!    replay from the last checkpoint — finishing with *exactly* the same
//!    final state as a failure-free run;
//! 2. a voluntary shrink→grow session — the world shrinks from 4 to 2
//!    workers (GPUs go back to the job manager), trains shrunken, then
//!    grows back, ending on exactly the un-rescaled run's final state.
//!
//! ```text
//! cargo run --release --example elastic_failover
//! ```

use dynmo::core::recovery::{
    run_elastic_rescale, run_resilient, ElasticRescaleConfig, ResilientTrainingConfig,
    WorkloadConfig,
};
use dynmo::runtime::FaultPlan;

fn main() {
    let workload = WorkloadConfig::small(12, 2024);

    println!("Part 1: kill rank 2 at iteration 23 of 60 (4 workers, checkpoint every 10)\n");
    let clean = run_resilient(&ResilientTrainingConfig {
        world_size: 4,
        iterations: 60,
        workload,
        fault_plan: FaultPlan::none(),
        checkpoint_interval: 10,
    })
    .expect("failure-free run");
    let faulty = run_resilient(&ResilientTrainingConfig {
        world_size: 4,
        iterations: 60,
        workload,
        fault_plan: FaultPlan::none().kill(2, 23),
        checkpoint_interval: 10,
    })
    .expect("fault-injected run");

    for event in &faulty.recoveries {
        println!(
            "  recovery: ranks {:?} died, detected at iteration {}, resumed from \
             checkpoint {} ({} iterations replayed), world {} -> {}, cost {:.2}s",
            event.failed_ranks,
            event.detected_at,
            event.resumed_from,
            event.replayed,
            event.world_size_after + event.failed_ranks.len(),
            event.world_size_after,
            event.cost,
        );
    }
    println!("  checkpoints taken:     {:>8}", faulty.checkpoints_taken);
    println!(
        "  resilience overhead:   {:>8.2}s over {} events",
        faulty.overhead.recovery, faulty.overhead.recovery_events
    );
    println!(
        "  final loss:            {:>8.5} (failure-free: {:.5})",
        faulty.final_loss, clean.final_loss
    );
    println!(
        "  final state identical: {:>8}",
        if faulty.weights_checksum == clean.weights_checksum {
            "yes"
        } else {
            "NO"
        }
    );
    println!(
        "  GPU released to fleet: {:?}\n",
        faulty
            .fleet_events
            .iter()
            .map(|e| (e.iteration, e.delta))
            .collect::<Vec<_>>()
    );

    println!("Part 2: voluntary shrink 4 -> 2 at iteration 20, grow back at 40, finish at 60\n");
    let rescale = run_elastic_rescale(&ElasticRescaleConfig {
        world_size: 4,
        iterations: 60,
        workload,
        shrink_at: 20,
        shrink_to: 2,
        grow_at: 40,
    })
    .expect("elastic rescale session");

    println!("  world sizes per phase: {:?}", rescale.phase_world_sizes);
    println!(
        "  average GPUs in use:   {:>8.2} (of 4)",
        rescale.average_allocated
    );
    println!("  fleet events (iteration, released+/-):");
    for event in &rescale.fleet_events {
        println!(
            "    iteration {:>3}: {:+} -> {} allocated",
            event.iteration, event.delta, event.allocated_after
        );
    }
    println!(
        "  final state matches an un-rescaled run: {}",
        if rescale.weights_checksum == clean.weights_checksum {
            "yes"
        } else {
            "NO"
        }
    );
}
