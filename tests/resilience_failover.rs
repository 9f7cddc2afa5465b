//! End-to-end fault tolerance: kill-a-rank recovery, elastic shrink→grow
//! round-trips, and post-failure communicator equivalence.

use dynmo::core::recovery::{
    run_elastic_rescale, run_resilient, ElasticRescaleConfig, ResilientTrainingConfig,
    WorkloadConfig,
};
use dynmo::runtime::{launch, Communicator, FaultPlan, Payload, RuntimeError};

fn config(world: usize, iterations: u64, plan: FaultPlan) -> ResilientTrainingConfig {
    ResilientTrainingConfig {
        world_size: world,
        iterations,
        workload: WorkloadConfig::small(world * 4, 7),
        fault_plan: plan,
        checkpoint_interval: 15,
    }
}

/// The acceptance-criteria test: with a `FaultPlan` killing one rank
/// mid-training, the job recovers from the last checkpoint on the surviving
/// world, completes, and its final loss/imbalance metrics match a
/// failure-free run of the same seed within tolerance.
#[test]
fn killed_rank_recovers_and_matches_the_failure_free_run() {
    let iterations = 70;
    let clean = run_resilient(&config(4, iterations, FaultPlan::none())).unwrap();
    let faulty = run_resilient(&config(4, iterations, FaultPlan::none().kill(2, 37))).unwrap();

    // The job completed on the surviving world.
    assert_eq!(faulty.iterations, iterations);
    assert_eq!(faulty.initial_world_size, 4);
    assert_eq!(faulty.final_world_size, 3);
    assert_eq!(faulty.recoveries.len(), 1);
    let recovery_event = &faulty.recoveries[0];
    assert_eq!(recovery_event.failed_ranks, vec![2]);
    assert_eq!(recovery_event.resumed_from, 30);
    assert!(recovery_event.replayed >= 7);
    assert!(recovery_event.cost > 0.0);

    // Deterministic replay: the final trainer state is *identical* to the
    // uninterrupted run, so the loss agrees to floating-point-sum-order
    // tolerance and the per-layer state hashes to the same value.
    assert_eq!(faulty.weights_checksum, clean.weights_checksum);
    let loss_drift = (faulty.final_loss - clean.final_loss).abs() / clean.final_loss.max(1e-12);
    assert!(loss_drift < 1e-3, "loss drift {loss_drift}");

    // Imbalance stays comparable even though the survivor world has one
    // fewer stage (the balancer re-planned for it).
    assert!(faulty.final_imbalance.is_finite());
    assert!(
        faulty.final_imbalance < clean.final_imbalance + 0.25,
        "recovered imbalance {} vs clean {}",
        faulty.final_imbalance,
        clean.final_imbalance
    );

    // The recovery shows up in the overhead accounting and fleet ledger.
    assert!(faulty.overhead.recovery > clean.overhead.recovery);
    assert!(faulty.replayed_iterations >= 7);
    assert_eq!(faulty.fleet_events.len(), 1);
    assert_eq!(faulty.fleet_events[0].delta, 1);
}

/// Elastic shrink→grow round-trips the world size with every layer
/// conserved: each phase's layout covers each layer once by construction,
/// and the re-scaled run ends on the un-rescaled run's weights.
#[test]
fn elastic_shrink_grow_round_trips_world_size_with_conservation() {
    let workload = WorkloadConfig::small(16, 23);
    let report = run_elastic_rescale(&ElasticRescaleConfig {
        world_size: 4,
        iterations: 48,
        workload,
        shrink_at: 16,
        shrink_to: 2,
        grow_at: 32,
    })
    .unwrap();

    assert_eq!(report.phase_world_sizes, vec![4, 2, 4]);
    // Fleet round trip: +2 released at shrink, -2 re-acquired at grow.
    assert_eq!(report.fleet_events.len(), 2);
    assert_eq!(report.fleet_events[0].delta, 2);
    assert_eq!(report.fleet_events[1].delta, -2);
    assert_eq!(report.fleet_events[1].allocated_after, 4);
    assert!(report.average_allocated > 2.0 && report.average_allocated < 4.0);

    // Re-scaling must not change the training trajectory at all: a lost or
    // duplicated layer would.
    let static_run = run_resilient(&ResilientTrainingConfig {
        world_size: 4,
        iterations: 48,
        workload,
        fault_plan: FaultPlan::none(),
        checkpoint_interval: 8,
    })
    .unwrap();
    assert_eq!(report.weights_checksum, static_run.weights_checksum);
}

/// Collectives on a post-failure rebuilt communicator agree with a fresh
/// communicator over the same survivor set (the third acceptance
/// criterion): same results, bit for bit, for the sum all-reduce, the
/// gather and the broadcast.
#[test]
fn post_failure_communicator_agrees_with_a_fresh_survivor_communicator() {
    let contribution = |global_rank: usize| -> Vec<f32> {
        vec![
            global_rank as f32 + 0.5,
            (global_rank as f32 + 1.0) * 0.25,
            1.0 / (global_rank as f32 + 2.0),
        ]
    };
    // Every rank's sum; the root's gathered contributions; and the
    // gathered contributions as the root broadcasts them, on every rank.
    let collectives = |comm: &Communicator, my: Vec<f32>| {
        let sum = comm.allreduce_sum_f32(&my).unwrap();
        let gathered: Option<Vec<Vec<f32>>> = comm
            .gather(0, Payload::F32(my))
            .unwrap()
            .map(|all| all.into_iter().map(|p| p.into_f32().unwrap()).collect());
        let flat = gathered.iter().flatten().flatten().copied().collect();
        let broadcast = comm.broadcast(0, Payload::F32(flat)).unwrap();
        (sum, gathered, broadcast.into_f32().unwrap())
    };

    // Run 1: four ranks, rank 1 dies, survivors {0, 2, 3} rebuild and run
    // the collectives on the rebuilt communicator.
    let rebuilt_results = launch(4, |ctx| {
        let world = ctx.world();
        if ctx.rank() == 1 {
            ctx.fabric().detector().mark_failed(1);
            return None;
        }
        // Force the failure to surface the way it does in training: a
        // poisoned world collective.
        let err = world
            .allreduce_sum_f32(&contribution(ctx.rank()))
            .unwrap_err();
        assert_eq!(err, RuntimeError::RankFailed { rank: 1 });
        let comm = world.rebuild_survivors().unwrap().unwrap();
        assert_eq!(comm.members(), &[0, 2, 3]);
        Some(collectives(&comm, contribution(ctx.rank())))
    })
    .unwrap();

    // Run 2: a fresh three-rank job whose ranks stand in for the survivors
    // {0, 2, 3}, contributing the same values.
    let survivor_globals = [0usize, 2, 3];
    let fresh_results = launch(3, move |ctx| {
        let comm = ctx.world();
        collectives(&comm, contribution(survivor_globals[ctx.rank()]))
    })
    .unwrap();

    // Survivor i of the rebuilt world corresponds to fresh rank i.
    let rebuilt: Vec<_> = rebuilt_results.into_iter().flatten().collect();
    assert_eq!(rebuilt.len(), 3);
    assert_eq!(rebuilt, fresh_results);
    // The gather reached the root only, and the broadcast every rank.
    assert_eq!(rebuilt[0].1.as_ref().map(Vec::len), Some(3));
    assert!(rebuilt[1..]
        .iter()
        .all(|(_, gathered, _)| gathered.is_none()));
    assert!(rebuilt.iter().all(|(_, _, broadcast)| broadcast.len() == 9));
}

/// A failure striking in the middle of the *shrunken* world still recovers
/// (resilience composes with smaller worlds).
#[test]
fn failure_on_a_small_world_still_recovers() {
    let report = run_resilient(&config(3, 50, FaultPlan::none().kill(0, 21))).unwrap();
    assert_eq!(report.final_world_size, 2);
    assert_eq!(report.recoveries.len(), 1);
    let clean = run_resilient(&config(3, 50, FaultPlan::none())).unwrap();
    assert_eq!(report.weights_checksum, clean.weights_checksum);
}
