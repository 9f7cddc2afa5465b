//! Fleet-level invariants: GPU conservation, no tenant starvation,
//! trainer-trajectory pinning, and bit-reproducibility of whole fleet runs.
//!
//! Conservation, ledger reconciliation, and the no-starvation floor are
//! enforced *inside* `FleetController::run` at every tick — a violation
//! turns the run into an `Err`, so every `.run().unwrap()` here is itself
//! an invariant check over the whole simulated day.

use dynmo_dynamics::{DynamismEngine, EarlyExitEngine, EarlyExitMethod};
use dynmo_fleet::{
    ElasticTrainer, ElasticTrainerSpec, FleetActionKind, FleetConfig, FleetController, TenantSpec,
};
use dynmo_model::{DeviceSpec, Model, ModelPreset};
use dynmo_resilience::CheckpointCostModel;
use dynmo_serve::{ArrivalProcess, LengthModel, RequestTrace, ServingConfig, SloTarget};
use proptest::prelude::*;

fn trainer_spec(total_iterations: u64) -> ElasticTrainerSpec {
    ElasticTrainerSpec {
        preset: ModelPreset::Gpt { layers: 24 },
        device: DeviceSpec::test_device(16 * 1024 * 1024 * 1024),
        gpus_per_node: 4,
        total_iterations,
        segment_iterations: 2,
        num_microbatches: 8,
        allreduce_overlap: 0.8,
        min_workers: 2,
        cost_model: CheckpointCostModel::default(),
    }
}

fn engine(seed: u64) -> Box<dyn DynamismEngine> {
    let model = Model::from_preset(ModelPreset::Gpt { layers: 24 });
    Box::new(EarlyExitEngine::new(&model, EarlyExitMethod::Calm, seed))
}

fn tenant_config(name: &str, replicas: usize, max_replicas: usize, ttft: f64) -> ServingConfig {
    let mut config = ServingConfig::small(replicas);
    config.tenant = name.to_string();
    config.max_replicas = max_replicas;
    config.slo = SloTarget { ttft, tpot: 0.2 };
    config
}

fn fleet_config(total_gpus: usize) -> FleetConfig {
    FleetConfig {
        total_gpus,
        check_interval: 10.0,
        ttft_window: 40.0,
        breach_ttft_factor: 1.0,
        gateway_age_limit: 6.0,
        relax_ttft_factor: 0.35,
        shrink_max_load: 2.0,
        action_cooldown: 15.0,
        return_cooldown: 45.0,
        provision_delay: 2.0,
        trainer_min_workers: 2,
        trainer_max_workers: 12,
        max_ticks: 10_000,
    }
}

/// A fleet under a load spike: the chat tenant must breach, steal from the
/// trainer, then hand the GPUs back in the trough.
fn spiky_fleet(seed: u64) -> FleetController {
    let chat_trace = RequestTrace::generate(
        &ArrivalProcess::Bursty {
            base_rate: 1.0,
            spike_rate: 6.0,
            spike_start: 60.0,
            spike_duration: 90.0,
        },
        300.0,
        &LengthModel::chat_default(),
        seed,
    );
    let batch_trace = RequestTrace::generate(
        &ArrivalProcess::Poisson { rate: 0.8 },
        300.0,
        &LengthModel::chat_default(),
        seed ^ 0x9e37,
    );
    let trainer = ElasticTrainer::new(trainer_spec(200), engine(seed), 8).unwrap();
    FleetController::new(
        fleet_config(16),
        trainer,
        8,
        vec![
            TenantSpec {
                config: tenant_config("chat", 1, 3, 2.0),
                trace: chat_trace,
                priority: 3,
                min_replicas: 1,
            },
            TenantSpec {
                config: tenant_config("batch", 1, 2, 10.0),
                trace: batch_trace,
                priority: 1,
                min_replicas: 1,
            },
        ],
    )
    .unwrap()
}

#[test]
fn spike_steals_from_the_trainer_and_returns_in_the_trough() {
    let report = spiky_fleet(41).run().unwrap();
    assert!(
        report.steals > 0,
        "the spike must force a steal: {:?}",
        report.timeline
    );
    assert!(
        report.returns > 0,
        "the trough must hand GPUs back: {:?}",
        report.timeline
    );
    // Every serving request completed (the scheduler never drops).
    for serving in &report.serving {
        assert_eq!(serving.completed, serving.requests);
    }
    // The trainer kept training and every steal/return was one re-scale.
    assert!(report.trainer_iterations > 0);
    assert_eq!(report.trainer_rescales, report.steals + report.returns);
    assert!(report.trainer_rescale_cost > 0.0);
    // Timeline action counts agree with the headline counters.
    let steals = report
        .timeline
        .iter()
        .filter(|a| matches!(a.kind, FleetActionKind::Steal { .. }))
        .count() as u64;
    let returns = report
        .timeline
        .iter()
        .filter(|a| matches!(a.kind, FleetActionKind::Return))
        .count() as u64;
    assert_eq!(steals, report.steals);
    assert_eq!(returns, report.returns);
    // Chunk boundaries advance strictly, and every steal fired exactly at
    // one of them (zero rollback).
    let mut last = 0;
    for &(iteration, _) in &report.trajectory_checksums {
        assert!(iteration > last || last == 0, "boundaries must advance");
        last = iteration;
    }
    for action in &report.timeline {
        if matches!(action.kind, FleetActionKind::Steal { .. }) {
            assert!(
                report
                    .trajectory_checksums
                    .iter()
                    .any(|&(i, _)| i == action.trainer_iteration),
                "steal at iteration {} is not a chunk boundary",
                action.trainer_iteration
            );
        }
    }
}

#[test]
fn identical_fleet_runs_are_bit_identical() {
    let a = spiky_fleet(41).run().unwrap();
    let b = spiky_fleet(41).run().unwrap();
    let a_json = serde_json::to_string(&a).unwrap();
    let b_json = serde_json::to_string(&b).unwrap();
    assert_eq!(a_json, b_json, "a fleet run must be bit-reproducible");
}

#[test]
fn quiet_fleet_leaves_the_trainer_trajectory_untouched() {
    // Light traffic, shrink disabled (min == initial == max replicas),
    // trainer capped at its initial world: the controller never
    // intervenes, so the fleet's checksum history must prefix-match an
    // undisturbed solo run bit for bit.
    let trace = RequestTrace::generate(
        &ArrivalProcess::Poisson { rate: 0.5 },
        150.0,
        &LengthModel::chat_default(),
        7,
    );
    let mut config = fleet_config(12);
    config.trainer_max_workers = 8;
    let trainer = ElasticTrainer::new(trainer_spec(40), engine(7), 8).unwrap();
    let report = FleetController::new(
        config,
        trainer,
        8,
        vec![TenantSpec {
            config: tenant_config("quiet", 1, 1, 4.0),
            trace,
            priority: 2,
            min_replicas: 1,
        }],
    )
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(report.steals, 0, "timeline: {:?}", report.timeline);
    assert_eq!(report.preemptions, 0);
    assert_eq!(report.trainer_rescales, 0);

    let mut solo = ElasticTrainer::new(trainer_spec(40), engine(7), 8).unwrap();
    solo.advance_to(f64::INFINITY).unwrap();
    assert!(!report.trajectory_checksums.is_empty());
    for (fleet_entry, solo_entry) in report
        .trajectory_checksums
        .iter()
        .zip(solo.checksum_history())
    {
        assert_eq!(
            fleet_entry, solo_entry,
            "an uninterfered fleet trainer must match the solo trajectory"
        );
    }
}

#[test]
fn stolen_runs_match_the_solo_trajectory_up_to_the_first_steal() {
    let report = spiky_fleet(41).run().unwrap();
    assert!(report.steals > 0);
    let steal_iteration = report
        .timeline
        .iter()
        .find(|a| matches!(a.kind, FleetActionKind::Steal { .. }))
        .map(|a| a.trainer_iteration)
        .unwrap();
    assert!(steal_iteration > 0, "the trainer ran before the spike");

    // Solo run, same seed and world, never disturbed.
    let mut solo = ElasticTrainer::new(trainer_spec(200), engine(41), 8).unwrap();
    solo.advance_to(f64::INFINITY).unwrap();
    let mut compared = 0;
    for entry in &report.trajectory_checksums {
        if entry.0 > steal_iteration {
            break;
        }
        let solo_entry = solo
            .checksum_history()
            .iter()
            .find(|s| s.0 == entry.0)
            .expect("solo run covers every pre-steal boundary");
        assert_eq!(
            entry.1, solo_entry.1,
            "iteration {} diverged before the first steal",
            entry.0
        );
        compared += 1;
    }
    assert!(compared > 0, "at least one pre-steal boundary must exist");
}

#[test]
fn preemption_frees_capacity_when_the_trainer_is_at_its_floor() {
    // The trainer sits at its floor (nothing to steal), the pool is empty,
    // and the high-priority tenant spikes: the only relief path is
    // preempting the low-priority tenant — which must still never drop
    // below its own replica floor, and must still finish its trace.
    let chat_trace = RequestTrace::generate(
        &ArrivalProcess::Bursty {
            base_rate: 1.0,
            spike_rate: 7.0,
            spike_start: 40.0,
            spike_duration: 120.0,
        },
        260.0,
        &LengthModel::chat_default(),
        13,
    );
    let batch_trace = RequestTrace::generate(
        &ArrivalProcess::Poisson { rate: 0.6 },
        260.0,
        &LengthModel::chat_default(),
        99,
    );
    let mut config = fleet_config(14);
    config.trainer_min_workers = 2;
    config.trainer_max_workers = 2;
    // Disable voluntary shrink: a near-zero relax threshold keeps the
    // batch tenant holding both replicas, so preemption is the only way
    // to free capacity.
    config.relax_ttft_factor = 0.01;
    let trainer = ElasticTrainer::new(trainer_spec(200), engine(13), 2).unwrap();
    let report = FleetController::new(
        config,
        trainer,
        2,
        vec![
            TenantSpec {
                config: tenant_config("chat", 1, 3, 2.0),
                trace: chat_trace,
                priority: 3,
                min_replicas: 1,
            },
            TenantSpec {
                config: tenant_config("batch", 2, 2, 12.0),
                trace: batch_trace,
                priority: 1,
                min_replicas: 1,
            },
        ],
    )
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(report.steals, 0, "a floor-pinned trainer cannot donate");
    assert!(
        report.preemptions > 0,
        "the spike must preempt the batch tenant: {:?}",
        report.timeline
    );
    // The preempted low-priority tenant still finished every request (the
    // no-starvation floor kept it at least one replica throughout — the
    // per-tick invariant inside run() enforced it).
    let batch = report.serving.iter().find(|r| r.tenant == "batch").unwrap();
    assert_eq!(batch.completed, batch.requests);
    // The freed capacity reached the breacher as a later pool grant.
    assert!(
        report
            .timeline
            .iter()
            .any(|a| matches!(&a.kind, FleetActionKind::Grant { tenant } if tenant == "chat")),
        "preempted GPUs must come back as a grant: {:?}",
        report.timeline
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random small fleets uphold every per-tick invariant (conservation,
    /// ledger reconciliation, no starvation — all enforced inside
    /// `FleetController::run`) and drain cleanly.
    #[test]
    fn random_fleets_conserve_gpus_and_never_starve(
        seed in 0u64..1000,
        spike in 4.0f64..8.0,
        trainer_world in 4usize..9,
    ) {
        let chat_trace = RequestTrace::generate(
            &ArrivalProcess::Bursty {
                base_rate: 1.5,
                spike_rate: spike,
                spike_start: 40.0,
                spike_duration: 60.0,
            },
            180.0,
            &LengthModel::chat_default(),
            seed,
        );
        let trainer = ElasticTrainer::new(trainer_spec(120), engine(seed), trainer_world).unwrap();
        let mut config = fleet_config(trainer_world + 3 * 4);
        config.trainer_max_workers = trainer_world + 4;
        let controller = FleetController::new(
            config,
            trainer,
            trainer_world,
            vec![TenantSpec {
                config: tenant_config("chat", 1, 3, 2.0),
                trace: chat_trace,
                priority: 2,
                min_replicas: 1,
            }],
        ).unwrap();
        let report = controller.run().unwrap();
        prop_assert_eq!(report.serving.len(), 1);
        prop_assert_eq!(report.serving[0].completed, report.serving[0].requests);
        prop_assert!(report.ticks > 0);
        // Counters and timeline agree.
        let preemptions = report.timeline.iter()
            .filter(|a| matches!(a.kind, FleetActionKind::Preempt { .. }))
            .count() as u64;
        prop_assert_eq!(preemptions, report.preemptions);
    }
}
