//! Property-based tests (proptest) for DynMo's core invariants:
//! the partition and diffusion balancers, the re-packing pass, and the
//! sparse-tensor primitives used by global pruning.

use dynmo::core::balancer::{
    stage_weights, BalanceObjective, BalanceRequest, DiffusionBalancer, LoadBalancer,
    PartitionBalancer,
};
use dynmo::core::repack::plan_repack;
use dynmo::model::{ClusterConfig, DeviceSpec, ModelConfig};
use dynmo::pipeline::load::aggregate_stage_loads;
use dynmo::pipeline::metrics::imbalance;
use dynmo::pipeline::{CommCostModel, LayerLoad, PipelineSimulator, ScheduleKind, StageAssignment};
use dynmo::sparse::{prune_to_sparsity, spmm, CsrMatrix, DenseMatrix};
use proptest::prelude::*;

fn loads_from_times(times: &[f64]) -> Vec<LayerLoad> {
    times
        .iter()
        .enumerate()
        .map(|(id, &t)| LayerLoad {
            layer_id: id,
            fwd_time: t / 3.0,
            bwd_time: 2.0 * t / 3.0,
            param_count: (t * 1.0e6) as u64 + 1,
            static_bytes: ((t * 1.0e6) as u64 + 1) * 16,
            activation_bytes: 1_000,
            migration_bytes: ((t * 1.0e6) as u64 + 1) * 16,
        })
        .collect()
}

fn arbitrary_times() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.05f64..5.0, 4..64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The partition balancer covers every layer exactly once, keeps the
    /// assignment contiguous, and never does worse than the uniform split.
    #[test]
    fn partition_balancer_invariants(times in arbitrary_times(), stages in 2usize..12) {
        let loads = loads_from_times(&times);
        let stages = stages.min(loads.len());
        let request = BalanceRequest::new(&loads, stages, u64::MAX, BalanceObjective::ByTime);
        let outcome = PartitionBalancer::new().rebalance(&request);

        prop_assert_eq!(outcome.assignment.num_layers(), loads.len());
        prop_assert_eq!(outcome.assignment.num_stages(), stages);
        // Every layer appears exactly once (counts sum to the layer count).
        prop_assert_eq!(outcome.assignment.counts().iter().sum::<usize>(), loads.len());

        // Bottleneck is never worse than the uniform split's bottleneck.
        let uniform = StageAssignment::uniform(loads.len(), stages);
        let uniform_bottleneck = stage_weights(&uniform, &loads, BalanceObjective::ByTime)
            .into_iter()
            .fold(0.0f64, f64::max);
        prop_assert!(outcome.bottleneck <= uniform_bottleneck + 1e-9);

        // Bottleneck can never go below the theoretical lower bound
        // max(total/stages, heaviest layer).
        let total: f64 = times.iter().sum();
        let heaviest = times.iter().copied().fold(0.0f64, f64::max);
        let lower = (total / stages as f64).max(heaviest);
        prop_assert!(outcome.bottleneck >= lower - 1e-9);
    }

    /// The diffusion balancer improves (or preserves) the imbalance of its
    /// starting assignment, preserves every layer, stays contiguous, and
    /// finishes within the Lemma 2 round bound.
    #[test]
    fn diffusion_balancer_invariants(times in arbitrary_times(), stages in 2usize..10) {
        let loads = loads_from_times(&times);
        let stages = stages.min(loads.len());
        let current = StageAssignment::uniform(loads.len(), stages);
        let request = BalanceRequest {
            current: Some(&current),
            ..BalanceRequest::new(&loads, stages, u64::MAX, BalanceObjective::ByTime)
        };
        let balancer = DiffusionBalancer::new();
        let outcome = balancer.rebalance(&request);

        prop_assert_eq!(outcome.assignment.num_layers(), loads.len());
        prop_assert_eq!(outcome.assignment.counts().iter().sum::<usize>(), loads.len());

        let before = imbalance(&stage_weights(&current, &loads, BalanceObjective::ByTime));
        let after = imbalance(&stage_weights(
            &outcome.assignment,
            &loads,
            BalanceObjective::ByTime,
        ));
        prop_assert!(after <= before + 1e-9, "imbalance got worse: {} -> {}", before, after);

        let total: f64 = times.iter().sum();
        let bound = balancer.lemma2_round_bound(stages, total);
        prop_assert!((outcome.rounds as f64) <= bound);
    }

    /// Re-packing never loses a layer's memory, never fills a destination
    /// worker past 90% of the memory budget, and never increases the active
    /// worker count.
    #[test]
    fn repack_invariants(
        times in arbitrary_times(),
        stages in 2usize..10,
        budget_scale in 1.0f64..6.0,
    ) {
        let loads = loads_from_times(&times);
        let stages = stages.min(loads.len());
        let assignment = StageAssignment::uniform(loads.len(), stages);
        let inflight = vec![2usize; stages];
        // Budget between one stage's worth and several stages' worth.
        let per_stage: u64 = loads.iter().map(|l| l.static_bytes + 2 * l.activation_bytes).sum::<u64>()
            / stages as u64;
        let max_memory = ((per_stage as f64) * budget_scale) as u64 + 1;
        let plan = plan_repack(&assignment, &loads, &inflight, max_memory);

        // Re-packing never pushes a worker over 90% of the budget *by
        // merging*: a worker may only exceed it if its original (pre-repack)
        // load already did, since Algorithm 2 never splits a worker's load.
        let usable = (max_memory as f64 * 0.9) as u64;
        let memory_before: Vec<u64> = assignment
            .ranges()
            .map(|layers| {
                loads[layers]
                    .iter()
                    .map(|l| l.static_bytes + l.activation_bytes * 2)
                    .sum()
            })
            .collect();
        // No layer lost or duplicated: every byte lands on some worker.
        prop_assert_eq!(
            plan.memory_after.iter().sum::<u64>(),
            memory_before.iter().sum::<u64>()
        );
        for (stage, &bytes) in plan.memory_after.iter().enumerate() {
            prop_assert!(
                bytes <= usable.max(memory_before[stage]),
                "stage {} holds {} bytes over the usable {} of budget {} (was {} before)",
                stage, bytes, usable, max_memory, memory_before[stage]
            );
        }

        // Active workers never increase, never fall below re-packing's
        // floor of 2, and released + active partitions the original actives.
        prop_assert!(plan.active_workers.len() <= stages);
        prop_assert!(plan.active_workers.len() >= 2);
        for worker in &plan.released_workers {
            prop_assert!(!plan.active_workers.contains(worker));
        }
        prop_assert_eq!(plan.active_workers.len() + plan.released_workers.len(), stages);
    }

    /// CSR round-trips and SpMM agrees with the dense reference.
    #[test]
    fn csr_spmm_matches_dense(
        rows in 1usize..12,
        inner in 1usize..12,
        cols in 1usize..8,
        values in prop::collection::vec(-2.0f32..2.0, 1..144),
        mask in prop::collection::vec(0u8..4, 1..144),
    ) {
        let a_data: Vec<f32> = (0..rows * inner)
            .map(|i| {
                let v = values[i % values.len()];
                if mask[i % mask.len()] == 0 { 0.0 } else { v }
            })
            .collect();
        let b_data: Vec<f32> = (0..inner * cols)
            .map(|i| values[(i * 7 + 3) % values.len()])
            .collect();
        let a = DenseMatrix::from_vec(rows, inner, a_data);
        let b = DenseMatrix::from_vec(inner, cols, b_data);
        let csr = CsrMatrix::from_dense(&a);
        // Round trip.
        prop_assert_eq!(csr.to_dense(), a.clone());
        // SpMM vs dense GEMM.
        let sparse_result = spmm(&csr, &b);
        let dense_result = a.matmul(&b);
        prop_assert!(sparse_result.max_abs_diff(&dense_result) < 1e-3);
    }

    /// Global magnitude pruning hits its sparsity target (within rounding)
    /// and only ever zeroes the smallest-magnitude entries.
    #[test]
    fn pruning_hits_target_and_keeps_largest(
        values in prop::collection::vec(-5.0f32..5.0, 8..256),
        sparsity in 0.0f64..1.0,
    ) {
        let mut pruned = values.clone();
        let achieved = prune_to_sparsity(&mut pruned, sparsity);
        let expected_zeros = (sparsity * values.len() as f64).round() as usize;
        let zeros = pruned.iter().filter(|v| **v == 0.0).count();
        let original_zeros = values.iter().filter(|v| **v == 0.0).count();
        // Achieved zero count is within 1 of the target (ties / existing
        // zeros can push it slightly over).
        prop_assert!(zeros + 1 >= expected_zeros.max(original_zeros));
        prop_assert!((achieved - zeros as f64 / values.len() as f64).abs() < 1e-9);
        // Every surviving value has magnitude >= every pruned (non-zero
        // originally) value's magnitude... checked via threshold ordering.
        let kept_min = pruned
            .iter()
            .filter(|v| **v != 0.0)
            .map(|v| v.abs())
            .fold(f32::INFINITY, f32::min);
        for (original, now) in values.iter().zip(pruned.iter()) {
            if *now == 0.0 && *original != 0.0 {
                prop_assert!(original.abs() <= kept_min + 1e-6);
            }
        }
    }

    /// Partition conservation: whatever the objective, the per-stage layer
    /// counts always sum to the model size.  Empty stages are allowed by design (idle workers that
    /// re-packing later releases) but only ever as a trailing suffix.
    #[test]
    fn partition_conserves_layers_across_objectives(
        times in arbitrary_times(),
        stages in 2usize..12,
    ) {
        let loads = loads_from_times(&times);
        let stages = stages.min(loads.len());
        for objective in [BalanceObjective::ByTime, BalanceObjective::ByParams] {
            let request = BalanceRequest::new(&loads, stages, u64::MAX, objective);
            let outcome = PartitionBalancer::new().rebalance(&request);
            let counts = outcome.assignment.counts();
            prop_assert_eq!(counts.iter().sum::<usize>(), loads.len());
            let first_empty = counts.iter().position(|&c| c == 0).unwrap_or(counts.len());
            prop_assert!(
                counts[first_empty..].iter().all(|&c| c == 0),
                "non-trailing empty stage in {:?}", counts
            );
        }
    }

    /// Rebalancing moves work around but never creates or destroys it: the
    /// stage weights of any balanced assignment sum to the per-layer total.
    #[test]
    fn balancers_conserve_total_stage_weight(
        times in arbitrary_times(),
        stages in 2usize..12,
    ) {
        let loads = loads_from_times(&times);
        let stages = stages.min(loads.len());
        let current = StageAssignment::uniform(loads.len(), stages);
        let request = BalanceRequest {
            current: Some(&current),
            ..BalanceRequest::new(&loads, stages, u64::MAX, BalanceObjective::ByTime)
        };
        let expected: f64 = times.iter().sum();
        for outcome in [
            PartitionBalancer::new().rebalance(&request),
            DiffusionBalancer::new().rebalance(&request),
        ] {
            let total: f64 = stage_weights(&outcome.assignment, &loads, BalanceObjective::ByTime)
                .iter()
                .sum();
            prop_assert!(
                (total - expected).abs() <= 1e-6 * expected.max(1.0),
                "stage weights sum to {} but layers sum to {}", total, expected
            );
        }
    }

    /// Applying the diffusion balancer repeatedly is monotone: each round
    /// starts from the previous assignment and the imbalance never
    /// increases from one application to the next.
    #[test]
    fn diffusion_is_monotone_over_repeated_applications(
        times in arbitrary_times(),
        stages in 2usize..10,
    ) {
        let loads = loads_from_times(&times);
        let stages = stages.min(loads.len());
        let balancer = DiffusionBalancer::new();
        let mut assignment = StageAssignment::uniform(loads.len(), stages);
        let mut last = imbalance(&stage_weights(&assignment, &loads, BalanceObjective::ByTime));
        for round in 0..4 {
            let request = BalanceRequest {
            current: Some(&assignment),
            ..BalanceRequest::new(&loads, stages, u64::MAX, BalanceObjective::ByTime)
        };
            let outcome = balancer.rebalance(&request);
            let now = imbalance(&stage_weights(
                &outcome.assignment,
                &loads,
                BalanceObjective::ByTime,
            ));
            prop_assert!(
                now <= last + 1e-9,
                "imbalance increased on application {}: {} -> {}", round, last, now
            );
            last = now;
            assignment = outcome.assignment;
        }
    }

    /// The O(p) incremental potential update is bit-equal to the O(p²)
    /// full recompute whenever the loads are exactly representable
    /// (integer-valued f64s keep every sum and difference exact), for any
    /// move of any weight between any two stages.
    #[test]
    fn incremental_potential_is_bit_equal_to_full_recompute(
        loads in prop::collection::vec(0u32..10_000, 2..64),
        from_index in 0usize..64,
        to_index in 0usize..64,
        weight in 0u32..5_000,
    ) {
        let loads: Vec<f64> = loads.into_iter().map(f64::from).collect();
        let from = from_index % loads.len();
        // The shim has no prop_assume: fold the degenerate from == to case
        // into a neighbouring pair instead of skipping it.
        let to = if to_index % loads.len() == from {
            (from + 1) % loads.len()
        } else {
            to_index % loads.len()
        };
        let phi = dynmo::core::balancer::diffusion::potential(&loads);
        let w = f64::from(weight);
        let incremental = dynmo::core::balancer::diffusion::potential_after_asymmetric_move(
            &loads, phi, from, to, w, w,
        );
        let mut moved = loads.clone();
        moved[from] -= w;
        moved[to] += w;
        let full = dynmo::core::balancer::diffusion::potential(&moved);
        prop_assert_eq!(
            incremental.to_bits(),
            full.to_bits(),
            "incremental {} vs full {}",
            incremental,
            full
        );
    }

    /// A cluster of all-equal explicit `DeviceSpec`s behaves bit-identically
    /// to the homogeneous cluster: a request carrying its stage speeds gets
    /// the homogeneous request's assignment and bottleneck from both
    /// balancers, and it simulates the same makespan bit-for-bit under all
    /// four pipeline schedules.
    #[test]
    fn equal_device_hetero_path_matches_homogeneous_bit_for_bit(
        times in arbitrary_times(),
        stages in 2usize..8,
    ) {
        let loads = loads_from_times(&times);
        let stages = stages.min(loads.len());
        let current = StageAssignment::uniform(loads.len(), stages);
        let base = BalanceRequest {
            current: Some(&current),
            ..BalanceRequest::new(&loads, stages, u64::MAX, BalanceObjective::ByTime)
        };
        let homogeneous_cluster =
            ClusterConfig::homogeneous(2, stages, 1, DeviceSpec::h100_sxm5());
        let explicit_cluster = homogeneous_cluster
            .clone()
            .with_devices(vec![DeviceSpec::h100_sxm5(); stages]);
        let weighted = BalanceRequest {
            stage_speeds: explicit_cluster.stage_speeds(),
            ..base.clone()
        };

        for (homogeneous, hetero) in [
            (
                PartitionBalancer::new().rebalance(&base),
                PartitionBalancer::new().rebalance(&weighted),
            ),
            (
                DiffusionBalancer::new().rebalance(&base),
                DiffusionBalancer::new().rebalance(&weighted),
            ),
        ] {
            prop_assert_eq!(&homogeneous.assignment, &hetero.assignment);
            prop_assert_eq!(homogeneous.bottleneck.to_bits(), hetero.bottleneck.to_bits());

            // Same assignment simulated on the homogeneous cluster and on
            // the explicit equal-device cluster: identical makespans under
            // every schedule.
            let stage_loads = aggregate_stage_loads(&loads, &homogeneous.assignment);
            let model = ModelConfig::gpt(loads.len());
            for schedule in [
                ScheduleKind::GPipe,
                ScheduleKind::OneFOneB,
                ScheduleKind::Interleaved1F1B { virtual_stages: 2 },
                ScheduleKind::ZeroBubbleH1,
            ] {
                let on_homogeneous = PipelineSimulator::new(
                    CommCostModel::new(homogeneous_cluster.clone()),
                    schedule,
                )
                .simulate(&model, &stage_loads, 2 * stages);
                let on_explicit = PipelineSimulator::new(
                    CommCostModel::new(explicit_cluster.clone()),
                    schedule,
                )
                .simulate(&model, &stage_loads, 2 * stages);
                prop_assert_eq!(
                    on_homogeneous.makespan.to_bits(),
                    on_explicit.makespan.to_bits(),
                    "schedule {:?}: homogeneous {} vs explicit equal-device {}",
                    schedule,
                    on_homogeneous.makespan,
                    on_explicit.makespan
                );
            }
        }
    }

    /// The incremental-potential fast path commits exactly the moves the
    /// legacy full-recompute path commits: identical assignments, round
    /// counts, and bottlenecks on arbitrary workloads.
    #[test]
    fn diffusion_incremental_path_matches_full_path(
        times in arbitrary_times(),
        stages in 2usize..12,
    ) {
        let loads = loads_from_times(&times);
        let stages = stages.min(loads.len());
        let current = StageAssignment::uniform(loads.len(), stages);
        let request = BalanceRequest {
            current: Some(&current),
            ..BalanceRequest::new(&loads, stages, u64::MAX, BalanceObjective::ByTime)
        };
        let incremental = DiffusionBalancer::new().rebalance(&request);
        let full = DiffusionBalancer {
            use_incremental_potential: false,
        }
        .rebalance(&request);
        prop_assert_eq!(incremental.assignment, full.assignment);
        prop_assert_eq!(incremental.rounds, full.rounds);
        prop_assert_eq!(incremental.bottleneck.to_bits(), full.bottleneck.to_bits());
    }
}
