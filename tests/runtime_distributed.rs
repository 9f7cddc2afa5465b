//! Integration tests for the distributed pieces: Algorithm 1 over the
//! simulated runtime, layer migration between ranks, and the communicator
//! split used to release GPUs after re-packing.

use dynmo::core::migration::MigrationPlan;
use dynmo::core::repack::plan_repack;
use dynmo::dynamics::distributed_global_prune;
use dynmo::pipeline::{LayerLoad, StageAssignment};
use dynmo::runtime::{launch, Payload};
use dynmo::sparse::prune_to_sparsity;

fn synthetic_shards(ranks: usize, per_rank: usize) -> Vec<Vec<f32>> {
    (0..ranks)
        .map(|r| {
            (0..per_rank)
                .map(|i| {
                    let x = ((r * per_rank + i) as f32 * 37.0 + 11.0).sin();
                    x * (1.0 + r as f32 * 0.3)
                })
                .collect()
        })
        .collect()
}

#[test]
fn algorithm1_matches_single_process_pruning_at_multiple_sparsities() {
    for &(ranks, sparsity) in &[(2usize, 0.5f64), (4, 0.9), (8, 0.79)] {
        let shards = synthetic_shards(ranks, 64);
        let shards_for_ranks = shards.clone();
        let results = launch(ranks, move |ctx| {
            let comm = ctx.world();
            distributed_global_prune(&comm, &shards_for_ranks[ctx.rank()], sparsity).unwrap()
        })
        .unwrap();

        // Reference: prune the concatenation in one process.
        let mut concat: Vec<f32> = shards.iter().flatten().copied().collect();
        prune_to_sparsity(&mut concat, sparsity);
        let mut offset = 0;
        for (rank, shard) in shards.iter().enumerate() {
            let expected = &concat[offset..offset + shard.len()];
            assert_eq!(
                results[rank], expected,
                "rank {rank} mismatch at sparsity {sparsity} with {ranks} ranks"
            );
            offset += shard.len();
        }
    }
}

#[test]
fn migration_plan_executes_over_the_runtime_and_preserves_layer_data() {
    // 6 layers over 3 stages; a rebalance empties stage 1 into its
    // neighbours: layer 2 moves to stage 0 and layer 3 to stage 2.
    let loads: Vec<LayerLoad> = (0..6)
        .map(|i| LayerLoad {
            layer_id: i,
            fwd_time: 1.0,
            bwd_time: 2.0,
            param_count: 100,
            static_bytes: 64,
            activation_bytes: 0,
            migration_bytes: 64,
        })
        .collect();
    let from = StageAssignment::uniform(6, 3);
    let to = StageAssignment::from_counts(&[3, 0, 3]);
    let plan = MigrationPlan::between(&from, &to, &loads);
    assert_eq!(plan.num_moves(), 2);

    let results = launch(3, move |ctx| {
        let comm = ctx.world();
        // Each stage serves its layers' "weights" as a recognizable pattern.
        let data = |layer: usize| vec![layer as f32 * 10.0; 8];
        plan.execute(&comm, ctx.rank(), &data).unwrap()
    })
    .unwrap();

    // Stage 0 received layer 2's weights; stage 2 received layer 3's.
    assert_eq!(results[0], vec![(2, vec![20.0; 8])]);
    assert_eq!(results[2], vec![(3, vec![30.0; 8])]);
    assert!(results[1].is_empty());
}

#[test]
fn repack_then_comm_split_releases_idle_ranks() {
    // Plan a re-pack on 4 workers whose load fits on 2, then enact the
    // paper's §3.4.2 release protocol: split the world communicator into an
    // active sub-communicator and let the idle ranks drop out.
    let loads: Vec<LayerLoad> = (0..8)
        .map(|i| LayerLoad {
            layer_id: i,
            fwd_time: 0.5,
            bwd_time: 1.0,
            param_count: 10,
            static_bytes: 100,
            activation_bytes: 0,
            migration_bytes: 100,
        })
        .collect();
    let assignment = StageAssignment::uniform(8, 4);
    // A 500-byte budget fills a worker to 450 bytes: two 200-byte stages
    // share one, three do not.
    let plan = plan_repack(&assignment, &loads, &[1; 4], 500);
    assert_eq!(plan.active_workers.len(), 2);
    let active = plan.active_workers.clone();

    let results = launch(4, move |ctx| {
        let comm = ctx.world();
        let sub = comm.split_subset(&active).unwrap();
        match sub {
            Some(active_comm) => {
                // Active ranks keep working: a barrier and a reduction on the
                // new communicator must involve only the active ranks.
                active_comm.barrier().unwrap();
                let sum = active_comm.allreduce_sum_f32(&[1.0]).unwrap()[0];
                Some((active_comm.size(), sum as usize))
            }
            None => {
                // Idle ranks are released; they simply stop participating.
                None
            }
        }
    })
    .unwrap();

    let active_results: Vec<_> = results.iter().flatten().collect();
    assert_eq!(active_results.len(), 2);
    for (size, sum) in active_results {
        assert_eq!(*size, 2);
        assert_eq!(*sum, 2);
    }
}

#[test]
fn gather_scatter_pattern_handles_unequal_shard_sizes() {
    // The paper implements Algorithm 1's gather with P2P because per-rank
    // sizes differ; verify the collective handles ragged payloads.
    let results = launch(4, |ctx| {
        let comm = ctx.world();
        let mine: Vec<f32> = vec![ctx.rank() as f32; ctx.rank() + 1];
        let gathered = comm.gather(0, Payload::F32(mine)).unwrap();
        if ctx.rank() == 0 {
            let sizes: Vec<usize> = gathered
                .unwrap()
                .into_iter()
                .map(|p| p.into_f32().unwrap().len())
                .collect();
            Some(sizes)
        } else {
            None
        }
    })
    .unwrap();
    assert_eq!(results[0], Some(vec![1, 2, 3, 4]));
}
