//! Elastic training under gradual global magnitude pruning.
//!
//! Reproduces, at example scale, the paper's headline elasticity story
//! (§3.4 / Figure 4): as the Zhu–Gupta schedule prunes the model toward 90%
//! sparsity, DynMo rebalances the shrinking layers, re-packs them onto fewer
//! GPUs, and releases the idle GPUs.  The example
//! also runs the distributed global-pruning step itself (Algorithm 1) on the
//! simulated multi-rank runtime to show the actual gather/broadcast pattern.
//!
//! ```text
//! cargo run --release --example elastic_pruning
//! ```

use dynmo::core::balancer::{BalanceObjective, PartitionBalancer};
use dynmo::core::controller::{RebalanceController, RebalancePolicy};
use dynmo::core::trainer::{Trainer, TrainerConfig};
use dynmo::dynamics::{distributed_global_prune, GradualPruningEngine, PruningSchedule};
use dynmo::model::{ClusterConfig, Model, ModelPreset};
use dynmo::runtime::launch;

fn main() {
    println!("Part 1: Algorithm 1 — distributed global magnitude pruning over 4 ranks\n");
    // Each rank owns a shard of the parameters; the global 75% sparsity
    // threshold is computed collectively (local top-k → gather → global
    // top-k → broadcast) and applied locally.
    let results = launch(4, |ctx| {
        let comm = ctx.world();
        // Deterministic per-rank shard with rank-dependent magnitudes.
        let shard: Vec<f32> = (0..16)
            .map(|i| ((i + 1) as f32 / 16.0) * (1.0 + ctx.rank() as f32 * 0.5))
            .collect();
        let pruned = distributed_global_prune(&comm, &shard, 0.75).unwrap();
        let kept = pruned.iter().filter(|v| **v != 0.0).count();
        (ctx.rank(), kept, shard.len())
    })
    .unwrap();
    let mut total_kept = 0;
    let mut total = 0;
    for (rank, kept, len) in &results {
        println!("  rank {rank}: kept {kept}/{len} parameters");
        total_kept += kept;
        total += len;
    }
    println!(
        "  global sparsity achieved: {:.1}% (target 75%)\n",
        (1.0 - total_kept as f64 / total as f64) * 100.0
    );

    println!("Part 2: elastic end-to-end training with re-packing\n");
    let model = Model::from_preset(ModelPreset::Gpt { layers: 32 });
    let cluster = ClusterConfig::single_node(8);
    let iterations = 500;
    // Compress the paper's 3000→7000-iteration pruning window into the
    // example's 500 iterations.
    let schedule = PruningSchedule {
        initial_sparsity: 0.0,
        final_sparsity: 0.9,
        start_iteration: 150,
        frequency: 50,
        num_steps: 4,
    };
    let config = TrainerConfig::paper_defaults(cluster.clone(), iterations);
    let controller = RebalanceController::new(
        Box::new(PartitionBalancer::new()),
        BalanceObjective::ByTime,
        RebalancePolicy {
            frequency: Some(dynmo::dynamics::RebalanceFrequency::EveryN(50)),
            repack: true,
        },
    );
    let mut engine = GradualPruningEngine::new(&model, schedule, 11);
    let mut trainer = Trainer::new(model, config, controller);
    let report = trainer.run(&mut engine);

    println!(
        "  throughput:            {:>12.0} tokens/s",
        report.tokens_per_second
    );
    println!(
        "  throughput per GPU:    {:>12.0} tokens/s/GPU",
        report.tokens_per_second_per_gpu
    );
    println!(
        "  average GPUs in use:   {:>12.1} (started with 8)",
        report.average_active_workers
    );
    println!(
        "  GPUs in use at end:    {:>12}",
        report.final_active_workers
    );
    println!("  rebalance events:      {:>12}", report.rebalance_events);
    println!(
        "  balancing overhead:    {:>11.2}%",
        report.overhead_fraction * 100.0
    );
}
