//! Hybrid data + pipeline parallel throughput accounting.
//!
//! The paper's multi-node experiments run a *hybrid* of data and pipeline
//! parallelism (30-way DP × 24-way PP on 720 GPUs; 8-way DP × 16-way PP on
//! 128 GPUs for MoE/MoD) and report end-to-end throughput in tokens/second.
//! Each data-parallel replica runs the same pipeline; after the pipeline
//! flush, gradients are all-reduced across replicas (per stage, so the cost
//! is driven by the heaviest stage's parameter bytes).

use serde::{Deserialize, Serialize};

use dynmo_model::ModelConfig;

use crate::comm::CommCostModel;
use crate::load::StageLoad;
use crate::metrics::IterationReport;

/// Converts a single-pipeline iteration report into end-to-end hybrid
/// throughput.
#[derive(Debug, Clone)]
pub struct HybridThroughputModel {
    comm: CommCostModel,
    /// Fraction of the gradient all-reduce that overlaps with the backward
    /// pass (Megatron overlaps most of it; 0.0 = fully exposed).
    pub allreduce_overlap: f64,
}

/// End-to-end throughput numbers for a hybrid data+pipeline parallel job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Seconds per optimizer iteration, including the exposed all-reduce.
    pub iteration_time: f64,
    /// Pipeline makespan portion of the iteration.
    pub pipeline_time: f64,
    /// Exposed (non-overlapped) gradient all-reduce time.
    pub exposed_allreduce_time: f64,
    /// Tokens processed per iteration across all replicas.
    pub tokens_per_iteration: u64,
    /// End-to-end training throughput in tokens/second.
    pub tokens_per_second: f64,
}

impl HybridThroughputModel {
    /// Build a throughput model; `allreduce_overlap` is clamped to `[0, 1]`.
    pub fn new(comm: CommCostModel, allreduce_overlap: f64) -> Self {
        HybridThroughputModel {
            comm,
            allreduce_overlap: allreduce_overlap.clamp(0.0, 1.0),
        }
    }

    /// Combine a pipeline iteration report with the data-parallel gradient
    /// synchronization cost.
    ///
    /// * `stage_loads` — the per-stage loads used for the pipeline run
    ///   (their `param_count` drives the all-reduce volume).
    /// * `num_microbatches` — micro-batches per pipeline per iteration.
    pub fn throughput(
        &self,
        model: &ModelConfig,
        report: &IterationReport,
        stage_loads: &[StageLoad],
        num_microbatches: usize,
    ) -> ThroughputReport {
        let dp = self.comm.cluster().data_parallel;
        // Gradient all-reduce happens per stage across replicas, in
        // parallel; the exposed time is set by the heaviest stage.
        let (heaviest_stage, max_stage_grad_bytes) = stage_loads
            .iter()
            .map(|s| s.param_count * model.param_bytes as u64)
            .enumerate()
            .max_by_key(|&(_, bytes)| bytes)
            .unwrap_or((0, 0));
        let full_allreduce = self
            .comm
            .allreduce_time(max_stage_grad_bytes, dp, heaviest_stage);
        let exposed = full_allreduce * (1.0 - self.allreduce_overlap);
        let iteration_time = report.makespan + exposed;
        let tokens_per_iteration =
            (dp * num_microbatches * model.micro_batch_size * model.seq_len) as u64;
        let tokens_per_second = if iteration_time > 0.0 {
            tokens_per_iteration as f64 / iteration_time
        } else {
            0.0
        };
        ThroughputReport {
            iteration_time,
            pipeline_time: report.makespan,
            exposed_allreduce_time: exposed,
            tokens_per_iteration,
            tokens_per_second,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleKind;
    use crate::simulator::PipelineSimulator;
    use dynmo_model::{ClusterConfig, DeviceSpec};

    fn cluster(dp: usize) -> ClusterConfig {
        ClusterConfig::homogeneous(4, 4, dp, DeviceSpec::h100_sxm5())
    }

    fn stage_loads() -> Vec<StageLoad> {
        (0..4)
            .map(|_| StageLoad {
                fwd_time: 0.01,
                bwd_time: 0.02,
                param_count: 100_000_000,
                static_bytes: 0,
                activation_bytes: 0,
                boundary_bytes: 0,
                num_layers: 6,
            })
            .collect()
    }

    fn report(dp: usize) -> (IterationReport, HybridThroughputModel) {
        let comm = CommCostModel::new(cluster(dp));
        let mut sim = PipelineSimulator::new(comm.clone(), ScheduleKind::OneFOneB);
        let loads = stage_loads();
        let r = sim.simulate(&ModelConfig::gpt(24), &loads, 16);
        (r, HybridThroughputModel::new(comm, 0.5))
    }

    #[test]
    fn throughput_scales_with_data_parallel_degree() {
        let model = ModelConfig::gpt(24);
        let (r1, m1) = report(1);
        let (r8, m8) = report(8);
        let t1 = m1.throughput(&model, &r1, &stage_loads(), 16);
        let t8 = m8.throughput(&model, &r8, &stage_loads(), 16);
        assert_eq!(t8.tokens_per_iteration, 8 * t1.tokens_per_iteration);
        // 8 replicas pay an all-reduce, so speedup is below 8× but above 4×.
        let speedup = t8.tokens_per_second / t1.tokens_per_second;
        assert!(speedup > 4.0 && speedup <= 8.0, "speedup {speedup}");
    }

    #[test]
    fn dp1_has_no_exposed_allreduce() {
        let model = ModelConfig::gpt(24);
        let (r, m) = report(1);
        let t = m.throughput(&model, &r, &stage_loads(), 16);
        assert_eq!(t.exposed_allreduce_time, 0.0);
        assert!((t.iteration_time - t.pipeline_time).abs() < 1e-12);
    }

    #[test]
    fn overlap_reduces_exposed_allreduce() {
        let model = ModelConfig::gpt(24);
        let comm = CommCostModel::new(cluster(8));
        let mut sim = PipelineSimulator::new(comm.clone(), ScheduleKind::OneFOneB);
        let loads = stage_loads();
        let r = sim.simulate(&model, &loads, 16);
        let none = HybridThroughputModel::new(comm.clone(), 0.0).throughput(&model, &r, &loads, 16);
        let full = HybridThroughputModel::new(comm.clone(), 1.0).throughput(&model, &r, &loads, 16);
        assert!(none.exposed_allreduce_time > 0.0);
        assert_eq!(full.exposed_allreduce_time, 0.0);
        assert!(full.tokens_per_second > none.tokens_per_second);
        // Out-of-range overlap is clamped.
        let clamped = HybridThroughputModel::new(comm, 7.0);
        assert_eq!(clamped.allreduce_overlap, 1.0);
    }

    #[test]
    fn tokens_per_iteration_counts_all_replicas() {
        let model = ModelConfig::gpt(24);
        let (r, m) = report(4);
        let t = m.throughput(&model, &r, &stage_loads(), 16);
        // 4 replicas × 16 microbatches × 2 sequences × 2048 tokens.
        assert_eq!(t.tokens_per_iteration, 4 * 16 * 2 * 2048);
        assert!(t.tokens_per_second > 0.0);
    }
}
