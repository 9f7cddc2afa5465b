//! Communication cost model (α–β model over the cluster's links).
//!
//! The simulator needs the time to (a) hand activations between adjacent
//! pipeline stages and (b) return the matching input gradients on the
//! backward path, (c) all-reduce gradients across data-parallel replicas,
//! and (d) migrate a layer's state between workers during rebalancing —
//! the cost the paper's Figure 4 overhead breakdown calls "migration of
//! layers between GPUs".
//!
//! Boundary traffic is sized *per boundary*: each stage carries the byte
//! size of the hidden-state tensor it hands downstream
//! ([`StageLoad::boundary_bytes`], defaulting to the model's unshrunk
//! residual-stream tensor), so mechanisms that drop tokens can shrink the
//! wire cost of the boundaries behind them.  The backward hand-off prices
//! the gradient of the same boundary tensor through
//! [`CommCostModel::gradient_bytes`] rather than re-charging the forward
//! activation.

use serde::{Deserialize, Serialize};

use dynmo_model::{ClusterConfig, ModelConfig};

use crate::load::StageLoad;

/// Communication cost model bound to a cluster configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommCostModel {
    cluster: ClusterConfig,
}

impl CommCostModel {
    /// Build a cost model for the given cluster.
    pub fn new(cluster: ClusterConfig) -> Self {
        CommCostModel { cluster }
    }

    /// The cluster this model describes.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// Effective bandwidth of the link between stages `a` and `b`: the
    /// slower endpoint bounds a point-to-point transfer.  On a homogeneous
    /// cluster this is exactly the single device's bandwidth.
    fn link_bandwidth(&self, a: usize, b: usize, intra: bool) -> f64 {
        let da = self.cluster.device_of(a);
        let db = self.cluster.device_of(b);
        if intra {
            da.intra_node_bandwidth.min(db.intra_node_bandwidth)
        } else {
            da.inter_node_bandwidth.min(db.inter_node_bandwidth)
        }
    }

    /// α–β time to move `bytes` across the edge between stages `from` and
    /// `to`: the larger endpoint latency plus bytes over the edge's
    /// effective bandwidth (NVLink within a node, InfiniBand across).  When
    /// both endpoints are the same device, that device's latency plus bytes
    /// over its own link bandwidth.
    pub fn edge_transfer_time(&self, bytes: f64, from: usize, to: usize) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        let intra = self.cluster.same_node(from, to);
        let latency = self
            .cluster
            .device_of(from)
            .link_latency
            .max(self.cluster.device_of(to).link_latency);
        latency + bytes / self.link_bandwidth(from, to, intra)
    }

    /// Bytes of one micro-batch's activations at a pipeline stage boundary.
    pub fn activation_bytes(&self, model: &ModelConfig) -> u64 {
        (model.micro_batch_size * model.seq_len * model.hidden_size * model.param_bytes) as u64
    }

    /// Bytes of the hidden-state tensor leaving `sender`: the stage's own
    /// [`StageLoad::boundary_bytes`] when set, else the model's unshrunk
    /// residual-stream tensor ([`CommCostModel::activation_bytes`]).  A
    /// released (bypassed) stage carries no `boundary_bytes` and so
    /// forwards the tensor unchanged.
    pub fn boundary_activation_bytes(&self, model: &ModelConfig, sender: &StageLoad) -> u64 {
        if sender.boundary_bytes > 0 {
            sender.boundary_bytes
        } else {
            self.activation_bytes(model)
        }
    }

    /// Bytes of the input gradient returned across a stage boundary on the
    /// backward path: the gradient of the boundary tensor, so it matches
    /// [`CommCostModel::boundary_activation_bytes`] of the stage that
    /// *produced* the forward activation at that boundary.
    pub fn gradient_bytes(&self, model: &ModelConfig, boundary_sender: &StageLoad) -> u64 {
        self.boundary_activation_bytes(model, boundary_sender)
    }

    /// Time to hand the forward boundary tensor produced by `sender` from
    /// `from_stage` to `to_stage`.
    pub fn boundary_transfer_time(
        &self,
        model: &ModelConfig,
        sender: &StageLoad,
        from_stage: usize,
        to_stage: usize,
    ) -> f64 {
        let bytes = self.boundary_activation_bytes(model, sender) as f64;
        self.edge_transfer_time(bytes, from_stage, to_stage)
    }

    /// Time to return the input gradient across the boundary whose forward
    /// tensor was produced by `boundary_sender`, from `from_stage` back to
    /// `to_stage`.  This is the backward-path counterpart of
    /// [`CommCostModel::boundary_transfer_time`]; the legacy simulator
    /// mis-charged the *forward* activation cost here.
    pub fn gradient_transfer_time(
        &self,
        model: &ModelConfig,
        boundary_sender: &StageLoad,
        from_stage: usize,
        to_stage: usize,
    ) -> f64 {
        let bytes = self.gradient_bytes(model, boundary_sender) as f64;
        self.edge_transfer_time(bytes, from_stage, to_stage)
    }

    /// Time for a ring all-reduce of `bytes` across `replicas` data-parallel
    /// workers holding pipeline stage `stage`: `2·(n−1)/n · bytes /
    /// bandwidth` plus per-step latencies.
    ///
    /// Replica `r`'s copy of stage `s` sits at global slot `r·p + s` under
    /// the consecutive Megatron-style placement, so the replica group is
    /// *strided* across the job, not packed.  The slot→node map is
    /// monotone, so checking the two extreme members of the group covers
    /// its whole span — an earlier version checked `same_node(0,
    /// replicas−1)` over group-relative slots, which priced groups that
    /// straddle a node boundary in the middle at NVLink bandwidth.
    pub fn allreduce_time(&self, bytes: u64, replicas: usize, stage: usize) -> f64 {
        if replicas <= 1 || bytes == 0 {
            return 0.0;
        }
        let n = replicas as f64;
        let device = self.cluster.device_of(stage);
        let span_end = (replicas - 1) * self.cluster.pipeline_stages + stage;
        let bw = if self.cluster.same_node(stage, span_end) {
            device.intra_node_bandwidth
        } else {
            device.inter_node_bandwidth
        };
        let steps = 2.0 * (n - 1.0);
        steps * device.link_latency + 2.0 * (n - 1.0) / n * bytes as f64 / bw
    }

    /// Time to migrate `bytes` of layer state from stage `from` to stage
    /// `to` during rebalancing.
    pub fn migration_time(&self, bytes: u64, from_stage: usize, to_stage: usize) -> f64 {
        if from_stage == to_stage || bytes == 0 {
            return 0.0;
        }
        self.edge_transfer_time(bytes as f64, from_stage, to_stage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmo_model::DeviceSpec;

    fn model() -> ModelConfig {
        ModelConfig::gpt(24)
    }

    fn comm() -> CommCostModel {
        CommCostModel::new(ClusterConfig::homogeneous(4, 8, 2, DeviceSpec::h100_sxm5()))
    }

    #[test]
    fn activation_bytes_match_tensor_shape() {
        let c = comm();
        // 2 sequences × 2048 tokens × 1024 hidden × 2 bytes = 8 MiB.
        assert_eq!(c.activation_bytes(&model()), 2 * 2048 * 1024 * 2);
    }

    /// A dense boundary's cost: one micro-batch's activations from stage
    /// `from` to stage `to`.
    fn activation_transfer_time(c: &CommCostModel, from: usize, to: usize) -> f64 {
        c.edge_transfer_time(c.activation_bytes(&model()) as f64, from, to)
    }

    #[test]
    fn cross_node_activation_transfer_is_slower() {
        let c = comm();
        let within = activation_transfer_time(&c, 0, 1);
        let across = activation_transfer_time(&c, 3, 4);
        assert!(across > within);
        assert!(within > 0.0);
        assert_eq!(c.edge_transfer_time(0.0, 3, 4), 0.0);
    }

    #[test]
    fn allreduce_time_scales_with_bytes_and_replicas() {
        let c = comm();
        assert_eq!(c.allreduce_time(1_000_000, 1, 0), 0.0);
        assert_eq!(c.allreduce_time(0, 8, 0), 0.0);
        let t2 = c.allreduce_time(1_000_000_000, 2, 0);
        let t8 = c.allreduce_time(1_000_000_000, 8, 0);
        assert!(t8 > t2);
        let small = c.allreduce_time(1_000_000, 8, 0);
        assert!(small < t8);
    }

    #[test]
    fn allreduce_uses_nvlink_when_the_replica_group_fits_in_a_node() {
        // A short pipeline on fat nodes: p = 2 stages, 8 GPUs per node, so
        // stage 0's replica group occupies slots {0, 2, 4, ...}.
        let c = CommCostModel::new(ClusterConfig::homogeneous(8, 2, 4, DeviceSpec::h100_sxm5()));
        let d = c.cluster().device;
        let bytes = 1_000_000_000u64;
        // 4 replicas → slots {0, 2, 4, 6}, all inside node 0 → NVLink.
        let within = c.allreduce_time(bytes, 4, 0);
        let expected_within =
            6.0 * d.link_latency + 2.0 * 3.0 / 4.0 * bytes as f64 / d.intra_node_bandwidth;
        assert!((within - expected_within).abs() < 1e-12);
        // 5 replicas → slots up to 8, spilling into node 1 → InfiniBand.
        let across = c.allreduce_time(bytes, 5, 0);
        let expected_across =
            8.0 * d.link_latency + 2.0 * 4.0 / 5.0 * bytes as f64 / d.inter_node_bandwidth;
        assert!((across - expected_across).abs() < 1e-12);
        assert!(across > within);
    }

    #[test]
    fn allreduce_group_straddling_a_node_in_the_middle_pays_interconnect() {
        // Regression for the endpoint-only locality check: with p = 8 the
        // replica group of stage 0 sits at slots {0, 8, 16, 24} — every
        // member on a *different* node — yet `same_node(0, replicas − 1)`
        // over group-relative slots claimed the group fit in one node.
        let c = comm(); // gpus_per_node = 4, pipeline_stages = 8
        let d = c.cluster().device;
        let bytes = 1_000_000_000u64;
        let t = c.allreduce_time(bytes, 4, 0);
        let expected =
            6.0 * d.link_latency + 2.0 * 3.0 / 4.0 * bytes as f64 / d.inter_node_bandwidth;
        assert!((t - expected).abs() < 1e-12);
    }

    fn stage_with_boundary(boundary_bytes: u64) -> StageLoad {
        StageLoad {
            fwd_time: 1.0,
            bwd_time: 2.0,
            param_count: 100,
            static_bytes: 1_000,
            activation_bytes: 10_000,
            boundary_bytes,
            num_layers: 6,
        }
    }

    #[test]
    fn boundary_bytes_follow_the_sender_stage_profile() {
        let c = comm();
        let m = model();
        let flat = c.activation_bytes(&m);
        // A dense stage (no explicit boundary size) sends the flat tensor.
        assert_eq!(
            c.boundary_activation_bytes(&m, &stage_with_boundary(0)),
            flat
        );
        // A stage that dropped half its tokens sends half the bytes.
        let shrunk = stage_with_boundary(flat / 2);
        assert_eq!(c.boundary_activation_bytes(&m, &shrunk), flat / 2);
        // An empty (bypassed) stage forwards the tensor unchanged.
        assert_eq!(c.boundary_activation_bytes(&m, &StageLoad::default()), flat);
        // The gradient of a boundary matches the boundary tensor.
        assert_eq!(c.gradient_bytes(&m, &shrunk), flat / 2);
    }

    #[test]
    fn boundary_and_gradient_transfers_respect_link_locality() {
        let c = comm();
        let m = model();
        let sender = stage_with_boundary(c.activation_bytes(&m));
        let within = c.boundary_transfer_time(&m, &sender, 0, 1);
        let across = c.boundary_transfer_time(&m, &sender, 3, 4);
        assert!(across > within && within > 0.0);
        // Gradient hand-off pays the same boundary, in the reverse direction.
        assert_eq!(
            c.gradient_transfer_time(&m, &sender, 1, 0),
            c.boundary_transfer_time(&m, &sender, 0, 1)
        );
        // A shrunk boundary is cheaper to cross in both directions.
        let shrunk = stage_with_boundary(c.activation_bytes(&m) / 4);
        assert!(c.boundary_transfer_time(&m, &shrunk, 0, 1) < within);
        assert!(c.gradient_transfer_time(&m, &shrunk, 1, 0) < within);
    }

    #[test]
    fn hetero_edges_are_bounded_by_the_slower_endpoint() {
        let uniform =
            CommCostModel::new(ClusterConfig::homogeneous(2, 4, 1, DeviceSpec::h100_sxm5()));
        let mixed = CommCostModel::new(ClusterConfig::hetero_three_gen(2, 4, 1));
        // Stages run H100, H100, A100, V100.  Stage 1 → 2 crosses the
        // H100/A100 divide and the node boundary: the A100's slower
        // NVLink/IB must bound the edge.
        let fast = activation_transfer_time(&uniform, 1, 2);
        let slow = activation_transfer_time(&mixed, 1, 2);
        assert!(slow >= fast);
        // An all-H100 edge of the mixed cluster matches the uniform one
        // bit-for-bit.
        assert_eq!(
            activation_transfer_time(&mixed, 0, 1).to_bits(),
            activation_transfer_time(&uniform, 0, 1).to_bits()
        );
    }

    #[test]
    fn migration_is_free_within_the_same_stage() {
        let c = comm();
        assert_eq!(c.migration_time(1_000_000, 3, 3), 0.0);
        assert_eq!(c.migration_time(0, 0, 1), 0.0);
        assert!(c.migration_time(1_000_000, 0, 1) > 0.0);
        assert!(c.migration_time(1_000_000, 0, 7) > c.migration_time(1_000_000, 0, 1));
    }
}
