//! Profiled per-layer load snapshots.
//!
//! A [`LayerLoad`] is what DynMo's profiling iteration produces for every
//! layer after a dynamism event: its *current* forward/backward execution
//! time, parameter count, and memory footprint.  Both balancer families
//! consume this structure — the "by parameters" variants read
//! `param_count`, the "by execution time" variants read the time fields —
//! and the re-packing algorithm reads the memory fields.

use serde::{Deserialize, Serialize};

use crate::stage::StageAssignment;

/// The profiled cost of one layer at a specific training step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerLoad {
    /// The layer's id (index within the model).
    pub layer_id: usize,
    /// Forward-pass execution time for one micro-batch, in seconds.
    pub fwd_time: f64,
    /// Backward-pass execution time for one micro-batch, in seconds.
    pub bwd_time: f64,
    /// Parameters currently held by the layer (after pruning, this is the
    /// retained count).
    pub param_count: u64,
    /// Static memory footprint in bytes (weights + gradients + optimizer
    /// state, plus CSR index storage for pruned layers).
    pub static_bytes: u64,
    /// Activation memory per in-flight micro-batch, in bytes.
    pub activation_bytes: u64,
    /// Bytes that must be transferred to migrate this layer to another
    /// worker (weights + optimizer state + sparse indices).
    pub migration_bytes: u64,
}

impl LayerLoad {
    /// Total compute time (forward + backward) for one micro-batch.
    pub fn total_time(&self) -> f64 {
        self.fwd_time + self.bwd_time
    }
}

/// Aggregate the loads of a set of layers (one pipeline stage's layers).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StageLoad {
    /// Sum of forward times of the stage's layers (seconds per micro-batch).
    pub fwd_time: f64,
    /// Sum of backward times of the stage's layers (seconds per micro-batch).
    pub bwd_time: f64,
    /// Sum of parameter counts.
    pub param_count: u64,
    /// Sum of static memory bytes.
    pub static_bytes: u64,
    /// Sum of activation bytes per in-flight micro-batch.
    pub activation_bytes: u64,
    /// Bytes of the hidden-state tensor this stage hands to the next one
    /// (the boundary tensor the comm model prices per stage).  `0` means
    /// the model's unshrunk residual-stream tensor — the dense default; a
    /// profiler or sweep that models token dropping sets the shrunk size
    /// here.  Deliberately *not* derived from `activation_bytes`: a
    /// stage's internal activation footprint mixes layer types (the
    /// embedding and head hold ~1/17 of a transformer block's
    /// activations), so normalizing the boundary by the mean per-layer
    /// footprint would mis-price every stage containing a special layer.
    pub boundary_bytes: u64,
    /// Number of layers on the stage.
    pub num_layers: usize,
}

impl StageLoad {
    /// Accumulate one layer into the stage.
    pub fn add_layer(&mut self, load: &LayerLoad) {
        self.fwd_time += load.fwd_time;
        self.bwd_time += load.bwd_time;
        self.param_count += load.param_count;
        self.static_bytes += load.static_bytes;
        self.activation_bytes += load.activation_bytes;
        self.num_layers += 1;
    }

    /// Total compute time (forward + backward) per micro-batch.
    pub fn total_time(&self) -> f64 {
        self.fwd_time + self.bwd_time
    }

    /// Whether the stage hosts no layers at all — the state a worker is
    /// left in after DynMo's re-packing releases it.  The simulator
    /// bypasses empty stages with a single direct transfer between their
    /// non-empty neighbours.
    pub fn is_empty(&self) -> bool {
        self.num_layers == 0
    }

    /// Input-gradient half of the backward pass (zero-bubble split
    /// backward).  For transformer blocks the activation-gradient and
    /// weight-gradient matmuls are the same size, so the split is modeled
    /// as an even halving of the profiled backward time.
    pub fn bwd_input_time(&self) -> f64 {
        0.5 * self.bwd_time
    }

    /// Weight-gradient half of the backward pass (zero-bubble split
    /// backward); see [`StageLoad::bwd_input_time`].
    pub fn bwd_weight_time(&self) -> f64 {
        0.5 * self.bwd_time
    }
}

/// Aggregate per-layer loads into per-stage loads under `assignment`
/// (each stage sums its layers in id order).
pub fn aggregate_stage_loads(loads: &[LayerLoad], assignment: &StageAssignment) -> Vec<StageLoad> {
    assert_eq!(
        loads.len(),
        assignment.num_layers(),
        "one layer load per assigned layer"
    );
    assignment
        .ranges()
        .map(|layers| {
            let mut stage = StageLoad::default();
            for load in &loads[layers] {
                stage.add_layer(load);
            }
            stage
        })
        .collect()
}

/// Per-stage boundary retention from a per-layer token-retention profile:
/// a stage hands downstream the residual stream of its *last* layer, so its
/// boundary carries that layer's retention.  Stages hosting no layers stay
/// at 1.0 (they pass the incoming tensor through unchanged).
///
/// The profile may come from a single mechanism or from a composed stack's
/// *merged* update (the element-wise product of the sub-engines'
/// retentions) — either way it is applied to the boundary exactly once
/// here, so stacked token-dropping mechanisms never double-shrink a wire.
pub fn boundary_retention_profile(
    assignment: &StageAssignment,
    token_retention: &[f64],
) -> Vec<f64> {
    assert_eq!(
        token_retention.len(),
        assignment.num_layers(),
        "one retention value per layer"
    );
    assignment
        .ranges()
        .map(|layers| {
            if layers.is_empty() {
                1.0
            } else {
                token_retention[layers.end - 1].clamp(0.0, 1.0)
            }
        })
        .collect()
}

/// Size every stage's outgoing boundary tensor from a per-layer
/// token-retention profile (see [`boundary_retention_profile`]): each
/// stage's boundary is `flat_boundary_bytes` scaled by its boundary
/// layer's retention.  Layerless stages are left at 0 (the flat
/// passthrough default).  `token_retention` comes from the dynamism
/// engine's `LoadUpdate`; an all-ones profile sets every boundary to the
/// flat tensor — the same cost the 0 default prices.  `stages` holds one
/// load per stage of `assignment`.
pub fn apply_boundary_sizes(
    stages: &mut [StageLoad],
    assignment: &StageAssignment,
    token_retention: &[f64],
    flat_boundary_bytes: u64,
) {
    let retention = boundary_retention_profile(assignment, token_retention);
    for (load, retention) in stages.iter_mut().zip(retention) {
        if load.is_empty() {
            continue; // released stage: keep the 0 passthrough default
        }
        load.boundary_bytes = (flat_boundary_bytes as f64 * retention) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(id: usize, fwd: f64, params: u64) -> LayerLoad {
        LayerLoad {
            layer_id: id,
            fwd_time: fwd,
            bwd_time: 2.0 * fwd,
            param_count: params,
            static_bytes: params * 16,
            activation_bytes: 1000,
            migration_bytes: params * 18,
        }
    }

    #[test]
    fn total_time_sums_fwd_and_bwd() {
        let l = load(0, 0.5, 10);
        assert_eq!(l.total_time(), 1.5);
    }

    #[test]
    fn stage_load_accumulates_layers() {
        let mut s = StageLoad::default();
        s.add_layer(&load(0, 1.0, 100));
        s.add_layer(&load(1, 2.0, 200));
        assert_eq!(s.num_layers, 2);
        assert_eq!(s.fwd_time, 3.0);
        assert_eq!(s.bwd_time, 6.0);
        assert_eq!(s.param_count, 300);
        assert_eq!(s.static_bytes, 4800);
        assert_eq!(s.activation_bytes, 2000);
        assert_eq!(s.total_time(), 9.0);
    }

    #[test]
    fn split_backward_halves_sum_to_the_fused_backward() {
        let mut s = StageLoad::default();
        s.add_layer(&load(0, 1.5, 10));
        assert_eq!(s.bwd_input_time() + s.bwd_weight_time(), s.bwd_time);
        assert_eq!(s.bwd_input_time(), s.bwd_weight_time());
    }

    #[test]
    fn only_layerless_stages_are_empty() {
        assert!(StageLoad::default().is_empty());
        let mut s = StageLoad::default();
        s.add_layer(&load(0, 0.0, 0));
        // A stage of frozen/zero-cost layers still hosts layers.
        assert!(!s.is_empty());
    }

    #[test]
    fn aggregation_groups_layers_by_stage() {
        let loads = vec![load(0, 1.0, 10), load(1, 2.0, 20), load(2, 3.0, 30)];
        let stages = aggregate_stage_loads(&loads, &StageAssignment::from_counts(&[2, 1]));
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].num_layers, 2);
        assert_eq!(stages[0].fwd_time, 3.0);
        assert_eq!(stages[1].num_layers, 1);
        assert_eq!(stages[1].param_count, 30);
    }

    #[test]
    fn boundary_sizes_follow_the_last_layer_of_each_stage() {
        let mut stages = vec![StageLoad::default(); 3];
        stages[0].num_layers = 2;
        stages[1].num_layers = 2;
        // Stage 2 is layerless (released) and must keep the 0 default.
        let assignment = StageAssignment::from_counts(&[2, 2, 0]);
        // Tokens exit after layers 1 and 3.
        let retention = [1.0, 0.8, 0.8, 0.5];
        apply_boundary_sizes(&mut stages, &assignment, &retention, 1_000);
        assert_eq!(stages[0].boundary_bytes, 800);
        assert_eq!(stages[1].boundary_bytes, 500);
        assert_eq!(stages[2].boundary_bytes, 0);
        // An all-ones profile prices the flat tensor.
        apply_boundary_sizes(&mut stages, &assignment, &[1.0; 4], 1_000);
        assert_eq!(stages[0].boundary_bytes, 1_000);
        assert_eq!(stages[1].boundary_bytes, 1_000);
    }

    #[test]
    fn boundary_retention_profile_takes_each_stages_last_layer() {
        let assignment = StageAssignment::from_counts(&[2, 2, 0]);
        // A composed (non-monotone) retention product: MoD keeps 1.0 while
        // early exit shrinks — the profile must follow the merged values,
        // clamped into [0, 1].
        let retention = [1.0, 0.7, 1.2, 0.35];
        let profile = boundary_retention_profile(&assignment, &retention);
        assert_eq!(profile, vec![0.7, 0.35, 1.0]);
    }

    #[test]
    fn aggregation_allows_empty_stages() {
        let loads = vec![load(0, 1.0, 10)];
        let stages = aggregate_stage_loads(&loads, &StageAssignment::from_counts(&[0, 0, 1, 0]));
        assert_eq!(stages[0].num_layers, 0);
        assert_eq!(stages[2].num_layers, 1);
        assert_eq!(stages[3].total_time(), 0.0);
    }

    #[test]
    #[should_panic(expected = "one layer load per assigned layer")]
    fn aggregation_requires_matching_lengths() {
        let loads = vec![load(0, 1.0, 10)];
        let _ = aggregate_stage_loads(&loads, &StageAssignment::from_counts(&[1, 1]));
    }
}
