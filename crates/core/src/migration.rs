//! Layer migration between workers.
//!
//! After a balancing or re-packing decision, the layers that changed stage
//! must physically move: weights, gradients, optimizer state and (for pruned
//! layers) CSR index structures.  The paper couples these transfers with the
//! backward pass of the pipeline schedule (§3.3.1) and reports their cost as
//! the "migration" slice of the overhead breakdown.  This module computes
//! the migration plan and its cost, and can execute the byte movement for
//! real over the `dynmo-runtime` fabric (used by integration tests to make
//! sure the plan is actually executable).

use dynmo_pipeline::{CommCostModel, LayerLoad, StageAssignment};
use dynmo_runtime::{Communicator, Payload, Result as RtResult};
use serde::{Deserialize, Serialize};

/// One layer movement between two workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationStep {
    /// The layer being moved.
    pub layer: usize,
    /// Stage currently holding the layer.
    pub from_stage: usize,
    /// Stage that will hold the layer.
    pub to_stage: usize,
    /// Bytes that must be transferred.
    pub bytes: u64,
}

/// A full migration plan between two assignments.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MigrationPlan {
    /// The individual layer movements.
    pub steps: Vec<MigrationStep>,
}

impl MigrationPlan {
    /// Build the plan that transforms `from` into `to`, using `loads` for
    /// per-layer byte counts.
    pub fn between(from: &StageAssignment, to: &StageAssignment, loads: &[LayerLoad]) -> Self {
        let steps = from
            .diff(to)
            .into_iter()
            .map(|(layer, from_stage, to_stage)| MigrationStep {
                layer,
                from_stage,
                to_stage,
                bytes: loads[layer].migration_bytes,
            })
            .collect();
        MigrationPlan { steps }
    }

    /// Whether any layer actually moves.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of layers moved.
    pub fn num_moves(&self) -> usize {
        self.steps.len()
    }

    /// Wall-clock cost of the migration under `comm`.  Transfers between
    /// distinct worker pairs proceed in parallel (they use disjoint links),
    /// so the cost is the maximum over pairs of the per-pair serialized
    /// transfer time.
    pub fn cost(&self, comm: &CommCostModel) -> f64 {
        use std::collections::HashMap;
        let mut per_pair: HashMap<(usize, usize), f64> = HashMap::new();
        for step in &self.steps {
            let time = comm.migration_time(step.bytes, step.from_stage, step.to_stage);
            *per_pair
                .entry((step.from_stage, step.to_stage))
                .or_insert(0.0) += time;
        }
        per_pair.values().copied().fold(0.0, f64::max)
    }

    /// Execute the plan over a communicator whose local rank `my_stage`
    /// corresponds to a pipeline stage.  `layer_data` provides the payload
    /// for each layer this rank currently owns; the function returns the
    /// payloads this rank received (the layers it now owns).
    ///
    /// Every stage participating in the communicator must call this
    /// collectively.  Tags encode the layer id so concurrent transfers
    /// between the same pair of stages do not collide.
    pub fn execute(
        &self,
        comm: &Communicator,
        my_stage: usize,
        layer_data: &dyn Fn(usize) -> Vec<f32>,
    ) -> RtResult<Vec<(usize, Vec<f32>)>> {
        // Sends first (non-blocking fabric), then receives.
        for step in &self.steps {
            if step.from_stage == my_stage {
                let payload = Payload::F32(layer_data(step.layer));
                comm.send(step.to_stage, step.layer as u32, payload)?;
            }
        }
        let mut received = Vec::new();
        for step in &self.steps {
            if step.to_stage == my_stage {
                let payload = comm.recv(step.from_stage, step.layer as u32)?;
                received.push((step.layer, payload.into_f32()?));
            }
        }
        Ok(received)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmo_model::{ClusterConfig, DeviceSpec};
    use dynmo_runtime::launch;

    fn loads(n: usize, bytes: u64) -> Vec<LayerLoad> {
        (0..n)
            .map(|i| LayerLoad {
                layer_id: i,
                fwd_time: 1.0,
                bwd_time: 2.0,
                param_count: 10,
                static_bytes: bytes,
                activation_bytes: 0,
                migration_bytes: bytes,
            })
            .collect()
    }

    fn comm_model() -> CommCostModel {
        CommCostModel::new(ClusterConfig::homogeneous(4, 4, 1, DeviceSpec::h100_sxm5()))
    }

    #[test]
    fn plan_between_identical_assignments_is_empty() {
        let a = StageAssignment::uniform(8, 4);
        let plan = MigrationPlan::between(&a, &a, &loads(8, 100));
        assert!(plan.is_empty());
        assert_eq!(plan.cost(&comm_model()), 0.0);
    }

    #[test]
    fn plan_lists_moved_layers_with_bytes() {
        let a = StageAssignment::uniform(8, 4);
        // Layer 1 moves 0→1 and layer 5 moves 2→3.
        let b = StageAssignment::from_counts(&[1, 3, 1, 3]);
        let plan = MigrationPlan::between(&a, &b, &loads(8, 1_000));
        assert_eq!(plan.num_moves(), 2);
        assert!(plan.steps.iter().all(|s| s.bytes == 1_000));
        assert!(plan.cost(&comm_model()) > 0.0);
        let layers: Vec<usize> = plan.steps.iter().map(|s| s.layer).collect();
        assert_eq!(layers, vec![1, 5]);
    }

    #[test]
    fn cost_parallelizes_across_distinct_pairs() {
        let a = StageAssignment::uniform(8, 4);
        // Plan 1: layers 0 and 1 both move 0→1 (serialized on one link).
        let serial = StageAssignment::from_counts(&[0, 4, 2, 2]);
        // Plan 2: layer 1 moves 0→1 and layer 5 moves 2→3 (different pairs).
        let parallel = StageAssignment::from_counts(&[1, 3, 1, 3]);
        let l = loads(8, 100_000_000);
        let comm = comm_model();
        let serial_cost = MigrationPlan::between(&a, &serial, &l).cost(&comm);
        let parallel_cost = MigrationPlan::between(&a, &parallel, &l).cost(&comm);
        assert!(serial_cost > parallel_cost * 1.5);
    }

    #[test]
    fn execute_moves_layer_payloads_between_ranks() {
        // 4 stages; layers 0..7 uniformly assigned; rebalance moves layer 1
        // from stage 0 to stage 1 and layer 5 from stage 2 to stage 3.
        let from = StageAssignment::uniform(8, 4);
        let to = StageAssignment::from_counts(&[1, 3, 1, 3]);
        let plan = MigrationPlan::between(&from, &to, &loads(8, 16));
        let results = launch(4, move |ctx| {
            let comm = ctx.world();
            let my_stage = ctx.rank();
            let data = |layer: usize| vec![layer as f32; 4];
            plan.execute(&comm, my_stage, &data).unwrap()
        })
        .unwrap();
        // Stage 1 received layer 1; stage 3 received layer 5.
        assert_eq!(results[1], vec![(1, vec![1.0; 4])]);
        assert_eq!(results[3], vec![(5, vec![5.0; 4])]);
        assert!(results[0].is_empty());
        assert!(results[2].is_empty());
    }
}
