//! Layer→stage assignments.
//!
//! The assignment is the object DynMo's balancers optimize: moving a layer
//! between pipeline stages is exactly rewriting this map (and paying the
//! migration cost).  Pipeline parallelism requires the assignment to be
//! *contiguous* — stage `s` holds a consecutive run of layers — because
//! activations flow front-to-back; re-packing may leave later stages empty,
//! which corresponds to released GPUs.

use serde::{Deserialize, Serialize};

/// A mapping of model layers onto pipeline stages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageAssignment {
    num_stages: usize,
    /// `layer_to_stage[i]` is the stage holding layer `i`.
    layer_to_stage: Vec<usize>,
}

impl StageAssignment {
    /// Build an assignment from an explicit layer→stage map.
    pub fn new(num_stages: usize, layer_to_stage: Vec<usize>) -> Result<Self, String> {
        if num_stages == 0 {
            return Err("num_stages must be positive".into());
        }
        for (layer, &stage) in layer_to_stage.iter().enumerate() {
            if stage >= num_stages {
                return Err(format!(
                    "layer {layer} assigned to stage {stage}, but there are only {num_stages} stages"
                ));
            }
        }
        Ok(StageAssignment {
            num_stages,
            layer_to_stage,
        })
    }

    /// Build an assignment from per-stage layer *counts*, front to back
    /// (stage 0 gets the first `counts[0]` layers, and so on).
    pub fn from_counts(counts: &[usize]) -> Self {
        let num_stages = counts.len().max(1);
        let mut layer_to_stage = Vec::with_capacity(counts.iter().sum());
        for (stage, &count) in counts.iter().enumerate() {
            for _ in 0..count {
                layer_to_stage.push(stage);
            }
        }
        StageAssignment {
            num_stages,
            layer_to_stage,
        }
    }

    /// Evenly split `num_layers` layers over `num_stages` stages (the
    /// Megatron-LM static baseline): earlier stages get the remainder.
    pub fn uniform(num_layers: usize, num_stages: usize) -> Self {
        let base = num_layers / num_stages;
        let extra = num_layers % num_stages;
        let counts: Vec<usize> = (0..num_stages)
            .map(|s| base + usize::from(s < extra))
            .collect();
        Self::from_counts(&counts)
    }

    /// Number of pipeline stages (including possibly-empty ones).
    pub fn num_stages(&self) -> usize {
        self.num_stages
    }

    /// Number of layers covered by the assignment.
    pub fn num_layers(&self) -> usize {
        self.layer_to_stage.len()
    }

    /// The stage holding `layer`.
    pub fn stage_of(&self, layer: usize) -> usize {
        self.layer_to_stage[layer]
    }

    /// The full layer→stage map.
    pub fn layer_to_stage(&self) -> &[usize] {
        &self.layer_to_stage
    }

    /// The layers assigned to `stage`, in model order.
    pub fn layers_of(&self, stage: usize) -> Vec<usize> {
        self.layer_to_stage
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == stage)
            .map(|(l, _)| l)
            .collect()
    }

    /// Per-stage layer counts.
    pub fn counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_stages];
        for &s in &self.layer_to_stage {
            counts[s] += 1;
        }
        counts
    }

    /// Whether the assignment is contiguous: every stage's layers form one
    /// consecutive run and stage indices are non-decreasing front-to-back.
    pub fn is_contiguous(&self) -> bool {
        self.layer_to_stage.windows(2).all(|w| w[0] <= w[1])
    }

    /// Move `layer` to `target_stage`, returning the previous stage.
    pub fn move_layer(&mut self, layer: usize, target_stage: usize) -> Result<usize, String> {
        if target_stage >= self.num_stages {
            return Err(format!(
                "target stage {target_stage} out of range ({} stages)",
                self.num_stages
            ));
        }
        if layer >= self.layer_to_stage.len() {
            return Err(format!("layer {layer} out of range"));
        }
        let prev = self.layer_to_stage[layer];
        self.layer_to_stage[layer] = target_stage;
        Ok(prev)
    }

    /// The set of `(layer, from_stage, to_stage)` moves needed to transform
    /// this assignment into `target` (the migration plan the controller
    /// executes after a balancing decision).
    pub fn diff(&self, target: &StageAssignment) -> Vec<(usize, usize, usize)> {
        assert_eq!(
            self.num_layers(),
            target.num_layers(),
            "assignments must cover the same layers"
        );
        self.layer_to_stage
            .iter()
            .zip(target.layer_to_stage.iter())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(layer, (&a, &b))| (layer, a, b))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_split_matches_megatron_layout() {
        let a = StageAssignment::uniform(24, 4);
        assert_eq!(a.counts(), vec![6, 6, 6, 6]);
        assert!(a.is_contiguous());
        // Non-divisible: remainder goes to the earliest stages.
        let a = StageAssignment::uniform(26, 4);
        assert_eq!(a.counts(), vec![7, 7, 6, 6]);
        assert_eq!(a.num_layers(), 26);
    }

    #[test]
    fn from_counts_builds_contiguous_runs() {
        let a = StageAssignment::from_counts(&[2, 0, 3]);
        assert_eq!(a.num_stages(), 3);
        assert_eq!(a.layer_to_stage(), &[0, 0, 2, 2, 2]);
        assert_eq!(a.layers_of(1), Vec::<usize>::new());
        assert_eq!(a.layers_of(2), vec![2, 3, 4]);
        assert_eq!(a.counts(), vec![2, 0, 3]);
        assert!(a.is_contiguous());
    }

    #[test]
    fn new_validates_stage_indices() {
        assert!(StageAssignment::new(2, vec![0, 1, 1]).is_ok());
        assert!(StageAssignment::new(2, vec![0, 2]).is_err());
        assert!(StageAssignment::new(0, vec![]).is_err());
    }

    #[test]
    fn move_layer_updates_the_map() {
        let mut a = StageAssignment::uniform(6, 3);
        assert_eq!(a.stage_of(5), 2);
        let prev = a.move_layer(5, 0).unwrap();
        assert_eq!(prev, 2);
        assert_eq!(a.stage_of(5), 0);
        assert!(!a.is_contiguous());
        assert!(a.move_layer(5, 9).is_err());
        assert!(a.move_layer(99, 0).is_err());
    }

    #[test]
    fn diff_lists_exactly_the_changed_layers() {
        let a = StageAssignment::uniform(6, 3);
        let mut b = a.clone();
        b.move_layer(2, 2).unwrap();
        b.move_layer(3, 0).unwrap();
        let moves = a.diff(&b);
        assert_eq!(moves, vec![(2, 1, 2), (3, 1, 0)]);
        assert!(a.diff(&a).is_empty());
    }

    #[test]
    #[should_panic(expected = "same layers")]
    fn diff_requires_matching_layer_counts() {
        let a = StageAssignment::uniform(6, 3);
        let b = StageAssignment::uniform(7, 3);
        let _ = a.diff(&b);
    }

    #[test]
    fn uniform_with_more_stages_than_layers_leaves_empty_stages() {
        let a = StageAssignment::uniform(3, 8);
        assert_eq!(a.num_layers(), 3);
        assert_eq!(a.counts(), vec![1, 1, 1, 0, 0, 0, 0, 0]);
    }
}
