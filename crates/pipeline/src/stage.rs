//! Layer→stage layouts.
//!
//! The layout is the object DynMo's balancers optimize: moving a layer
//! between pipeline stages is exactly rewriting it (and paying the
//! migration cost).  Pipeline parallelism requires every stage to hold one
//! consecutive run of layers, because activations flow front to back, so a
//! [`StageAssignment`] stores one layer count per stage: stage `s` holds
//! the `counts[s]` layers that follow those of stages `0..s`.  Any
//! non-empty count list is such a layout, so no constructor, mutation or
//! parse yields a non-contiguous or out-of-range one.  A stage may hold no
//! layers: re-packing and the balancers leave workers empty, which
//! corresponds to released GPUs.

use std::ops::Range;

use serde::{DeError, Deserialize, Serialize, Value};

/// Where a model's layers run: one consecutive run of layers per pipeline
/// stage, front to back.  The stage count is the number of workers the
/// layout occupies, released ones included.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StageAssignment {
    /// `counts[s]` is the number of layers stage `s` holds; never empty.
    counts: Vec<usize>,
}

impl StageAssignment {
    /// Build a layout from per-stage layer counts, front to back (stage 0
    /// gets the first `counts[0]` layers, and so on).  An empty list gives
    /// one stage holding no layers.
    pub fn from_counts(counts: &[usize]) -> Self {
        let counts = if counts.is_empty() {
            vec![0]
        } else {
            counts.to_vec()
        };
        StageAssignment { counts }
    }

    /// Evenly split `num_layers` layers over `num_stages` stages (the
    /// Megatron-LM static baseline): earlier stages get the remainder.
    ///
    /// # Panics
    ///
    /// When `num_stages` is 0.
    pub fn uniform(num_layers: usize, num_stages: usize) -> Self {
        let base = num_layers / num_stages;
        let extra = num_layers % num_stages;
        let counts = (0..num_stages)
            .map(|s| base + usize::from(s < extra))
            .collect();
        StageAssignment { counts }
    }

    /// Number of pipeline stages (including possibly-empty ones).
    pub fn num_stages(&self) -> usize {
        self.counts.len()
    }

    /// Number of layers covered by the layout.
    pub fn num_layers(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Per-stage layer counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// The layers stage `stage` holds, in model order.
    ///
    /// # Panics
    ///
    /// When `stage` is not a stage of the layout.
    pub fn layers_of(&self, stage: usize) -> Range<usize> {
        let start = self.counts[..stage].iter().sum();
        start..start + self.counts[stage]
    }

    /// Every stage's layers ([`StageAssignment::layers_of`]), front to
    /// back.
    pub fn ranges(&self) -> impl ExactSizeIterator<Item = Range<usize>> + '_ {
        let mut start = 0;
        self.counts.iter().map(move |&count| {
            let layers = start..start + count;
            start = layers.end;
            layers
        })
    }

    /// Move stage `from`'s boundary layer to the adjacent stage `to` (its
    /// first layer when `to` precedes it, its last otherwise) and return
    /// that layer: the one mutation a layout has, and it keeps every stage
    /// one consecutive run.
    pub fn move_boundary_layer(&mut self, from: usize, to: usize) -> Result<usize, String> {
        let stages = self.num_stages();
        if from.max(to) >= stages || from.abs_diff(to) != 1 {
            return Err(format!(
                "stages {from} and {to} are not adjacent stages of {stages}"
            ));
        }
        let layers = self.layers_of(from);
        if layers.is_empty() {
            return Err(format!("stage {from} holds no layers"));
        }
        self.counts[from] -= 1;
        self.counts[to] += 1;
        Ok(if to < from {
            layers.start
        } else {
            layers.end - 1
        })
    }

    /// The set of `(layer, from_stage, to_stage)` moves needed to transform
    /// this layout into `target` (the migration plan the controller
    /// executes after a balancing decision).
    pub fn diff(&self, target: &StageAssignment) -> Vec<(usize, usize, usize)> {
        assert_eq!(
            self.num_layers(),
            target.num_layers(),
            "assignments must cover the same layers"
        );
        self.stage_per_layer()
            .zip(target.stage_per_layer())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(layer, (a, b))| (layer, a, b))
            .collect()
    }

    /// The stage of every layer, in model order.
    fn stage_per_layer(&self) -> impl Iterator<Item = usize> + '_ {
        self.counts
            .iter()
            .enumerate()
            .flat_map(|(stage, &count)| std::iter::repeat_n(stage, count))
    }
}

impl<'de> Deserialize<'de> for StageAssignment {
    /// Parse `{"counts": [...]}`, rejecting an empty count list and counts
    /// whose total overflows, so a parsed layout is as valid as a built
    /// one.
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let entries = value
            .as_map()
            .ok_or_else(|| DeError::expected("map", "StageAssignment", value))?;
        let counts: Vec<usize> = serde::de_field(entries, "counts")?;
        if counts.is_empty() {
            return Err(DeError::message("counts: a layout has at least one stage"));
        }
        if counts
            .iter()
            .try_fold(0usize, |sum, &c| sum.checked_add(c))
            .is_none()
        {
            return Err(DeError::message("counts: the layer total overflows"));
        }
        Ok(StageAssignment { counts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_split_matches_megatron_layout() {
        let a = StageAssignment::uniform(24, 4);
        assert_eq!(a.counts(), [6, 6, 6, 6]);
        // Non-divisible: remainder goes to the earliest stages.
        let a = StageAssignment::uniform(26, 4);
        assert_eq!(a.counts(), [7, 7, 6, 6]);
        assert_eq!(a.num_layers(), 26);
    }

    #[test]
    fn from_counts_builds_contiguous_runs() {
        let a = StageAssignment::from_counts(&[2, 0, 3]);
        assert_eq!(a.num_stages(), 3);
        assert_eq!(a.num_layers(), 5);
        assert_eq!(a.layers_of(0), 0..2);
        assert!(a.layers_of(1).is_empty());
        assert_eq!(a.layers_of(2), 2..5);
        assert_eq!(a.ranges().collect::<Vec<_>>(), vec![0..2, 2..2, 2..5]);
        assert_eq!(a.counts(), [2, 0, 3]);
        // An empty list is one stage holding nothing.
        let empty = StageAssignment::from_counts(&[]);
        assert_eq!((empty.num_stages(), empty.num_layers()), (1, 0));
    }

    #[test]
    fn boundary_moves_keep_the_layout_contiguous() {
        let mut a = StageAssignment::uniform(6, 3);
        assert_eq!(a.move_boundary_layer(1, 2), Ok(3));
        assert_eq!(a.counts(), [2, 1, 3]);
        assert_eq!(a.move_boundary_layer(1, 0), Ok(2));
        assert_eq!(a.counts(), [3, 0, 3]);
        // An empty stage has no boundary layer; only neighbours trade.
        assert!(a.move_boundary_layer(1, 2).is_err());
        assert!(a.move_boundary_layer(0, 2).is_err());
        assert!(a.move_boundary_layer(2, 3).is_err());
        assert!(a.move_boundary_layer(0, 0).is_err());
        assert_eq!(a.counts(), [3, 0, 3]);
    }

    #[test]
    fn diff_lists_exactly_the_changed_layers() {
        let a = StageAssignment::uniform(6, 3);
        let b = StageAssignment::from_counts(&[3, 0, 3]);
        assert_eq!(a.diff(&b), vec![(2, 1, 0), (3, 1, 2)]);
        assert!(a.diff(&a).is_empty());
        // Layouts over different stage counts compare layer by layer.
        let fewer = StageAssignment::from_counts(&[4, 2]);
        assert_eq!(
            a.diff(&fewer),
            vec![(2, 1, 0), (3, 1, 0), (4, 2, 1), (5, 2, 1)]
        );
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
        assert_eq!(a.counts(), [1, 1, 1, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn parsing_round_trips_and_rejects_invalid_layouts() {
        let a = StageAssignment::from_counts(&[2, 0, 3]);
        let text = serde_json::to_string(&a).unwrap();
        assert_eq!(text, r#"{"counts":[2,0,3]}"#);
        assert_eq!(serde_json::from_str::<StageAssignment>(&text).unwrap(), a);
        for bad in [
            r#"{"counts":[]}"#,
            r#"{"counts":[18446744073709551615,1]}"#,
            r#"{"counts":[1,-1]}"#,
            "[1,2]",
        ] {
            assert!(
                serde_json::from_str::<StageAssignment>(bad).is_err(),
                "{bad} parsed"
            );
        }
    }
}
