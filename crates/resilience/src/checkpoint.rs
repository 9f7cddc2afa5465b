//! Versioned trainer-state snapshots.
//!
//! A [`Checkpoint`] captures everything needed to resume a DynMo training
//! job after a rank failure or an elastic re-scale: the pipeline layout
//! (one layer count per stage, so also the number of workers), per-layer
//! weight and optimizer proxies, pruning masks, frozen flags, and per-layer
//! RNG stream positions.  The snapshot is
//! serde-serialized (JSON through the workspace shims), versioned, and
//! checksummed, so an incompatible or torn checkpoint is rejected at restore
//! time instead of silently corrupting the run.

use std::collections::BTreeMap;
use std::fmt;

use dynmo_dynamics::EngineState;
use dynmo_pipeline::StageAssignment;
use serde::{Deserialize, Serialize};

/// Current checkpoint format version.  Bump on any incompatible change to
/// [`TrainerState`]'s serialized shape.
///
/// * v1 — assignment, per-layer proxies, metrics.
/// * v2 — adds the optional `engine` snapshot: the dynamism stack's own
///   state (each sub-engine's RNG streams and masks versioned
///   independently), so composite runs replay bit-for-bit after recovery.
/// * v3 — the assignment is per-stage layer counts (`{"counts": [...]}`)
///   instead of a layer→stage map, so a parsed layout is contiguous and in
///   range; `world_size` is dropped, since the layout's stage count is the
///   worker count.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Errors raised by checkpoint creation, validation, and the stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the serialized checkpoint.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The state does not hash to the recorded checksum (torn/corrupt data).
    ChecksumMismatch {
        /// Checksum recorded in the checkpoint.
        recorded: u64,
        /// Checksum recomputed from the state.
        computed: u64,
    },
    /// The serialized form could not be parsed back into a checkpoint.
    Corrupt(String),
    /// No checkpoint exists for the requested iteration.
    NotFound(u64),
    /// The trainer state violates a structural invariant.
    Invalid(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::VersionMismatch { found, expected } => {
                write!(
                    f,
                    "checkpoint version {found} is not the supported {expected}"
                )
            }
            CheckpointError::ChecksumMismatch { recorded, computed } => write!(
                f,
                "checkpoint checksum mismatch: recorded {recorded:#018x}, computed {computed:#018x}"
            ),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::NotFound(iteration) => {
                write!(f, "no checkpoint stored for iteration {iteration}")
            }
            CheckpointError::Invalid(msg) => write!(f, "invalid trainer state: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Snapshot of one model layer's training state.
///
/// The weight and optimizer vectors are *proxies*: the simulation does not
/// train a real network, but the recovery protocol must still move, restore,
/// and verify per-layer payloads of realistic shape, so each layer carries a
/// small dense state that evolves deterministically during training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerState {
    /// Model layer id (position in the model).
    pub layer_id: usize,
    /// Weight proxy values.
    pub weights: Vec<f32>,
    /// Optimizer first-moment proxy, same shape as `weights`.
    pub optimizer: Vec<f32>,
    /// Pruning mask: `true` = parameter kept, same shape as `weights`.
    pub pruning_mask: Vec<bool>,
    /// Whether the layer is frozen (no longer updated).
    pub frozen: bool,
    /// The layer's RNG stream position (SplitMix64 state), so replayed
    /// iterations draw the same noise the original run drew.
    pub rng_state: u64,
}

impl LayerState {
    /// Fraction of parameters still present under the pruning mask.
    pub fn retention(&self) -> f64 {
        if self.pruning_mask.is_empty() {
            return 1.0;
        }
        self.pruning_mask.iter().filter(|&&k| k).count() as f64 / self.pruning_mask.len() as f64
    }

    /// Approximate serialized payload size in bytes (weights + optimizer at
    /// 4 bytes each, mask at 1, plus fixed fields).
    pub fn size_bytes(&self) -> u64 {
        (self.weights.len() * 4 + self.optimizer.len() * 4 + self.pruning_mask.len()) as u64 + 24
    }
}

/// The complete restorable state of a training job at an iteration
/// boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainerState {
    /// The next iteration to execute: the snapshot contains every update up
    /// to (excluding) this iteration, so a restore resumes exactly here.
    pub iteration: u64,
    /// The pipeline layout in effect: one stage per active worker.
    pub assignment: StageAssignment,
    /// Per-layer state, indexed by layer id.
    pub layers: Vec<LayerState>,
    /// Scalar training metrics carried across recovery (loss, imbalance,
    /// tokens processed, ...), keyed by metric name.
    pub metrics: BTreeMap<String, f64>,
    /// Snapshot of the dynamism engine (or composed stack) driving the run:
    /// every sub-engine's RNG stream positions, masks, and counters, each
    /// versioned independently.  `None` for runs that restore the model
    /// state only (the v1 behaviour).
    pub engine: Option<EngineState>,
}

impl TrainerState {
    /// Validate structural invariants before checkpointing or after restore.
    pub fn validate(&self) -> Result<(), CheckpointError> {
        if self.assignment.num_layers() != self.layers.len() {
            return Err(CheckpointError::Invalid(format!(
                "assignment covers {} layers but {} layer states are present",
                self.assignment.num_layers(),
                self.layers.len()
            )));
        }
        for (index, layer) in self.layers.iter().enumerate() {
            if layer.layer_id != index {
                return Err(CheckpointError::Invalid(format!(
                    "layer state {index} carries id {}",
                    layer.layer_id
                )));
            }
            if layer.optimizer.len() != layer.weights.len()
                || layer.pruning_mask.len() != layer.weights.len()
            {
                return Err(CheckpointError::Invalid(format!(
                    "layer {index}: weights/optimizer/mask lengths differ"
                )));
            }
            // Non-finite values serialize to JSON `null` and can never be
            // restored — reject them at save time, where the failure is
            // loud and the run is still healthy, instead of at recovery
            // time, when the checkpoint is the only copy left.
            if layer
                .weights
                .iter()
                .chain(&layer.optimizer)
                .any(|v| !v.is_finite())
            {
                return Err(CheckpointError::Invalid(format!(
                    "layer {index}: non-finite weight/optimizer value"
                )));
            }
        }
        if let Some((name, _)) = self.metrics.iter().find(|(_, v)| !v.is_finite()) {
            return Err(CheckpointError::Invalid(format!(
                "metric {name} is non-finite"
            )));
        }
        Ok(())
    }

    /// Approximate serialized size in bytes, the quantity the checkpoint
    /// cost model charges for.
    pub fn size_bytes(&self) -> u64 {
        self.layers.iter().map(LayerState::size_bytes).sum::<u64>()
            + (self.assignment.num_layers() * 8) as u64
            + (self.metrics.len() * 16) as u64
            + self.engine.as_ref().map_or(0, engine_state_bytes)
            + 64
    }
}

/// Approximate serialized size of an engine snapshot (recursing into a
/// composite stack's children).
fn engine_state_bytes(state: &EngineState) -> u64 {
    (state.name.len()
        + state.rng_streams.len() * 8
        + state.flags.len()
        + state.counters.len() * 8
        + state.scalars.len() * 8
        + 16) as u64
        + state.children.iter().map(engine_state_bytes).sum::<u64>()
}

/// A versioned, checksummed [`TrainerState`] snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version ([`CHECKPOINT_VERSION`] at write time).
    pub version: u32,
    /// FNV-1a checksum of the canonical serialized state.
    pub checksum: u64,
    /// The snapshot itself.
    pub state: TrainerState,
}

impl Checkpoint {
    /// Wrap `state` into a checkpoint, stamping the current format version
    /// and the state's checksum.  Fails if the state is structurally
    /// invalid.
    pub fn new(state: TrainerState) -> Result<Self, CheckpointError> {
        state.validate()?;
        let checksum = state_checksum(&state);
        Ok(Checkpoint {
            version: CHECKPOINT_VERSION,
            checksum,
            state,
        })
    }

    /// The iteration this checkpoint was captured after.
    pub fn iteration(&self) -> u64 {
        self.state.iteration
    }

    /// Verify version and checksum, returning the state on success.
    pub fn verify(&self) -> Result<&TrainerState, CheckpointError> {
        if self.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: self.version,
                expected: CHECKPOINT_VERSION,
            });
        }
        let computed = state_checksum(&self.state);
        if computed != self.checksum {
            return Err(CheckpointError::ChecksumMismatch {
                recorded: self.checksum,
                computed,
            });
        }
        self.state.validate()?;
        Ok(&self.state)
    }

    /// Serialize to the canonical JSON text the stores persist.
    pub fn to_json(&self) -> Result<String, CheckpointError> {
        serde_json::to_string_pretty(self).map_err(|e| CheckpointError::Corrupt(e.to_string()))
    }

    /// Parse a checkpoint back from its JSON text (does not verify; call
    /// [`Checkpoint::verify`] on the result).  Text that does not parse as
    /// this format but names another format version is a
    /// [`CheckpointError::VersionMismatch`], not corruption.
    pub fn from_json(text: &str) -> Result<Self, CheckpointError> {
        let value =
            serde_json::parse_value(text).map_err(|e| CheckpointError::Corrupt(e.to_string()))?;
        Checkpoint::from_value(&value).map_err(|e| {
            let version = value.as_map().map(|m| serde::de_field::<u32>(m, "version"));
            match version {
                Some(Ok(found)) if found != CHECKPOINT_VERSION => {
                    CheckpointError::VersionMismatch {
                        found,
                        expected: CHECKPOINT_VERSION,
                    }
                }
                _ => CheckpointError::Corrupt(e.to_string()),
            }
        })
    }
}

/// Incremental FNV-1a writer — the streaming form of [`fnv1a`], for
/// consumers (the trainer's trajectory checksum) that hash across many
/// calls and checkpoint the running state in between.  Keeping the
/// constants in one place means every subsystem's "bit-identical" claim is
/// backed by the same primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A writer at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Rebuild a writer at a running state captured with [`Fnv1a::state`]
    /// (checkpoint restore).
    pub fn from_state(state: u64) -> Self {
        Fnv1a(state)
    }

    /// Fold `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The current hash value / resumable running state.
    pub fn state(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a over a byte stream — the checksum primitive shared by the
/// checkpoint subsystem and the recovery harness in `dynmo-core`.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = Fnv1a::new();
    for byte in bytes {
        hash.write(&[byte]);
    }
    hash.state()
}

/// FNV-1a over the canonical (compact) JSON serialization of the state.
/// Serializing before hashing keeps the checksum stable across in-memory
/// representations and exactly matches what the stores persist.
fn state_checksum(state: &TrainerState) -> u64 {
    fnv1a(serde_json::to_string(state).unwrap_or_default().bytes())
}

/// Analytic cost model for checkpoint writes and restores, mirroring the
/// style of the pipeline crate's communication model: a fixed coordination
/// overhead plus bytes over bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointCostModel {
    /// Sustained checkpoint write bandwidth in bytes/second (parallel file
    /// system or object store).
    pub write_bandwidth: f64,
    /// Sustained restore read bandwidth in bytes/second.
    pub read_bandwidth: f64,
    /// Fixed per-operation overhead in seconds (quiesce + metadata commit).
    pub fixed_overhead: f64,
}

impl Default for CheckpointCostModel {
    /// Defaults shaped after a DGX-class node writing to a parallel FS:
    /// 2 GB/s write, 5 GB/s read, 50 ms coordination overhead.
    fn default() -> Self {
        CheckpointCostModel {
            write_bandwidth: 2.0e9,
            read_bandwidth: 5.0e9,
            fixed_overhead: 0.05,
        }
    }
}

impl CheckpointCostModel {
    /// Simulated seconds to write a snapshot of `bytes`.
    pub fn write_cost(&self, bytes: u64) -> f64 {
        self.fixed_overhead + bytes as f64 / self.write_bandwidth.max(1.0)
    }

    /// Simulated seconds to read a snapshot of `bytes` back.
    pub fn read_cost(&self, bytes: u64) -> f64 {
        self.fixed_overhead + bytes as f64 / self.read_bandwidth.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_serialization_is_stable_across_a_round_trip() {
        // The checksum hashes the compact JSON text, so a state must
        // serialize to byte-identical text before and after a round trip
        // (this is what caught the parser's negative-zero regression).
        let state = sample_state(120, 8, 4);
        let before = serde_json::to_string(&state).unwrap();
        let checkpoint = Checkpoint::new(state).unwrap();
        let back = Checkpoint::from_json(&checkpoint.to_json().unwrap()).unwrap();
        let after = serde_json::to_string(&back.state).unwrap();
        assert_eq!(before, after);
    }

    pub(crate) fn sample_state(iteration: u64, num_layers: usize, stages: usize) -> TrainerState {
        let layers = (0..num_layers)
            .map(|layer_id| LayerState {
                layer_id,
                weights: (0..6).map(|i| (layer_id * 7 + i) as f32 * 0.25).collect(),
                optimizer: (0..6).map(|i| (layer_id + i) as f32 * -0.125).collect(),
                pruning_mask: (0..6).map(|i| (layer_id + i) % 3 != 0).collect(),
                frozen: layer_id % 4 == 0,
                rng_state: 0x1234_5678_9abc_def0 ^ layer_id as u64,
            })
            .collect();
        let mut metrics = BTreeMap::new();
        metrics.insert("loss".to_string(), 2.75);
        metrics.insert("imbalance".to_string(), 0.0625);
        TrainerState {
            iteration,
            assignment: StageAssignment::uniform(num_layers, stages),
            layers,
            metrics,
            engine: None,
        }
    }

    #[test]
    fn checkpoint_round_trips_and_verifies() {
        let state = sample_state(120, 8, 4);
        let checkpoint = Checkpoint::new(state.clone()).unwrap();
        assert_eq!(checkpoint.version, CHECKPOINT_VERSION);
        assert_eq!(checkpoint.iteration(), 120);
        let text = checkpoint.to_json().unwrap();
        let back = Checkpoint::from_json(&text).unwrap();
        assert_eq!(back.verify().unwrap(), &state);
        assert_eq!(back, checkpoint);
    }

    #[test]
    fn tampered_state_fails_the_checksum() {
        let mut checkpoint = Checkpoint::new(sample_state(10, 4, 2)).unwrap();
        checkpoint.state.layers[1].weights[0] += 1.0;
        assert!(matches!(
            checkpoint.verify(),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut checkpoint = Checkpoint::new(sample_state(10, 4, 2)).unwrap();
        checkpoint.version = CHECKPOINT_VERSION + 1;
        assert_eq!(
            checkpoint.verify().unwrap_err(),
            CheckpointError::VersionMismatch {
                found: CHECKPOINT_VERSION + 1,
                expected: CHECKPOINT_VERSION,
            }
        );
    }

    #[test]
    fn structural_invariants_are_enforced() {
        let mut state = sample_state(5, 4, 2);
        state.layers[2].optimizer.pop();
        assert!(matches!(
            Checkpoint::new(state),
            Err(CheckpointError::Invalid(_))
        ));

        let mut state = sample_state(5, 4, 2);
        state.layers.swap(0, 1);
        assert!(Checkpoint::new(state).is_err());

        // A layout over five layers for four layer states.
        let mut state = sample_state(5, 4, 2);
        state.assignment = StageAssignment::from_counts(&[2, 3]);
        assert!(matches!(
            Checkpoint::new(state),
            Err(CheckpointError::Invalid(_))
        ));

        // Non-finite values would serialize to `null` and be unrestorable;
        // they must be rejected while the run is still healthy.
        let mut state = sample_state(5, 4, 2);
        state.layers[1].weights[2] = f32::NAN;
        assert!(Checkpoint::new(state).is_err());
        let mut state = sample_state(5, 4, 2);
        state.layers[0].optimizer[0] = f32::INFINITY;
        assert!(Checkpoint::new(state).is_err());
        let mut state = sample_state(5, 4, 2);
        state.metrics.insert("loss".to_string(), f64::NAN);
        assert!(Checkpoint::new(state).is_err());
    }

    #[test]
    fn retention_tracks_the_mask() {
        let state = sample_state(1, 3, 1);
        for layer in &state.layers {
            let kept = layer.pruning_mask.iter().filter(|&&k| k).count();
            assert!((layer.retention() - kept as f64 / 6.0).abs() < 1e-12);
        }
        let empty = LayerState {
            layer_id: 0,
            weights: vec![],
            optimizer: vec![],
            pruning_mask: vec![],
            frozen: false,
            rng_state: 0,
        };
        assert_eq!(empty.retention(), 1.0);
    }

    #[test]
    fn cost_model_scales_with_size() {
        let model = CheckpointCostModel::default();
        let state = sample_state(1, 16, 4);
        let small = model.write_cost(state.size_bytes());
        let large = model.write_cost(state.size_bytes() * 1000);
        assert!(small >= model.fixed_overhead);
        assert!(large > small);
        assert!(model.read_cost(state.size_bytes()) < model.write_cost(state.size_bytes()));
    }

    #[test]
    fn layouts_no_pipeline_can_run_are_errors_not_panics() {
        let checkpoint = Checkpoint::new(sample_state(9, 4, 4)).unwrap();
        let text = checkpoint.to_json().unwrap();
        let with_layout = |layout: &str| {
            let at = text.find("\"assignment\"").unwrap();
            let end = at + text[at..].find('}').unwrap();
            format!(
                "{}\"assignment\": {layout}{}",
                &text[..at],
                &text[end + 1..]
            )
        };
        assert_eq!(
            Checkpoint::from_json(&with_layout(r#"{"counts": [1, 1, 1, 1]}"#)).unwrap(),
            checkpoint
        );
        // No stage at all, and the version-2 map with its last layer on
        // stage 9 of 4.
        for layout in [
            r#"{"counts": []}"#,
            r#"{"num_stages": 4, "layer_to_stage": [0, 1, 2, 9]}"#,
        ] {
            assert!(matches!(
                Checkpoint::from_json(&with_layout(layout)),
                Err(CheckpointError::Corrupt(_))
            ));
        }
        // The version-2 layout in a version-2 checkpoint names its version.
        let v2 = with_layout(r#"{"num_stages": 4, "layer_to_stage": [0, 1, 2, 3]}"#).replacen(
            &format!("\"version\": {CHECKPOINT_VERSION}"),
            "\"version\": 2",
            1,
        );
        assert_eq!(
            Checkpoint::from_json(&v2).unwrap_err(),
            CheckpointError::VersionMismatch {
                found: 2,
                expected: CHECKPOINT_VERSION
            }
        );
        // A layout over five layers for four layer states.
        let five = Checkpoint::from_json(&with_layout(r#"{"counts": [2, 3]}"#)).unwrap();
        assert!(five.verify().is_err());
    }

    #[test]
    fn corrupt_json_is_reported_not_panicked() {
        assert!(matches!(
            Checkpoint::from_json("{\"version\": 1, \"checksum\": oops"),
            Err(CheckpointError::Corrupt(_))
        ));
        // A deeply nested document is rejected, not a stack overflow.
        assert!(matches!(
            Checkpoint::from_json(&"[".repeat(100_000)),
            Err(CheckpointError::Corrupt(_))
        ));
    }
}
