//! Checkpoint stores: where snapshots live between failure and recovery.
//!
//! The in-memory store persists the *serialized* JSON text (not the live
//! struct), so every `save → load` round-trip exercises the full
//! serialize/deserialize path.

use std::collections::BTreeMap;

use crate::checkpoint::{Checkpoint, CheckpointError};

/// Storage backend for trainer checkpoints, keyed by iteration.
pub trait CheckpointStore {
    /// Persist a checkpoint (overwrites any existing one for the same
    /// iteration).
    fn save(&mut self, checkpoint: &Checkpoint) -> Result<(), CheckpointError>;

    /// Load and verify the checkpoint taken at exactly `iteration`.
    fn load(&self, iteration: u64) -> Result<Checkpoint, CheckpointError>;

    /// Load and verify the newest checkpoint, if any exist.
    fn latest(&self) -> Result<Option<Checkpoint>, CheckpointError>;

    /// Iterations with a stored checkpoint, ascending.
    fn iterations(&self) -> Vec<u64>;

    /// Drop all but the newest `keep` checkpoints; returns how many were
    /// removed.  Bounds storage during long runs.
    fn retain_last(&mut self, keep: usize) -> usize;
}

/// An in-memory store (simulations, tests, and the multi-rank harness,
/// where it stands in for a reachable parallel file system).
#[derive(Debug, Clone, Default)]
pub struct MemoryCheckpointStore {
    serialized: BTreeMap<u64, String>,
}

impl MemoryCheckpointStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of checkpoints held.
    pub fn len(&self) -> usize {
        self.serialized.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.serialized.is_empty()
    }
}

fn decode_and_verify(text: &str) -> Result<Checkpoint, CheckpointError> {
    let checkpoint = Checkpoint::from_json(text)?;
    checkpoint.verify()?;
    Ok(checkpoint)
}

impl CheckpointStore for MemoryCheckpointStore {
    fn save(&mut self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        checkpoint.verify()?;
        self.serialized
            .insert(checkpoint.iteration(), checkpoint.to_json()?);
        Ok(())
    }

    fn load(&self, iteration: u64) -> Result<Checkpoint, CheckpointError> {
        let text = self
            .serialized
            .get(&iteration)
            .ok_or(CheckpointError::NotFound(iteration))?;
        decode_and_verify(text)
    }

    fn latest(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        match self.serialized.iter().next_back() {
            Some((_, text)) => decode_and_verify(text).map(Some),
            None => Ok(None),
        }
    }

    fn iterations(&self) -> Vec<u64> {
        self.serialized.keys().copied().collect()
    }

    fn retain_last(&mut self, keep: usize) -> usize {
        let excess = self.serialized.len().saturating_sub(keep);
        let drop_keys: Vec<u64> = self.serialized.keys().copied().take(excess).collect();
        for key in &drop_keys {
            self.serialized.remove(key);
        }
        drop_keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{LayerState, TrainerState};
    use dynmo_pipeline::StageAssignment;
    use std::collections::BTreeMap;

    fn state(iteration: u64) -> TrainerState {
        TrainerState {
            iteration,
            assignment: StageAssignment::uniform(4, 2),
            layers: (0..4)
                .map(|layer_id| LayerState {
                    layer_id,
                    weights: vec![iteration as f32, layer_id as f32 * 0.5],
                    optimizer: vec![0.0, -0.25],
                    pruning_mask: vec![true, layer_id % 2 == 0],
                    frozen: false,
                    rng_state: iteration ^ layer_id as u64,
                })
                .collect(),
            metrics: BTreeMap::new(),
            engine: None,
        }
    }

    fn checkpoint(iteration: u64) -> Checkpoint {
        Checkpoint::new(state(iteration)).unwrap()
    }

    fn exercise_store(store: &mut dyn CheckpointStore) {
        assert!(store.latest().unwrap().is_none());
        assert_eq!(store.load(5).unwrap_err(), CheckpointError::NotFound(5));

        for iteration in [100, 50, 150, 200] {
            store.save(&checkpoint(iteration)).unwrap();
        }
        assert_eq!(store.iterations(), vec![50, 100, 150, 200]);
        assert_eq!(store.latest().unwrap().unwrap().iteration(), 200);
        let loaded = store.load(100).unwrap();
        assert_eq!(loaded.verify().unwrap(), &state(100));

        // Overwrite is idempotent on the key set.
        store.save(&checkpoint(100)).unwrap();
        assert_eq!(store.iterations().len(), 4);

        assert_eq!(store.retain_last(2), 2);
        assert_eq!(store.iterations(), vec![150, 200]);
        assert_eq!(store.load(50).unwrap_err(), CheckpointError::NotFound(50));
        assert_eq!(store.retain_last(10), 0);
    }

    #[test]
    fn memory_store_full_protocol() {
        let mut store = MemoryCheckpointStore::new();
        exercise_store(&mut store);
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
    }

    #[test]
    fn memory_store_rejects_corrupted_text() {
        let mut store = MemoryCheckpointStore::new();
        store.save(&checkpoint(7)).unwrap();
        let text = store.serialized.get_mut(&7).unwrap();
        *text = text.replace("\"iteration\": 7", "\"iteration\": 8");
        assert!(matches!(
            store.load(7),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }
}
