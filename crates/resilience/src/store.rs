//! Checkpoint stores: where snapshots live between failure and recovery.
//!
//! Both implementations persist the *serialized* JSON text (not the live
//! struct), so every `save → load` round-trip exercises the full
//! serialize/deserialize path and a checkpoint read back from memory is
//! byte-identical to one read back from disk.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

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

/// An on-disk store writing one `ckpt-<iteration>.json` file per snapshot.
#[derive(Debug, Clone)]
pub struct DiskCheckpointStore {
    directory: PathBuf,
}

impl DiskCheckpointStore {
    /// Open (creating if needed) a store rooted at `directory`.
    pub fn open(directory: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let directory = directory.into();
        std::fs::create_dir_all(&directory).map_err(|e| CheckpointError::Io(e.to_string()))?;
        Ok(DiskCheckpointStore { directory })
    }

    /// The directory the store writes into.
    pub fn directory(&self) -> &Path {
        &self.directory
    }

    fn path_for(&self, iteration: u64) -> PathBuf {
        self.directory.join(format!("ckpt-{iteration:010}.json"))
    }

    fn scan(&self) -> Vec<u64> {
        let Ok(entries) = std::fs::read_dir(&self.directory) else {
            return Vec::new();
        };
        let mut iterations: Vec<u64> = entries
            .flatten()
            .filter_map(|entry| {
                let name = entry.file_name();
                let name = name.to_str()?;
                let digits = name.strip_prefix("ckpt-")?.strip_suffix(".json")?;
                digits.parse().ok()
            })
            .collect();
        iterations.sort_unstable();
        iterations
    }
}

impl CheckpointStore for DiskCheckpointStore {
    fn save(&mut self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        checkpoint.verify()?;
        let path = self.path_for(checkpoint.iteration());
        // Write-then-rename so a crash mid-write can never leave a torn
        // file under the final name.
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, checkpoint.to_json()?)
            .map_err(|e| CheckpointError::Io(e.to_string()))?;
        std::fs::rename(&tmp, &path).map_err(|e| CheckpointError::Io(e.to_string()))
    }

    fn load(&self, iteration: u64) -> Result<Checkpoint, CheckpointError> {
        let path = self.path_for(iteration);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                CheckpointError::NotFound(iteration)
            } else {
                CheckpointError::Io(e.to_string())
            }
        })?;
        decode_and_verify(&text)
    }

    fn latest(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        match self.scan().last() {
            Some(&iteration) => self.load(iteration).map(Some),
            None => Ok(None),
        }
    }

    fn iterations(&self) -> Vec<u64> {
        self.scan()
    }

    fn retain_last(&mut self, keep: usize) -> usize {
        let iterations = self.scan();
        let excess = iterations.len().saturating_sub(keep);
        let mut removed = 0;
        for &iteration in iterations.iter().take(excess) {
            if std::fs::remove_file(self.path_for(iteration)).is_ok() {
                removed += 1;
            }
        }
        removed
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
            world_size: 2,
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

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dynmo-resilience-{tag}-{}", std::process::id()))
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
    fn disk_store_full_protocol() {
        let dir = temp_dir("protocol");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = DiskCheckpointStore::open(&dir).unwrap();
        exercise_store(&mut store);
        // A fresh handle over the same directory sees the same snapshots.
        let reopened = DiskCheckpointStore::open(&dir).unwrap();
        assert_eq!(reopened.iterations(), vec![150, 200]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_rejects_corrupted_files() {
        let dir = temp_dir("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = DiskCheckpointStore::open(&dir).unwrap();
        store.save(&checkpoint(7)).unwrap();
        let path = dir.join("ckpt-0000000007.json");
        let mut text = std::fs::read_to_string(&path).unwrap();
        text = text.replace("\"iteration\": 7", "\"iteration\": 8");
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            store.load(7),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stores_agree_byte_for_byte() {
        let dir = temp_dir("parity");
        let _ = std::fs::remove_dir_all(&dir);
        let mut memory = MemoryCheckpointStore::new();
        let mut disk = DiskCheckpointStore::open(&dir).unwrap();
        let ckpt = checkpoint(42);
        memory.save(&ckpt).unwrap();
        disk.save(&ckpt).unwrap();
        assert_eq!(memory.load(42).unwrap(), disk.load(42).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
