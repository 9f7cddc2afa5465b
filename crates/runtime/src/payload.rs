//! Message payloads exchanged between simulated ranks.
//!
//! The runtime's callers move three kinds of data between GPUs: layer
//! weights during migration and the top-k magnitudes and threshold of
//! Algorithm 1 (f32), state checksums (u64), and serialized layer states
//! (bytes), plus empty control messages.  The [`Payload`] enum covers these
//! cases with typed vectors.

use crate::error::{Result, RuntimeError};

/// Typed payload carried by a point-to-point message or a collective.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Empty payload (barriers, acknowledgements).
    Empty,
    /// A vector of `f32` values (weights, magnitudes, sums).
    F32(Vec<f32>),
    /// A vector of `u64` values (checksums, float bit patterns).
    U64(Vec<u64>),
    /// Raw bytes (externally serialized structures).
    Bytes(Vec<u8>),
}

impl Payload {
    /// Extract an `f32` vector, or fail with [`RuntimeError::PayloadMismatch`].
    pub fn into_f32(self) -> Result<Vec<f32>> {
        match self {
            Payload::F32(v) => Ok(v),
            other => Err(other.mismatch("F32")),
        }
    }

    /// Extract a `u64` vector, or fail with [`RuntimeError::PayloadMismatch`].
    pub fn into_u64(self) -> Result<Vec<u64>> {
        match self {
            Payload::U64(v) => Ok(v),
            other => Err(other.mismatch("U64")),
        }
    }

    /// Extract raw bytes, or fail with [`RuntimeError::PayloadMismatch`].
    pub fn into_bytes(self) -> Result<Vec<u8>> {
        match self {
            Payload::Bytes(b) => Ok(b),
            other => Err(other.mismatch("Bytes")),
        }
    }

    /// The error for extracting an `expected` vector from this payload.
    fn mismatch(&self, expected: &str) -> RuntimeError {
        let kind = match self {
            Payload::Empty => "Empty",
            Payload::F32(_) => "F32",
            Payload::U64(_) => "U64",
            Payload::Bytes(_) => "Bytes",
        };
        RuntimeError::PayloadMismatch(format!("expected {expected}, got {kind}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_extraction_succeeds_on_matching_variant() {
        assert_eq!(Payload::F32(vec![1.0]).into_f32().unwrap(), vec![1.0]);
        assert_eq!(Payload::U64(vec![1]).into_u64().unwrap(), vec![1]);
        assert_eq!(Payload::Bytes(b"xy".to_vec()).into_bytes().unwrap(), b"xy");
    }

    #[test]
    fn typed_extraction_fails_on_mismatch() {
        let err = Payload::F32(vec![1.0]).into_u64().unwrap_err();
        match err {
            RuntimeError::PayloadMismatch(msg) => {
                assert!(msg.contains("expected U64"));
                assert!(msg.contains("F32"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
