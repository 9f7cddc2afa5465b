//! Message payloads exchanged between simulated ranks.
//!
//! The paper moves several kinds of data between GPUs: layer weights and
//! optimizer state during migration (f32), CSR row offsets and column
//! indices after pruning (u32/u64), top-k magnitude values during global
//! pruning (f32) and keep-indices (u64), plus small control messages.  The
//! [`Payload`] enum covers these cases with typed vectors and a raw byte
//! variant for anything serialized externally.

use crate::error::{Result, RuntimeError};

/// Typed payload carried by a point-to-point message or a collective.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Empty payload (barriers, acknowledgements).
    Empty,
    /// A vector of `f32` values (weights, gradients, timing samples).
    F32(Vec<f32>),
    /// A vector of `f64` values (high-precision reductions).
    F64(Vec<f64>),
    /// A vector of `u32` values (CSR column indices, small counts).
    U32(Vec<u32>),
    /// A vector of `u64` values (global parameter indices, sizes).
    U64(Vec<u64>),
    /// Raw bytes (externally serialized structures).
    Bytes(Vec<u8>),
}

impl Payload {
    /// Number of logical elements in the payload.
    pub fn len(&self) -> usize {
        match self {
            Payload::Empty => 0,
            Payload::F32(v) => v.len(),
            Payload::F64(v) => v.len(),
            Payload::U32(v) => v.len(),
            Payload::U64(v) => v.len(),
            Payload::Bytes(b) => b.len(),
        }
    }

    /// Whether the payload holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the payload in bytes, used by the fabric statistics to model
    /// communication volume (the quantity that matters for migration cost).
    pub fn size_bytes(&self) -> usize {
        match self {
            Payload::Empty => 0,
            Payload::F32(v) => v.len() * 4,
            Payload::F64(v) => v.len() * 8,
            Payload::U32(v) => v.len() * 4,
            Payload::U64(v) => v.len() * 8,
            Payload::Bytes(b) => b.len(),
        }
    }

    /// Extract an `f32` vector, or fail with [`RuntimeError::PayloadMismatch`].
    pub fn into_f32(self) -> Result<Vec<f32>> {
        match self {
            Payload::F32(v) => Ok(v),
            other => Err(RuntimeError::PayloadMismatch(format!(
                "expected F32, got {}",
                other.kind_name()
            ))),
        }
    }

    /// Extract an `f64` vector, or fail with [`RuntimeError::PayloadMismatch`].
    pub fn into_f64(self) -> Result<Vec<f64>> {
        match self {
            Payload::F64(v) => Ok(v),
            other => Err(RuntimeError::PayloadMismatch(format!(
                "expected F64, got {}",
                other.kind_name()
            ))),
        }
    }

    /// Extract a `u32` vector, or fail with [`RuntimeError::PayloadMismatch`].
    pub fn into_u32(self) -> Result<Vec<u32>> {
        match self {
            Payload::U32(v) => Ok(v),
            other => Err(RuntimeError::PayloadMismatch(format!(
                "expected U32, got {}",
                other.kind_name()
            ))),
        }
    }

    /// Extract a `u64` vector, or fail with [`RuntimeError::PayloadMismatch`].
    pub fn into_u64(self) -> Result<Vec<u64>> {
        match self {
            Payload::U64(v) => Ok(v),
            other => Err(RuntimeError::PayloadMismatch(format!(
                "expected U64, got {}",
                other.kind_name()
            ))),
        }
    }

    /// Extract raw bytes, or fail with [`RuntimeError::PayloadMismatch`].
    pub fn into_bytes(self) -> Result<Vec<u8>> {
        match self {
            Payload::Bytes(b) => Ok(b),
            other => Err(RuntimeError::PayloadMismatch(format!(
                "expected Bytes, got {}",
                other.kind_name()
            ))),
        }
    }

    /// Short type name used in error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Payload::Empty => "Empty",
            Payload::F32(_) => "F32",
            Payload::F64(_) => "F64",
            Payload::U32(_) => "U32",
            Payload::U64(_) => "U64",
            Payload::Bytes(_) => "Bytes",
        }
    }
}

impl From<Vec<f32>> for Payload {
    fn from(v: Vec<f32>) -> Self {
        Payload::F32(v)
    }
}

impl From<Vec<f64>> for Payload {
    fn from(v: Vec<f64>) -> Self {
        Payload::F64(v)
    }
}

impl From<Vec<u32>> for Payload {
    fn from(v: Vec<u32>) -> Self {
        Payload::U32(v)
    }
}

impl From<Vec<u64>> for Payload {
    fn from(v: Vec<u64>) -> Self {
        Payload::U64(v)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(b: Vec<u8>) -> Self {
        Payload::Bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_and_size_bytes_track_element_width() {
        assert_eq!(Payload::Empty.len(), 0);
        assert_eq!(Payload::Empty.size_bytes(), 0);
        assert!(Payload::Empty.is_empty());

        let f = Payload::F32(vec![1.0, 2.0, 3.0]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.size_bytes(), 12);

        let d = Payload::F64(vec![1.0, 2.0]);
        assert_eq!(d.size_bytes(), 16);

        let u = Payload::U64(vec![7, 8, 9, 10]);
        assert_eq!(u.size_bytes(), 32);

        let b = Payload::Bytes(b"abcde".to_vec());
        assert_eq!(b.len(), 5);
        assert_eq!(b.size_bytes(), 5);
    }

    #[test]
    fn typed_extraction_succeeds_on_matching_variant() {
        assert_eq!(Payload::from(vec![1.0f32]).into_f32().unwrap(), vec![1.0]);
        assert_eq!(Payload::from(vec![1.0f64]).into_f64().unwrap(), vec![1.0]);
        assert_eq!(Payload::from(vec![1u32]).into_u32().unwrap(), vec![1]);
        assert_eq!(Payload::from(vec![1u64]).into_u64().unwrap(), vec![1]);
        assert_eq!(Payload::from(b"xy".to_vec()).into_bytes().unwrap(), b"xy");
    }

    #[test]
    fn typed_extraction_fails_on_mismatch() {
        let err = Payload::F32(vec![1.0]).into_u32().unwrap_err();
        match err {
            RuntimeError::PayloadMismatch(msg) => {
                assert!(msg.contains("expected U32"));
                assert!(msg.contains("F32"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn kind_names_are_distinct() {
        let kinds = [
            Payload::Empty.kind_name(),
            Payload::F32(vec![]).kind_name(),
            Payload::F64(vec![]).kind_name(),
            Payload::U32(vec![]).kind_name(),
            Payload::U64(vec![]).kind_name(),
            Payload::Bytes(Vec::new()).kind_name(),
        ];
        let unique: std::collections::HashSet<_> = kinds.iter().collect();
        assert_eq!(unique.len(), kinds.len());
    }
}
