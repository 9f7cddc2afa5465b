//! Error types for the simulated runtime.

use std::fmt;

/// Convenience result alias used across the runtime.
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// Errors surfaced by the simulated communication fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A destination rank does not exist in the fabric.
    UnknownRank(usize),
    /// A send was addressed to a rank whose thread has exited.
    Disconnected {
        /// The global rank that has exited.
        rank: usize,
    },
    /// Every live rank is blocked in a receive, so none of them can ever
    /// complete.  Raised on each of those receives.
    Deadlock {
        /// `(rank, src, tag)` of every blocked receive, in rank order: the
        /// global rank that waits, the global rank it waits on and the tag
        /// it matches.
        blocked: Vec<(usize, usize, u32)>,
    },
    /// A payload had a different type or length than the operation expected.
    PayloadMismatch(String),
    /// An operation called with invalid arguments (e.g. a broadcast root
    /// outside the communicator, or a rank listed twice in a split).
    InvalidArgument(String),
    /// A worker thread panicked during `launch`.
    WorkerPanicked {
        /// The global rank of the panicked worker.
        rank: usize,
    },
    /// A rank has failed (killed by fault injection or crashed).  Raised on
    /// the failed rank itself, on sends touching it, and on any receive
    /// posted on a communicator containing it — mirroring NCCL's
    /// `ncclRemoteError` after a peer aborts.
    RankFailed {
        /// The global rank that failed.
        rank: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnknownRank(r) => write!(f, "unknown rank {r}"),
            RuntimeError::Disconnected { rank } => write!(f, "rank {rank} has exited"),
            RuntimeError::Deadlock { blocked } => {
                write!(f, "deadlock: every live rank is blocked in a receive")?;
                for (rank, src, tag) in blocked {
                    write!(f, "; rank {rank} waits for src {src} tag {tag}")?;
                }
                Ok(())
            }
            RuntimeError::PayloadMismatch(msg) => write!(f, "payload mismatch: {msg}"),
            RuntimeError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            RuntimeError::WorkerPanicked { rank } => write!(f, "worker rank {rank} panicked"),
            RuntimeError::RankFailed { rank } => write!(f, "rank {rank} has failed"),
        }
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let cases: Vec<(RuntimeError, &str)> = vec![
            (RuntimeError::UnknownRank(3), "unknown rank 3"),
            (RuntimeError::Disconnected { rank: 2 }, "rank 2 has exited"),
            (
                RuntimeError::Deadlock {
                    blocked: vec![(0, 1, 5), (1, 0, 9)],
                },
                "deadlock: every live rank is blocked in a receive; \
                 rank 0 waits for src 1 tag 5; rank 1 waits for src 0 tag 9",
            ),
            (RuntimeError::RankFailed { rank: 4 }, "rank 4 has failed"),
            (
                RuntimeError::PayloadMismatch("want f32".into()),
                "payload mismatch: want f32",
            ),
        ];
        for (err, expected) in cases {
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_e: &E) {}
        assert_err(&RuntimeError::UnknownRank(0));
    }
}
