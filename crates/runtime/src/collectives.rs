//! Collective operations over a [`Communicator`].
//!
//! These are the collectives DynMo's distributed code uses:
//!
//! * `gather` — Algorithm 1 (global magnitude pruning) gathers each rank's
//!   local top-k magnitudes on rank 0, and the recovery harness gathers
//!   each stage's layer states into one checkpoint.  Message sizes differ
//!   per rank, which is why the paper implements it with NCCL P2P
//!   send/recv; the root here receives one message per peer the same way.
//! * `broadcast` — Algorithm 1 sends the global threshold back to every
//!   rank, and the recovery harness shares its closing checksum.
//! * `allreduce_sum_f32` — global sums: Algorithm 1's parameter count and
//!   the harness's loss.
//! * `barrier` — rendezvous around re-packing, rescaling and recovery.
//!
//! The algorithms used are simple root-based linear algorithms: the point of
//! this runtime is correctness of the distributed *logic*, not wire-time
//! performance (communication time is modeled analytically by
//! `dynmo-pipeline`'s cost model).

use crate::communicator::{Communicator, SYSTEM_TAG_BASE};
use crate::error::{Result, RuntimeError};
use crate::payload::Payload;
use crate::Tag;

/// Tag offsets for each collective so that concurrent collectives on the
/// same communicator do not interfere with each other as long as callers
/// invoke them in the same order on every rank (the MPI requirement).
const TAG_BROADCAST: Tag = SYSTEM_TAG_BASE + 0x100;
const TAG_GATHER: Tag = SYSTEM_TAG_BASE + 0x200;
const TAG_ALLREDUCE_UP: Tag = SYSTEM_TAG_BASE + 0x400;
const TAG_ALLREDUCE_DOWN: Tag = SYSTEM_TAG_BASE + 0x401;
const TAG_BARRIER_UP: Tag = SYSTEM_TAG_BASE + 0x600;
const TAG_BARRIER_DOWN: Tag = SYSTEM_TAG_BASE + 0x601;

impl Communicator {
    /// Broadcast `payload` from local rank `root` to every member; every rank
    /// receives the root's payload as the return value.
    pub fn broadcast(&self, root: usize, payload: Payload) -> Result<Payload> {
        if root >= self.size() {
            return Err(RuntimeError::InvalidArgument(format!(
                "broadcast root {root} out of range for communicator of size {}",
                self.size()
            )));
        }
        if self.rank() == root {
            for dst in 0..self.size() {
                if dst != root {
                    self.send_internal(dst, TAG_BROADCAST, payload.clone())?;
                }
            }
            Ok(payload)
        } else {
            self.recv_internal(root, TAG_BROADCAST)
        }
    }

    /// Gather one payload per rank on `root`.  The root receives
    /// `Some(payloads)` ordered by local rank; other ranks receive `None`.
    /// Payload sizes may differ per rank (the Algorithm 1 use case).
    pub fn gather(&self, root: usize, payload: Payload) -> Result<Option<Vec<Payload>>> {
        if root >= self.size() {
            return Err(RuntimeError::InvalidArgument(format!(
                "gather root {root} out of range for communicator of size {}",
                self.size()
            )));
        }
        if self.rank() == root {
            let mut gathered: Vec<Option<Payload>> = vec![None; self.size()];
            gathered[root] = Some(payload);
            for (src, slot) in gathered.iter_mut().enumerate() {
                if src != root {
                    *slot = Some(self.recv_internal(src, TAG_GATHER)?);
                }
            }
            Ok(Some(
                gathered
                    .into_iter()
                    .map(|p| p.expect("all slots are filled"))
                    .collect(),
            ))
        } else {
            self.send_internal(root, TAG_GATHER, payload)?;
            Ok(None)
        }
    }

    /// All-reduce `f32` vectors by element-wise sum; every rank receives
    /// the sum.  All ranks must pass vectors of identical length.
    pub fn allreduce_sum_f32(&self, value: &[f32]) -> Result<Vec<f32>> {
        // Sum on rank 0 in local-rank order, then send the sum back down.
        if self.rank() == 0 {
            let mut acc = value.to_vec();
            for src in 1..self.size() {
                let v = self.recv_internal(src, TAG_ALLREDUCE_UP)?.into_f32()?;
                if v.len() != acc.len() {
                    return Err(RuntimeError::PayloadMismatch(format!(
                        "allreduce length mismatch: {} vs {}",
                        v.len(),
                        acc.len()
                    )));
                }
                for (a, v) in acc.iter_mut().zip(&v) {
                    *a += *v;
                }
            }
            for dst in 1..self.size() {
                self.send_internal(dst, TAG_ALLREDUCE_DOWN, Payload::F32(acc.clone()))?;
            }
            Ok(acc)
        } else {
            self.send_internal(0, TAG_ALLREDUCE_UP, Payload::F32(value.to_vec()))?;
            self.recv_internal(0, TAG_ALLREDUCE_DOWN)?.into_f32()
        }
    }

    /// Barrier: returns only after every member rank has entered the barrier.
    pub fn barrier(&self) -> Result<()> {
        if self.rank() == 0 {
            for src in 1..self.size() {
                let _ = self.recv_internal(src, TAG_BARRIER_UP)?;
            }
            for dst in 1..self.size() {
                self.send_internal(dst, TAG_BARRIER_DOWN, Payload::Empty)?;
            }
        } else {
            self.send_internal(0, TAG_BARRIER_UP, Payload::Empty)?;
            let _ = self.recv_internal(0, TAG_BARRIER_DOWN)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launcher::launch;

    #[test]
    fn broadcast_delivers_root_value_everywhere() {
        let results = launch(4, |ctx| {
            let comm = ctx.world();
            let payload = if ctx.rank() == 2 {
                Payload::F32(vec![3.5, 4.5])
            } else {
                Payload::Empty
            };
            comm.broadcast(2, payload).unwrap().into_f32().unwrap()
        })
        .unwrap();
        for r in results {
            assert_eq!(r, vec![3.5, 4.5]);
        }
    }

    #[test]
    fn broadcast_invalid_root_errors() {
        let results = launch(2, |ctx| {
            let comm = ctx.world();
            comm.broadcast(9, Payload::Empty).is_err()
        })
        .unwrap();
        assert!(results.into_iter().all(|b| b));
    }

    #[test]
    fn gather_collects_variable_sized_payloads_in_rank_order() {
        let results = launch(3, |ctx| {
            let comm = ctx.world();
            // Rank r contributes r+1 values — sizes intentionally differ,
            // matching the Algorithm 1 gather of per-rank top-k values.
            let mine: Vec<f32> = (0..=ctx.rank()).map(|i| i as f32).collect();
            comm.gather(0, Payload::F32(mine)).unwrap().map(|payloads| {
                payloads
                    .into_iter()
                    .map(|p| p.into_f32().unwrap())
                    .collect::<Vec<_>>()
            })
        })
        .unwrap();
        assert_eq!(
            results[0],
            Some(vec![vec![0.0], vec![0.0, 1.0], vec![0.0, 1.0, 2.0]])
        );
        assert_eq!(results[1], None);
        assert_eq!(results[2], None);
    }

    #[test]
    fn allreduce_sum_adds_elementwise_on_every_rank() {
        let results = launch(3, |ctx| {
            let comm = ctx.world();
            let mine = vec![ctx.rank() as f32, 10.0 - ctx.rank() as f32];
            comm.allreduce_sum_f32(&mine).unwrap()
        })
        .unwrap();
        for sum in results {
            assert_eq!(sum, vec![3.0, 27.0]);
        }
    }

    #[test]
    fn barrier_completes_for_all_ranks() {
        let results = launch(5, |ctx| {
            let comm = ctx.world();
            for _ in 0..3 {
                comm.barrier().unwrap();
            }
            true
        })
        .unwrap();
        assert!(results.into_iter().all(|b| b));
    }
}
