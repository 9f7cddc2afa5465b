//! Collective operations over a [`Communicator`].
//!
//! These are the collective patterns the DynMo paper actually uses:
//!
//! * `gather` / `scatter` — Algorithm 1 (global magnitude pruning) gathers
//!   local top-k magnitudes on rank 0 and scatters back per-rank
//!   keep-indices.  The paper implements these with NCCL P2P send/recv
//!   because message sizes differ per rank; we do the same here (the
//!   root posts/receives one message per peer).
//! * `allreduce` — data-parallel gradient synchronization.
//! * `alltoall` — MoE token exchange between expert-parallel ranks.
//! * `broadcast` / `barrier` — control-flow coordination around rebalancing
//!   and re-packing steps.
//!
//! The algorithms used are simple root-based linear algorithms: the point of
//! this runtime is correctness of the distributed *logic*, not wire-time
//! performance (communication time is modeled analytically by
//! `dynmo-pipeline`'s cost model).

use crate::communicator::{Communicator, SYSTEM_TAG_BASE};
use crate::error::{Result, RuntimeError};
use crate::payload::Payload;
use crate::stats::CollectiveKind;
use crate::Tag;

/// Tag offsets for each collective so that concurrent collectives on the
/// same communicator do not interfere with each other as long as callers
/// invoke them in the same order on every rank (the MPI requirement).
const TAG_BROADCAST: Tag = SYSTEM_TAG_BASE + 0x100;
const TAG_GATHER: Tag = SYSTEM_TAG_BASE + 0x200;
const TAG_SCATTER: Tag = SYSTEM_TAG_BASE + 0x300;
const TAG_ALLREDUCE_UP: Tag = SYSTEM_TAG_BASE + 0x400;
const TAG_ALLREDUCE_DOWN: Tag = SYSTEM_TAG_BASE + 0x401;
const TAG_ALLTOALL: Tag = SYSTEM_TAG_BASE + 0x500;
const TAG_BARRIER_UP: Tag = SYSTEM_TAG_BASE + 0x600;
const TAG_BARRIER_DOWN: Tag = SYSTEM_TAG_BASE + 0x601;
const TAG_ALLGATHER: Tag = SYSTEM_TAG_BASE + 0x700;

/// Element-wise reduction operators supported by the reduce/allreduce family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    fn apply(self, acc: &mut [f32], value: &[f32]) {
        for (a, v) in acc.iter_mut().zip(value.iter()) {
            match self {
                ReduceOp::Sum => *a += *v,
                ReduceOp::Max => *a = a.max(*v),
                ReduceOp::Min => *a = a.min(*v),
            }
        }
    }
}

impl Communicator {
    /// Broadcast `payload` from local rank `root` to every member; every rank
    /// receives the root's payload as the return value.
    pub fn broadcast(&self, root: usize, payload: Payload) -> Result<Payload> {
        self.fabric()
            .stats()
            .record_collective(CollectiveKind::Broadcast);
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
        self.fabric()
            .stats()
            .record_collective(CollectiveKind::Gather);
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

    /// Scatter one payload per rank from `root`.  The root must pass
    /// `Some(payloads)` with exactly one entry per member rank; other ranks
    /// pass `None`.  Each rank returns the payload destined for it.
    pub fn scatter(&self, root: usize, payloads: Option<Vec<Payload>>) -> Result<Payload> {
        self.fabric()
            .stats()
            .record_collective(CollectiveKind::Scatter);
        if root >= self.size() {
            return Err(RuntimeError::InvalidArgument(format!(
                "scatter root {root} out of range for communicator of size {}",
                self.size()
            )));
        }
        if self.rank() == root {
            let payloads = payloads.ok_or_else(|| {
                RuntimeError::InvalidArgument("scatter root must provide payloads".to_string())
            })?;
            if payloads.len() != self.size() {
                return Err(RuntimeError::InvalidArgument(format!(
                    "scatter expects {} payloads, got {}",
                    self.size(),
                    payloads.len()
                )));
            }
            let mut mine = None;
            for (dst, p) in payloads.into_iter().enumerate() {
                if dst == root {
                    mine = Some(p);
                } else {
                    self.send_internal(dst, TAG_SCATTER, p)?;
                }
            }
            Ok(mine.expect("root payload present"))
        } else {
            if payloads.is_some() {
                return Err(RuntimeError::InvalidArgument(
                    "only the scatter root may provide payloads".to_string(),
                ));
            }
            self.recv_internal(root, TAG_SCATTER)
        }
    }

    /// All-gather: every rank contributes a payload and receives every rank's
    /// payload, ordered by local rank.
    pub fn allgather(&self, payload: Payload) -> Result<Vec<Payload>> {
        self.fabric()
            .stats()
            .record_collective(CollectiveKind::AllGather);
        // Gather to rank 0 then broadcast each entry.
        let n = self.size();
        if self.rank() == 0 {
            let mut gathered: Vec<Option<Payload>> = vec![None; n];
            gathered[0] = Some(payload);
            for (src, slot) in gathered.iter_mut().enumerate().skip(1) {
                *slot = Some(self.recv_internal(src, TAG_ALLGATHER)?);
            }
            let gathered: Vec<Payload> = gathered
                .into_iter()
                .map(|p| p.expect("all slots filled"))
                .collect();
            for dst in 1..n {
                for item in &gathered {
                    self.send_internal(dst, TAG_ALLGATHER + 1, item.clone())?;
                }
            }
            Ok(gathered)
        } else {
            self.send_internal(0, TAG_ALLGATHER, payload)?;
            let mut gathered = Vec::with_capacity(n);
            for _ in 0..n {
                gathered.push(self.recv_internal(0, TAG_ALLGATHER + 1)?);
            }
            Ok(gathered)
        }
    }

    /// Reduce `f32` vectors element-wise onto `root` with operator `op`.
    /// All ranks must pass vectors of identical length.
    pub fn reduce_f32(&self, root: usize, value: &[f32], op: ReduceOp) -> Result<Option<Vec<f32>>> {
        self.fabric()
            .stats()
            .record_collective(CollectiveKind::Reduce);
        if self.rank() == root {
            let mut acc = value.to_vec();
            for src in 0..self.size() {
                if src != root {
                    let v = self.recv_internal(src, TAG_ALLREDUCE_UP)?.into_f32()?;
                    if v.len() != acc.len() {
                        return Err(RuntimeError::PayloadMismatch(format!(
                            "reduce length mismatch: {} vs {}",
                            v.len(),
                            acc.len()
                        )));
                    }
                    op.apply(&mut acc, &v);
                }
            }
            Ok(Some(acc))
        } else {
            self.send_internal(root, TAG_ALLREDUCE_UP, Payload::F32(value.to_vec()))?;
            Ok(None)
        }
    }

    /// All-reduce `f32` vectors element-wise with operator `op`; every rank
    /// receives the reduced vector.
    pub fn allreduce_f32(&self, value: &[f32], op: ReduceOp) -> Result<Vec<f32>> {
        self.fabric()
            .stats()
            .record_collective(CollectiveKind::AllReduce);
        // Reduce to 0, then broadcast.
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
                op.apply(&mut acc, &v);
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

    /// Convenience sum all-reduce used throughout the training loop.
    pub fn allreduce_sum_f32(&self, value: &[f32]) -> Result<Vec<f32>> {
        self.allreduce_f32(value, ReduceOp::Sum)
    }

    /// All-to-all personalized exchange: `sends[i]` goes to local rank `i`,
    /// and the returned vector holds the payload received from each rank.
    /// This is the MoE token-exchange pattern.
    pub fn alltoall(&self, sends: Vec<Payload>) -> Result<Vec<Payload>> {
        self.fabric()
            .stats()
            .record_collective(CollectiveKind::AllToAll);
        if sends.len() != self.size() {
            return Err(RuntimeError::InvalidArgument(format!(
                "alltoall expects {} send payloads, got {}",
                self.size(),
                sends.len()
            )));
        }
        let mut received: Vec<Option<Payload>> = vec![None; self.size()];
        // Keep own slice.
        for (dst, payload) in sends.into_iter().enumerate() {
            if dst == self.rank() {
                received[dst] = Some(payload);
            } else {
                self.send_internal(dst, TAG_ALLTOALL, payload)?;
            }
        }
        for (src, slot) in received.iter_mut().enumerate() {
            if src != self.rank() {
                *slot = Some(self.recv_internal(src, TAG_ALLTOALL)?);
            }
        }
        Ok(received
            .into_iter()
            .map(|p| p.expect("all slots filled"))
            .collect())
    }

    /// Barrier: returns only after every member rank has entered the barrier.
    pub fn barrier(&self) -> Result<()> {
        self.fabric()
            .stats()
            .record_collective(CollectiveKind::Barrier);
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
    fn scatter_distributes_per_rank_payloads() {
        let results = launch(3, |ctx| {
            let comm = ctx.world();
            let input = if ctx.rank() == 1 {
                Some(vec![
                    Payload::U64(vec![100]),
                    Payload::U64(vec![101]),
                    Payload::U64(vec![102]),
                ])
            } else {
                None
            };
            comm.scatter(1, input).unwrap().into_u64().unwrap()[0]
        })
        .unwrap();
        assert_eq!(results, vec![100, 101, 102]);
    }

    #[test]
    fn scatter_wrong_count_errors_on_root() {
        let results = launch(2, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 0 {
                comm.scatter(0, Some(vec![Payload::Empty])).is_err()
            } else {
                // The peer would block forever waiting for a scatter that the
                // root refuses to perform, so it doesn't participate here.
                true
            }
        })
        .unwrap();
        assert!(results[0]);
    }

    #[test]
    fn allgather_returns_everyones_contribution() {
        let results = launch(4, |ctx| {
            let comm = ctx.world();
            let all = comm
                .allgather(Payload::U32(vec![ctx.rank() as u32 * 7]))
                .unwrap();
            all.into_iter()
                .map(|p| p.into_u32().unwrap()[0])
                .collect::<Vec<_>>()
        })
        .unwrap();
        for r in results {
            assert_eq!(r, vec![0, 7, 14, 21]);
        }
    }

    #[test]
    fn allreduce_sum_max_min() {
        let results = launch(3, |ctx| {
            let comm = ctx.world();
            let mine = vec![ctx.rank() as f32, 10.0 - ctx.rank() as f32];
            let sum = comm.allreduce_f32(&mine, ReduceOp::Sum).unwrap();
            let max = comm.allreduce_f32(&mine, ReduceOp::Max).unwrap();
            let min = comm.allreduce_f32(&mine, ReduceOp::Min).unwrap();
            (sum, max, min)
        })
        .unwrap();
        for (sum, max, min) in results {
            assert_eq!(sum, vec![3.0, 27.0]);
            assert_eq!(max, vec![2.0, 10.0]);
            assert_eq!(min, vec![0.0, 8.0]);
        }
    }

    #[test]
    fn reduce_to_root_only_root_gets_result() {
        let results = launch(4, |ctx| {
            let comm = ctx.world();
            comm.reduce_f32(3, &[1.0], ReduceOp::Sum).unwrap()
        })
        .unwrap();
        assert_eq!(results[3], Some(vec![4.0]));
        assert_eq!(results[0], None);
    }

    #[test]
    fn alltoall_transposes_the_send_matrix() {
        let n = 4;
        let results = launch(n, |ctx| {
            let comm = ctx.world();
            // sends[j] from rank i is the value i*10 + j.
            let sends: Vec<Payload> = (0..n)
                .map(|j| Payload::U32(vec![(ctx.rank() * 10 + j) as u32]))
                .collect();
            comm.alltoall(sends)
                .unwrap()
                .into_iter()
                .map(|p| p.into_u32().unwrap()[0])
                .collect::<Vec<_>>()
        })
        .unwrap();
        // Rank j must have received i*10 + j from every rank i.
        for (j, row) in results.iter().enumerate() {
            let expected: Vec<u32> = (0..n).map(|i| (i * 10 + j) as u32).collect();
            assert_eq!(row, &expected);
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

    #[test]
    fn collective_stats_are_recorded() {
        use crate::stats::CollectiveKind;
        use std::sync::Arc;

        let fabrics = launch(2, |ctx| {
            let comm = ctx.world();
            comm.barrier().unwrap();
            comm.allreduce_sum_f32(&[1.0]).unwrap();
            Arc::clone(ctx.fabric())
        })
        .unwrap();
        let snap = fabrics[0].stats().snapshot();
        assert_eq!(snap.collective_count(CollectiveKind::Barrier), 2);
        assert_eq!(snap.collective_count(CollectiveKind::AllReduce), 2);
    }
}
