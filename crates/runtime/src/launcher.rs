//! Launching a simulated multi-rank job ("mpirun in a function call").

use std::sync::Arc;

use crate::communicator::Communicator;
use crate::error::{Result, RuntimeError};
use crate::fabric::Fabric;
use crate::RankId;

/// Per-rank execution context handed to the rank closure by [`launch`].
#[derive(Debug, Clone)]
pub struct RankCtx {
    world: Communicator,
}

impl RankCtx {
    /// The global rank of this worker (one rank per simulated GPU).
    pub fn rank(&self) -> RankId {
        self.world.rank()
    }

    /// The world communicator containing every rank.
    pub fn world(&self) -> Communicator {
        self.world.clone()
    }

    /// The underlying fabric, whose failure detector every rank shares.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.world.fabric
    }
}

/// Marks its rank exited on the fabric when dropped, so a body that returns
/// and one that unwinds both end the rank.
struct ExitOnDrop<'a> {
    fabric: &'a Fabric,
    rank: RankId,
}

impl Drop for ExitOnDrop<'_> {
    fn drop(&mut self) {
        self.fabric.exit(self.rank);
    }
}

/// Run `body` on `world_size` simulated ranks, each on its own OS thread,
/// and collect the per-rank return values in rank order.
///
/// The closure receives a [`RankCtx`] exposing the rank id and the world
/// communicator.  Panics in any rank are converted into
/// [`RuntimeError::WorkerPanicked`].
pub fn launch<R, F>(world_size: usize, body: F) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(RankCtx) -> R + Send + Sync,
{
    if world_size == 0 {
        return Err(RuntimeError::InvalidArgument(
            "world_size must be at least 1".to_string(),
        ));
    }
    let fabric = &Fabric::new(world_size);
    let body = &body;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..world_size)
            .map(|rank| {
                scope.spawn(move || {
                    let _exit = ExitOnDrop { fabric, rank };
                    let world = Communicator::world(Arc::clone(fabric), rank);
                    body(RankCtx { world })
                })
            })
            .collect();
        // Join every rank before reporting the first panic, in rank order.
        let mut results = Vec::with_capacity(world_size);
        let mut first_panic = None;
        for (rank, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(value) => results.push(value),
                Err(_) => {
                    first_panic.get_or_insert(rank);
                }
            }
        }
        match first_panic {
            Some(rank) => Err(RuntimeError::WorkerPanicked { rank }),
            None => Ok(results),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;

    #[test]
    fn launch_returns_results_in_rank_order() {
        let results = launch(5, |ctx| ctx.rank() * 10).unwrap();
        assert_eq!(results, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn launch_rejects_zero_ranks() {
        let err = launch(0, |_ctx| ()).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidArgument(_)));
    }

    #[test]
    fn ring_exchange_over_world_communicator() {
        // Each rank sends its id to the next rank and receives from the
        // previous one; a classic ring that exercises ordering end-to-end.
        let n = 6;
        let results = launch(n, |ctx| {
            let comm = ctx.world();
            let next = (ctx.rank() + 1) % n;
            let prev = (ctx.rank() + n - 1) % n;
            comm.send(next, 1, Payload::U64(vec![ctx.rank() as u64]))
                .unwrap();
            comm.recv(prev, 1).unwrap().into_u64().unwrap()[0]
        })
        .unwrap();
        for (rank, got) in results.iter().enumerate() {
            assert_eq!(*got as usize, (rank + n - 1) % n);
        }
    }

    #[test]
    fn panicking_rank_is_reported() {
        let err = launch(2, |ctx| {
            if ctx.rank() == 1 {
                panic!("boom");
            }
            ctx.rank()
        })
        .unwrap_err();
        assert_eq!(err, RuntimeError::WorkerPanicked { rank: 1 });
    }

    #[test]
    fn ranks_that_receive_from_each_other_deadlock_at_once() {
        let errors = launch(2, |ctx| {
            let peer = 1 - ctx.rank();
            ctx.world().recv(peer, 3).unwrap_err()
        })
        .unwrap();
        let deadlock = RuntimeError::Deadlock {
            blocked: vec![(0, 1, 3), (1, 0, 3)],
        };
        assert_eq!(errors, vec![deadlock.clone(), deadlock]);
    }

    #[test]
    fn a_peer_that_returns_without_sending_is_a_deadlock() {
        let results = launch(3, |ctx| match ctx.rank() {
            0 => Some(ctx.world().recv(2, 4).unwrap_err()),
            _ => None,
        })
        .unwrap();
        assert_eq!(
            results[0],
            Some(RuntimeError::Deadlock {
                blocked: vec![(0, 2, 4)]
            })
        );
    }

    #[test]
    fn a_peer_that_panics_is_a_deadlock_and_launch_reports_the_panic() {
        let err = launch(2, |ctx| {
            if ctx.rank() == 1 {
                panic!("rank 1 dies before sending");
            }
            // A failed assertion here would make rank 0 the reported panic.
            let err = ctx.world().recv(1, 5).unwrap_err();
            assert_eq!(
                err,
                RuntimeError::Deadlock {
                    blocked: vec![(0, 1, 5)]
                }
            );
        })
        .unwrap_err();
        assert_eq!(err, RuntimeError::WorkerPanicked { rank: 1 });
    }
}
