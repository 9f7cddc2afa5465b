//! The shared message fabric connecting simulated ranks.
//!
//! The fabric plays the role of the interconnect (NVLink/NVSwitch within a
//! node, InfiniBand across nodes in the paper's testbed): it holds one
//! message queue per rank and routes each message into its destination's
//! queue.  A receive names its source, tag and communicator.  Delivery is
//! reliable and per-sender ordered, which matches NCCL P2P semantics closely
//! enough for the algorithms reproduced here.
//!
//! One lock guards all of the fabric's state: every rank's queue, the
//! failed set, and each rank's status (running, blocked in a receive, or
//! exited).  A blocked receive sleeps until something it waits on changes:
//! a message is routed to its rank or a rank fails.  Routing a message and
//! marking its destination runnable happen under that one lock, so when
//! every live rank is blocked no rank is left that could send: each of
//! those receives fails at once with [`RuntimeError::Deadlock`].

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::error::{Result, RuntimeError};
use crate::fault::FailureDetector;
use crate::payload::Payload;
use crate::{RankId, Tag};

/// A routed message between two ranks, scoped to a communicator.
#[derive(Debug)]
pub(crate) struct Envelope {
    /// Global rank of the sender.
    pub(crate) src: RankId,
    /// Global rank of the receiver.
    pub(crate) dst: RankId,
    /// Communicator id the message belongs to (so split communicators do
    /// not interfere, mirroring `ncclCommSplit`).
    pub(crate) comm: u64,
    /// User or system tag used for matching.
    pub(crate) tag: Tag,
    /// The typed payload.
    pub(crate) payload: Payload,
}

/// What a rank is doing, as far as the fabric can tell.
#[derive(Debug)]
enum Status {
    /// Running its body, or woken in a receive to look again.
    Running,
    /// Asleep in a receive from `src` with `tag`.
    Blocked { src: RankId, tag: Tag },
    /// Woken in a receive that can never complete, with the
    /// `(rank, src, tag)` of every receive blocked at that moment.
    Deadlocked(Vec<(RankId, RankId, Tag)>),
    /// Its body has returned or unwound.
    Exited,
}

/// Everything the fabric's lock guards.
#[derive(Debug)]
pub(crate) struct State {
    /// Each rank's undelivered messages, in arrival order.  A receive takes
    /// the first match, which keeps messages in per-sender order.
    queues: Vec<VecDeque<Envelope>>,
    pub(crate) failed: BTreeSet<RankId>,
    status: Vec<Status>,
}

impl State {
    /// The first failed rank among `members`, if any.
    pub(crate) fn first_failed_of(&self, members: &[RankId]) -> Option<RankId> {
        members.iter().copied().find(|r| self.failed.contains(r))
    }
}

/// The fabric's state and one condvar per rank, shared with the
/// [`FailureDetector`] so that a failure wakes blocked receivers.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) state: Mutex<State>,
    /// A rank blocked in a receive sleeps on its own condvar.
    wake: Vec<Condvar>,
}

impl Shared {
    /// Record `rank` as failed and wake every blocked receive to look
    /// again: the ones on a communicator containing `rank` now fail.
    /// Returns whether the rank was newly marked.
    pub(crate) fn mark_failed(&self, rank: RankId) -> bool {
        let mut state = self.state.lock();
        if !state.failed.insert(rank) {
            return false;
        }
        for blocked in 0..state.status.len() {
            self.unblock(&mut state, blocked);
        }
        true
    }

    /// Make `rank` runnable if it is blocked in a receive.
    fn unblock(&self, state: &mut State, rank: RankId) {
        if let Status::Blocked { .. } = state.status[rank] {
            state.status[rank] = Status::Running;
            self.wake[rank].notify_one();
        }
    }

    /// When no live rank is running, every blocked receive would wait
    /// forever: wake each of them with the list of all of them.
    fn declare_deadlock_if_quiescent(&self, state: &mut State) {
        let mut blocked = Vec::new();
        for (rank, status) in state.status.iter().enumerate() {
            match *status {
                Status::Blocked { src, tag } => blocked.push((rank, src, tag)),
                Status::Exited => {}
                // A rank woken with a deadlock is about to return from its
                // receive, so it counts as running.
                Status::Running | Status::Deadlocked(_) => return,
            }
        }
        for &(rank, ..) in &blocked {
            state.status[rank] = Status::Deadlocked(blocked.clone());
            self.wake[rank].notify_one();
        }
    }
}

/// The interconnect shared by all ranks of a simulated job.
#[derive(Debug)]
pub struct Fabric {
    shared: Arc<Shared>,
    detector: FailureDetector,
}

impl Fabric {
    /// Create a fabric for `world_size` ranks, all running.  [`crate::launch`]
    /// builds one per job.
    pub(crate) fn new(world_size: usize) -> Arc<Self> {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queues: (0..world_size).map(|_| VecDeque::new()).collect(),
                failed: BTreeSet::new(),
                status: (0..world_size).map(|_| Status::Running).collect(),
            }),
            wake: (0..world_size).map(|_| Condvar::new()).collect(),
        });
        Arc::new(Fabric {
            detector: FailureDetector::new(Arc::clone(&shared)),
            shared,
        })
    }

    /// Number of ranks attached to the fabric.
    pub(crate) fn world_size(&self) -> usize {
        self.shared.wake.len()
    }

    /// The fabric's failure detector (shared by every rank).
    pub fn detector(&self) -> &FailureDetector {
        &self.detector
    }

    /// Queue an envelope for its destination rank and wake that rank if it
    /// is blocked in a receive.  Fails with [`RuntimeError::RankFailed`]
    /// when either end of the transfer is dead, and with
    /// [`RuntimeError::Disconnected`] when the destination has exited.
    pub(crate) fn route(&self, envelope: Envelope) -> Result<()> {
        let (src, dst) = (envelope.src, envelope.dst);
        if dst >= self.world_size() {
            return Err(RuntimeError::UnknownRank(dst));
        }
        let mut state = self.shared.state.lock();
        if state.failed.contains(&src) {
            return Err(RuntimeError::RankFailed { rank: src });
        }
        if state.failed.contains(&dst) {
            return Err(RuntimeError::RankFailed { rank: dst });
        }
        if let Status::Exited = state.status[dst] {
            return Err(RuntimeError::Disconnected { rank: dst });
        }
        state.queues[dst].push_back(envelope);
        self.shared.unblock(&mut state, dst);
        Ok(())
    }

    /// Receive, on global rank `rank`, the payload of the first queued
    /// message matching `(comm, src, tag)`.  The unmatched messages stay
    /// queued in arrival order, the unexpected-message queue of an MPI
    /// implementation.
    ///
    /// `members` is the membership of the communicator the receive is
    /// posted on.  A matching message that has already arrived is
    /// returned first.  Otherwise, if any member is (or becomes) marked
    /// failed, the call fails with [`RuntimeError::RankFailed`]: a
    /// collective on that communicator can never complete, and poisoning
    /// every pending operation is how the failure reaches all survivors.
    /// If instead every live rank ends up blocked, it fails with
    /// [`RuntimeError::Deadlock`].
    pub(crate) fn recv_match(
        &self,
        rank: RankId,
        comm: u64,
        members: &[RankId],
        src: RankId,
        tag: Tag,
    ) -> Result<Payload> {
        let wanted = |e: &Envelope| e.comm == comm && e.src == src && e.tag == tag;
        let mut state = self.shared.state.lock();
        loop {
            if let Some(at) = state.queues[rank].iter().position(wanted) {
                let envelope = state.queues[rank].remove(at).expect("position is in range");
                return Ok(envelope.payload);
            }
            if let Some(failed) = state.first_failed_of(members) {
                return Err(RuntimeError::RankFailed { rank: failed });
            }
            state.status[rank] = Status::Blocked { src, tag };
            self.shared.declare_deadlock_if_quiescent(&mut state);
            while let Status::Blocked { .. } = state.status[rank] {
                self.shared.wake[rank].wait(&mut state);
            }
            if let Status::Deadlocked(blocked) =
                std::mem::replace(&mut state.status[rank], Status::Running)
            {
                return Err(RuntimeError::Deadlock { blocked });
            }
        }
    }

    /// Mark `rank` exited: sends to it now fail, and if every other live
    /// rank is blocked, their receives fail with [`RuntimeError::Deadlock`].
    pub(crate) fn exit(&self, rank: RankId) {
        let mut state = self.shared.state.lock();
        state.status[rank] = Status::Exited;
        self.shared.declare_deadlock_if_quiescent(&mut state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(src: RankId, dst: RankId, comm: u64, tag: Tag, payload: Payload) -> Envelope {
        Envelope {
            src,
            dst,
            comm,
            tag,
            payload,
        }
    }

    #[test]
    fn route_delivers_to_destination_queue() {
        let fabric = Fabric::new(2);
        fabric
            .route(envelope(0, 1, 0, 7, Payload::F32(vec![1.0, 2.0])))
            .unwrap();
        let got = fabric.recv_match(1, 0, &[0, 1], 0, 7).unwrap();
        assert_eq!(got, Payload::F32(vec![1.0, 2.0]));
    }

    #[test]
    fn route_to_unknown_rank_fails() {
        let fabric = Fabric::new(2);
        let err = fabric
            .route(envelope(0, 5, 0, 0, Payload::Empty))
            .unwrap_err();
        assert_eq!(err, RuntimeError::UnknownRank(5));
    }

    #[test]
    fn route_to_an_exited_rank_is_disconnected() {
        let fabric = Fabric::new(2);
        fabric.exit(1);
        let err = fabric
            .route(envelope(0, 1, 0, 0, Payload::Empty))
            .unwrap_err();
        assert_eq!(err, RuntimeError::Disconnected { rank: 1 });
    }

    #[test]
    fn receive_matches_by_tag_and_keeps_unexpected_messages() {
        let fabric = Fabric::new(2);
        // Send two messages with different tags; receive the second first.
        fabric
            .route(envelope(0, 1, 0, 1, Payload::U64(vec![11])))
            .unwrap();
        fabric
            .route(envelope(0, 1, 0, 2, Payload::U64(vec![22])))
            .unwrap();

        let second = fabric.recv_match(1, 0, &[0, 1], 0, 2).unwrap();
        assert_eq!(second, Payload::U64(vec![22]));
        let first = fabric.recv_match(1, 0, &[0, 1], 0, 1).unwrap();
        assert_eq!(first, Payload::U64(vec![11]));
    }

    #[test]
    fn receive_filters_by_communicator() {
        let fabric = Fabric::new(2);
        fabric
            .route(envelope(0, 1, 99, 5, Payload::U64(vec![1])))
            .unwrap();
        fabric
            .route(envelope(0, 1, 7, 5, Payload::U64(vec![2])))
            .unwrap();

        let got = fabric.recv_match(1, 7, &[0, 1], 0, 5).unwrap();
        assert_eq!(got, Payload::U64(vec![2]));
        // The message on communicator 99 stays queued, not dropped.
        let parked = fabric.recv_match(1, 99, &[0, 1], 0, 5).unwrap();
        assert_eq!(parked, Payload::U64(vec![1]));
    }

    #[test]
    fn a_message_queued_before_a_failure_is_still_delivered() {
        let fabric = Fabric::new(3);
        fabric
            .route(envelope(0, 1, 0, 6, Payload::U64(vec![42])))
            .unwrap();
        // Another member of the communicator fails after the send.
        fabric.detector().mark_failed(2);
        let got = fabric.recv_match(1, 0, &[0, 1, 2], 0, 6).unwrap();
        assert_eq!(got, Payload::U64(vec![42]));
        // With nothing left queued, the failure is reported.
        let err = fabric.recv_match(1, 0, &[0, 1, 2], 0, 6).unwrap_err();
        assert_eq!(err, RuntimeError::RankFailed { rank: 2 });
    }

    #[test]
    fn a_receive_no_live_rank_can_satisfy_is_a_deadlock() {
        let fabric = Fabric::new(2);
        fabric.exit(0);
        let err = fabric.recv_match(1, 0, &[0, 1], 0, 3).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::Deadlock {
                blocked: vec![(1, 0, 3)]
            }
        );
    }
}

/// Exhaustive interleaving checks of the wake-up and quiescence protocol.
/// Build with `RUSTFLAGS="--cfg dynmo_loom"`: the fabric's lock and condvars
/// are then the loom shim's, and each model runs the real fabric code on
/// loom threads, one per rank.
#[cfg(all(test, dynmo_loom))]
mod loom_models {
    use super::*;

    const COMM: u64 = 1;
    const TAG: Tag = 7;

    fn exhaust(name: &str, body: impl Fn() + Send + Sync + 'static) {
        let report = loom::model(body);
        println!(
            "{name}: {} interleavings (depth {})",
            report.iterations, report.max_depth
        );
        assert!(!report.truncated, "{name}: state space not exhausted");
    }

    /// `rank` receives `(COMM, src, TAG)` on a loom thread.
    fn receive(
        fabric: &Arc<Fabric>,
        rank: RankId,
        members: &'static [RankId],
        src: RankId,
    ) -> loom::thread::JoinHandle<Result<Payload>> {
        let fabric = Arc::clone(fabric);
        loom::thread::spawn(move || fabric.recv_match(rank, COMM, members, src, TAG))
    }

    fn send(fabric: &Fabric, src: RankId, dst: RankId, value: u64) -> Result<()> {
        fabric.route(Envelope {
            src,
            dst,
            comm: COMM,
            tag: TAG,
            payload: Payload::U64(vec![value]),
        })
    }

    /// A send lands before the receive looks, or while it sleeps: either
    /// way it is delivered, never lost to a missed wake-up.
    #[test]
    fn a_send_to_a_blocked_rank_wakes_it() {
        exhaust("send wakes a blocked receive", || {
            let fabric = Fabric::new(2);
            let receiver = receive(&fabric, 1, &[0, 1], 0);
            send(&fabric, 0, 1, 5).unwrap();
            assert_eq!(receiver.join().unwrap(), Ok(Payload::U64(vec![5])));
        });
    }

    /// A member fails before the receive looks, or while it sleeps: either
    /// way the receive fails with `RankFailed`, not `Deadlock`, even though
    /// the failed rank then exits and leaves no rank running.
    #[test]
    fn a_failure_wakes_a_blocked_rank() {
        exhaust("failure wakes a blocked receive", || {
            let fabric = Fabric::new(3);
            fabric.exit(0);
            let receiver = receive(&fabric, 1, &[0, 1, 2], 0);
            fabric.detector().mark_failed(2);
            fabric.exit(2);
            assert_eq!(
                receiver.join().unwrap(),
                Err(RuntimeError::RankFailed { rank: 2 })
            );
        });
    }

    /// Two ranks that each receive from the other: whichever blocks last
    /// declares the deadlock, and both receives fail with the same list.
    #[test]
    fn mutual_receives_end_in_deadlock() {
        exhaust("mutual receives deadlock", || {
            let fabric = Fabric::new(2);
            let first = receive(&fabric, 0, &[0, 1], 1);
            let second = receive(&fabric, 1, &[0, 1], 0);
            let deadlock = Err(RuntimeError::Deadlock {
                blocked: vec![(0, 1, TAG), (1, 0, TAG)],
            });
            assert_eq!(first.join().unwrap(), deadlock);
            assert_eq!(second.join().unwrap(), deadlock);
        });
    }

    /// A peer that sends once and exits: the message queued before the
    /// exit is delivered, and the next receive fails with `Deadlock`.
    #[test]
    fn a_peer_that_exits_ends_the_wait() {
        exhaust("peer exit ends the wait", || {
            let fabric = Fabric::new(2);
            let receiver = {
                let fabric = Arc::clone(&fabric);
                loom::thread::spawn(move || {
                    let first = fabric.recv_match(1, COMM, &[0, 1], 0, TAG);
                    let second = fabric.recv_match(1, COMM, &[0, 1], 0, TAG);
                    (first, second)
                })
            };
            send(&fabric, 0, 1, 9).unwrap();
            fabric.exit(0);
            let (first, second) = receiver.join().unwrap();
            assert_eq!(first, Ok(Payload::U64(vec![9])));
            assert_eq!(
                second,
                Err(RuntimeError::Deadlock {
                    blocked: vec![(1, 0, TAG)]
                })
            );
        });
    }
}
