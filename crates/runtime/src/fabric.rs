//! The shared message fabric connecting simulated ranks.
//!
//! The fabric plays the role of the interconnect (NVLink/NVSwitch within a
//! node, InfiniBand across nodes in the paper's testbed): it owns one inbox
//! channel per rank and routes [`Envelope`]s to them.  Delivery is reliable
//! and per-sender ordered, which matches NCCL P2P semantics closely enough
//! for the algorithms reproduced here.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::error::{Result, RuntimeError};
use crate::fault::FailureDetector;
use crate::payload::Payload;
use crate::stats::FabricStats;
use crate::{RankId, Tag};

/// A routed message between two ranks, scoped to a communicator.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Global rank of the sender.
    pub src: RankId,
    /// Global rank of the receiver.
    pub dst: RankId,
    /// Communicator id the message belongs to (so split communicators do
    /// not interfere, mirroring `ncclCommSplit`).
    pub comm: u64,
    /// User or system tag used for matching.
    pub tag: Tag,
    /// The typed payload.
    pub payload: Payload,
}

/// The interconnect shared by all ranks of a simulated job.
#[derive(Debug)]
pub struct Fabric {
    senders: Vec<Sender<Envelope>>,
    stats: FabricStats,
    recv_timeout: Duration,
    detector: FailureDetector,
}

impl Fabric {
    /// Default receive timeout: generous enough for heavily loaded CI
    /// machines, small enough that a deadlocked test fails quickly.
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

    /// How often a blocked receive re-checks the failure detector, so a
    /// peer's death surfaces promptly instead of after the full timeout.
    pub(crate) const FAILURE_POLL: Duration = Duration::from_millis(5);

    /// Create a fabric for `world_size` ranks.  Returns the shared fabric and
    /// one receiver (inbox) per rank, in rank order.
    pub fn new(world_size: usize) -> (Arc<Self>, Vec<Receiver<Envelope>>) {
        Self::with_timeout(world_size, Self::DEFAULT_TIMEOUT)
    }

    /// Create a fabric with a custom receive timeout.
    pub fn with_timeout(
        world_size: usize,
        recv_timeout: Duration,
    ) -> (Arc<Self>, Vec<Receiver<Envelope>>) {
        let mut senders = Vec::with_capacity(world_size);
        let mut receivers = Vec::with_capacity(world_size);
        for _ in 0..world_size {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        (
            Arc::new(Fabric {
                senders,
                stats: FabricStats::new(),
                recv_timeout,
                detector: FailureDetector::new(),
            }),
            receivers,
        )
    }

    /// Number of ranks attached to the fabric.
    pub fn world_size(&self) -> usize {
        self.senders.len()
    }

    /// The receive timeout used by endpoints of this fabric.
    pub fn recv_timeout(&self) -> Duration {
        self.recv_timeout
    }

    /// Access the shared statistics counters.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// The fabric's failure detector (shared by every endpoint).
    pub fn detector(&self) -> &FailureDetector {
        &self.detector
    }

    /// Route an envelope to its destination rank's inbox.  Fails with
    /// [`RuntimeError::RankFailed`] when either end of the transfer is dead.
    pub fn route(&self, envelope: Envelope) -> Result<()> {
        let dst = envelope.dst;
        let sender = self
            .senders
            .get(dst)
            .ok_or(RuntimeError::UnknownRank(dst))?;
        if self.detector.is_failed(envelope.src) {
            return Err(RuntimeError::RankFailed { rank: envelope.src });
        }
        if self.detector.is_failed(dst) {
            return Err(RuntimeError::RankFailed { rank: dst });
        }
        self.stats.record_p2p(envelope.payload.size_bytes());
        sender
            .send(envelope)
            .map_err(|_| RuntimeError::Disconnected { rank: dst })
    }
}

/// A per-rank mailbox with MPI-style (source, tag, communicator) matching.
///
/// Messages that arrive out of order relative to what the rank is waiting
/// for are parked in `pending` and delivered when a matching receive is
/// posted, which is exactly the unexpected-message queue of an MPI
/// implementation.
#[derive(Debug)]
pub struct Endpoint {
    rank: RankId,
    inbox: Receiver<Envelope>,
    pending: Vec<Envelope>,
    timeout: Duration,
    detector: FailureDetector,
}

impl Endpoint {
    /// Build the endpoint for `rank` from its fabric inbox and the fabric's
    /// shared failure detector.
    pub fn new(
        rank: RankId,
        inbox: Receiver<Envelope>,
        timeout: Duration,
        detector: FailureDetector,
    ) -> Self {
        Endpoint {
            rank,
            inbox,
            pending: Vec::new(),
            timeout,
            detector,
        }
    }

    /// Global rank this endpoint belongs to.
    pub fn rank(&self) -> RankId {
        self.rank
    }

    /// Number of messages parked in the unexpected-message queue.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Receive the next message matching `(comm, src, tag)`.
    ///
    /// `src == None` matches any source (MPI_ANY_SOURCE).  The call blocks up
    /// to the fabric timeout and then fails with [`RuntimeError::Timeout`].
    ///
    /// `members` is the membership of the communicator the receive is posted
    /// on: if any member is (or becomes) marked failed while the receive is
    /// blocked, the call fails promptly with [`RuntimeError::RankFailed`] —
    /// a collective on that communicator can never complete, and poisoning
    /// every pending operation is how the failure reaches all survivors.
    /// A matching message that has already arrived is returned first.
    // Deadline bookkeeping is a sanctioned wall-clock use (see clippy.toml)
    // — the reading gates only the timeout error path, never payload data.
    #[allow(clippy::disallowed_methods)]
    pub fn recv_match(
        &mut self,
        comm: u64,
        members: &[RankId],
        src: Option<RankId>,
        tag: Tag,
    ) -> Result<Envelope> {
        let wanted =
            |e: &Envelope| e.comm == comm && e.tag == tag && src.is_none_or(|s| e.src == s);
        // First, look in the unexpected-message queue.
        if let Some(pos) = self.pending.iter().position(wanted) {
            return Ok(self.pending.remove(pos));
        }
        // Then drain the inbox until a match arrives, a member dies, or we
        // time out.  The wait is sliced so the failure detector is observed
        // within FAILURE_POLL even while blocked.
        // LINT: allow(wall-clock) — receive-timeout deadline only; never
        // reaches trajectory data or artifacts.
        let deadline = std::time::Instant::now() + self.timeout;
        loop {
            // A message that has already arrived is delivered even if a
            // member has failed since: only a receive that would have to
            // wait fails on a failure.
            while let Ok(envelope) = self.inbox.try_recv() {
                if wanted(&envelope) {
                    return Ok(envelope);
                }
                self.pending.push(envelope);
            }
            if let Some(failed) = self.detector.first_failed_of(members) {
                return Err(RuntimeError::RankFailed { rank: failed });
            }
            // LINT: allow(wall-clock) — deadline bookkeeping only.
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(RuntimeError::Timeout {
                    rank: self.rank,
                    src,
                    tag,
                });
            }
            let slice = remaining.min(Fabric::FAILURE_POLL);
            match self.inbox.recv_timeout(slice) {
                Ok(envelope) => {
                    if wanted(&envelope) {
                        return Ok(envelope);
                    }
                    self.pending.push(envelope);
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    // Just a poll slice elapsing; loop to re-check the
                    // detector and the overall deadline.
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    return Err(RuntimeError::Disconnected { rank: self.rank });
                }
            }
        }
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
    fn route_delivers_to_destination_inbox() {
        let (fabric, mut inboxes) = Fabric::new(2);
        fabric
            .route(envelope(0, 1, 0, 7, Payload::F32(vec![1.0, 2.0])))
            .unwrap();
        let rx1 = inboxes.remove(1);
        let got = rx1.recv().unwrap();
        assert_eq!(got.src, 0);
        assert_eq!(got.tag, 7);
        assert_eq!(got.payload, Payload::F32(vec![1.0, 2.0]));
        // Stats counted one message of 8 bytes.
        let snap = fabric.stats().snapshot();
        assert_eq!(snap.p2p_messages, 1);
        assert_eq!(snap.p2p_bytes, 8);
    }

    #[test]
    fn route_to_unknown_rank_fails() {
        let (fabric, _inboxes) = Fabric::new(2);
        let err = fabric
            .route(envelope(0, 5, 0, 0, Payload::Empty))
            .unwrap_err();
        assert_eq!(err, RuntimeError::UnknownRank(5));
    }

    #[test]
    fn endpoint_matches_by_tag_and_parks_unexpected() {
        let (fabric, mut inboxes) = Fabric::with_timeout(2, Duration::from_millis(200));
        let rx = inboxes.remove(1);
        let mut ep = Endpoint::new(1, rx, fabric.recv_timeout(), fabric.detector().clone());

        // Send two messages with different tags; receive the second first.
        fabric
            .route(envelope(0, 1, 0, 1, Payload::U32(vec![11])))
            .unwrap();
        fabric
            .route(envelope(0, 1, 0, 2, Payload::U32(vec![22])))
            .unwrap();

        let second = ep.recv_match(0, &[0, 1], Some(0), 2).unwrap();
        assert_eq!(second.payload, Payload::U32(vec![22]));
        assert_eq!(ep.pending_len(), 1);

        let first = ep.recv_match(0, &[0, 1], Some(0), 1).unwrap();
        assert_eq!(first.payload, Payload::U32(vec![11]));
        assert_eq!(ep.pending_len(), 0);
    }

    #[test]
    fn endpoint_filters_by_communicator() {
        let (fabric, mut inboxes) = Fabric::with_timeout(2, Duration::from_millis(200));
        let rx = inboxes.remove(1);
        let mut ep = Endpoint::new(1, rx, fabric.recv_timeout(), fabric.detector().clone());

        fabric
            .route(envelope(0, 1, 99, 5, Payload::U32(vec![1])))
            .unwrap();
        fabric
            .route(envelope(0, 1, 7, 5, Payload::U32(vec![2])))
            .unwrap();

        let got = ep.recv_match(7, &[0, 1], Some(0), 5).unwrap();
        assert_eq!(got.payload, Payload::U32(vec![2]));
        // Message on communicator 99 is parked, not dropped.
        assert_eq!(ep.pending_len(), 1);
    }

    #[test]
    fn endpoint_any_source_matches_first_arrival() {
        let (fabric, mut inboxes) = Fabric::with_timeout(3, Duration::from_millis(200));
        let rx = inboxes.remove(2);
        let mut ep = Endpoint::new(2, rx, fabric.recv_timeout(), fabric.detector().clone());
        fabric
            .route(envelope(1, 2, 0, 4, Payload::U64(vec![10])))
            .unwrap();
        let got = ep.recv_match(0, &[0, 1, 2], None, 4).unwrap();
        assert_eq!(got.src, 1);
    }

    #[test]
    fn a_message_queued_before_a_failure_is_still_delivered() {
        let (fabric, mut inboxes) = Fabric::with_timeout(3, Duration::from_millis(200));
        let rx = inboxes.remove(1);
        let mut ep = Endpoint::new(1, rx, fabric.recv_timeout(), fabric.detector().clone());
        fabric
            .route(envelope(0, 1, 0, 6, Payload::U32(vec![42])))
            .unwrap();
        // Another member of the communicator fails after the send.
        fabric.detector().mark_failed(2);
        let got = ep.recv_match(0, &[0, 1, 2], Some(0), 6).unwrap();
        assert_eq!(got.payload, Payload::U32(vec![42]));
        // With nothing left queued, the failure is reported.
        let err = ep.recv_match(0, &[0, 1, 2], Some(0), 6).unwrap_err();
        assert_eq!(err, RuntimeError::RankFailed { rank: 2 });
    }

    #[test]
    fn recv_times_out_when_no_message_arrives() {
        let (fabric, mut inboxes) = Fabric::with_timeout(1, Duration::from_millis(50));
        let rx = inboxes.remove(0);
        let mut ep = Endpoint::new(0, rx, fabric.recv_timeout(), fabric.detector().clone());
        let err = ep.recv_match(0, &[0], Some(0), 3).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Timeout {
                rank: 0,
                tag: 3,
                ..
            }
        ));
    }
}
