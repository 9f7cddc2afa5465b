//! Communicators: groups of ranks with point-to-point messaging, and the
//! two ways a group is re-formed.
//!
//! DynMo's re-packing (paper §3.4.2) hands the GPUs it empties back to the
//! job manager by splitting the world communicator (`ncclCommSplit`): the
//! ranks that still hold layers form an *active* communicator, and the
//! others simply stop participating.  [`Communicator::split_subset`] does
//! that, and [`Communicator::rebuild_survivors`] re-forms a communicator
//! over the members that have not failed (`ncclCommShrink`).  Both derive
//! the new group without a message: every member computes the same member
//! list and id from what it already knows, and messages on different
//! communicators never mix.

use std::sync::Arc;

use crate::error::{Result, RuntimeError};
use crate::fabric::{Envelope, Fabric};
use crate::payload::Payload;
use crate::{RankId, Tag};

/// Tags at or above this value are reserved for internal collective
/// plumbing; user code must use tags below it.
pub(crate) const SYSTEM_TAG_BASE: Tag = 0x8000_0000;

/// The id of the world communicator created by [`crate::launch`].
pub(crate) const WORLD_COMM_ID: u64 = 1;

/// The tag word mixed into the id of a communicator made by
/// [`Communicator::split_subset`].  A rebuild mixes in its member count,
/// which stays below it, so a split and a rebuild over the same members
/// never share an id.
const SPLIT_WORD: u64 = 1 << 32;

/// A group of ranks that can exchange messages, analogous to an MPI or NCCL
/// communicator.
#[derive(Debug, Clone)]
pub struct Communicator {
    pub(crate) fabric: Arc<Fabric>,
    id: u64,
    /// Global ranks of the members, indexed by local rank.
    members: Arc<Vec<RankId>>,
    /// This rank's index within `members`.
    local_rank: usize,
}

impl Communicator {
    /// The world communicator, every rank of `fabric`, seen from global
    /// rank `rank`.
    pub(crate) fn world(fabric: Arc<Fabric>, rank: RankId) -> Self {
        let members = (0..fabric.world_size()).collect();
        Communicator {
            fabric,
            id: WORLD_COMM_ID,
            members: Arc::new(members),
            local_rank: rank,
        }
    }

    /// This rank's index within the communicator (0-based).
    pub fn rank(&self) -> usize {
        self.local_rank
    }

    /// Number of member ranks.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The global rank backing a local rank.
    pub(crate) fn global_rank(&self, local: usize) -> Result<RankId> {
        self.members
            .get(local)
            .copied()
            .ok_or(RuntimeError::UnknownRank(local))
    }

    /// Global rank of this process.
    pub fn my_global_rank(&self) -> RankId {
        self.members[self.local_rank]
    }

    /// All member global ranks, in local-rank order.
    pub fn members(&self) -> &[RankId] {
        &self.members
    }

    /// Send `payload` to local rank `dst` with `tag`.
    pub fn send(&self, dst: usize, tag: Tag, payload: Payload) -> Result<()> {
        if tag >= SYSTEM_TAG_BASE {
            return Err(RuntimeError::InvalidArgument(format!(
                "user tag {tag:#x} is in the reserved system range"
            )));
        }
        self.send_internal(dst, tag, payload)
    }

    pub(crate) fn send_internal(&self, dst: usize, tag: Tag, payload: Payload) -> Result<()> {
        let dst_global = self.global_rank(dst)?;
        self.fabric.route(Envelope {
            src: self.my_global_rank(),
            dst: dst_global,
            comm: self.id,
            tag,
            payload,
        })
    }

    /// Receive a message from local rank `src` with `tag`.
    pub fn recv(&self, src: usize, tag: Tag) -> Result<Payload> {
        if tag >= SYSTEM_TAG_BASE {
            return Err(RuntimeError::InvalidArgument(format!(
                "user tag {tag:#x} is in the reserved system range"
            )));
        }
        self.recv_internal(src, tag)
    }

    pub(crate) fn recv_internal(&self, src: usize, tag: Tag) -> Result<Payload> {
        let src_global = self.global_rank(src)?;
        self.fabric.recv_match(
            self.my_global_rank(),
            self.id,
            &self.members,
            src_global,
            tag,
        )
    }

    /// The communicator of the ranks listed in `active` (as parent-local
    /// ranks), in the given order, or `None` on a rank that is not listed:
    /// that rank is released and stops participating, like
    /// `ncclCommSplit` with `NCCL_SPLIT_NOCOLOR`.
    ///
    /// Every listed rank must pass the same list; a rank that is not
    /// listed need not call this at all.  No message is exchanged: the id
    /// comes from the parent's id and the member list, so two splits of
    /// one parent over the same list name the same group.  A repeated
    /// entry fails with [`RuntimeError::InvalidArgument`] and an entry
    /// outside the parent with [`RuntimeError::UnknownRank`], on every
    /// rank.
    pub fn split_subset(&self, active: &[usize]) -> Result<Option<Communicator>> {
        let mut members = Vec::with_capacity(active.len());
        for &local in active {
            let global = self.global_rank(local)?;
            if members.contains(&global) {
                return Err(RuntimeError::InvalidArgument(format!(
                    "rank {local} is listed twice in split_subset"
                )));
            }
            members.push(global);
        }
        Ok(self.derive(members, SPLIT_WORD))
    }

    /// Re-form the communicator over the surviving members after a failure —
    /// the fault-tolerant sibling of [`Communicator::split_subset`]
    /// (`ncclCommShrink` semantics).
    ///
    /// A collective split is impossible once a member is dead (it cannot
    /// participate), so the new communicator is derived *without
    /// communication*: every survivor reads the same failed set from the
    /// fabric's failure detector and computes the same member list and
    /// communicator id.  Returns `None` when the calling rank is itself
    /// marked failed; returns a clone of `self` when no member has failed.
    pub fn rebuild_survivors(&self) -> Result<Option<Communicator>> {
        let detector = self.fabric.detector();
        let survivors: Vec<RankId> = self
            .members
            .iter()
            .copied()
            .filter(|&g| !detector.is_failed(g))
            .collect();
        if survivors.len() == self.members.len() {
            return Ok(Some(self.clone()));
        }
        let word = survivors.len() as u64;
        Ok(self.derive(survivors, word))
    }

    /// The communicator over the global ranks `members`, seen from this
    /// rank, or `None` when this rank is not one of them.  Its id mixes
    /// the parent's id, the member list and `word`, so every member derives
    /// the same id and successive re-formations of one parent over
    /// different members never reuse one.
    fn derive(&self, members: Vec<RankId>, word: u64) -> Option<Communicator> {
        let me = self.my_global_rank();
        let local_rank = members.iter().position(|&g| g == me)?;
        let mut set_hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &g in &members {
            set_hash ^= g as u64;
            set_hash = set_hash.wrapping_mul(0x100_0000_01b3);
        }
        Some(Communicator {
            fabric: Arc::clone(&self.fabric),
            id: derive_comm_id(self.id, set_hash, word),
            members: Arc::new(members),
            local_rank,
        })
    }
}

/// Derive a deterministic communicator id from the parent id, a hash of
/// the member list and a tag word.  All members compute the same value
/// without extra coordination.
fn derive_comm_id(parent: u64, members: u64, word: u64) -> u64 {
    // A simple SplitMix64-style mix; collisions across live communicators
    // are practically impossible for the fleet sizes simulated here.
    let mut x = parent
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(members.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(word.wrapping_mul(0x94D0_49BB_1331_11EB));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x | 0x8000_0000_0000_0000 // never collide with the world id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launcher::launch;

    #[test]
    fn user_tags_in_system_range_are_rejected() {
        let results = launch(2, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 0 {
                let err = comm.send(1, SYSTEM_TAG_BASE, Payload::Empty).unwrap_err();
                matches!(err, RuntimeError::InvalidArgument(_))
            } else {
                let err = comm.recv(0, SYSTEM_TAG_BASE + 4).unwrap_err();
                matches!(err, RuntimeError::InvalidArgument(_))
            }
        })
        .unwrap();
        assert!(results.into_iter().all(|ok| ok));
    }

    #[test]
    fn p2p_send_recv_between_ranks() {
        let results = launch(3, |ctx| {
            let comm = ctx.world();
            match ctx.rank() {
                0 => {
                    comm.send(2, 5, Payload::F32(vec![1.5, 2.5])).unwrap();
                    Vec::new()
                }
                2 => comm.recv(0, 5).unwrap().into_f32().unwrap(),
                _ => Vec::new(),
            }
        })
        .unwrap();
        assert_eq!(results[2], vec![1.5, 2.5]);
    }

    #[test]
    fn split_subset_builds_disjoint_active_group() {
        // 4 ranks; re-pack onto ranks {0, 2}; the others become idle.
        let results = launch(4, |ctx| {
            let comm = ctx.world();
            let active = comm.split_subset(&[0, 2]).unwrap();
            match active {
                Some(sub) => {
                    // Active ranks exchange a message on the new communicator.
                    let peer = 1 - sub.rank();
                    sub.send(peer, 3, Payload::U64(vec![sub.rank() as u64]))
                        .unwrap();
                    let got = sub.recv(peer, 3).unwrap().into_u64().unwrap()[0];
                    Some((sub.size(), sub.rank(), got))
                }
                None => None,
            }
        })
        .unwrap();
        assert_eq!(results[0], Some((2, 0, 1)));
        assert_eq!(results[2], Some((2, 1, 0)));
        assert_eq!(results[1], None);
        assert_eq!(results[3], None);
    }

    #[test]
    fn split_subset_is_local() {
        // Rank 2 is released without calling split_subset: no message is
        // exchanged, so ranks 0 and 1 neither wait for it nor deadlock.
        let results = launch(3, |ctx| {
            if ctx.rank() == 2 {
                return None;
            }
            let sub = ctx.world().split_subset(&[0, 1]).unwrap().unwrap();
            sub.barrier().unwrap();
            let sum = sub.allreduce_sum_f32(&[ctx.rank() as f32 + 1.0]).unwrap();
            Some((sub.members().to_vec(), sum))
        })
        .unwrap();
        for result in &results[..2] {
            assert_eq!(result, &Some((vec![0, 1], vec![3.0])));
        }
        assert_eq!(results[2], None);
    }

    #[test]
    fn split_subset_rejects_repeated_and_unknown_ranks_on_every_rank() {
        let results = launch(2, |ctx| {
            let world = ctx.world();
            let repeated = world.split_subset(&[0, 0]).unwrap_err();
            let unknown = world.split_subset(&[0, 5]).unwrap_err();
            (repeated, unknown)
        })
        .unwrap();
        for (repeated, unknown) in results {
            assert!(
                matches!(repeated, RuntimeError::InvalidArgument(_)),
                "{repeated}"
            );
            assert_eq!(unknown, RuntimeError::UnknownRank(5));
        }
    }

    #[test]
    fn a_split_and_a_rebuild_over_the_same_members_differ() {
        let results = launch(3, |ctx| {
            if ctx.rank() == 2 {
                ctx.fabric().detector().mark_failed(2);
                return None;
            }
            while !ctx.fabric().detector().is_failed(2) {
                std::thread::yield_now();
            }
            let world = ctx.world();
            let rebuilt = world.rebuild_survivors().unwrap().unwrap();
            let split = world.split_subset(&[0, 1]).unwrap().unwrap();
            let again = world.split_subset(&[0, 1]).unwrap().unwrap();
            assert_eq!(rebuilt.members(), split.members());
            assert_eq!(split.id, again.id, "two splits name one group");
            Some(rebuilt.id != split.id)
        })
        .unwrap();
        assert_eq!(results, vec![Some(true), Some(true), None]);
    }

    #[test]
    fn messages_do_not_cross_communicators() {
        let results = launch(2, |ctx| {
            let comm = ctx.world();
            let sub = comm.split_subset(&[0, 1]).unwrap().unwrap();
            if ctx.rank() == 0 {
                // Send on the sub-communicator only.
                sub.send(1, 7, Payload::U64(vec![77])).unwrap();
                0
            } else {
                // The message is scoped to the sub-communicator, so a
                // receive for the same tag on the world communicator never
                // matches it: once rank 0 has exited, that is a deadlock.
                let err = comm.recv(0, 7).unwrap_err();
                assert!(matches!(err, RuntimeError::Deadlock { .. }), "{err}");
                sub.recv(0, 7).unwrap().into_u64().unwrap()[0]
            }
        })
        .unwrap();
        assert_eq!(results[1], 77);
    }

    #[test]
    fn send_touching_a_failed_rank_errors() {
        let results = launch(3, |ctx| {
            let comm = ctx.world();
            comm.barrier().unwrap();
            if ctx.rank() == 0 {
                ctx.fabric().detector().mark_failed(2);
                let err = comm.send(2, 4, Payload::Empty).unwrap_err();
                matches!(err, RuntimeError::RankFailed { rank: 2 })
            } else {
                true
            }
        })
        .unwrap();
        assert!(results.into_iter().all(|ok| ok));
    }

    #[test]
    fn collectives_on_a_poisoned_communicator_fail_then_survivors_rebuild() {
        let results = launch(3, |ctx| {
            let comm = ctx.world();
            if ctx.rank() == 2 {
                // Simulated crash: mark failed and stop participating.
                ctx.fabric().detector().mark_failed(2);
                return None;
            }
            // The world collective can never complete once rank 2 is dead;
            // both survivors must see RankFailed promptly (not a deadlock).
            let err = comm.allreduce_sum_f32(&[1.0]).unwrap_err();
            assert_eq!(err, RuntimeError::RankFailed { rank: 2 });
            // Rebuild over the survivors and finish the collective there.
            let rebuilt = comm.rebuild_survivors().unwrap().unwrap();
            assert_eq!(rebuilt.members(), &[0, 1]);
            let sum = rebuilt.allreduce_sum_f32(&[1.0]).unwrap();
            Some((rebuilt.rank(), sum[0] as usize))
        })
        .unwrap();
        assert_eq!(results[0], Some((0, 2)));
        assert_eq!(results[1], Some((1, 2)));
        assert_eq!(results[2], None);
    }

    #[test]
    fn rebuild_without_failures_is_an_identity() {
        let results = launch(2, |ctx| {
            let comm = ctx.world();
            let rebuilt = comm.rebuild_survivors().unwrap().unwrap();
            (rebuilt.id == comm.id, rebuilt.size())
        })
        .unwrap();
        assert_eq!(results, vec![(true, 2), (true, 2)]);
    }

    #[test]
    fn rebuild_on_the_failed_rank_returns_none() {
        let results = launch(2, |ctx| {
            if ctx.rank() == 1 {
                ctx.fabric().detector().mark_failed(1);
                ctx.world().rebuild_survivors().unwrap().is_none()
            } else {
                // Wait for the mark so the rebuild below observes it.
                while !ctx.fabric().detector().is_failed(1) {
                    std::thread::yield_now();
                }
                let rebuilt = ctx.world().rebuild_survivors().unwrap().unwrap();
                rebuilt.size() == 1 && rebuilt.rank() == 0
            }
        })
        .unwrap();
        assert!(results.into_iter().all(|ok| ok));
    }

    #[test]
    fn derive_comm_id_is_deterministic_and_distinct() {
        let a = derive_comm_id(1, 0, 1);
        let b = derive_comm_id(1, 0, 1);
        let c = derive_comm_id(1, 1, 1);
        let d = derive_comm_id(1, 0, 2);
        let e = derive_comm_id(1, 0, SPLIT_WORD);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(a, e);
        assert_ne!(a, WORLD_COMM_ID);
    }
}
