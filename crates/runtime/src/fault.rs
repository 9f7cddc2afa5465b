//! Failure injection and fabric-level failure detection.
//!
//! The paper's elastic story (§3.4.2) assumes a perfectly reliable fleet;
//! production pipeline training does not get that luxury.  This module makes
//! the simulated fabric *unreliable on demand*: a [`FaultPlan`] schedules
//! rank deaths at specific training iterations, a [`FaultInjector`] executes
//! them, and a [`FailureDetector`] — shared by every rank of a fabric —
//! surfaces the death to the survivors, the way NCCL's async error handling
//! poisons every outstanding operation on a communicator once a peer is
//! gone.
//!
//! The semantics mirror `ncclCommAbort`/`ncclRemoteError`:
//!
//! * the dying rank marks itself failed and stops participating;
//! * any send touching a failed rank returns [`RuntimeError::RankFailed`];
//! * any receive posted on a communicator that *contains* a failed member
//!   fails promptly with [`RuntimeError::RankFailed`], ahead of any
//!   deadlock report, even if the rank being waited on is still alive —
//!   once a member is dead, collectives on that communicator can never
//!   complete, and surfacing the error everywhere is what lets every
//!   survivor converge to the recovery path without a coordinator.

use std::sync::Arc;

use crate::error::{Result, RuntimeError};
use crate::fabric::Shared;
use crate::RankId;

/// The failed set of a [`crate::Fabric`], consulted by every communicator
/// attached to it.
///
/// Cloning is cheap and shares the fabric's state (the detector is the one
/// piece of "control plane" state that survives a rank's death).
#[derive(Debug, Clone)]
pub struct FailureDetector {
    shared: Arc<Shared>,
}

impl FailureDetector {
    pub(crate) fn new(shared: Arc<Shared>) -> Self {
        FailureDetector { shared }
    }

    /// Record `rank` as failed and wake every receive blocked on the
    /// fabric, so the ones on a communicator containing `rank` fail
    /// promptly.  Idempotent; returns whether the rank was newly marked.
    pub fn mark_failed(&self, rank: RankId) -> bool {
        self.shared.mark_failed(rank)
    }

    /// Whether `rank` has been marked failed.
    pub fn is_failed(&self, rank: RankId) -> bool {
        self.shared.state.lock().failed.contains(&rank)
    }
}

/// One scheduled rank death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledKill {
    /// Global rank to kill.
    pub rank: RankId,
    /// Training iteration at which the rank dies (it fails *before* doing
    /// any work for this iteration).
    pub at_iteration: u64,
}

/// A schedule of rank deaths to inject into a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    kills: Vec<ScheduledKill>,
}

impl FaultPlan {
    /// A plan with no failures (the reliable-fabric default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Add a scheduled death of `rank` at `iteration` (builder-style).
    pub fn kill(mut self, rank: RankId, at_iteration: u64) -> Self {
        self.kills.push(ScheduledKill { rank, at_iteration });
        self
    }

    /// The scheduled kills, in insertion order.
    pub fn kills(&self) -> &[ScheduledKill] {
        &self.kills
    }

    /// The iteration at which `rank` is scheduled to die, if any (the
    /// earliest, when several kills name it).
    pub fn death_of(&self, rank: RankId) -> Option<u64> {
        self.kills
            .iter()
            .filter(|k| k.rank == rank)
            .map(|k| k.at_iteration)
            .min()
    }
}

/// Executes a [`FaultPlan`] against a fabric's [`FailureDetector`].
///
/// Every rank calls [`FaultInjector::tick`] at the top of each iteration;
/// when the plan says this rank dies here, the injector marks it failed in
/// the shared detector and returns [`RuntimeError::RankFailed`] so the rank
/// body can abort, simulating the process crash.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    detector: FailureDetector,
}

impl FaultInjector {
    /// Bind a plan to the detector of the fabric the job runs on.
    pub fn new(plan: FaultPlan, detector: FailureDetector) -> Self {
        FaultInjector { plan, detector }
    }

    /// Advance `rank` to `iteration`.  Returns
    /// `Err(RuntimeError::RankFailed)` if the plan kills this rank at (or
    /// before) this iteration; the caller must stop participating.
    pub fn tick(&self, rank: RankId, iteration: u64) -> Result<()> {
        if self.detector.is_failed(rank) {
            return Err(RuntimeError::RankFailed { rank });
        }
        match self.plan.death_of(rank) {
            Some(at) if at <= iteration => {
                self.detector.mark_failed(rank);
                Err(RuntimeError::RankFailed { rank })
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> FailureDetector {
        crate::Fabric::new(8).detector().clone()
    }

    #[test]
    fn detector_marks_and_reports_failures() {
        let d = detector();
        assert!(!d.is_failed(2));
        assert!(d.mark_failed(2));
        assert!(!d.mark_failed(2), "second mark is idempotent");
        assert!(d.is_failed(2));
    }

    #[test]
    fn detector_clones_share_state() {
        let d = detector();
        let clone = d.clone();
        d.mark_failed(7);
        assert!(clone.is_failed(7));
    }

    #[test]
    fn plan_records_and_queries_kills() {
        let plan = FaultPlan::none().kill(3, 120).kill(1, 40).kill(3, 80);
        assert_eq!(plan.kills().len(), 3);
        assert_eq!(plan.death_of(3), Some(80), "earliest death wins");
        assert_eq!(plan.death_of(1), Some(40));
        assert_eq!(plan.death_of(0), None);
        assert!(FaultPlan::none().kills().is_empty());
    }

    #[test]
    fn injector_kills_at_and_after_the_scheduled_iteration() {
        let detector = detector();
        let injector = FaultInjector::new(FaultPlan::none().kill(1, 10), detector.clone());
        assert!(injector.tick(1, 9).is_ok());
        assert!(!detector.is_failed(1));
        let err = injector.tick(1, 10).unwrap_err();
        assert_eq!(err, RuntimeError::RankFailed { rank: 1 });
        assert!(detector.is_failed(1));
        // Once dead, always dead.
        assert!(injector.tick(1, 11).is_err());
        // Other ranks are unaffected.
        assert!(injector.tick(0, 999).is_ok());
    }
}
