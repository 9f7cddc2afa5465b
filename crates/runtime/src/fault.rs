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

/// One scheduled spot-instance eviction: the provider announces it a few
/// iterations ahead (cloud spot/preemptible VMs give a 30–120 s warning),
/// then reclaims the rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpotEviction {
    /// Global rank being reclaimed.
    pub rank: RankId,
    /// Iteration at which the advance warning is delivered.
    pub warn_at: u64,
    /// Iteration at which the rank actually dies (`> warn_at`); like a
    /// [`ScheduledKill`], it fails before doing any work for this iteration.
    pub evict_at: u64,
}

/// Iterations of advance notice a spot eviction gives — enough for one
/// checkpoint-on-warning before the instance is reclaimed.
pub const SPOT_WARNING_ITERATIONS: u64 = 3;

/// A schedule of rank deaths to inject into a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    kills: Vec<ScheduledKill>,
    evictions: Vec<SpotEviction>,
}

/// splitmix64 — the statelessly seedable mixer used to draw the stochastic
/// spot-eviction schedule.  Local to this crate so the runtime stays free of
/// a dependency on the dynamics crate's RNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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

    /// Add a spot eviction of `rank`: warned at `warn_at`, dead at
    /// `evict_at` (builder-style).
    pub fn evict(mut self, rank: RankId, warn_at: u64, evict_at: u64) -> Self {
        assert!(evict_at > warn_at, "eviction must come after its warning");
        self.evictions.push(SpotEviction {
            rank,
            warn_at,
            evict_at,
        });
        self
    }

    /// A stochastic spot-eviction schedule: every rank except rank 0 (the
    /// coordinator, pinned to an on-demand instance) is evicted
    /// independently per iteration with probability `rate`, over the first
    /// `horizon` iterations, with [`SPOT_WARNING_ITERATIONS`] of advance
    /// warning.  At most one eviction per rank.  The schedule is a pure
    /// function of `(world_size, horizon, rate, seed)` — the same seed
    /// always yields the same plan.
    pub fn spot(world_size: usize, horizon: u64, rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        let mut plan = Self::none();
        for rank in 1..world_size {
            // One independent, seed-derived stream per rank so adding a
            // rank never perturbs the other ranks' schedules.
            let mut state = seed ^ (rank as u64).wrapping_mul(0xA076_1D64_78BD_642F);
            for iteration in SPOT_WARNING_ITERATIONS..horizon {
                let draw = splitmix64(&mut state) >> 11; // 53 uniform bits
                let uniform = draw as f64 / (1u64 << 53) as f64;
                if uniform < rate {
                    plan = plan.evict(
                        rank as RankId,
                        iteration - SPOT_WARNING_ITERATIONS,
                        iteration,
                    );
                    break;
                }
            }
        }
        plan
    }

    /// The scheduled kills, in insertion order.
    pub fn kills(&self) -> &[ScheduledKill] {
        &self.kills
    }

    /// The scheduled spot evictions, in insertion order.
    pub fn evictions(&self) -> &[SpotEviction] {
        &self.evictions
    }

    /// Whether the plan schedules any failure at all.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty() && self.evictions.is_empty()
    }

    /// The iteration at which `rank` is scheduled to die, if any (the
    /// earliest over kills and evictions, when several are scheduled).
    pub fn death_of(&self, rank: RankId) -> Option<u64> {
        self.kills
            .iter()
            .filter(|k| k.rank == rank)
            .map(|k| k.at_iteration)
            .chain(
                self.evictions
                    .iter()
                    .filter(|e| e.rank == rank)
                    .map(|e| e.evict_at),
            )
            .min()
    }

    /// The ranks whose eviction warning fires exactly at `iteration`, in
    /// ascending order — what a checkpoint-on-warning hook keys on.
    pub fn warned_at(&self, iteration: u64) -> Vec<RankId> {
        let mut ranks: Vec<RankId> = self
            .evictions
            .iter()
            .filter(|e| e.warn_at == iteration)
            .map(|e| e.rank)
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
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
        assert!(!plan.is_empty());
        assert_eq!(plan.kills().len(), 3);
        assert_eq!(plan.death_of(3), Some(80), "earliest death wins");
        assert_eq!(plan.death_of(1), Some(40));
        assert_eq!(plan.death_of(0), None);
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn evictions_enter_death_of_and_warned_at() {
        let plan = FaultPlan::none()
            .kill(1, 40)
            .evict(1, 17, 20)
            .evict(2, 5, 8);
        assert!(!plan.is_empty());
        assert_eq!(plan.evictions().len(), 2);
        // The eviction at 20 beats the kill at 40.
        assert_eq!(plan.death_of(1), Some(20));
        assert_eq!(plan.death_of(2), Some(8));
        assert_eq!(plan.warned_at(17), vec![1]);
        assert_eq!(plan.warned_at(5), vec![2]);
        assert!(plan.warned_at(6).is_empty());
    }

    #[test]
    #[should_panic(expected = "after its warning")]
    fn eviction_without_advance_warning_is_rejected() {
        let _ = FaultPlan::none().evict(1, 10, 10);
    }

    #[test]
    fn spot_schedule_is_deterministic_per_seed() {
        let a = FaultPlan::spot(8, 200, 0.02, 42);
        let b = FaultPlan::spot(8, 200, 0.02, 42);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::spot(8, 200, 0.02, 43);
        assert_ne!(a, c, "different seed, different plan");
        // A 2% per-iteration hazard over 200 iterations evicts essentially
        // every eligible rank (p(survive) ≈ 0.98^197 ≈ 2%).
        assert!(!a.is_empty());
        for e in a.evictions() {
            assert_ne!(e.rank, 0, "rank 0 is pinned to on-demand");
            assert_eq!(e.evict_at - e.warn_at, SPOT_WARNING_ITERATIONS);
            assert!(e.evict_at < 200);
        }
        // At most one eviction per rank.
        let mut ranks: Vec<_> = a.evictions().iter().map(|e| e.rank).collect();
        ranks.sort_unstable();
        let deduped_len = {
            let mut r = ranks.clone();
            r.dedup();
            r.len()
        };
        assert_eq!(ranks.len(), deduped_len);
    }

    #[test]
    fn spot_rate_zero_schedules_nothing() {
        assert!(FaultPlan::spot(16, 1000, 0.0, 7).is_empty());
    }

    #[test]
    fn injector_executes_evictions_like_kills() {
        let detector = detector();
        let injector = FaultInjector::new(FaultPlan::none().evict(2, 12, 15), detector.clone());
        assert!(injector.tick(2, 12).is_ok(), "warning does not kill");
        assert!(injector.tick(2, 14).is_ok());
        let err = injector.tick(2, 15).unwrap_err();
        assert_eq!(err, RuntimeError::RankFailed { rank: 2 });
        assert!(detector.is_failed(2));
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
