//! The elastic autoscaler: SLO-driven replica scale-out / scale-in.
//!
//! The serving engine runs `r` pipeline replicas against a shared request
//! stream.  The autoscaler watches two pressure signals —
//!
//! * the windowed p99 TTFT of recently *completed* requests, and
//! * the age of the oldest request still waiting for admission (queue
//!   pressure shows up here long before it shows up in completions) —
//!
//! and, when either breaches the TTFT target, has the engine add one
//! replica, as long as fewer than `max_replicas` replicas hold GPUs (the
//! serving analogue of the paper's §3.4.2 elastic release, run in
//! reverse).  New replicas come online after a provisioning delay and are
//! partitioned by the same balancer family that laid out the original
//! replicas.  When the spike passes — backlog far below capacity and p99
//! comfortably inside the target — replicas are drained and their GPUs
//! handed back.
//!
//! The timing is fixed for the compressed sweep time-scales: a check every
//! 2 s over a 20 s window, replicas online 5 s after a scale-out, 8 s
//! between actions, and scale-in below a quarter of target and capacity.

use std::collections::VecDeque;

use dynmo_telemetry::nearest_rank;
use serde::{Deserialize, Serialize};

/// Seconds between policy evaluations.
const CHECK_INTERVAL: f64 = 2.0;

/// Look-back window (seconds) for the completed-request p99.
const WINDOW: f64 = 20.0;

/// Seconds a new replica takes to come online after scale-out.
pub(crate) const PROVISION_DELAY: f64 = 5.0;

/// Minimum seconds between scaling actions.
const COOLDOWN: f64 = 8.0;

/// Scale in only when outstanding work is below this fraction of the
/// remaining replicas' KV capacity *and* p99 and the oldest wait are below
/// this fraction of target.
const SCALE_IN_FRACTION: f64 = 0.25;

/// Autoscaler policy: the target it defends and the replica range.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscalerConfig {
    /// The p99 TTFT the autoscaler defends, in seconds (finite, > 0).
    pub ttft_p99_target: f64,
    /// Replica count floor (≥ 1).
    pub min_replicas: usize,
    /// Replica count ceiling, ≥ `min_replicas` (the deployment's
    /// `max_replicas`, which also counts draining replicas, bounds it too).
    pub max_replicas: usize,
}

impl AutoscalerConfig {
    /// Defend `ttft_p99_target` with between `min_replicas` and
    /// `max_replicas` replicas.
    pub fn responsive(ttft_p99_target: f64, min_replicas: usize, max_replicas: usize) -> Self {
        AutoscalerConfig {
            ttft_p99_target,
            min_replicas,
            max_replicas,
        }
    }
}

/// What the policy decided at one evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleDecision {
    /// Keep the current replica set.
    Hold,
    /// Add one replica.
    Out,
    /// Drain and release one replica.
    In,
}

/// A recorded scaling action.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleEvent {
    /// Simulation time of the action, in seconds.
    pub time: f64,
    /// +n = replicas added, −n = replicas released.
    pub delta: i64,
    /// Active + provisioning replicas after the action.
    pub replicas_after: usize,
    /// The windowed p99 TTFT observed at decision time.
    pub observed_ttft_p99: f64,
    /// Outstanding (queued + running) tokens at decision time.
    pub backlog_tokens: usize,
}

/// The pressure signals an evaluation consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSignals {
    /// Replicas active or provisioning.
    pub replicas: usize,
    /// Outstanding (queued + running) tokens across all replicas.
    pub backlog_tokens: usize,
    /// Age in seconds of the oldest request not yet admitted (0 if none).
    pub oldest_wait: f64,
    /// One replica's KV capacity in tokens.
    pub capacity_tokens_per_replica: usize,
}

/// SLO-driven scaling policy over a sliding completion window.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    config: AutoscalerConfig,
    /// `(completion_time, ttft)` of completions still inside the look-back
    /// window — pruned on every insert, so memory stays `O(window)` over
    /// arbitrarily long serving runs.
    completions: VecDeque<(f64, f64)>,
    next_check: f64,
    last_action: f64,
}

impl Autoscaler {
    /// Create an autoscaler with the given policy (checked by
    /// `ServingConfig::validate`).
    pub fn new(config: AutoscalerConfig) -> Self {
        Autoscaler {
            config,
            completions: VecDeque::new(),
            next_check: CHECK_INTERVAL,
            last_action: f64::NEG_INFINITY,
        }
    }

    /// Record one completed request's TTFT.  Entries that have aged past
    /// the look-back window ending at `time` are pruned on the way in:
    /// completions arrive in (nearly) non-decreasing time order, so the
    /// stale prefix sits at the front and the history can never grow
    /// beyond one window's worth of completions — previously it grew
    /// unboundedly for the whole run.
    pub fn record_completion(&mut self, time: f64, ttft: f64) {
        let horizon = time - WINDOW;
        while self.completions.front().is_some_and(|&(t, _)| t < horizon) {
            self.completions.pop_front();
        }
        self.completions.push_back((time, ttft));
    }

    /// The p99 TTFT over completions inside the look-back window ending at
    /// `now`.
    pub fn windowed_ttft_p99(&self, now: f64) -> f64 {
        let mut window: Vec<f64> = self
            .completions
            .iter()
            .filter(|(t, _)| *t >= now - WINDOW)
            .map(|(_, ttft)| *ttft)
            .collect();
        window.sort_by(|a, b| a.partial_cmp(b).expect("ttfts are finite"));
        nearest_rank(&window, 0.99)
    }

    /// Whether a policy check is due at `now` — lets the caller skip
    /// computing the (non-trivial) load signals on steps where
    /// [`Autoscaler::evaluate`] would return Hold without reading them.
    pub fn check_due(&self, now: f64) -> bool {
        now >= self.next_check
    }

    /// Tell the policy a scaling action actually happened at `now`,
    /// starting the cooldown.  The caller (not [`Autoscaler::evaluate`])
    /// reports this, because a decision can be dropped — e.g. a scale-out
    /// at the deployment's ceiling because a draining replica still holds
    /// its GPUs — and a dropped decision must not burn the
    /// cooldown, or the deployment would sit under-provisioned through an
    /// SLO breach even after the GPUs free up.
    pub fn note_action(&mut self, now: f64) {
        self.last_action = now;
    }

    /// Evaluate the policy at `now`.  Returns [`ScaleDecision::Hold`]
    /// between check intervals and during cooldown; the caller applies the
    /// decision (subject to the deployment's ceiling) and, if it took effect,
    /// reports it via [`Autoscaler::note_action`].
    pub fn evaluate(&mut self, now: f64, signals: &LoadSignals) -> ScaleDecision {
        if now < self.next_check {
            return ScaleDecision::Hold;
        }
        // Catch up the check grid (steps can jump over several intervals).
        while self.next_check <= now {
            self.next_check += CHECK_INTERVAL;
        }
        // Trim completions that can never re-enter the window.
        let horizon = now - WINDOW;
        self.completions.retain(|(t, _)| *t >= horizon);

        if now - self.last_action < COOLDOWN {
            return ScaleDecision::Hold;
        }
        let p99 = self.windowed_ttft_p99(now);
        let target = self.config.ttft_p99_target;
        let pressured = p99 > target || signals.oldest_wait > target;
        if pressured && signals.replicas < self.config.max_replicas {
            return ScaleDecision::Out;
        }
        let relaxed = p99 < SCALE_IN_FRACTION * target
            && signals.oldest_wait < SCALE_IN_FRACTION * target
            && (signals.backlog_tokens as f64)
                < SCALE_IN_FRACTION
                    * signals.capacity_tokens_per_replica as f64
                    * (signals.replicas.saturating_sub(1)) as f64;
        if relaxed && signals.replicas > self.config.min_replicas {
            return ScaleDecision::In;
        }
        ScaleDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> AutoscalerConfig {
        AutoscalerConfig::responsive(1.0, 1, 4)
    }

    fn signals(replicas: usize, backlog: usize, oldest_wait: f64) -> LoadSignals {
        LoadSignals {
            replicas,
            backlog_tokens: backlog,
            oldest_wait,
            capacity_tokens_per_replica: 10_000,
        }
    }

    #[test]
    fn holds_between_check_intervals() {
        let mut scaler = Autoscaler::new(config());
        // Breaching signals, but the first check is not due yet.
        assert_eq!(
            scaler.evaluate(0.5, &signals(1, 50_000, 10.0)),
            ScaleDecision::Hold
        );
        assert_eq!(
            scaler.evaluate(2.5, &signals(1, 50_000, 10.0)),
            ScaleDecision::Out
        );
    }

    #[test]
    fn scales_out_on_completed_ttft_p99_breach() {
        let mut scaler = Autoscaler::new(config());
        for i in 0..100 {
            scaler.record_completion(1.0 + i as f64 * 0.01, 3.0);
        }
        assert!(scaler.windowed_ttft_p99(2.5) > 1.0);
        assert_eq!(
            scaler.evaluate(2.5, &signals(1, 0, 0.0)),
            ScaleDecision::Out
        );
    }

    #[test]
    fn scales_out_on_queue_pressure_before_any_completion() {
        let mut scaler = Autoscaler::new(config());
        assert_eq!(
            scaler.evaluate(2.5, &signals(1, 80_000, 5.0)),
            ScaleDecision::Out
        );
    }

    #[test]
    fn respects_cooldown_and_max_replicas() {
        let mut scaler = Autoscaler::new(config());
        assert_eq!(
            scaler.evaluate(2.5, &signals(1, 0, 9.0)),
            ScaleDecision::Out
        );
        scaler.note_action(2.5); // the caller applied the decision
                                 // Still pressured, but inside the cooldown.
        assert_eq!(
            scaler.evaluate(4.5, &signals(2, 0, 9.0)),
            ScaleDecision::Hold
        );
        // After the cooldown, pressure still there → scale again.
        assert_eq!(
            scaler.evaluate(12.5, &signals(2, 0, 9.0)),
            ScaleDecision::Out
        );
        scaler.note_action(12.5);
        // At the ceiling, never scales out.
        assert_eq!(
            scaler.evaluate(24.5, &signals(4, 0, 9.0)),
            ScaleDecision::Hold
        );
    }

    #[test]
    fn a_dropped_decision_does_not_burn_the_cooldown() {
        // The engine drops an Out decision (at its ceiling) and does NOT
        // call note_action: the very next check may scale out again.
        let mut scaler = Autoscaler::new(config());
        assert_eq!(
            scaler.evaluate(2.5, &signals(1, 0, 9.0)),
            ScaleDecision::Out
        );
        assert_eq!(
            scaler.evaluate(4.5, &signals(1, 0, 9.0)),
            ScaleDecision::Out
        );
    }

    #[test]
    fn scales_in_only_when_quiet_and_above_the_floor() {
        let mut scaler = Autoscaler::new(config());
        for i in 0..50 {
            scaler.record_completion(10.0 + i as f64 * 0.1, 0.05);
        }
        // Quiet: tiny p99, no waiters, backlog ≪ capacity of r−1 replicas.
        assert_eq!(
            scaler.evaluate(16.5, &signals(3, 100, 0.0)),
            ScaleDecision::In
        );
        // At the floor, holds instead.
        let mut floor = Autoscaler::new(config());
        for i in 0..50 {
            floor.record_completion(10.0 + i as f64 * 0.1, 0.05);
        }
        assert_eq!(
            floor.evaluate(16.5, &signals(1, 100, 0.0)),
            ScaleDecision::Hold
        );
    }

    /// Regression: `record_completion` used to push into an unpruned `Vec`,
    /// so a long serving run retained every completion ever made.  The
    /// history must stay bounded by the look-back window no matter how many
    /// completions stream through.
    #[test]
    fn completion_history_stays_bounded_over_a_million_completions() {
        let mut scaler = Autoscaler::new(config()); // 20 s window
        let rate = 100.0; // completions per second
        for i in 0..1_000_000u64 {
            scaler.record_completion(i as f64 / rate, 0.05);
        }
        // At 100/s over a 20 s window at most ~2001 entries are live.
        let bound = (WINDOW * rate) as usize + 1;
        assert!(
            scaler.completions.len() <= bound,
            "window holds {} completions, bound is {bound}",
            scaler.completions.len()
        );
        // And the retained window still answers queries correctly.
        let now = 999_999.0 / rate;
        assert!(scaler.windowed_ttft_p99(now) > 0.0);
    }

    #[test]
    fn window_drops_stale_completions() {
        let mut scaler = Autoscaler::new(config());
        scaler.record_completion(1.0, 50.0);
        // At t=100 the old terrible TTFT has aged out of the 20 s window.
        assert_eq!(scaler.windowed_ttft_p99(100.0), 0.0);
        assert_eq!(
            scaler.evaluate(100.0, &signals(1, 0, 0.0)),
            ScaleDecision::Hold
        );
    }
}
