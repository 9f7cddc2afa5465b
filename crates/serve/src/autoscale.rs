//! The state and settings both SLO control loops share: a deployment's
//! completion window, its autoscaler policy and its scale-event log.
//!
//! A deployment that scales keeps one [`TtftWindow`]: the completion time
//! and TTFT of its recently completed requests, fed once per completion
//! as each engine step commits.  Its own autoscaler (the serving analogue
//! of the paper's §3.4.2 elastic release, run in reverse) and a fleet
//! controller driving a deployment built with
//! [`ServingEngine::external`](crate::ServingEngine::external) read the
//! windowed p99 TTFT from it, and the deployment logs that p99 with every
//! [`ScaleEvent`].
//!
//! The autoscaler (`ServingEngine::autoscale`) watches the windowed p99
//! and the age of the oldest request still waiting for admission (queue
//! pressure shows up there long before it shows up in completions).  When
//! either breaches the target it adds one replica, as long as fewer than
//! `max_replicas` replicas hold GPUs; new replicas come online after a
//! provisioning delay.  When the spike passes (backlog far below capacity,
//! p99 and wait comfortably inside the target) it drains one replica.
//!
//! The timing is fixed for the compressed sweep time-scales: a check every
//! 2 s over a 20 s window, replicas online 5 s after a scale-out, 8 s
//! between actions, and scale-in below a quarter of target and capacity.

use std::cell::Cell;
use std::collections::VecDeque;

use dynmo_telemetry::nearest_rank;
use serde::{Deserialize, Serialize};

/// Seconds between autoscaler checks.
pub(crate) const CHECK_INTERVAL: f64 = 2.0;

/// Span (seconds) of a self-managed deployment's completion window.
pub(crate) const WINDOW: f64 = 20.0;

/// Seconds a new replica takes to come online after scale-out.
pub(crate) const PROVISION_DELAY: f64 = 5.0;

/// Minimum seconds between scaling actions.
pub(crate) const COOLDOWN: f64 = 8.0;

/// Scale in only when outstanding work is below this fraction of the
/// remaining replicas' KV capacity *and* p99 and the oldest wait are below
/// this fraction of target.
pub(crate) const SCALE_IN_FRACTION: f64 = 0.25;

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

/// A recorded scaling action.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleEvent {
    /// Simulation time of the action, in seconds.
    pub time: f64,
    /// +n = replicas added, −n = replicas released.
    pub delta: i64,
    /// Active + provisioning replicas after the action.
    pub replicas_after: usize,
    /// The deployment's windowed p99 TTFT at the time of the action.
    pub observed_ttft_p99: f64,
    /// Outstanding (queued + running) tokens at decision time.
    pub backlog_tokens: usize,
}

/// The `(completion time, TTFT)` of a deployment's recently completed
/// requests.  A read at `now` sees the entries completed at or after
/// `now − span`, in whatever order they were pushed.
///
/// Steps run in start order but end out of order, so completions arrive
/// nearly, not exactly, in time order.  A push drops stale entries from
/// the front, which bounds memory without any read, but only those older
/// than the pushing step's *start* minus the span: every later read is at
/// or after that start (the autoscaler reads at the session's monotone
/// step-end clock, a fleet controller at ticks that bound the steps it
/// runs), so no read can see them.  The step's end would be too late a
/// horizon: a fleet tick that falls inside the step still reads entries
/// older than the end minus the span.
#[derive(Debug)]
pub struct TtftWindow {
    span: f64,
    entries: VecDeque<(f64, f64)>,
    /// `(now, count, p99)` of the latest read; a push clears it, so the
    /// window is sorted at most once per change and read time.
    latest: Cell<Option<(f64, usize, f64)>>,
}

impl TtftWindow {
    /// An empty window reaching `span` seconds back from each read.
    pub(crate) fn new(span: f64) -> Self {
        TtftWindow {
            span,
            entries: VecDeque::new(),
            latest: Cell::new(None),
        }
    }

    /// Record a request that completed at `completed` with `ttft`, in an
    /// engine step that started at `step_start`.
    pub(crate) fn push(&mut self, step_start: f64, completed: f64, ttft: f64) {
        let horizon = step_start - self.span;
        while self.entries.front().is_some_and(|&(t, _)| t < horizon) {
            self.entries.pop_front();
        }
        self.entries.push_back((completed, ttft));
        self.latest.set(None);
    }

    /// Completions the window holds as of `now`.
    pub fn count(&self, now: f64) -> usize {
        self.read(now).0
    }

    /// Nearest-rank p99 TTFT over the completions the window holds as of
    /// `now` (0 with none).
    pub fn p99(&self, now: f64) -> f64 {
        self.read(now).1
    }

    fn read(&self, now: f64) -> (usize, f64) {
        if let Some((at, count, p99)) = self.latest.get() {
            if at == now {
                return (count, p99);
            }
        }
        let horizon = now - self.span;
        let mut ttfts: Vec<f64> = self
            .entries
            .iter()
            .filter(|&&(t, _)| t >= horizon)
            .map(|&(_, ttft)| ttft)
            .collect();
        ttfts.sort_by(|a, b| a.partial_cmp(b).expect("TTFTs are finite"));
        let p99 = nearest_rank(&ttfts, 0.99);
        self.latest.set(Some((now, ttfts.len(), p99)));
        (ttfts.len(), p99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The window stays bounded by its span however many completions
    /// stream through, with no read to prune it.
    #[test]
    fn completion_history_stays_bounded_over_a_million_completions() {
        let mut window = TtftWindow::new(WINDOW);
        let rate = 100.0; // completions per second
        for i in 0..1_000_000u64 {
            let t = i as f64 / rate;
            window.push(t, t, 0.05);
        }
        // At 100/s over a 20 s window at most ~2001 entries are live.
        let bound = (WINDOW * rate) as usize + 1;
        assert!(
            window.entries.len() <= bound,
            "window holds {} completions, bound is {bound}",
            window.entries.len()
        );
        // And the retained window still answers reads correctly.
        let now = 999_999.0 / rate;
        assert!(window.p99(now) > 0.0);
        assert!(window.count(now) <= bound);
    }

    #[test]
    fn stale_completions_leave_the_p99() {
        let mut window = TtftWindow::new(WINDOW);
        window.push(0.5, 1.0, 50.0);
        window.push(14.5, 15.0, 0.1);
        assert_eq!(window.p99(20.0), 50.0);
        assert_eq!(window.count(20.0), 2);
        // At t = 30 the terrible TTFT completed more than 20 s ago.
        assert_eq!(window.p99(30.0), 0.1);
        assert_eq!(window.count(30.0), 1);
        // At t = 100 nothing is left.
        assert_eq!(window.p99(100.0), 0.0);
        assert_eq!(window.count(100.0), 0);
    }

    #[test]
    fn a_push_keeps_what_a_read_inside_its_step_still_sees() {
        let mut window = TtftWindow::new(10.0);
        window.push(0.0, 1.0, 4.0);
        // A step from t = 8 to t = 12 completes a request.  A fleet tick at
        // t = 10 falls inside it and still sees the completion at t = 1,
        // which a horizon at the step's end (12 − 10 = 2) would drop.
        window.push(8.0, 12.0, 0.5);
        assert_eq!(window.count(10.0), 2);
        assert_eq!(window.p99(10.0), 4.0);
        assert_eq!(window.entries.len(), 2);
    }

    #[test]
    fn a_push_after_a_read_changes_the_next_read() {
        let mut window = TtftWindow::new(WINDOW);
        window.push(0.0, 1.0, 0.2);
        assert_eq!(window.p99(5.0), 0.2);
        window.push(1.0, 2.0, 3.0);
        assert_eq!(window.p99(5.0), 3.0);
        assert_eq!(window.count(5.0), 2);
    }

    proptest! {
        /// Pushes out of time order; each read at or after every earlier
        /// push's step start, sometimes ahead of later starts.  Every read
        /// equals nearest-rank over all pushed entries with `t ≥ now − span`.
        #[test]
        fn reads_match_nearest_rank_over_the_live_entries(
            draws in prop::collection::vec(0.0f64..1.0, 4..800),
        ) {
            let span = 8.0;
            let mut window = TtftWindow::new(span);
            let mut pushed: Vec<(f64, f64)> = Vec::new();
            let (mut start, mut now) = (0.0, 0.0f64);
            for step in draws.chunks_exact(4) {
                start += 5.0 * step[0];
                let completed = start + 6.0 * step[1];
                let ttft = 10.0 * step[2];
                window.push(start, completed, ttft);
                pushed.push((completed, ttft));
                if step[3] < 0.5 {
                    now = now.max(start) + 6.0 * step[3];
                    let mut live: Vec<f64> = pushed
                        .iter()
                        .filter(|&&(t, _)| t >= now - span)
                        .map(|&(_, ttft)| ttft)
                        .collect();
                    live.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    prop_assert_eq!(window.count(now), live.len());
                    prop_assert_eq!(window.p99(now).to_bits(), nearest_rank(&live, 0.99).to_bits());
                }
            }
        }
    }
}
