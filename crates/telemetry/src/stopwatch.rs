//! Wall-clock measurement scopes.
//!
//! A [`Stopwatch`] is the only place telemetry touches real time.  Only the
//! bench harness reads one (`dynmo-lint` flags a reading anywhere else), to
//! report how long its own runs took; the readings are never recorded as
//! events, checkpointed, or folded into checksums — the determinism pins
//! stay byte-identical no matter how slow the machine is.

use std::time::Instant;

/// A running wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    // The designated wall-clock choke point (see clippy.toml): the bench
    // harness measures time through Stopwatch, never Instant directly.
    #[allow(clippy::disallowed_methods)]
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Time a closure, returning its result and the elapsed seconds.
    pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
        let sw = Stopwatch::start();
        let out = f();
        (out, sw.elapsed_seconds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone_and_nonnegative() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_seconds();
        let b = sw.elapsed_seconds();
        assert!(a >= 0.0);
        assert!(b >= a);
    }

    #[test]
    fn time_returns_the_closure_result() {
        let (value, seconds) = Stopwatch::time(|| 40 + 2);
        assert_eq!(value, 42);
        assert!(seconds >= 0.0);
    }
}
