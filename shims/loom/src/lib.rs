//! Offline loom-style concurrency model checker for threads, mutexes and
//! condvars.
//!
//! [`model`] runs a closure under a deterministic cooperative scheduler and
//! re-runs it until every reachable thread interleaving has been explored.
//! Each nondeterministic decision — which thread runs at a visible
//! operation, which condvar waiter a notify wakes — is recorded on a
//! decision path; the driver DFS-advances that path between iterations and
//! replays the prefix, exactly like loom's permutation search.
//!
//! Only one model thread runs between two visible operations, and shared
//! state goes through model mutexes, so every execution is sequentially
//! consistent: the interleavings are the whole search.  A deadlock (a
//! parked condvar waiter with no wakeup coming, or a lock cycle) is
//! reported with each blocked thread and its last site; a livelock trips a
//! per-interleaving operation cap; a panic on any model thread fails the
//! model with its message.
//!
//! The API mirrors the subset of loom the workspace shims need
//! (`loom::thread`, `loom::sync::{Mutex, Condvar}`, `loom::model`); every
//! type degrades to the plain `std` primitive when constructed outside a
//! model closure, so instrumented code paths also run unchanged in ordinary
//! tests.
//!
//! ```
//! use std::sync::Arc;
//!
//! use loom::sync::Mutex;
//!
//! let report = loom::model(|| {
//!     let counter = Arc::new(Mutex::new(0));
//!     let other = Arc::clone(&counter);
//!     let handle = loom::thread::spawn(move || *other.lock().unwrap() += 1);
//!     *counter.lock().unwrap() += 1;
//!     handle.join().unwrap();
//!     assert_eq!(*counter.lock().unwrap(), 2);
//! });
//! assert!(report.iterations >= 2);
//! ```

pub mod sync;
pub mod thread;

mod exec;

use std::any::Any;
use std::sync::Arc;

/// Interleavings explored before the search stops and reports itself
/// [`Report::truncated`].
const MAX_ITERATIONS: u64 = 200_000;

/// Visible operations one interleaving may run before it is reported as a
/// livelock.
const MAX_OPS: u64 = 100_000;

/// Summary of one completed exploration.
#[derive(Clone, Copy, Debug)]
pub struct Report {
    /// Number of distinct interleavings executed.
    pub iterations: u64,
    /// Longest decision path encountered.
    pub max_depth: usize,
    /// True when the iteration cap stopped the search before exhaustion.
    pub truncated: bool,
}

/// Explore `body` until exhaustion (or the iteration cap), panicking on the
/// first interleaving that exhibits an error — assertion failure, deadlock,
/// or livelock — with the failing decision path's diagnostics.
pub fn model<F>(body: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    install_panic_hook();
    let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
    let mut prefix: Vec<u32> = Vec::new();
    let mut iterations = 0u64;
    let mut max_depth = 0usize;
    loop {
        let execution = exec::Execution::new(prefix);
        let root = Arc::clone(&body);
        execution.start_thread(0, move || {
            root();
            Box::new(()) as Box<dyn Any + Send>
        });
        let (mut path, error) = execution.wait_done();
        iterations += 1;
        max_depth = max_depth.max(path.len());
        if let Some(error) = error {
            panic!(
                "loom model failure after {iterations} interleaving(s) \
                 (decision depth {}): {error}",
                path.len()
            );
        }
        // DFS advance: drop exhausted trailing decisions, bump the deepest
        // one with alternatives left.
        while path.last().is_some_and(|c| c.chosen + 1 >= c.options) {
            path.pop();
        }
        let Some(choice) = path.last_mut() else {
            return Report {
                iterations,
                max_depth,
                truncated: false,
            };
        };
        choice.chosen += 1;
        if iterations >= MAX_ITERATIONS {
            return Report {
                iterations,
                max_depth,
                truncated: true,
            };
        }
        prefix = path.into_iter().map(|choice| choice.chosen).collect();
    }
}

/// One global hook: a panic on a model thread aborts its execution (so the
/// report names the interleaving) instead of printing; every other panic
/// falls through to the previous hook.
fn install_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<exec::AbortUnwind>() {
                // Controlled teardown unwind, never an error.
                return;
            }
            if let Some((execution, tid)) = exec::current() {
                let site = info
                    .location()
                    .map(|l| l.to_string())
                    .unwrap_or_else(|| "<unknown>".to_string());
                let message = exec::panic_message(info.payload());
                execution.handle_user_panic(tid, format!("panicked at {site}: {message}"));
                return;
            }
            previous(info);
        }));
    });
}
