//! A scoped-thread stand-in for the parts of rayon the workspace uses.
//!
//! Every simulated result here is a pure function of (config, seed), so host
//! threads have one job: spreading independent sweep cells and CPU SpMM rows
//! across cores.  This shim does that with `std::thread::scope` and one lock,
//! behind rayon's call-site surface: `par_iter().map(..).collect()`,
//! `par_chunks_mut(..).enumerate().for_each(..)`, `ThreadPoolBuilder`,
//! `ThreadPool::install` and `current_num_threads`.
//!
//! # Execution
//!
//! A parallel call runs on [`current_num_threads`] threads: the caller plus
//! helpers spawned for the call and joined before it returns.  Each thread
//! claims the next contiguous batch of `max(1, len / (threads * 8))` items
//! from the source iterator under one lock, then runs them with the lock
//! released.  Contiguous batches keep the rows a thread writes adjacent in
//! memory; claiming one row at a time made neighbouring threads share cache
//! lines.  A parallel call made inside another one runs inline on its
//! thread, so a run never holds more threads than the pool's count.
//!
//! # Thread count
//!
//! `DYNMO_THREADS` if set, else the host's available parallelism, read once
//! per process.  A set value must be a positive integer (surrounding
//! whitespace is ignored); values above 1024 are capped at 1024.  Anything
//! else is an error that names the variable and the value:
//! [`ThreadPoolBuilder::build`] returns it, and a parallel call that needs
//! the default count panics with it.  Code that needs a pinned count builds
//! its own pool:
//!
//! ```
//! use rayon::prelude::*;
//!
//! let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
//! let doubled: Vec<i32> = pool.install(|| vec![1, 2, 3].par_iter().map(|x| x * 2).collect());
//! assert_eq!(doubled, vec![2, 4, 6]);
//! ```
//!
//! # Determinism
//!
//! `collect` returns results in source order, whichever thread computed
//! them, so `map(..).collect()` equals a single-threaded run.  The sweep
//! binaries rely on this: their JSON artifacts must not depend on the
//! machine's core count.
//!
//! # Panics
//!
//! A panic in an item reaches the caller of the parallel call once every
//! thread of the call has stopped, so borrowed data stays alive exactly as
//! long as in a sequential loop.

#![warn(missing_docs)]

use std::cell::Cell;
use std::fmt;
use std::num::IntErrorKind;
use std::panic;
use std::slice::{ChunksMut, Iter};
use std::sync::{Mutex, OnceLock};
use std::thread::LocalKey;

/// The environment variable that sets the default thread count.
const THREADS_VAR: &str = "DYNMO_THREADS";

/// Ceiling on any pool's thread count.
const MAX_THREADS: usize = 1024;

thread_local! {
    /// The count [`ThreadPool::install`] set on this thread, if any.
    static INSTALLED: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set while this thread runs a parallel call's items.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// Parse a `DYNMO_THREADS` value: a positive integer, capped at
/// [`MAX_THREADS`].
fn parse_threads(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n.min(MAX_THREADS)),
        Err(err) if *err.kind() == IntErrorKind::PosOverflow => Ok(MAX_THREADS),
        _ => Err(format!(
            "{THREADS_VAR} must be a positive integer, not {value:?}"
        )),
    }
}

/// The default thread count: `DYNMO_THREADS` if set, else the host's
/// available parallelism.
fn default_num_threads() -> Result<usize, String> {
    static DEFAULT: OnceLock<Result<usize, String>> = OnceLock::new();
    DEFAULT
        .get_or_init(|| match std::env::var_os(THREADS_VAR) {
            Some(value) => parse_threads(&value.to_string_lossy()),
            None => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
        })
        .clone()
}

/// The thread count of the current pool: the one installed on this thread
/// by [`ThreadPool::install`], else the default.
///
/// # Panics
///
/// Outside `install`, if `DYNMO_THREADS` is set but not a positive integer.
pub fn current_num_threads() -> usize {
    INSTALLED
        .get()
        .unwrap_or_else(|| default_num_threads().unwrap_or_else(|message| panic!("{message}")))
}

/// Sets a thread-local cell and puts the old value back when dropped, also
/// on unwind.
struct Restore<T: Copy + 'static> {
    cell: &'static LocalKey<Cell<T>>,
    old: T,
}

impl<T: Copy + 'static> Restore<T> {
    fn set(cell: &'static LocalKey<Cell<T>>, value: T) -> Self {
        Restore {
            cell,
            old: cell.replace(value),
        }
    }
}

impl<T: Copy + 'static> Drop for Restore<T> {
    fn drop(&mut self) {
        self.cell.set(self.old);
    }
}

/// Run `op` on every item of `items` on up to [`current_num_threads`]
/// threads, and return the results in source order.
fn run<I, F, R>(items: I, op: &F) -> Vec<R>
where
    I: ExactSizeIterator + Send,
    F: Fn(I::Item) -> R + Sync,
    R: Send,
{
    let len = items.len();
    let pool = if IN_PARALLEL.get() {
        1
    } else {
        current_num_threads()
    };
    let threads = pool.min(len);
    if threads <= 1 {
        return items.map(op).collect();
    }
    let batch = (len / (threads * 8)).max(1);
    // The index of the next unclaimed item, and the items themselves.
    let source = Mutex::new((0, items));
    let work = || {
        let _inline = Restore::set(&IN_PARALLEL, true);
        let mut claimed = Vec::with_capacity(batch);
        let mut done = Vec::new();
        loop {
            let start = {
                let mut source = source
                    .lock()
                    .expect("the source iterator panicked while a batch was claimed");
                let (next, items) = &mut *source;
                claimed.extend(items.take(batch));
                let start = *next;
                *next += claimed.len();
                start
            };
            if claimed.is_empty() {
                return done;
            }
            done.push((start, claimed.drain(..).map(op).collect::<Vec<R>>()));
        }
    };
    let mut batches = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads)
            .map(|_| {
                scope.spawn(|| {
                    INSTALLED.set(Some(pool));
                    work()
                })
            })
            .collect();
        let mut batches = work();
        for helper in helpers {
            batches.extend(
                helper
                    .join()
                    .unwrap_or_else(|payload| panic::resume_unwind(payload)),
            );
        }
        batches
    });
    batches.sort_unstable_by_key(|&(start, _)| start);
    let mut results = Vec::with_capacity(len);
    for (_, batch) in batches {
        results.extend(batch);
    }
    results
}

/// A parallel iterator over a sequential source; see the crate docs for how
/// its items are spread over threads.
pub struct ParIter<I> {
    items: I,
}

impl<I> ParIter<I>
where
    I: ExactSizeIterator + Send,
    I::Item: Send,
{
    /// Pair each item with its index in the source.
    pub fn enumerate(self) -> ParIter<std::iter::Enumerate<I>> {
        ParIter {
            items: self.items.enumerate(),
        }
    }

    /// Transform each item with `op`.
    pub fn map<F, R>(self, op: F) -> Map<I, F>
    where
        F: Fn(I::Item) -> R + Sync + Send,
        R: Send,
    {
        Map {
            items: self.items,
            op,
        }
    }

    /// Run `op` on every item.
    pub fn for_each<F>(self, op: F)
    where
        F: Fn(I::Item) + Sync + Send,
    {
        run(self.items, &op);
    }
}

/// A [`ParIter`] whose items are transformed on the thread that claims
/// them; see [`ParIter::map`].
pub struct Map<I, F> {
    items: I,
    op: F,
}

impl<I, F, R> Map<I, F>
where
    I: ExactSizeIterator + Send,
    I::Item: Send,
    F: Fn(I::Item) -> R + Sync + Send,
    R: Send,
{
    /// Transform each result again with `next`.
    pub fn map<G, S>(self, next: G) -> Map<I, impl Fn(I::Item) -> S + Sync + Send>
    where
        G: Fn(R) -> S + Sync + Send,
        S: Send,
    {
        let Map { items, op } = self;
        Map {
            items,
            op: move |item| next(op(item)),
        }
    }

    /// Collect the results, in source order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        run(self.items, &self.op).into_iter().collect()
    }
}

/// `par_iter` on slices, and through deref on `Vec`s.
pub trait ParallelSlice<T: Sync> {
    /// A parallel iterator over the elements.
    fn par_iter(&self) -> ParIter<Iter<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<Iter<'_, T>> {
        ParIter { items: self.iter() }
    }
}

/// `par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// A parallel iterator over disjoint `chunk_size`-long chunks; the last
    /// may be shorter.
    ///
    /// # Panics
    ///
    /// If `chunk_size` is 0.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<ChunksMut<'_, T>>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<ChunksMut<'_, T>> {
        ParIter {
            items: self.chunks_mut(chunk_size),
        }
    }
}

/// The traits call sites import (`use rayon::prelude::*`).
pub mod prelude {
    pub use super::{ParallelSlice, ParallelSliceMut};
}

/// Error returned by [`ThreadPoolBuilder::build`] when the default thread
/// count is needed and `DYNMO_THREADS` is not a positive integer.
#[derive(Debug)]
pub struct ThreadPoolBuildError {
    message: String,
}

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`] (rayon's constructor, used by tests and
/// benches to pin thread counts).
#[derive(Debug, Default, Clone)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Start building a pool with the default thread count.
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Set the thread count (`0` = the default count, like rayon).  Counts
    /// above 1024 are capped at 1024.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Build the pool.  Fails only when the default count is needed and
    /// `DYNMO_THREADS` is not a positive integer.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let num_threads = match self.num_threads {
            0 => default_num_threads().map_err(|message| ThreadPoolBuildError { message })?,
            n => n.min(MAX_THREADS),
        };
        Ok(ThreadPool { num_threads })
    }
}

/// A thread count for the parallel calls made under
/// [`ThreadPool::install`].  It owns no threads: each parallel call spawns
/// its helpers and joins them before it returns.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `op` on the calling thread with this pool's thread count, and
    /// restore the previous count afterwards, also when `op` panics.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        let _restore = Restore::set(&INSTALLED, Some(self.num_threads));
        op()
    }

    /// This pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pool(n: usize) -> crate::ThreadPool {
        crate::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    }

    #[test]
    fn par_chunks_mut_behaves_like_chunks_mut() {
        let mut data = [0u32; 6];
        data.par_chunks_mut(2).enumerate().for_each(|(i, chunk)| {
            for v in chunk {
                *v = i as u32;
            }
        });
        assert_eq!(data, [0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn map_collect_preserves_index_order() {
        let input: Vec<usize> = (0..1000).collect();
        let seq: Vec<usize> = input.iter().map(|&x| x * 3 + 1).collect();
        let par: Vec<usize> = pool(4).install(|| input.par_iter().map(|&x| x * 3 + 1).collect());
        assert_eq!(par, seq);
    }

    /// Skewed task sizes: one huge cell plus many tiny ones.  The order of
    /// the collected output must still match index order exactly — stealing
    /// may reorder execution, never results.
    #[test]
    fn skewed_task_sizes_preserve_collect_order() {
        let pool = pool(4);
        let work: Vec<u64> = (0..64)
            .map(|i| if i == 0 { 200_000 } else { 50 + i })
            .collect();
        let out: Vec<u64> = pool.install(|| {
            work.par_iter()
                .map(|&iters| {
                    // Busy work proportional to the cell's skewed size.
                    let mut acc = 0u64;
                    for k in 0..iters {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    // Return something that depends on the input only.
                    iters ^ (acc & 1)
                })
                .map(|v| v & !1)
                .collect()
        });
        let expected: Vec<u64> = work.iter().map(|&v| v & !1).collect();
        assert_eq!(out, expected);
    }

    /// A panicking closure must propagate to the caller and leave the pool
    /// usable, not hang a worker or deadlock the join.
    #[test]
    fn panic_in_task_propagates_and_pool_survives() {
        let pool = pool(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                let data: Vec<u32> = (0..100).collect();
                let _: Vec<u32> = data
                    .par_iter()
                    .map(|&x| {
                        if x == 57 {
                            panic!("boom at {x}");
                        }
                        x
                    })
                    .collect();
            })
        }));
        assert!(result.is_err(), "panic must reach the install caller");
        // The pool must still execute new work afterwards.
        let sum: u64 = pool.install(|| {
            let data: Vec<u64> = (0..1000).collect();
            let v: Vec<u64> = data.par_iter().map(|&x| x).collect();
            v.iter().sum()
        });
        assert_eq!(sum, 499_500);
    }

    /// Stress-loop for the deque steal race: many rounds of fine-grained
    /// fan-out where every index must be executed exactly once.
    #[test]
    fn steal_race_stress_executes_every_index_once() {
        let pool = pool(4);
        for _round in 0..20 {
            let n = 10_000;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.install(|| {
                let idx: Vec<usize> = (0..n).collect();
                idx.par_iter().for_each(|&i| {
                    hits[i].fetch_add(1, Ordering::SeqCst);
                });
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
                "some index ran zero or multiple times"
            );
        }
    }

    #[test]
    fn single_thread_pool_is_fully_sequential_and_correct() {
        let pool = pool(1);
        let out: Vec<usize> = pool.install(|| {
            let v: Vec<usize> = (0..100).collect();
            v.par_iter().map(|&x| x + 1).collect()
        });
        assert_eq!(out, (1..101).collect::<Vec<_>>());
        assert_eq!(pool.current_num_threads(), 1);
    }

    #[test]
    fn thread_counts_parse_strictly_and_cap_at_1024() {
        assert_eq!(crate::parse_threads("3"), Ok(3));
        assert_eq!(crate::parse_threads(" 2\n"), Ok(2));
        assert_eq!(crate::parse_threads("1024"), Ok(1024));
        assert_eq!(crate::parse_threads("5000"), Ok(1024));
        assert_eq!(crate::parse_threads("99999999999999999999999"), Ok(1024));
        for bad in ["", " ", "0", "abc", "-1", "2.5", "4 threads"] {
            let message = crate::parse_threads(bad).unwrap_err();
            assert!(
                message.contains("DYNMO_THREADS") && message.contains(&format!("{bad:?}")),
                "{message}"
            );
        }
    }

    #[test]
    fn install_restores_the_outer_count_even_on_unwind() {
        pool(3).install(|| {
            let inner = catch_unwind(AssertUnwindSafe(|| {
                pool(2).install(|| {
                    assert_eq!(crate::current_num_threads(), 2);
                    panic!("inside the inner install");
                })
            }));
            assert!(inner.is_err());
            assert_eq!(crate::current_num_threads(), 3);
        });
    }
}
