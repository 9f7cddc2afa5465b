//! Stress tests for the pool's batch claiming and nesting, run on both a
//! single-thread pool (the `DYNMO_THREADS=1` configuration the sweep
//! binaries use for determinism baselines) and a multi-thread pool.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use rayon::prelude::*;

fn pool(n: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .unwrap()
}

/// Repeated fine-grained fan-outs hammer the threads' race for the next
/// batch; every index must execute exactly once, every round, on both pool
/// sizes.
#[test]
fn steal_race_stress_across_pool_sizes() {
    for threads in [1, 4] {
        let pool = pool(threads);
        for round in 0..10 {
            let n = 8_000;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let indices: Vec<usize> = (0..n).collect();
            pool.install(|| {
                indices.par_iter().for_each(|&i| {
                    hits[i].fetch_add(1, Ordering::SeqCst);
                });
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
                "pool({threads}) round {round}: an index ran zero or multiple times"
            );
        }
    }
}

/// Collect determinism under contention: the same skewed workload collected
/// on 1 and 4 workers must produce identical output vectors.
#[test]
fn collect_is_identical_across_pool_sizes() {
    let work: Vec<u64> = (0..512).map(|i| (i * 2654435761) % 1000).collect();
    let run = |threads: usize| -> Vec<u64> {
        pool(threads).install(|| {
            work.par_iter()
                .map(|&x| {
                    let mut acc = x;
                    for k in 0..x % 64 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    acc
                })
                .collect()
        })
    };
    assert_eq!(run(1), run(4));
}

/// Counts the threads that are running items right now, and the most ever
/// seen at once.  A thread counts once however deeply its items nest.
struct LiveThreads {
    live: AtomicUsize,
    peak: AtomicUsize,
}

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

impl LiveThreads {
    fn run<R>(&self, item: impl FnOnce() -> R) -> R {
        if DEPTH.replace(DEPTH.get() + 1) == 0 {
            let live = self.live.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(live, Ordering::SeqCst);
        }
        let result = item();
        if DEPTH.replace(DEPTH.get() - 1) == 1 {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
        result
    }
}

/// A parallel call inside another one runs inline on its thread: nested
/// 4×4 calls under a 4-thread pool return the right results and never have
/// more than 4 threads running items.
#[test]
fn nested_parallel_calls_stay_within_the_pool_size() {
    let gauge = LiveThreads {
        live: AtomicUsize::new(0),
        peak: AtomicUsize::new(0),
    };
    let outer: Vec<usize> = (0..4).collect();
    let inner: Vec<usize> = (0..4).collect();
    for _round in 0..20 {
        let grid: Vec<Vec<usize>> = pool(4).install(|| {
            outer
                .par_iter()
                .map(|&i| {
                    gauge.run(|| {
                        inner
                            .par_iter()
                            .map(|&j| {
                                gauge.run(|| {
                                    // Enough work for helper threads to
                                    // join in if a nested call spawned any.
                                    let mut acc = 0u64;
                                    for k in 0..20_000 {
                                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                                    }
                                    std::hint::black_box(acc);
                                    i * 4 + j
                                })
                            })
                            .collect()
                    })
                })
                .collect()
        });
        let expected: Vec<Vec<usize>> = (0..4)
            .map(|i| (0..4).map(|j| i * 4 + j).collect())
            .collect();
        assert_eq!(grid, expected);
    }
    assert_eq!(gauge.live.load(Ordering::SeqCst), 0);
    let peak = gauge.peak.load(Ordering::SeqCst);
    assert!((1..=4).contains(&peak), "{peak} threads ran items at once");
}
