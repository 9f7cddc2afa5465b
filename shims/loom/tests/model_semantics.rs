//! Semantic tests for the model checker itself: the explorer must (a) reach
//! every interleaving of mutex and condvar operations, and (b) report
//! deadlocks, lost wakeups and failed assertions with actionable messages.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex as StdMutex};

use loom::sync::{Condvar, Mutex};

/// Runs `body` expecting the checker to flag an error; returns the failure
/// message.
fn expect_model_failure<F>(body: F) -> String
where
    F: Fn() + Send + Sync + 'static,
{
    let result = catch_unwind(AssertUnwindSafe(|| loom::model(body)));
    let payload = result.expect_err("model unexpectedly passed");
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        panic!("model failure with non-string payload");
    }
}

#[test]
fn mutex_provides_mutual_exclusion_and_visibility() {
    let report = loom::model(|| {
        let total = Arc::new(Mutex::new(0u32));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let total = Arc::clone(&total);
                loom::thread::spawn(move || {
                    let mut guard = total.lock().unwrap();
                    let read = *guard;
                    *guard = read + 1;
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(*total.lock().unwrap(), 2);
    });
    assert!(report.iterations >= 2, "expected >1 interleaving explored");
    assert!(!report.truncated);
}

/// Two threads that each take the lock once: the explorer must reach both
/// orders in which they can get it.
#[test]
fn both_lock_orders_are_reached() {
    let outcomes: Arc<StdMutex<HashSet<Vec<u32>>>> = Arc::new(StdMutex::new(HashSet::new()));
    let sink = Arc::clone(&outcomes);
    loom::model(move || {
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (1..=2)
            .map(|id| {
                let order = Arc::clone(&order);
                loom::thread::spawn(move || order.lock().unwrap().push(id))
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let order = order.lock().unwrap().clone();
        sink.lock().unwrap().insert(order);
    });
    let seen = outcomes.lock().unwrap();
    assert_eq!(
        *seen,
        HashSet::from([vec![1, 2], vec![2, 1]]),
        "both lock orders must be explored: {seen:?}"
    );
}

/// A condvar waiter that nobody will ever notify is a deadlock, and the
/// model must say which thread is parked where.
#[test]
fn lost_wakeup_is_reported_as_deadlock() {
    let message = expect_model_failure(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = loom::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock().unwrap();
            while !*ready {
                ready = cv.wait(ready).unwrap();
            }
        });
        // Nobody ever sets the flag or notifies: the waiter parks for good.
        waiter.join().unwrap();
    });
    assert!(message.contains("deadlock"), "got: {message}");
    assert!(message.contains("condvar"), "got: {message}");
}

/// The correct protocol — set under the lock, then notify — passes.
#[test]
fn condvar_handshake_passes() {
    let report = loom::model(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = loom::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock().unwrap();
            while !*ready {
                ready = cv.wait(ready).unwrap();
            }
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock().unwrap() = true;
            cv.notify_one();
        }
        waiter.join().unwrap();
    });
    assert!(report.iterations >= 2);
}

/// An assertion failure inside the model surfaces as a model failure with
/// the panic message, not a hang or a swallowed error.
#[test]
fn user_assertions_become_model_failures() {
    let message = expect_model_failure(|| {
        let x = Arc::new(Mutex::new(0));
        let x2 = Arc::clone(&x);
        let t = loom::thread::spawn(move || *x2.lock().unwrap() = 1);
        let seen = *x.lock().unwrap();
        t.join().unwrap();
        assert_eq!(seen, 1, "reader must observe the store");
    });
    assert!(
        message.contains("reader must observe the store"),
        "got: {message}"
    );
}

/// try_lock on a held model mutex reports WouldBlock instead of deadlocking.
#[test]
fn try_lock_explores_contention() {
    let outcomes: Arc<StdMutex<HashSet<bool>>> = Arc::new(StdMutex::new(HashSet::new()));
    let sink = Arc::clone(&outcomes);
    loom::model(move || {
        let lock = Arc::new(Mutex::new(0u32));
        let lock2 = Arc::clone(&lock);
        let holder = loom::thread::spawn(move || {
            let mut guard = lock2.lock().unwrap();
            *guard += 1;
        });
        let acquired = lock.try_lock().is_ok();
        sink.lock().unwrap().insert(acquired);
        holder.join().unwrap();
    });
    let seen = outcomes.lock().unwrap();
    assert_eq!(
        *seen,
        HashSet::from([true, false]),
        "try_lock must explore both contention outcomes: {seen:?}"
    );
}

/// Model types constructed outside `loom::model` behave as plain std
/// primitives (the fallback mode ordinary tests rely on).
#[test]
fn fallback_mode_works_outside_model() {
    let lock = Mutex::new(5u32);
    *lock.lock().unwrap() += 1;
    assert_eq!(*lock.lock().unwrap(), 6);
    assert!(lock.try_lock().is_ok());
    assert_eq!(lock.into_inner().unwrap(), 6);

    let handle = loom::thread::spawn(|| 42usize);
    assert_eq!(handle.join().unwrap(), 42);
}
