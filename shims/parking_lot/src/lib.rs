//! Minimal stand-in for `parking_lot`, wrapping `std::sync` primitives with
//! parking_lot's poison-free API (`lock()` returns the guard directly, and
//! [`Condvar::wait`] re-locks a guard taken by `&mut`).
//!
//! Building with `RUSTFLAGS="--cfg dynmo_loom"` swaps the std `Mutex` and
//! `Condvar` underneath for their `loom` model-checked twins, so a loom model
//! explores every interleaving of the real code that locks through this
//! shim, not a copy of it.  The loom types degrade to plain std behaviour
//! when constructed outside a `loom::model` closure, so ordinary tests keep
//! working under either cfg.

#![warn(missing_docs)]

use std::fmt;
use std::ops::{Deref, DerefMut};

#[cfg(dynmo_loom)]
use loom::sync as imp;
#[cfg(not(dynmo_loom))]
use std::sync as imp;

use imp::PoisonError;

/// A mutex with parking_lot's panic-on-poison-free locking API.
pub struct Mutex<T> {
    inner: imp::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`]; the lock is released when it drops.
pub struct MutexGuard<'a, T> {
    /// Empty only while [`Condvar::wait`] has the lock released.
    inner: Option<imp::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Create a new mutex protecting `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: imp::Mutex::new(value),
        }
    }

    /// Consume the mutex and return the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire the lock, ignoring poisoning (parking_lot has none).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(imp::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(imp::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard { inner: Some(inner) })
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_deref().expect("the guard holds the lock")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_deref_mut().expect("the guard holds the lock")
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

/// A condition variable with parking_lot's API.  Unlike parking_lot's,
/// [`Condvar::notify_one`] does not report whether it woke a waiter.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: imp::Condvar,
}

impl Condvar {
    /// Create a condition variable with no waiters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Release the guard's lock and sleep until notified, then re-acquire
    /// the lock.  Like any condvar it may wake spuriously, so callers wait
    /// in a loop on their own condition.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let held = guard.inner.take().expect("the guard holds the lock");
        guard.inner = Some(
            self.inner
                .wait(held)
                .unwrap_or_else(PoisonError::into_inner),
        );
    }

    /// Wake one thread blocked in [`Condvar::wait`], if any.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn wait_releases_the_lock_until_notified() {
        let pair = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
        let setter = std::sync::Arc::clone(&pair);
        let handle = std::thread::spawn(move || {
            *setter.0.lock() = true;
            setter.1.notify_one();
        });
        let mut ready = pair.0.lock();
        while !*ready {
            pair.1.wait(&mut ready);
        }
        drop(ready);
        handle.join().unwrap();
    }
}
