//! Model-aware `Mutex` and `Condvar` with the `std::sync` API surface the
//! shims use, returning std's own lock error types.
//!
//! Each primitive binds to the model execution at construction time and
//! degrades to the real std primitive outside a model.

use std::panic::Location;
use std::sync::Arc;

pub use std::sync::{LockResult, PoisonError, TryLockError, TryLockResult};

use crate::exec::{self, Execution};

/// The calling thread's id in `exec`, if it is one of that execution's
/// model threads.
fn model_tid(exec: &Arc<Execution>) -> Option<usize> {
    let (current, tid) = exec::current()?;
    Arc::ptr_eq(&current, exec).then_some(tid)
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

struct ModelMutex<T> {
    exec: Arc<Execution>,
    mid: usize,
    /// Protected by the model's lock-state machine: only the token holder
    /// that acquired `mid` touches it.
    data: std::cell::UnsafeCell<T>,
}

// SAFETY: `exec` is `Sync` and `mid` is only read.  `data` is reached only
// through a guard, and the model lock protocol grants one guard at a time,
// so sharing `&ModelMutex` moves `T` between threads but never shares it:
// `T: Send` suffices, exactly as for std's `Mutex`.
unsafe impl<T: Send> Sync for ModelMutex<T> {}

enum MutexRepr<T> {
    Std(std::sync::Mutex<T>),
    Model(ModelMutex<T>),
}

pub struct Mutex<T> {
    repr: MutexRepr<T>,
}

impl<T> Mutex<T> {
    pub fn new(data: T) -> Self {
        let repr = match exec::current() {
            Some((exec, _tid)) => {
                let mid = exec.register_mutex();
                MutexRepr::Model(ModelMutex {
                    exec,
                    mid,
                    data: std::cell::UnsafeCell::new(data),
                })
            }
            None => MutexRepr::Std(std::sync::Mutex::new(data)),
        };
        Mutex { repr }
    }

    #[track_caller]
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        match &self.repr {
            MutexRepr::Std(m) => from_std(m.lock()),
            MutexRepr::Model(m) => {
                if let Some(tid) = model_tid(&m.exec) {
                    m.exec.mutex_lock(tid, m.mid, Location::caller());
                }
                Ok(MutexGuard::model(m))
            }
        }
    }

    #[track_caller]
    pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
        match &self.repr {
            MutexRepr::Std(m) => m.try_lock().map(MutexGuard::std).map_err(|err| match err {
                std::sync::TryLockError::Poisoned(poison) => {
                    TryLockError::Poisoned(PoisonError::new(MutexGuard::std(poison.into_inner())))
                }
                std::sync::TryLockError::WouldBlock => TryLockError::WouldBlock,
            }),
            MutexRepr::Model(m) => {
                let acquired = match model_tid(&m.exec) {
                    Some(tid) => m.exec.mutex_try_lock(tid, m.mid, Location::caller()),
                    None => true,
                };
                if acquired {
                    Ok(MutexGuard::model(m))
                } else {
                    Err(TryLockError::WouldBlock)
                }
            }
        }
    }

    pub fn into_inner(self) -> LockResult<T> {
        match self.repr {
            MutexRepr::Std(m) => m.into_inner(),
            MutexRepr::Model(m) => Ok(m.data.into_inner()),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

enum GuardRepr<'a, T> {
    Std(std::sync::MutexGuard<'a, T>),
    Model(&'a ModelMutex<T>),
}

pub struct MutexGuard<'a, T> {
    repr: GuardRepr<'a, T>,
}

impl<'a, T> MutexGuard<'a, T> {
    fn std(guard: std::sync::MutexGuard<'a, T>) -> Self {
        MutexGuard {
            repr: GuardRepr::Std(guard),
        }
    }

    fn model(mutex: &'a ModelMutex<T>) -> Self {
        MutexGuard {
            repr: GuardRepr::Model(mutex),
        }
    }
}

/// Wrap a std lock result, poisoned or not, in this module's guard.
fn from_std<T>(result: LockResult<std::sync::MutexGuard<'_, T>>) -> LockResult<MutexGuard<'_, T>> {
    result
        .map(MutexGuard::std)
        .map_err(|poison| PoisonError::new(MutexGuard::std(poison.into_inner())))
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match &self.repr {
            GuardRepr::Std(guard) => guard,
            // SAFETY: the model lock-state machine grants this guard
            // exclusive ownership of `data` until drop; only the scheduler
            // token holder can be here.
            GuardRepr::Model(m) => unsafe { &*m.data.get() },
        }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.repr {
            GuardRepr::Std(guard) => guard,
            // SAFETY: as in `deref` — the guard holds the model lock.
            GuardRepr::Model(m) => unsafe { &mut *m.data.get() },
        }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    #[track_caller]
    fn drop(&mut self) {
        if let GuardRepr::Model(m) = &self.repr {
            if let Some(tid) = model_tid(&m.exec) {
                m.exec.mutex_unlock(tid, m.mid, Location::caller());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

enum CondvarRepr {
    Std(std::sync::Condvar),
    Model { exec: Arc<Execution>, cid: usize },
}

pub struct Condvar {
    repr: CondvarRepr,
}

impl Condvar {
    pub fn new() -> Self {
        let repr = match exec::current() {
            Some((exec, _tid)) => {
                let cid = exec.register_condvar();
                CondvarRepr::Model { exec, cid }
            }
            None => CondvarRepr::Std(std::sync::Condvar::new()),
        };
        Condvar { repr }
    }

    #[track_caller]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        match (&self.repr, into_repr(guard)) {
            (CondvarRepr::Std(cv), GuardRepr::Std(inner)) => from_std(cv.wait(inner)),
            (CondvarRepr::Model { exec, cid }, GuardRepr::Model(m)) => {
                if let Some(tid) = model_tid(exec) {
                    exec.condvar_wait(tid, *cid, m.mid, Location::caller());
                }
                Ok(MutexGuard::model(m))
            }
            _ => panic!("condvar waited on with a guard of the other kind (model vs std)"),
        }
    }

    #[track_caller]
    pub fn notify_one(&self) {
        match &self.repr {
            CondvarRepr::Std(cv) => cv.notify_one(),
            CondvarRepr::Model { exec, cid } => {
                if let Some(tid) = model_tid(exec) {
                    exec.condvar_notify_one(tid, *cid, Location::caller());
                }
            }
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

/// Dismantle a guard without running its `Drop` (the wait path releases the
/// model mutex itself).
fn into_repr<T>(guard: MutexGuard<'_, T>) -> GuardRepr<'_, T> {
    let guard = std::mem::ManuallyDrop::new(guard);
    // SAFETY: `guard` is ManuallyDrop, so its Drop (model unlock) will not
    // run; ownership of the repr moves to the caller exactly once.
    unsafe { std::ptr::read(&guard.repr) }
}
