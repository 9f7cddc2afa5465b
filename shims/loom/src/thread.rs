//! Model-aware `thread::spawn` / `JoinHandle`.
//!
//! Spawning inside a model registers a new model thread (the spawn itself is
//! a visible operation, so the child's first step is explored against every
//! schedule); outside a model this is plain `std::thread`.

use std::any::Any;
use std::panic::Location;
use std::sync::Arc;

use crate::exec::{self, Execution};

enum JoinRepr<T> {
    Std(std::thread::JoinHandle<T>),
    Model {
        exec: Arc<Execution>,
        child: usize,
        _marker: std::marker::PhantomData<fn() -> T>,
    },
}

pub struct JoinHandle<T> {
    repr: JoinRepr<T>,
}

impl<T: Send + 'static> JoinHandle<T> {
    #[track_caller]
    pub fn join(self) -> std::thread::Result<T> {
        match self.repr {
            JoinRepr::Std(handle) => handle.join(),
            JoinRepr::Model { exec, child, .. } => {
                let Some((current, tid)) = exec::current() else {
                    panic!("model JoinHandle joined from outside the model");
                };
                assert!(
                    Arc::ptr_eq(&current, &exec),
                    "model JoinHandle joined from a different model execution"
                );
                match exec.join_thread(tid, child, Location::caller()) {
                    Some(result) => Ok(*result
                        .downcast::<T>()
                        .expect("model thread result of unexpected type")),
                    // Teardown, or the child panicked (the model records the
                    // error); propagate an opaque join error like std does.
                    None => Err(Box::new("loom model thread did not produce a result")
                        as Box<dyn Any + Send>),
                }
            }
        }
    }
}

#[track_caller]
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    if let Some((exec, tid)) = exec::current() {
        if let Some(child) = exec.spawn_thread() {
            exec.start_thread(child, move || Box::new(f()) as Box<dyn Any + Send>);
            // Now that the child's OS thread exists, give the scheduler a
            // branch point at the spawn site.
            exec.spawn_fence(tid, Location::caller());
            return JoinHandle {
                repr: JoinRepr::Model {
                    exec,
                    child,
                    _marker: std::marker::PhantomData,
                },
            };
        }
        // Teardown: the iteration is unwinding; run detached on a real
        // thread so the caller's control flow still works.
    }
    JoinHandle {
        repr: JoinRepr::Std(std::thread::spawn(f)),
    }
}
