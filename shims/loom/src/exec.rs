//! The model execution engine: a cooperative scheduler that serializes model
//! threads onto one visible operation at a time, records every scheduling
//! decision, and replays decision prefixes so the driver in
//! [`crate::model`] can DFS-enumerate the whole interleaving space.
//!
//! Model threads are real OS threads, but only one — the *active* thread —
//! ever runs between two visible operations.  Every visible operation
//! (mutex/condvar op, spawn, join) funnels through [`Execution::op`], which
//! mutates the shared [`State`] under a lock and then hands the token to the
//! next thread chosen by the explorer.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{AssertUnwindSafe, Location};
use std::sync::{Arc, Condvar, Mutex};

use crate::MAX_OPS;

/// Sentinel panic payload used to unwind model threads when an iteration is
/// aborted (error detected or panic elsewhere).  Caught and swallowed by the
/// model-thread trampoline.
pub(crate) struct AbortUnwind;

/// One recorded nondeterministic decision: `chosen` out of `options`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Choice {
    pub options: u32,
    pub chosen: u32,
}

/// Why a thread is not currently runnable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Block {
    Mutex(usize),
    Condvar(usize),
    Join(usize),
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Status {
    #[default]
    Runnable,
    Blocked(Block),
    Finished,
}

#[derive(Default)]
struct ThreadSt {
    status: Status,
    /// Source location of the most recent visible op (for reports).
    last_site: Option<&'static Location<'static>>,
    result: Option<Box<dyn Any + Send>>,
}

/// Everything mutable about one iteration, behind [`Execution::mx`].
pub(crate) struct State {
    threads: Vec<ThreadSt>,
    active: Option<usize>,
    aborting: bool,
    all_done: bool,
    error: Option<String>,

    /// Prescribed decisions (replay prefix) for this iteration.
    prefix: Vec<u32>,
    /// Every decision actually taken.
    path: Vec<Choice>,
    ops_executed: u64,

    /// Each model mutex's holder.
    mutexes: Vec<Option<usize>>,
    /// Each condvar's parked threads, in arrival order.
    condvars: Vec<VecDeque<usize>>,
}

impl State {
    fn runnable(&self) -> Vec<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(tid, _)| tid)
            .collect()
    }

    /// Record (or replay) one decision among `options` alternatives.
    fn choose(&mut self, options: u32) -> u32 {
        if options <= 1 {
            return 0;
        }
        let position = self.path.len();
        let chosen = if position < self.prefix.len() {
            let c = self.prefix[position];
            assert!(
                c < options,
                "loom internal error: replay diverged (choice {c} of {options} at {position})"
            );
            c
        } else {
            0
        };
        self.path.push(Choice { options, chosen });
        chosen
    }

    fn set_error(&mut self, message: String) {
        if self.error.is_none() {
            self.error = Some(message);
        }
        self.aborting = true;
    }

    /// Pick the next non-finished thread to unwind during an abort, or mark
    /// the iteration done when none remain.
    fn abort_advance(&mut self) {
        match self
            .threads
            .iter()
            .position(|t| t.status != Status::Finished)
        {
            Some(tid) => self.active = Some(tid),
            None => {
                self.active = None;
                self.all_done = true;
            }
        }
    }

    /// Make every thread blocked on `block` runnable again.
    fn wake(&mut self, block: Block) {
        for thread in &mut self.threads {
            if thread.status == Status::Blocked(block) {
                thread.status = Status::Runnable;
            }
        }
    }

    /// Take mutex `mid` for `tid` if it is free.
    fn try_acquire(&mut self, tid: usize, mid: usize) -> bool {
        let free = self.mutexes[mid].is_none();
        if free {
            self.mutexes[mid] = Some(tid);
        }
        free
    }

    /// Release mutex `mid`, letting every thread blocked on it contend again.
    fn release(&mut self, tid: usize, mid: usize) {
        debug_assert_eq!(self.mutexes[mid], Some(tid), "unlock of unheld mutex");
        self.mutexes[mid] = None;
        self.wake(Block::Mutex(mid));
    }

    fn report_deadlock(&mut self) {
        let mut lines = Vec::new();
        for (tid, thread) in self.threads.iter().enumerate() {
            let what = match thread.status {
                Status::Blocked(Block::Mutex(m)) => format!("blocked locking mutex #{m}"),
                Status::Blocked(Block::Condvar(c)) => format!("parked on condvar #{c}"),
                Status::Blocked(Block::Join(t)) => format!("joining thread {t}"),
                Status::Runnable => "runnable".into(),
                Status::Finished => continue,
            };
            lines.push(format!(
                "  thread {tid}: {what} (last op at {})",
                fmt_site(thread.last_site)
            ));
        }
        self.set_error(format!(
            "deadlock: every live thread is blocked\n{}",
            lines.join("\n")
        ));
    }
}

/// The per-iteration execution shared between the driver and every model
/// thread.
pub(crate) struct Execution {
    mx: Mutex<State>,
    cv: Condvar,
}

thread_local! {
    static CONTEXT: std::cell::RefCell<Option<(Arc<Execution>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// The calling thread's execution handle, if it is a model thread.
pub(crate) fn current() -> Option<(Arc<Execution>, usize)> {
    CONTEXT.with(|c| c.borrow().clone())
}

fn set_context(ctx: Option<(Arc<Execution>, usize)>) {
    CONTEXT.with(|c| *c.borrow_mut() = ctx);
}

type Guard<'a> = std::sync::MutexGuard<'a, State>;

impl Execution {
    /// An iteration that replays `prefix`, with the root (thread 0) active.
    pub(crate) fn new(prefix: Vec<u32>) -> Arc<Execution> {
        let state = State {
            threads: vec![ThreadSt::default()],
            active: Some(0),
            aborting: false,
            all_done: false,
            error: None,
            prefix,
            path: Vec::new(),
            ops_executed: 0,
            mutexes: Vec::new(),
            condvars: Vec::new(),
        };
        Arc::new(Execution {
            mx: Mutex::new(state),
            cv: Condvar::new(),
        })
    }

    fn lock(&self) -> Guard<'_> {
        self.mx.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run registered model thread `tid` on its own OS thread.  Detached:
    /// the iteration is over when every model thread has reached
    /// `Finished`.
    pub(crate) fn start_thread(
        self: &Arc<Self>,
        tid: usize,
        body: impl FnOnce() -> Box<dyn Any + Send> + Send + 'static,
    ) {
        let exec = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("loom-model-{tid}"))
            .spawn(move || run_model_thread(exec, tid, body))
            .expect("failed to spawn loom model thread");
    }

    /// Block the driver until the iteration completes, returning the decision
    /// path and any detected error.
    pub(crate) fn wait_done(&self) -> (Vec<Choice>, Option<String>) {
        let mut st = self.lock();
        while !st.all_done {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        (std::mem::take(&mut st.path), st.error.take())
    }

    // ------------------------------------------------------------------
    // Scheduling machinery
    // ------------------------------------------------------------------

    /// One visible operation: stamp the site, let `apply` mutate the state
    /// under the lock, then hand the token to the thread the explorer picks.
    /// Returns `None` without applying anything during teardown, when
    /// destructors run pass-through, serialized by the abort token (exactly
    /// one non-finished thread is active).
    fn op<R>(
        &self,
        tid: usize,
        site: &'static Location<'static>,
        apply: impl FnOnce(&mut State) -> R,
    ) -> Option<R> {
        let mut st = self.lock();
        if st.aborting {
            return None;
        }
        debug_assert_eq!(st.active, Some(tid), "visible op from non-active thread");
        st.threads[tid].last_site = Some(site);
        let result = apply(&mut st);
        drop(self.reschedule(st, tid));
        Some(result)
    }

    /// Hand the token to the next thread the explorer picks, then (if that
    /// is not the caller) park until the caller becomes active again.
    /// Panics with [`AbortUnwind`] when the iteration is being torn down.
    fn reschedule<'a>(&'a self, mut st: Guard<'a>, tid: usize) -> Guard<'a> {
        st.ops_executed += 1;
        if st.ops_executed > MAX_OPS {
            let site = st.threads[tid].last_site;
            st.set_error(format!(
                "livelock: exceeded {MAX_OPS} visible operations in one interleaving (last op at {})",
                fmt_site(site),
            ));
        }
        if st.aborting {
            drop(st);
            std::panic::panic_any(AbortUnwind);
        }

        let mut candidates = st.runnable();
        if candidates.is_empty() {
            st.report_deadlock();
            st.abort_advance();
            self.cv.notify_all();
            return self.park(st, tid);
        }
        // Branch 0 continues the current thread when it may continue; the
        // others switch to each other runnable thread in id order.
        candidates.sort_by_key(|&t| t != tid);
        let chosen = candidates[st.choose(candidates.len() as u32) as usize];
        st.active = Some(chosen);
        self.cv.notify_all();
        if chosen == tid {
            return st;
        }
        self.park(st, tid)
    }

    /// Park until this thread is active again (or unwind on abort).
    fn park<'a>(&'a self, mut st: Guard<'a>, tid: usize) -> Guard<'a> {
        loop {
            if st.active == Some(tid) {
                if st.aborting {
                    drop(st);
                    std::panic::panic_any(AbortUnwind);
                }
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    // ------------------------------------------------------------------
    // Mutexes and condvars
    // ------------------------------------------------------------------

    pub(crate) fn register_mutex(&self) -> usize {
        let mut st = self.lock();
        st.mutexes.push(None);
        st.mutexes.len() - 1
    }

    pub(crate) fn mutex_lock(&self, tid: usize, mid: usize, site: &'static Location<'static>) {
        let attempt = |st: &mut State| {
            let acquired = st.try_acquire(tid, mid);
            if !acquired {
                st.threads[tid].status = Status::Blocked(Block::Mutex(mid));
            }
            acquired
        };
        // Each attempt is a visible op.  A blocked attempt is woken by the
        // holder's unlock and retries like any other contender; in teardown
        // the lock "succeeds", since the abort token serializes us.
        while self.op(tid, site, attempt) == Some(false) {}
    }

    /// Returns false when the mutex is currently held (WouldBlock).
    pub(crate) fn mutex_try_lock(
        &self,
        tid: usize,
        mid: usize,
        site: &'static Location<'static>,
    ) -> bool {
        self.op(tid, site, |st| st.try_acquire(tid, mid))
            .unwrap_or(true)
    }

    pub(crate) fn mutex_unlock(&self, tid: usize, mid: usize, site: &'static Location<'static>) {
        self.op(tid, site, |st| st.release(tid, mid));
    }

    pub(crate) fn register_condvar(&self) -> usize {
        let mut st = self.lock();
        st.condvars.push(VecDeque::new());
        st.condvars.len() - 1
    }

    /// Atomically release `mid`, park on `cid`, and (after being notified)
    /// re-acquire `mid`.  The model has no timeout path: a wakeup that never
    /// comes is a deadlock the checker reports, rather than a stall a
    /// timeout backstop would mask.
    pub(crate) fn condvar_wait(
        &self,
        tid: usize,
        cid: usize,
        mid: usize,
        site: &'static Location<'static>,
    ) {
        let parked = self.op(tid, site, |st| {
            st.release(tid, mid);
            st.condvars[cid].push_back(tid);
            st.threads[tid].status = Status::Blocked(Block::Condvar(cid));
        });
        if parked.is_some() {
            // Notified: reacquire the mutex like any other contender.
            self.mutex_lock(tid, mid, site);
        }
    }

    pub(crate) fn condvar_notify_one(
        &self,
        tid: usize,
        cid: usize,
        site: &'static Location<'static>,
    ) {
        self.op(tid, site, |st| {
            if !st.condvars[cid].is_empty() {
                // Which waiter wakes is a real nondeterminism: branch on it.
                let pick = st.choose(st.condvars[cid].len() as u32) as usize;
                let woken = st.condvars[cid].remove(pick).unwrap();
                st.threads[woken].status = Status::Runnable;
            }
        });
    }

    // ------------------------------------------------------------------
    // Threads
    // ------------------------------------------------------------------

    /// Register a new model thread and return its id.  This is deliberately
    /// NOT a visible op: the caller must still start the OS thread, so the
    /// scheduler may not switch away here (the child only becomes runnable
    /// in the state table; the first actual switch to it happens at
    /// [`Execution::spawn_fence`]).  Returns `None` during teardown.
    pub(crate) fn spawn_thread(&self) -> Option<usize> {
        let mut st = self.lock();
        if st.aborting {
            return None;
        }
        st.threads.push(ThreadSt::default());
        Some(st.threads.len() - 1)
    }

    /// The visible half of spawn, performed once the child's OS thread
    /// exists: a pure scheduling point so interleavings where the child
    /// runs before the parent's next operation are explored.
    pub(crate) fn spawn_fence(&self, tid: usize, site: &'static Location<'static>) {
        self.op(tid, site, |_| ());
    }

    /// Wait for `target` to finish and take its result; `None` in teardown
    /// or when `target` panicked.
    pub(crate) fn join_thread(
        &self,
        tid: usize,
        target: usize,
        site: &'static Location<'static>,
    ) -> Option<Box<dyn Any + Send>> {
        loop {
            let finished = self.op(tid, site, |st| {
                let finished = st.threads[target].status == Status::Finished;
                if !finished {
                    st.threads[tid].status = Status::Blocked(Block::Join(target));
                }
                finished
            })?;
            if finished {
                return self.lock().threads[target].result.take();
            }
        }
    }

    /// Invoked from the global panic hook at panic-initiation time, before
    /// the unwind starts: flips the execution into teardown so destructors
    /// on the unwinding stack run pass-through instead of exploring (and a
    /// parked sibling can never be left waiting for a token that died).
    pub(crate) fn handle_user_panic(&self, tid: usize, message: String) {
        let mut st = self.lock();
        st.set_error(format!("thread {tid} {message}"));
        st.abort_advance();
        self.cv.notify_all();
    }

    /// Called by the model-thread trampoline when its closure returns or
    /// unwinds.
    fn finish(&self, tid: usize, outcome: std::thread::Result<Box<dyn Any + Send>>) {
        let mut st = self.lock();
        st.threads[tid].status = Status::Finished;
        match outcome {
            Ok(result) => st.threads[tid].result = Some(result),
            Err(payload) if payload.is::<AbortUnwind>() => {}
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                st.set_error(format!("thread {tid} panicked: {message}"));
            }
        }
        st.wake(Block::Join(tid));
        if st.aborting {
            st.abort_advance();
        } else {
            let runnable = st.runnable();
            if !runnable.is_empty() {
                let chosen = runnable[st.choose(runnable.len() as u32) as usize];
                st.active = Some(chosen);
            } else if st.threads.iter().all(|t| t.status == Status::Finished) {
                st.active = None;
                st.all_done = true;
            } else {
                st.report_deadlock();
                st.abort_advance();
            }
        }
        self.cv.notify_all();
    }
}

/// Trampoline every model OS thread runs: wait for first activation, run the
/// closure, then hand off through [`Execution::finish`].  An abort that
/// lands before the first activation unwinds out of the wait, before any
/// user code runs, and finishes the thread the same way.
fn run_model_thread(exec: Arc<Execution>, tid: usize, body: impl FnOnce() -> Box<dyn Any + Send>) {
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        drop(exec.park(exec.lock(), tid));
        set_context(Some((Arc::clone(&exec), tid)));
        body()
    }));
    set_context(None);
    exec.finish(tid, outcome);
}

fn fmt_site(site: Option<&'static Location<'static>>) -> String {
    match site {
        Some(site) => site.to_string(),
        None => "<start>".into(),
    }
}

pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".into()
    }
}
