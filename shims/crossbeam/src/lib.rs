//! Minimal stand-in for the part of the `crossbeam` family the workspace
//! uses: multi-consumer channels (`crossbeam::channel`), which carry the
//! runtime fabric's messages between rank threads.
//!
//! The channel is its own `Mutex<VecDeque>` + `Condvar` queue rather than a
//! wrapper over `std::sync::mpsc`: crossbeam receivers are cloneable and
//! shareable across threads, and a receiver parked in
//! [`channel::Receiver::recv`] must not hold any lock while it waits, or one
//! blocked consumer would starve every other.  The condvar releases the
//! queue lock for the whole park, so any number of consumers can block,
//! poll, and drain concurrently.

#![warn(missing_docs)]

pub(crate) mod primitives;

/// Multi-producer multi-consumer channels with timeouts (the
/// `crossbeam::channel` surface the workspace uses).
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::Arc;
    // LINT: allow(wall-clock) — Instant feeds only `recv_timeout` deadline
    // arithmetic, never message contents or artifact data.
    use std::time::{Duration, Instant};

    use crate::primitives::{Condvar, Mutex};

    struct Inner<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        ready: Condvar,
    }

    /// The sending half of an unbounded channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared
                .inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.senders -= 1;
            if inner.senders == 0 {
                // Wake every parked receiver so they observe disconnection.
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    /// The receiving half of an unbounded channel (cloneable, like
    /// crossbeam's).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared
                .inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared
                .inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .receivers -= 1;
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// The channel is empty and all senders disconnected.
        Disconnected,
    }

    /// Error returned by [`Receiver::try_recv`] — distinct from
    /// [`RecvTimeoutError`], matching real crossbeam: an empty channel is
    /// not a timeout.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty (senders may still exist).
        Empty,
        /// The channel is empty and all senders disconnected.
        Disconnected,
    }

    /// Create an unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Send a message, failing only if every receiver was dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            if inner.receivers == 0 {
                return Err(SendError(value));
            }
            inner.queue.push_back(value);
            drop(inner);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives or all senders disconnect.  The
        /// queue lock is released for the whole wait, so other receivers
        /// (and senders) are never starved by a parked consumer.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(value) = inner.queue.pop_front() {
                    return Ok(value);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner = self
                    .shared
                    .ready
                    .wait(inner)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Block up to `timeout` for the next message.  Like
        /// [`Receiver::recv`], the lock is not held while parked.
        // Deadline bookkeeping is a sanctioned wall-clock use (see
        // clippy.toml) — the reading never reaches message contents.
        #[allow(clippy::disallowed_methods)]
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            // LINT: allow(wall-clock) — deadline bookkeeping only.
            let deadline = Instant::now() + timeout;
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(value) = inner.queue.pop_front() {
                    return Ok(value);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                // LINT: allow(wall-clock) — deadline bookkeeping only.
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .shared
                    .ready
                    .wait_timeout(inner, remaining)
                    .unwrap_or_else(|e| e.into_inner());
                inner = guard;
            }
        }

        /// Receive without blocking, if a message is already queued.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.inner.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(value) = inner.queue.pop_front() {
                return Ok(value);
            }
            if inner.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_and_timeout() {
            let (tx, rx) = unbounded();
            tx.send(7u32).unwrap();
            assert_eq!(rx.recv().unwrap(), 7);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)).unwrap_err(),
                RecvTimeoutError::Timeout
            );
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)).unwrap_err(),
                RecvTimeoutError::Disconnected
            );
        }

        #[test]
        fn try_recv_distinguishes_empty_from_disconnected() {
            let (tx, rx) = unbounded::<u8>();
            assert_eq!(rx.try_recv().unwrap_err(), TryRecvError::Empty);
            tx.send(1).unwrap();
            assert_eq!(rx.try_recv().unwrap(), 1);
            drop(tx);
            assert_eq!(rx.try_recv().unwrap_err(), TryRecvError::Disconnected);
        }

        #[test]
        fn send_fails_once_all_receivers_are_gone() {
            let (tx, rx) = unbounded::<u8>();
            let rx2 = rx.clone();
            drop(rx);
            tx.send(1).unwrap();
            drop(rx2);
            assert_eq!(tx.send(2).unwrap_err(), SendError(2));
        }

        #[test]
        fn receiver_is_cloneable_across_threads() {
            let (tx, rx) = unbounded();
            let rx2 = rx.clone();
            let handle = std::thread::spawn(move || rx2.recv().unwrap());
            tx.send(42u64).unwrap();
            assert_eq!(handle.join().unwrap(), 42);
        }

        /// The regression the rework exists for: a receiver parked in a
        /// blocking `recv` must not hold the queue lock, or every other
        /// consumer (even non-blocking `try_recv`) deadlocks behind it.
        #[test]
        // Test needs real sleeps to let the other thread actually park.
        #[allow(clippy::disallowed_methods)]
        fn parked_receiver_does_not_starve_other_consumers() {
            let (tx, rx) = unbounded::<u32>();
            let rx_parked = rx.clone();
            let parked = std::thread::spawn(move || rx_parked.recv().unwrap());
            // Give the thread time to park inside recv().
            std::thread::sleep(Duration::from_millis(50));
            // With the old Mutex-over-recv design this call blocked until
            // the parked receiver returned; now it must answer immediately.
            // LINT: allow(wall-clock) — test-only latency bound.
            let start = Instant::now();
            assert_eq!(rx.try_recv().unwrap_err(), TryRecvError::Empty);
            assert!(start.elapsed() < Duration::from_millis(500));
            tx.send(9).unwrap();
            assert_eq!(parked.join().unwrap(), 9);
        }

        #[test]
        // Test needs a real sleep to let the receivers actually park.
        #[allow(clippy::disallowed_methods)]
        fn two_parked_receivers_each_get_a_message() {
            let (tx, rx) = unbounded::<u32>();
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let rx = rx.clone();
                    std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(5)).unwrap())
                })
                .collect();
            std::thread::sleep(Duration::from_millis(20));
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            let mut got: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            got.sort_unstable();
            assert_eq!(got, vec![1, 2]);
        }
    }
}
