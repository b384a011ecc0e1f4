//! Minimal `crossbeam` shim for the offline build.
//!
//! Only `crossbeam::channel::bounded` is used by the workspace (the
//! job/done queues between the mutator and the writer threads). It is
//! implemented as a genuinely multi-producer **multi-consumer** bounded
//! queue — `Sender` *and* `Receiver` are clonable, like the real crate —
//! over a mutex-guarded `VecDeque` with two condvars (`not_empty` /
//! `not_full`). The error types are re-exported from `std::sync::mpsc`
//! so call sites keep matching on the names they already use.

/// Bounded MPMC channels in the crossbeam API shape.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        cap: usize,
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// Create a bounded channel of the given capacity (at least one slot:
    /// the rendezvous case is not needed by this workspace).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(cap >= 1, "bounded(0) rendezvous channels are unsupported");
        let shared = Arc::new(Shared {
            cap,
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(cap),
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }

    /// The sending half of a bounded channel.
    pub struct Sender<T>(Arc<Shared<T>>);

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender")
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.state.lock().expect("channel poisoned").senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.state.lock().expect("channel poisoned");
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Block until the message is enqueued (or all receivers dropped).
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.0.state.lock().expect("channel poisoned");
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                if st.queue.len() < self.0.cap {
                    st.queue.push_back(value);
                    drop(st);
                    self.0.not_empty.notify_one();
                    return Ok(());
                }
                st = self.0.not_full.wait(st).expect("channel poisoned");
            }
        }
    }

    /// The receiving half of a bounded channel. Clonable: every clone
    /// competes for messages from the same queue (MPMC semantics).
    pub struct Receiver<T>(Arc<Shared<T>>);

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver")
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.state.lock().expect("channel poisoned").receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.0.state.lock().expect("channel poisoned");
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                self.0.not_full.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        fn pop(&self, st: &mut State<T>) -> Option<T> {
            let v = st.queue.pop_front();
            if v.is_some() {
                self.0.not_full.notify_one();
            }
            v
        }

        /// Block until a message arrives (or all senders dropped).
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.state.lock().expect("channel poisoned");
            loop {
                if let Some(v) = self.pop(&mut st) {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.0.not_empty.wait(st).expect("channel poisoned");
            }
        }

        /// Return a pending message without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.0.state.lock().expect("channel poisoned");
            if let Some(v) = self.pop(&mut st) {
                Ok(v)
            } else if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Block until a message arrives, the timeout elapses, or all
        /// senders dropped (the batched writer's adaptive batch window).
        ///
        /// A timeout too large to represent as an `Instant` deadline
        /// (`Duration::MAX`, or anything `MMOC_WRITER_BATCH_WINDOW`-sized
        /// that overflows `now + timeout`) saturates to "no deadline" and
        /// behaves like [`Receiver::recv`] — it must never panic.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now().checked_add(timeout);
            let mut st = self.0.state.lock().expect("channel poisoned");
            loop {
                if let Some(v) = self.pop(&mut st) {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = match deadline {
                    // Saturated deadline: wait without a timeout.
                    None => Duration::MAX,
                    Some(d) => {
                        let left = d.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            return Err(RecvTimeoutError::Timeout);
                        }
                        left
                    }
                };
                let (guard, _) = self
                    .0
                    .not_empty
                    .wait_timeout(st, left)
                    .expect("channel poisoned");
                st = guard;
            }
        }

        /// Iterate over messages, blocking, until all senders drop.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    /// Blocking iterator borrowed from a [`Receiver`].
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    /// Blocking iterator that owns its [`Receiver`].
    pub struct IntoIter<T> {
        rx: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;

        fn into_iter(self) -> Self::IntoIter {
            IntoIter { rx: self }
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;

        fn into_iter(self) -> Self::IntoIter {
            self.iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel;

    #[test]
    fn bounded_channel_roundtrip() {
        let (tx, rx) = channel::bounded::<u32>(1);
        let writer = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        for v in rx {
            got.push(v);
        }
        writer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn recv_timeout_times_out_and_delivers() {
        let (tx, rx) = channel::bounded::<u8>(1);
        let timeout = std::time::Duration::from_millis(1);
        assert!(matches!(
            rx.recv_timeout(timeout),
            Err(channel::RecvTimeoutError::Timeout)
        ));
        tx.send(3).unwrap();
        assert_eq!(rx.recv_timeout(timeout).unwrap(), 3);
        drop(tx);
        assert!(matches!(
            rx.recv_timeout(timeout),
            Err(channel::RecvTimeoutError::Disconnected)
        ));
    }

    /// `Duration::MAX` (and any window large enough that `now + timeout`
    /// overflows `Instant`) must not panic: the deadline saturates and
    /// the call degenerates to a plain blocking `recv`.
    #[test]
    fn recv_timeout_with_huge_windows_never_panics() {
        let (tx, rx) = channel::bounded::<u8>(1);
        let sender = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            tx.send(42).unwrap();
        });
        assert_eq!(rx.recv_timeout(std::time::Duration::MAX).unwrap(), 42);
        sender.join().unwrap();
        // All senders gone: disconnection still surfaces under the
        // saturated deadline instead of hanging.
        assert!(matches!(
            rx.recv_timeout(std::time::Duration::MAX),
            Err(channel::RecvTimeoutError::Disconnected)
        ));
    }

    #[test]
    fn try_recv_reports_empty_and_disconnected() {
        let (tx, rx) = channel::bounded::<u8>(1);
        assert!(matches!(rx.try_recv(), Err(channel::TryRecvError::Empty)));
        tx.send(9).unwrap();
        assert_eq!(rx.try_recv().unwrap(), 9);
        drop(tx);
        assert!(matches!(
            rx.try_recv(),
            Err(channel::TryRecvError::Disconnected)
        ));
    }

    #[test]
    fn cloned_receivers_compete_for_messages() {
        let (tx, rx) = channel::bounded::<u32>(4);
        let rx2 = rx.clone();
        let a = std::thread::spawn(move || rx.iter().count());
        let b = std::thread::spawn(move || rx2.iter().count());
        for i in 0..200 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let (ca, cb) = (a.join().unwrap(), b.join().unwrap());
        assert_eq!(ca + cb, 200, "every message delivered exactly once");
    }

    #[test]
    fn send_fails_once_all_receivers_drop() {
        let (tx, rx) = channel::bounded::<u8>(2);
        let rx2 = rx.clone();
        drop(rx);
        drop(rx2);
        assert!(tx.send(1).is_err());
    }
}
