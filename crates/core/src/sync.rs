//! Kernel-supplied intra-object synchronization primitives.
//!
//! §4.2: "for fine-grained synchronization control, programmers can use
//! kernel-supplied *semaphore* and *message port* primitives." Both are
//! per-object, created on demand by name through the [`OpCtx`], and live
//! in the short-term state — they are never checkpointed and are rebuilt
//! empty on reincarnation (§4.1: short-term state "is never written to
//! long-term storage").
//!
//! [`OpCtx`]: crate::OpCtx

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use eden_wire::Value;

use self::shim::{Condvar, Mutex};

/// The sync primitives the kernel's concurrency-sensitive paths build
/// on, swappable at compile time for model checking.
///
/// Normally these are `parking_lot` and `std::thread`. Under
/// `RUSTFLAGS="--cfg loom"` (the `scripts/ci.sh loom` target) they
/// become the `loom` crate's instrumented equivalents, so the
/// [`VirtualProcessorPool`](crate::vproc::VirtualProcessorPool) and the
/// intra-object primitives in this module run under the model checker's
/// schedule exploration without any source changes. The two APIs are
/// kept parking_lot-shaped (`lock()` returns the guard directly).
pub mod shim {
    #[cfg(loom)]
    pub use loom::sync::{Condvar, Mutex};
    #[cfg(loom)]
    pub use loom::thread;
    #[cfg(not(loom))]
    pub use parking_lot::{Condvar, Mutex};
    #[cfg(not(loom))]
    pub use std::thread;
}

/// A counting semaphore for invocation processes and behaviors within one
/// object.
pub struct EdenSemaphore {
    count: Mutex<u64>,
    cv: Condvar,
}

impl EdenSemaphore {
    /// A semaphore with `initial` permits.
    pub fn new(initial: u64) -> Self {
        EdenSemaphore {
            count: Mutex::new(initial),
            cv: Condvar::new(),
        }
    }

    /// P: blocks until a permit is available, then takes it.
    pub fn p(&self) {
        let mut count = self.count.lock();
        while *count == 0 {
            // eden-lint: allow(blocking-discipline): P parks by design —
            // a §4.2 semaphore wait keeps its virtual processor, as the
            // paper's process keeps its GDP; wrapping it in blocking()
            // would start a new worker for every waiter, so an object's
            // P-waiters alone could grow the pool without bound.
            self.cv.wait(&mut count);
        }
        *count -= 1;
    }

    /// P with a deadline; `false` if it expired.
    pub fn p_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut count = self.count.lock();
        while *count == 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.cv.wait_for(&mut count, deadline - now);
        }
        *count -= 1;
        true
    }

    /// Non-blocking P.
    pub fn try_p(&self) -> bool {
        let mut count = self.count.lock();
        if *count == 0 {
            return false;
        }
        *count -= 1;
        true
    }

    /// V: releases one permit.
    pub fn v(&self) {
        let mut count = self.count.lock();
        *count += 1;
        self.cv.notify_one();
    }

    /// Current permit count (diagnostics only; racy by nature).
    pub fn permits(&self) -> u64 {
        *self.count.lock()
    }
}

/// A many-producer, many-consumer port carrying [`Value`]s between the
/// processes of one object (invocations and behaviors).
pub struct MessagePort {
    queue: Mutex<PortState>,
    recv_cv: Condvar,
    send_cv: Condvar,
}

struct PortState {
    items: VecDeque<Value>,
    capacity: Option<usize>,
    closed: bool,
}

impl MessagePort {
    /// An unbounded port.
    pub fn unbounded() -> Self {
        MessagePort::with_capacity(None)
    }

    /// A port that blocks senders beyond `capacity` queued messages.
    pub fn bounded(capacity: usize) -> Self {
        MessagePort::with_capacity(Some(capacity))
    }

    fn with_capacity(capacity: Option<usize>) -> Self {
        MessagePort {
            queue: Mutex::new(PortState {
                items: VecDeque::new(),
                capacity,
                closed: false,
            }),
            recv_cv: Condvar::new(),
            send_cv: Condvar::new(),
        }
    }

    /// Sends a message, blocking while the port is full. Returns `false`
    /// if the port is closed.
    pub fn send(&self, value: Value) -> bool {
        let mut q = self.queue.lock();
        loop {
            if q.closed {
                return false;
            }
            match q.capacity {
                Some(cap) if q.items.len() >= cap => self.send_cv.wait(&mut q),
                _ => break,
            }
        }
        q.items.push_back(value);
        self.recv_cv.notify_one();
        true
    }

    /// Receives the next message, blocking until one arrives or the port
    /// closes (then `None`).
    pub fn recv(&self) -> Option<Value> {
        let mut q = self.queue.lock();
        loop {
            if let Some(v) = q.items.pop_front() {
                self.send_cv.notify_one();
                return Some(v);
            }
            if q.closed {
                return None;
            }
            self.recv_cv.wait(&mut q);
        }
    }

    /// Receives with a deadline; `None` on timeout or closure.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Value> {
        let deadline = Instant::now() + timeout;
        let mut q = self.queue.lock();
        loop {
            if let Some(v) = q.items.pop_front() {
                self.send_cv.notify_one();
                return Some(v);
            }
            if q.closed {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.recv_cv.wait_for(&mut q, deadline - now);
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Value> {
        let mut q = self.queue.lock();
        let v = q.items.pop_front();
        if v.is_some() {
            self.send_cv.notify_one();
        }
        v
    }

    /// Closes the port: senders fail, receivers drain then get `None`.
    /// Called by the kernel when the object crashes or moves.
    pub fn close(&self) {
        let mut q = self.queue.lock();
        q.closed = true;
        self.recv_cv.notify_all();
        self.send_cv.notify_all();
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.queue.lock().items.len()
    }

    /// Tests whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.lock().items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn semaphore_counts_permits() {
        let s = EdenSemaphore::new(2);
        assert!(s.try_p());
        assert!(s.try_p());
        assert!(!s.try_p());
        s.v();
        assert!(s.try_p());
    }

    #[test]
    fn semaphore_p_blocks_until_v() {
        let s = Arc::new(EdenSemaphore::new(0));
        let s2 = s.clone();
        let t = std::thread::spawn(move || {
            s2.p();
            "woke"
        });
        std::thread::sleep(Duration::from_millis(20));
        s.v();
        assert_eq!(t.join().unwrap(), "woke");
    }

    #[test]
    fn semaphore_p_timeout_expires() {
        let s = EdenSemaphore::new(0);
        let start = Instant::now();
        assert!(!s.p_timeout(Duration::from_millis(25)));
        assert!(start.elapsed() >= Duration::from_millis(23));
        s.v();
        assert!(s.p_timeout(Duration::from_millis(25)));
    }

    #[test]
    fn semaphore_provides_mutual_exclusion() {
        let s = Arc::new(EdenSemaphore::new(1));
        let counter = Arc::new(Mutex::new((0u32, 0u32))); // (inside, max_inside)
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = s.clone();
            let counter = counter.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    s.p();
                    {
                        let mut c = counter.lock();
                        c.0 += 1;
                        c.1 = c.1.max(c.0);
                    }
                    std::thread::yield_now();
                    {
                        let mut c = counter.lock();
                        c.0 -= 1;
                    }
                    s.v();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.lock().1, 1, "critical section was never shared");
    }

    #[test]
    fn port_is_fifo() {
        let p = MessagePort::unbounded();
        for i in 0..10 {
            assert!(p.send(Value::I64(i)));
        }
        for i in 0..10 {
            assert_eq!(p.recv(), Some(Value::I64(i)));
        }
    }

    #[test]
    fn bounded_port_blocks_senders() {
        let p = Arc::new(MessagePort::bounded(1));
        assert!(p.send(Value::Unit));
        let p2 = p.clone();
        let t = std::thread::spawn(move || {
            let start = Instant::now();
            assert!(p2.send(Value::Bool(true)));
            start.elapsed()
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(p.recv(), Some(Value::Unit));
        let blocked_for = t.join().unwrap();
        assert!(blocked_for >= Duration::from_millis(25), "{blocked_for:?}");
        assert_eq!(p.recv(), Some(Value::Bool(true)));
    }

    #[test]
    fn recv_timeout_expires_empty() {
        let p = MessagePort::unbounded();
        assert_eq!(p.recv_timeout(Duration::from_millis(20)), None);
    }

    #[test]
    fn close_wakes_everyone() {
        let p = Arc::new(MessagePort::unbounded());
        let p2 = p.clone();
        let receiver = std::thread::spawn(move || p2.recv());
        std::thread::sleep(Duration::from_millis(20));
        p.close();
        assert_eq!(receiver.join().unwrap(), None);
        assert!(!p.send(Value::Unit), "send after close must fail");
    }

    #[test]
    fn close_lets_receivers_drain() {
        let p = MessagePort::unbounded();
        p.send(Value::I64(1));
        p.close();
        assert_eq!(p.recv(), Some(Value::I64(1)));
        assert_eq!(p.recv(), None);
    }

    #[test]
    fn many_producers_one_consumer() {
        let p = Arc::new(MessagePort::unbounded());
        let mut handles = Vec::new();
        for t in 0..4i64 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    p.send(Value::I64(t * 1000 + i));
                }
            }));
        }
        let mut got = Vec::new();
        for _ in 0..1000 {
            got.push(p.recv().unwrap());
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(got.len(), 1000);
    }
}
