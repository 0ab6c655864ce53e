//! Loom models for the virtual-processor pool's load-bearing
//! properties: queue-full shedding, blocked-worker spare injection,
//! shutdown draining, the processor bound across a blocking scope, and
//! spare reuse. Compiled only under `RUSTFLAGS="--cfg loom"` —
//! run them with `scripts/ci.sh loom`, which also swaps the kernel's
//! sync shims (see `eden_kernel::sync::shim`) to loom's instrumented
//! primitives so the pool's lock/condvar traffic is under the model's
//! schedule control.
#![cfg(loom)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use eden_capability::NodeId;
use eden_kernel::vproc::{SubmitError, VirtualProcessorPool};
use eden_obs::ObsRegistry;
use loom::sync::{Arc, Condvar, Mutex};

fn pool(workers: usize, cap: usize) -> VirtualProcessorPool {
    let obs = std::sync::Arc::new(ObsRegistry::new(0));
    VirtualProcessorPool::new(NodeId(0), workers, cap, &obs)
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while !done() {
        if Instant::now() >= end {
            return false;
        }
        loom::thread::yield_now();
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// A full queue sheds with `Overloaded` — never blocks, never grows —
/// under every explored interleaving of submitter vs. worker.
#[test]
fn model_queue_full_sheds_overloaded() {
    loom::model(|| {
        let p = pool(1, 2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = gate.clone();
        p.submit(move || {
            let mut open = g.0.lock();
            while !*open {
                g.1.wait(&mut open);
            }
        })
        .unwrap();
        // The wedge task must leave the queue before it can back up.
        assert!(
            wait_until(Duration::from_secs(5), || p.stats().queued == 0),
            "worker never picked up the wedge task"
        );
        p.submit(|| {}).unwrap();
        p.submit(|| {}).unwrap();
        assert_eq!(p.submit(|| {}), Err(SubmitError::Overloaded));
        let stats = p.stats();
        assert!(stats.rejected >= 1);
        assert!(stats.queued <= 2, "shedding must cap the queue");
        *gate.0.lock() = true;
        gate.1.notify_all();
        p.shutdown();
    });
}

/// A worker parked in a `blocking` scope is replaced by a spare, so the
/// task that unblocks it always gets a processor (no starvation
/// deadlock), and the pool shrinks back afterwards.
#[test]
fn model_blocked_worker_gets_a_spare() {
    loom::model(|| {
        let p = Arc::new(pool(1, 64));
        let unblocker = Arc::new(AtomicUsize::new(0));
        let (p2, u2) = (p.clone(), unblocker.clone());
        p.submit(move || {
            p2.blocking(|| {
                let end = Instant::now() + Duration::from_secs(5);
                while u2.load(Ordering::SeqCst) == 0 && Instant::now() < end {
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        })
        .unwrap();
        assert!(
            wait_until(Duration::from_secs(5), || p.stats().blocked == 1),
            "worker never entered the blocking scope"
        );
        let u3 = unblocker.clone();
        p.submit(move || {
            u3.store(1, Ordering::SeqCst);
        })
        .unwrap();
        assert!(
            wait_until(Duration::from_secs(5), || unblocker.load(Ordering::SeqCst)
                == 1),
            "spare never ran the unblocking task"
        );
        assert!(p.stats().spares_spawned >= 1);
        // A surplus worker retires after lingering without work once
        // the blocked worker returns: live settles back to the
        // configured complement.
        assert!(
            wait_until(Duration::from_secs(5), || p.stats().live <= 1),
            "pool did not shrink back after the blocking scope"
        );
        p.shutdown();
    });
}

/// Shutdown drains every queued task exactly once, then refuses new
/// work, regardless of how submits interleave with the stop flag.
#[test]
fn model_shutdown_drains_then_closes() {
    loom::model(|| {
        let p = pool(1, 1024);
        let done = Arc::new(AtomicUsize::new(0));
        let mut accepted = 0usize;
        for _ in 0..24 {
            let d = done.clone();
            if p.submit(move || {
                d.fetch_add(1, Ordering::SeqCst);
            })
            .is_ok()
            {
                accepted += 1;
            }
        }
        p.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), accepted);
        assert_eq!(p.submit(|| {}), Err(SubmitError::Closed));
        assert_eq!(done.load(Ordering::SeqCst), accepted, "no task ran twice");
    });
}

/// Work counted while it runs; the peak is the most tasks ever running
/// at once.
#[derive(Default)]
struct Gauge {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl Gauge {
    fn work(&self) {
        let now = self.current.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        loom::thread::yield_now();
        std::thread::sleep(Duration::from_micros(200));
        self.current.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One processor: a task works, blocks until a second task has run,
/// then works again. The second task runs on a spare while the first is
/// blocked, and the first resumes only once the processor is free, so
/// no two tasks ever run at once.
#[test]
fn model_running_workers_never_exceed_the_target() {
    loom::model(|| {
        let p = Arc::new(pool(1, 64));
        let gauge = Arc::new(Gauge::default());
        let released = Arc::new(AtomicUsize::new(0));
        let (p2, g2, r2) = (p.clone(), gauge.clone(), released.clone());
        p.submit(move || {
            g2.work();
            p2.blocking(|| {
                let end = Instant::now() + Duration::from_secs(5);
                while r2.load(Ordering::SeqCst) == 0 && Instant::now() < end {
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            g2.work();
        })
        .unwrap();
        for _ in 0..2 {
            let (g3, r3) = (gauge.clone(), released.clone());
            p.submit(move || {
                r3.store(1, Ordering::SeqCst);
                g3.work();
            })
            .unwrap();
        }
        assert!(
            wait_until(Duration::from_secs(5), || p.stats().executed == 3),
            "tasks did not all run: {:?}",
            p.stats()
        );
        assert_eq!(gauge.peak.load(Ordering::SeqCst), 1, "{:?}", p.stats());
        p.shutdown();
        assert_eq!(p.stats().live, 0);
    });
}

/// Two back-to-back blocking episodes: the first starts one spare, the
/// second finds it parked and reuses it instead of starting another.
#[test]
fn model_back_to_back_blocking_reuses_the_spare() {
    loom::model(|| {
        let p = Arc::new(pool(1, 64));
        for episode in 1..=2u64 {
            let released = Arc::new(AtomicUsize::new(0));
            let (p2, r2) = (p.clone(), released.clone());
            p.submit(move || {
                p2.blocking(|| {
                    let end = Instant::now() + Duration::from_secs(5);
                    while r2.load(Ordering::SeqCst) == 0 && Instant::now() < end {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                });
            })
            .unwrap();
            assert!(
                wait_until(Duration::from_secs(5), || p.stats().blocked == 1),
                "worker never entered the blocking scope"
            );
            let r3 = released.clone();
            p.submit(move || r3.store(1, Ordering::SeqCst)).unwrap();
            assert!(
                wait_until(Duration::from_secs(5), || p.stats().executed == 2 * episode),
                "episode {episode} did not finish: {:?}",
                p.stats()
            );
        }
        let stats = p.stats();
        assert_eq!(stats.spares_spawned, 1, "{stats:?}");
        assert_eq!(stats.live, 2, "the spare lingers: {stats:?}");
        p.shutdown();
        assert_eq!(p.stats().live, 0);
    });
}
