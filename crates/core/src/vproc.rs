//! The virtual-processor pool: the node's processor complement.
//!
//! §3: the Eden node machine multiplexes a *fixed* complement of
//! processors (two GDPs, "field upgradable" to four) over however many
//! invocation processes exist. [`VirtualProcessorPool`] is that
//! complement: every invocation process, move and reincarnation runs
//! as a task on a pool worker, and at most
//! [`NodeConfig::virtual_processors`](crate::NodeConfig) workers are
//! *running* — neither parked for work nor inside a
//! [`blocking`](VirtualProcessorPool::blocking) scope. Excess work
//! queues, and past [`NodeConfig::vproc_queue_cap`](crate::NodeConfig)
//! the kernel sheds load with `Status::Overloaded` instead of falling
//! over.
//!
//! ## Blocking
//!
//! Kernel tasks legitimately block: a nested invocation waits for the
//! inner result, a remote one for its reply, a move for the transfer
//! ack. [`VirtualProcessorPool::blocking`] gives the worker's processor
//! up for such a wait — the paper's process yielding its GDP: to a
//! worker resuming from its own wait first, else to a parked worker,
//! and only then to a new thread, so a wait never starves the task that
//! would end it. When the wait ends, the worker takes a processor back
//! before it resumes. A worker beyond the configured count parks
//! [`LINGER`] without work, then exits: the thread set shrinks back
//! after a burst, and back-to-back waits reuse threads instead of
//! starting new ones.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_capability::NodeId;
use eden_obs::{now_ns, stage, Counter, Gauge, Histogram, ObsRegistry, TraceCtx};

use crate::sync::shim::{self, Condvar, Mutex};

/// How long a worker above the configured count stays parked without
/// work before it exits.
pub const LINGER: Duration = Duration::from_millis(500);

thread_local! {
    /// Identity (by [`Shared`] address) of the pool whose worker loop
    /// owns this thread, so [`VirtualProcessorPool::blocking`] accounts
    /// only for the pool's own workers — a client thread waiting inside
    /// `Node::invoke` holds no processor. Cleared for the duration of a
    /// blocking scope, so a nested scope runs unadorned.
    static WORKER_OF: Cell<usize> = const { Cell::new(0) };
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Task {
    job: Job,
    enqueued_ns: u64,
    /// Trace context of the invocation this task belongs to. `None` for
    /// untraced (sampled-out or internal) tasks, which then pay zero
    /// span cost at dequeue — not even an allocation.
    trace: Option<TraceCtx>,
}

/// The lowest worker id not in `held`, so ids stay small and unique
/// among live workers however many threads come and go. `u16::MAX` is
/// reserved for the stall probe's queue-age pseudo-worker.
fn lowest_free_id(held: &BTreeSet<u16>) -> Option<u16> {
    let mut id = 0u16;
    for &h in held {
        if h != id {
            break;
        }
        id += 1;
    }
    (id < u16::MAX).then_some(id)
}

struct State {
    queue: VecDeque<Task>,
    /// Worker threads currently alive, including ones still starting.
    live: usize,
    /// Workers parked (or starting) without a task.
    idle: usize,
    /// Workers holding a processor: executing a task outside any
    /// blocking scope. Never above the configured count.
    running: usize,
    /// Workers inside a [`VirtualProcessorPool::blocking`] scope.
    blocked: usize,
    /// Workers whose blocking scope ended, waiting for a processor.
    /// They have first claim on the next one freed.
    resuming: usize,
    /// Ids of live workers; an exiting worker's id is reused.
    ids: BTreeSet<u16>,
    /// Join handles of every worker not yet seen finished.
    threads: Vec<shim::thread::JoinHandle<()>>,
    /// Per-worker busy-since timestamps (worker id → ns), maintained
    /// around task execution so the stall watchdog can spot a worker
    /// wedged in one task past the deadline.
    busy_since: BTreeMap<u16, u64>,
    stop: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Parked workers wait here for work.
    cv: Condvar,
    /// Workers leaving a blocking scope wait here for a processor.
    resume_cv: Condvar,
    node: NodeId,
    /// The processor complement: the bound on running workers.
    workers: usize,
    queue_cap: usize,
    /// Registry the queue-residency spans of traced tasks are recorded
    /// into at dequeue.
    obs: Arc<ObsRegistry>,
    busy: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    task_wait: Arc<Histogram>,
    executed: Arc<Counter>,
    rejected: Arc<Counter>,
    spares: Arc<Counter>,
    panicked: Arc<Counter>,
}

/// Why [`VirtualProcessorPool::submit`] refused a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The task queue is at `vproc_queue_cap`; the kernel sheds this
    /// request with `Status::Overloaded`.
    Overloaded,
    /// The pool has been shut down.
    Closed,
}

/// What the stall watchdog sees in one [`VirtualProcessorPool::
/// stall_probe`]: queue backlog and the longest-running in-flight task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VprocProbe {
    /// Tasks waiting in the queue.
    pub queued: usize,
    /// Age of the oldest queued task in nanoseconds (0 when empty).
    pub oldest_wait_ns: u64,
    /// Longest-running in-flight task as `(worker id, busy ns)`;
    /// `None` when every worker is idle or blocked.
    pub busiest: Option<(u16, u64)>,
}

/// A point-in-time snapshot of one node's pool (see
/// [`Node::vproc_stats`](crate::Node::vproc_stats)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VprocStats {
    /// Configured processor count: the bound on running workers.
    pub workers: usize,
    /// Worker threads currently alive.
    pub live: usize,
    /// Workers parked waiting for work.
    pub idle: usize,
    /// Workers parked inside a blocking scope (nested/remote waits).
    pub blocked: usize,
    /// Tasks waiting in the queue.
    pub queued: usize,
    /// Queue capacity before `Overloaded` shedding starts.
    pub queue_cap: usize,
    /// Tasks executed to completion since boot.
    pub executed: u64,
    /// Tasks refused because the queue was full.
    pub rejected: u64,
    /// Worker threads started beyond the initial set.
    pub spares_spawned: u64,
    /// Tasks that panicked (the worker survives).
    pub panicked: u64,
}

/// The node's virtual processors: named worker threads executing the
/// kernel's deferred tasks; see the module docs for the scheduling
/// model.
pub struct VirtualProcessorPool {
    shared: Arc<Shared>,
}

impl VirtualProcessorPool {
    /// Starts `workers` workers for `node` — the processor complement —
    /// with a task queue bounded at `queue_cap`. Pressure metrics are
    /// registered in `obs` (`vproc.busy`, `vproc.queue_depth`,
    /// `vproc.task_wait`, …), so the Monitor object and the Prometheus
    /// export see them.
    pub fn new(node: NodeId, workers: usize, queue_cap: usize, obs: &Arc<ObsRegistry>) -> Self {
        let workers = workers.max(1);
        let pool = VirtualProcessorPool {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    live: 0,
                    idle: 0,
                    running: 0,
                    blocked: 0,
                    resuming: 0,
                    ids: BTreeSet::new(),
                    threads: Vec::with_capacity(workers),
                    busy_since: BTreeMap::new(),
                    stop: false,
                }),
                cv: Condvar::new(),
                resume_cv: Condvar::new(),
                node,
                workers,
                queue_cap: queue_cap.max(1),
                obs: Arc::clone(obs),
                busy: obs.gauge("vproc.busy"),
                queue_depth: obs.gauge("vproc.queue_depth"),
                task_wait: obs.histogram("vproc.task_wait"),
                executed: obs.counter("vproc.executed"),
                rejected: obs.counter("vproc.rejected"),
                spares: obs.counter("vproc.spares_spawned"),
                panicked: obs.counter("vproc.panicked"),
            }),
        };
        let wids: Vec<_> = {
            let mut st = pool.shared.state.lock();
            (0..workers).map(|_| reserve_worker(&mut st)).collect()
        };
        for wid in wids {
            pool.spawn_worker(wid);
        }
        pool
    }

    /// Queues `job` for execution on a pool worker.
    ///
    /// Fails with [`SubmitError::Overloaded`] when the queue is at
    /// capacity (the job is dropped; the caller owes the invoker a
    /// `Status::Overloaded` reply) and [`SubmitError::Closed`] after
    /// shutdown.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        self.submit_traced(job, None)
    }

    /// [`submit`](Self::submit) for a task belonging to a traced
    /// invocation: at dequeue the worker records a retroactive
    /// `vproc-wait` span (stage `vproc-queue`) covering the task's whole
    /// queue residency, parented on `trace`. Untraced tasks (`None`)
    /// skip all span work.
    pub fn submit_traced(
        &self,
        job: impl FnOnce() + Send + 'static,
        trace: Option<TraceCtx>,
    ) -> Result<(), SubmitError> {
        let mut st = self.shared.state.lock();
        if st.stop {
            return Err(SubmitError::Closed);
        }
        if st.queue.len() >= self.shared.queue_cap {
            self.shared.rejected.inc();
            return Err(SubmitError::Overloaded);
        }
        st.queue.push_back(Task {
            job: Box::new(job),
            enqueued_ns: now_ns(),
            trace,
        });
        self.shared.queue_depth.inc();
        let spare = self.wake(&mut st);
        drop(st);
        self.spawn_worker(spare);
        Ok(())
    }

    /// [`submit_traced`](Self::submit_traced) for a whole batch: all
    /// `tasks` are enqueued under **one** lock acquisition, so a
    /// receive-loop frame batch pays the pool's synchronization cost
    /// once instead of once per invocation.
    ///
    /// Admission is per task: the i-th result mirrors what
    /// `submit_traced` would have returned for the i-th task (tasks past
    /// the queue cap shed with `Overloaded`; the caller owes each
    /// rejected invocation its backpressure reply).
    pub fn submit_batch(
        &self,
        tasks: Vec<(Job, Option<TraceCtx>)>,
    ) -> Vec<Result<(), SubmitError>> {
        if tasks.is_empty() {
            return Vec::new();
        }
        let mut results = Vec::with_capacity(tasks.len());
        let mut accepted = 0usize;
        let mut st = self.shared.state.lock();
        for (job, trace) in tasks {
            if st.stop {
                results.push(Err(SubmitError::Closed));
                continue;
            }
            if st.queue.len() >= self.shared.queue_cap {
                self.shared.rejected.inc();
                results.push(Err(SubmitError::Overloaded));
                continue;
            }
            st.queue.push_back(Task {
                job,
                enqueued_ns: now_ns(),
                trace,
            });
            accepted += 1;
            results.push(Ok(()));
        }
        if accepted > 0 {
            self.shared.queue_depth.add(accepted as i64);
        }
        if accepted > 1 {
            self.shared.cv.notify_all();
        }
        let spare = self.wake(&mut st);
        drop(st);
        self.spawn_worker(spare);
        results
    }

    /// Runs `f` — a wait whose completion may itself need a processor
    /// (a nested or remote invocation's reply, a move ack) — with this
    /// worker's processor given up: the processor goes to a resuming
    /// worker, a parked worker or, for queued work with neither, a new
    /// one. When `f` returns, the worker waits for a free processor
    /// before it resumes. On a thread that is not one of this pool's
    /// workers, or inside another blocking scope, `f` runs unadorned.
    pub fn blocking<R>(&self, f: impl FnOnce() -> R) -> R {
        let me = Arc::as_ptr(&self.shared) as usize;
        if WORKER_OF.with(Cell::get) != me {
            return f();
        }
        let mut st = self.shared.state.lock();
        st.running -= 1;
        st.blocked += 1;
        let spare = self.wake(&mut st);
        drop(st);
        self.spawn_worker(spare);
        // The scope ends on unwind too: the worker loop's accounting
        // after the task assumes its processor was taken back.
        struct Resume<'a>(&'a VirtualProcessorPool, usize);
        impl Drop for Resume<'_> {
            fn drop(&mut self) {
                WORKER_OF.with(|c| c.set(self.1));
                self.0.resume();
            }
        }
        WORKER_OF.with(|c| c.set(0));
        let _resume = Resume(self, me);
        f()
    }

    /// Ends a blocking scope: takes a processor back, waiting for one if
    /// all are in use.
    fn resume(&self) {
        let mut st = self.shared.state.lock();
        st.blocked -= 1;
        if st.running >= self.shared.workers {
            st.resuming += 1;
            while st.running >= self.shared.workers {
                self.shared.resume_cv.wait(&mut st);
            }
            st.resuming -= 1;
        }
        st.running += 1;
        // Another processor may be free that this worker's first
        // claim held back from queued work.
        let spare = self.wake(&mut st);
        drop(st);
        self.spawn_worker(spare);
    }

    /// Hands a free processor to whoever has first claim on it: a
    /// resuming worker, else — for queued work — a parked worker. When
    /// queued work has neither, reserves a new worker, which the caller
    /// starts with [`spawn_worker`](Self::spawn_worker) once it has
    /// released the lock.
    fn wake(&self, st: &mut State) -> Option<u16> {
        if st.running >= self.shared.workers {
            return None;
        }
        if st.resuming > 0 {
            self.shared.resume_cv.notify_one();
        } else if !st.queue.is_empty() {
            if st.idle > 0 {
                self.shared.cv.notify_one();
            } else if !st.stop {
                return reserve_worker(st).inspect(|_| self.shared.spares.inc());
            }
        }
        None
    }

    /// Starts the worker reserved as `wid`, if any.
    fn spawn_worker(&self, wid: Option<u16>) {
        let Some(wid) = wid else { return };
        let shared = self.shared.clone();
        let spawned = shim::thread::Builder::new()
            .name(format!("eden-vproc-{}-{wid}", self.shared.node))
            .spawn(move || worker_loop(shared, wid));
        let mut st = self.shared.state.lock();
        match spawned {
            Ok(handle) => {
                st.threads.retain(|h| !h.is_finished());
                st.threads.push(handle);
            }
            Err(_) => {
                // Could not create the thread: release the reservation.
                st.live -= 1;
                st.idle -= 1;
                st.ids.remove(&wid);
            }
        }
    }

    /// One stall-watchdog probe: queue backlog with the oldest task's
    /// residency, and the longest-running in-flight task, ages computed
    /// at probe time. Cheap — one lock acquisition, no allocation
    /// beyond the map walk.
    pub fn stall_probe(&self) -> VprocProbe {
        let now = now_ns();
        let st = self.shared.state.lock();
        VprocProbe {
            queued: st.queue.len(),
            oldest_wait_ns: st
                .queue
                .front()
                .map(|t| now.saturating_sub(t.enqueued_ns))
                .unwrap_or(0),
            busiest: st
                .busy_since
                .iter()
                .map(|(&wid, &since)| (wid, now.saturating_sub(since)))
                .max_by_key(|&(_, age)| age),
        }
    }

    /// Current pool shape and lifetime counters.
    pub fn stats(&self) -> VprocStats {
        let st = self.shared.state.lock();
        VprocStats {
            workers: self.shared.workers,
            live: st.live,
            idle: st.idle,
            blocked: st.blocked,
            queued: st.queue.len(),
            queue_cap: self.shared.queue_cap,
            executed: self.shared.executed.get(),
            rejected: self.shared.rejected.get(),
            spares_spawned: self.shared.spares.get(),
            panicked: self.shared.panicked.get(),
        }
    }

    /// Stops accepting work and drains: workers finish every task
    /// already queued, then every worker — parked ones included —
    /// exits and is joined. Workers wedged in a long-running operation
    /// are abandoned after a grace period rather than hanging the
    /// caller (they still exit once their task completes).
    pub fn shutdown(&self) {
        {
            let mut st = self.shared.state.lock();
            if st.stop {
                return;
            }
            st.stop = true;
        }
        self.shared.cv.notify_all();
        self.shared.resume_cv.notify_all();
        let deadline = Instant::now() + Duration::from_millis(500);
        loop {
            let (handles, live) = {
                let mut st = self.shared.state.lock();
                (std::mem::take(&mut st.threads), st.live)
            };
            if handles.is_empty() && live == 0 {
                break;
            }
            for handle in handles {
                while !handle.is_finished() && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(2));
                }
                if handle.is_finished() {
                    let _ = handle.join();
                }
            }
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Reserves a slot and an id for a new worker, which starts out idle.
fn reserve_worker(st: &mut State) -> Option<u16> {
    let wid = lowest_free_id(&st.ids)?;
    st.ids.insert(wid);
    st.live += 1;
    st.idle += 1;
    Some(wid)
}

fn worker_loop(shared: Arc<Shared>, wid: u16) {
    WORKER_OF.with(|c| c.set(Arc::as_ptr(&shared) as usize));
    let mut st = shared.state.lock();
    loop {
        // Parked, counted in `idle`: wait for queued work and a free
        // processor. A worker above the configured count gives up after
        // LINGER without work; on stop, workers exit once the queue is
        // drained.
        let mut parked = None;
        let task = loop {
            // A resuming worker has first claim on a free processor.
            if st.running < shared.workers && st.resuming == 0 {
                if let Some(task) = st.queue.pop_front() {
                    break Some(task);
                }
            }
            if st.stop && st.queue.is_empty() {
                break None;
            }
            if st.live > shared.workers {
                let since = *parked.get_or_insert_with(Instant::now);
                let left = LINGER.saturating_sub(since.elapsed());
                if left.is_zero() {
                    break None;
                }
                shared.cv.wait_for(&mut st, left);
            } else {
                shared.cv.wait(&mut st);
            }
        };
        st.idle -= 1;
        let Some(task) = task else { break };
        st.running += 1;
        let dequeued_ns = now_ns();
        st.busy_since.insert(wid, dequeued_ns);
        drop(st);
        shared.queue_depth.dec();
        shared
            .task_wait
            .record(dequeued_ns.saturating_sub(task.enqueued_ns));
        // Queue residency becomes a retroactive critical-path span —
        // only for traced tasks; sampled-out work does no span work.
        if let Some(trace) = task.trace {
            shared.obs.record_span_staged(
                "vproc-wait",
                stage::VPROC_QUEUE,
                trace,
                task.enqueued_ns,
                dequeued_ns,
            );
        }
        shared.busy.inc();
        // Panic isolation: one panicking task must not kill its worker.
        // (Operation panics are already caught in `run_invocation`; this
        // is the backstop for every other task the kernel queues.)
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(task.job));
        shared.busy.dec();
        shared.executed.inc();
        if outcome.is_err() {
            shared.panicked.inc();
        }
        st = shared.state.lock();
        st.busy_since.remove(&wid);
        st.running -= 1;
        st.idle += 1;
        if st.resuming > 0 {
            shared.resume_cv.notify_one();
        }
    }
    st.live -= 1;
    st.ids.remove(&wid);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn pool(workers: usize, cap: usize) -> VirtualProcessorPool {
        let obs = Arc::new(ObsRegistry::new(0));
        VirtualProcessorPool::new(NodeId(0), workers, cap, &obs)
    }

    #[test]
    fn executes_submitted_tasks() {
        let p = pool(2, 64);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let done = done.clone();
            p.submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while done.load(Ordering::SeqCst) < 16 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(done.load(Ordering::SeqCst), 16);
        p.shutdown();
    }

    #[test]
    fn overflow_is_rejected_not_queued() {
        let p = pool(1, 2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        // Wedge the single worker so the queue backs up.
        let g = gate.clone();
        p.submit(move || {
            let mut open = g.0.lock();
            while !*open {
                g.1.wait(&mut open);
            }
        })
        .unwrap();
        // Wait until the worker has actually taken the wedge task.
        let deadline = Instant::now() + Duration::from_secs(5);
        while p.stats().queued > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        p.submit(|| {}).unwrap();
        p.submit(|| {}).unwrap();
        assert_eq!(p.submit(|| {}), Err(SubmitError::Overloaded));
        assert!(p.stats().rejected >= 1);
        *gate.0.lock() = true;
        gate.1.notify_all();
        p.shutdown();
    }

    #[test]
    fn submit_batch_runs_all_and_sheds_past_the_cap() {
        let p = pool(1, 4);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = gate.clone();
        // Wedge the single worker so the batch lands in the queue.
        p.submit(move || {
            let mut open = g.0.lock();
            while !*open {
                g.1.wait(&mut open);
            }
        })
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while p.stats().queued > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Six tasks into a cap-4 queue: per-item verdicts, the first
        // four accepted, the tail shed with Overloaded.
        let done = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<(Box<dyn FnOnce() + Send>, Option<TraceCtx>)> = (0..6)
            .map(|_| {
                let d = done.clone();
                let job: Box<dyn FnOnce() + Send> = Box::new(move || {
                    d.fetch_add(1, Ordering::SeqCst);
                });
                (job, None)
            })
            .collect();
        let results = p.submit_batch(tasks);
        assert_eq!(results.len(), 6);
        assert!(results[..4].iter().all(Result::is_ok));
        assert_eq!(results[4], Err(SubmitError::Overloaded));
        assert_eq!(results[5], Err(SubmitError::Overloaded));
        *gate.0.lock() = true;
        gate.1.notify_all();
        let deadline = Instant::now() + Duration::from_secs(5);
        while done.load(Ordering::SeqCst) < 4 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(done.load(Ordering::SeqCst), 4, "accepted tasks all ran");
        p.shutdown();
        assert_eq!(
            p.submit_batch(vec![(Box::new(|| {}) as Box<dyn FnOnce() + Send>, None)]),
            vec![Err(SubmitError::Closed)]
        );
    }

    #[test]
    fn panicking_task_does_not_kill_the_worker() {
        let p = pool(1, 64);
        p.submit(|| panic!("boom")).unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        let d = done.clone();
        p.submit(move || {
            d.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while done.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(p.stats().panicked, 1);
        p.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_tasks() {
        let p = pool(1, 1024);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let d = done.clone();
            p.submit(move || {
                d.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        p.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 64);
        assert_eq!(p.submit(|| {}), Err(SubmitError::Closed));
    }

    #[test]
    fn blocked_worker_is_replaced_by_a_spare() {
        let p = Arc::new(pool(1, 64));
        let unblocker = Arc::new(AtomicUsize::new(0));
        // The single worker's task blocks until a *second* task — which
        // can only run if a spare is injected — unblocks it.
        let (p2, u2) = (p.clone(), unblocker.clone());
        p.submit(move || {
            p2.blocking(|| {
                let deadline = Instant::now() + Duration::from_secs(5);
                while u2.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        })
        .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let u3 = unblocker.clone();
        p.submit(move || {
            u3.store(1, Ordering::SeqCst);
        })
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while unblocker.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(unblocker.load(Ordering::SeqCst), 1, "spare never ran");
        assert!(p.stats().spares_spawned >= 1);
        p.shutdown();
    }

    #[test]
    fn traced_task_records_queue_residency_span() {
        let obs = Arc::new(ObsRegistry::new(7));
        let p = VirtualProcessorPool::new(NodeId(7), 1, 64, &obs);
        let root = obs.root_span("invoke");
        let ctx = root.ctx();
        p.submit_traced(|| {}, Some(ctx)).unwrap();
        // An untraced task must add nothing.
        p.submit(|| {}).unwrap();
        p.shutdown();
        root.finish();
        let spans = obs.traces().spans_for(ctx.trace_id);
        let waits: Vec<_> = spans.iter().filter(|s| s.name == "vproc-wait").collect();
        assert_eq!(waits.len(), 1, "spans: {spans:?}");
        assert_eq!(waits[0].stage, stage::VPROC_QUEUE);
        assert_eq!(waits[0].parent_span, ctx.span_id);
        assert!(waits[0].end_ns >= waits[0].start_ns);
    }

    #[test]
    fn stall_probe_sees_backlog_and_busy_worker() {
        let p = pool(1, 64);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = gate.clone();
        p.submit(move || {
            let mut open = g.0.lock();
            while !*open {
                g.1.wait(&mut open);
            }
        })
        .unwrap();
        // Wait for the worker to take the wedge, then queue one more.
        let deadline = Instant::now() + Duration::from_secs(5);
        while p.stats().queued > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        p.submit(|| {}).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let probe = p.stall_probe();
        assert_eq!(probe.queued, 1);
        assert!(probe.oldest_wait_ns > 0, "queued task must age");
        let (wid, busy_ns) = probe.busiest.expect("wedged worker visible");
        assert_eq!(wid, 0);
        assert!(busy_ns > 0);
        *gate.0.lock() = true;
        gate.1.notify_all();
        p.shutdown();
        let after = p.stall_probe();
        assert_eq!(after.queued, 0);
        assert!(after.busiest.is_none(), "probe after drain: {after:?}");
    }

    #[test]
    fn steady_state_thread_count_is_bounded() {
        let p = pool(3, 4096);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..256 {
            let d = done.clone();
            p.submit(move || {
                d.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
            assert!(
                p.stats().live <= 3,
                "non-blocking load must not grow the pool"
            );
        }
        p.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 256);
    }

    #[test]
    fn worker_ids_take_the_lowest_free_id_and_are_reused() {
        fn alloc(held: &mut BTreeSet<u16>) -> Option<u16> {
            let id = lowest_free_id(held);
            held.extend(id);
            id
        }
        let mut held = BTreeSet::new();
        let ids = [alloc(&mut held), alloc(&mut held), alloc(&mut held)];
        assert_eq!(ids, [Some(0), Some(1), Some(2)]);
        held.remove(&1);
        assert_eq!(alloc(&mut held), Some(1), "an exited worker's id is reused");
        assert_eq!(alloc(&mut held), Some(3));
        held.remove(&0);
        held.remove(&3);
        assert_eq!((alloc(&mut held), alloc(&mut held)), (Some(0), Some(3)));
        // However many workers have come and gone, live ids stay
        // distinct; only a full id space refuses, and u16::MAX (the
        // probe's queue-age pseudo-worker) is never handed out.
        let mut full: BTreeSet<u16> = (0..u16::MAX).collect();
        assert_eq!(alloc(&mut full), None);
        full.remove(&40_000);
        assert_eq!(alloc(&mut full), Some(40_000));
        assert_eq!(alloc(&mut full), None);
    }

    #[test]
    fn shutdown_joins_parked_spares() {
        let p = Arc::new(pool(1, 64));
        let p2 = p.clone();
        let done = Arc::new(AtomicUsize::new(0));
        let d = done.clone();
        // The blocking scope spawns a spare for the queued task; once the
        // scope ends the spare is surplus and lingers, parked.
        p.submit(move || {
            p2.blocking(|| {
                let deadline = Instant::now() + Duration::from_secs(5);
                while d.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        })
        .unwrap();
        let d = done.clone();
        p.submit(move || {
            d.store(1, Ordering::SeqCst);
        })
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while p.stats().executed < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(p.stats().live, 2, "surplus worker lingers: {:?}", p.stats());
        p.shutdown();
        assert_eq!(p.stats().live, 0, "every worker joined: {:?}", p.stats());
    }
}
