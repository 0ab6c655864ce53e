//! The node: virtual memory + virtual processors + the kernel proper.
//!
//! §4.3: "A node is an object that supplies *virtual memory* to store the
//! segments of active objects and *virtual processors* to execute
//! invocations. … At any point in time each active Eden object is
//! supported by exactly one node. This node is responsible for supplying
//! hardware resources and for receiving and processing invocations for
//! the object."
//!
//! [`Node`] is one kernel instance. Its pieces:
//!
//! * an **object table** (the virtual memory) of [`ObjectSlot`]s;
//! * the **virtual processors** ([`VirtualProcessorPool`]): the pool
//!   runs every invocation process, move and reincarnation, and at
//!   most [`NodeConfig::virtual_processors`] of its workers run
//!   at once — the paper's fixed processor complement (§3; the default
//!   of 2 mirrors the two GDPs of the default node machine, "field
//!   upgradable" to 4 — see experiment F2). A process gives its
//!   processor up while it waits for a nested or remote invocation and
//!   takes one back before it resumes, so nesting can never deadlock
//!   the node. Excess work queues up to
//!   [`NodeConfig::vproc_queue_cap`], past which the kernel sheds load
//!   with [`Status::Overloaded`];
//! * the **location service**: hint cache → birth-node hint → broadcast
//!   `WhereIs` → forwarding addresses, realizing the location-independent
//!   object address space of §2;
//! * the **lifecycle machinery**: checkpoint / checksite / crash /
//!   reincarnation (§4.4), move (§4.3), freeze + replica caching (§4.3);
//! * a **receive loop** servicing the kernel-to-kernel protocol.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_capability::{Capability, NameGenerator, NodeId, ObjName, Rights};
use eden_directory::{DirOutput, DirectoryService, GossipConfig, MemberEvent};
use eden_obs::{now_ns, stage, KernelEvent, ObsRegistry, TraceCtx, TraceSampling};
use eden_store::CheckpointStore;
use eden_transport::Endpoint;
use eden_wire::{
    DirRegisterKind, DirState, Frame, HeldState, MemberStatus, Message, ObjectImage, Reader,
    Status, Value, WireDecode, WireEncode, Writer,
};
use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::ctx::OpCtx;
use crate::error::{EdenError, Result};
use crate::lru::LruMap;
use crate::metrics::{KernelMetrics, MetricsCell};
pub use crate::object::ReliabilityLevel;
use crate::object::{
    Checksite, CoordState, LocalReply, ObjStatus, ObjectSlot, PendingInvocation, ReplySink,
    CHECKSITE_SEGMENT,
};
use crate::repr::Representation;
use crate::types::TypeRegistry;
use crate::vproc::{VirtualProcessorPool, VprocStats};
use crate::waiter::{LocationAnswer, QueryCollector, Waiter};

thread_local! {
    /// Active deferred-dispatch collector. Set by the receive loop while
    /// it handles a multi-frame batch: `pump` pushes ready invocations
    /// here instead of submitting each to the pool individually, and the
    /// whole batch is enqueued under one pool lock/notify afterwards
    /// (`Node::flush_dispatch_batch`). `None` everywhere else, so worker
    /// threads and single-frame handling keep the direct submit path.
    static DISPATCH_BUF: RefCell<Option<Vec<DeferredDispatch>>> = const { RefCell::new(None) };
}

/// How many frames the receive loop asks the transport for per wakeup.
const RECV_BATCH_MAX: usize = 128;

/// One invocation dispatch deferred by `pump` into the receive loop's
/// batch. Carries the pool job plus everything needed to undo the
/// coordinator bookkeeping and shed the invocation if the pool rejects
/// this slot of the batch.
struct DeferredDispatch {
    job: Box<dyn FnOnce() + Send + 'static>,
    dispatch_ctx: Option<TraceCtx>,
    slot: Arc<ObjectSlot>,
    class: String,
    sink: ReplySink,
    reply_trace: Option<TraceCtx>,
}

/// Kernel tuning parameters.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The node machine's GDPs: the bound on pool workers running at
    /// once. Invocation processes, moves and reincarnations all run on
    /// them; a worker waiting for a nested or remote reply does not
    /// count against it.
    pub virtual_processors: usize,
    /// Default invocation timeout when the invoker does not supply one.
    pub default_invoke_timeout: Duration,
    /// Budget for one remote request/reply exchange before trying the
    /// next location candidate.
    pub remote_try_timeout: Duration,
    /// How long a broadcast location query collects answers when no
    /// active holder responds immediately.
    pub locate_window: Duration,
    /// Budget for a move transfer to be acknowledged.
    pub move_timeout: Duration,
    /// Forwarding budget on invocation requests (bounds forwarding
    /// chains left by repeated moves).
    pub hop_limit: u8,
    /// Hard cap on concurrent invocation processes within one object,
    /// over and above per-class limits.
    pub max_processes_per_object: usize,
    /// Retransmission interval for unanswered remote invocations. The
    /// same invocation id is re-sent, and the serving kernel dedupes,
    /// giving at-most-once execution per holder over a lossy network.
    pub retransmit_interval: Duration,
    /// Ablation switch: disable the location hint cache (every remote
    /// invocation falls back to birth hints and broadcast search).
    pub enable_location_cache: bool,
    /// Ablation switch: disable request retransmission (a lost frame
    /// costs the whole candidate budget).
    pub enable_retransmission: bool,
    /// Which invocations open a root trace span. Sampled-out
    /// invocations carry no [`TraceCtx`] at all, so every downstream
    /// layer (client send, transport, dispatch, execute, reply) skips
    /// its span work for free.
    pub trace_sampling: TraceSampling,
    /// Bound on the pool's task queue. Past it the kernel sheds load
    /// with [`Status::Overloaded`] instead of queueing without limit —
    /// the backpressure contract a fan-out client must handle.
    pub vproc_queue_cap: usize,
    /// Enables the sharded location directory and its gossip membership:
    /// each object name hashes to a *home* node that tracks the current
    /// holder, so a locate miss costs one round trip to the home instead
    /// of a broadcast plus the locate window. Off reproduces the seed
    /// kernel exactly (broadcast `WhereIs` is the only search).
    pub enable_directory: bool,
    /// Compatibility switch: when the directory cannot name a live
    /// holder, fall back to the seed's broadcast search. Disabling it
    /// makes misses cheap but surrenders the broadcast safety net
    /// (directory state is a hint, not ground truth).
    pub enable_broadcast_fallback: bool,
    /// Bound on the location hint cache; past it the least recently used
    /// hint is evicted (counted in `location_cache_evictions`).
    pub location_cache_cap: usize,
    /// Gossip protocol period: one direct liveness probe per period.
    pub gossip_interval: Duration,
    /// Budget for a probed peer to ack (directly or via relays) before
    /// it becomes a suspect.
    pub gossip_probe_timeout: Duration,
    /// How long a suspect may stay unrefuted before gossip declares it
    /// dead and the directory withholds its registrations.
    pub gossip_suspect_timeout: Duration,
    /// Runs the per-node stall watchdog thread (`eden-watchdog-<id>`),
    /// which probes the virtual-processor pool, the transport's writer
    /// queues and the in-flight remote invocations, and dumps a
    /// structured diagnostic snapshot to the flight recorder when
    /// something exceeds its deadline.
    pub enable_watchdog: bool,
    /// How often the watchdog probes.
    pub watchdog_interval: Duration,
    /// Age past which a busy virtual processor, a head-of-queue task or
    /// a non-draining writer queue counts as stalled.
    pub watchdog_stall_deadline: Duration,
    /// Age past which an in-flight remote invocation is reported as a
    /// `slow-invocation` flight-recorder event.
    pub slow_invocation_budget: Duration,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            virtual_processors: 2,
            default_invoke_timeout: Duration::from_secs(5),
            remote_try_timeout: Duration::from_secs(2),
            locate_window: Duration::from_millis(250),
            move_timeout: Duration::from_secs(2),
            hop_limit: 8,
            max_processes_per_object: 64,
            retransmit_interval: Duration::from_millis(150),
            enable_location_cache: true,
            enable_retransmission: true,
            trace_sampling: TraceSampling::Always,
            vproc_queue_cap: 1024,
            enable_directory: true,
            enable_broadcast_fallback: true,
            location_cache_cap: 4096,
            gossip_interval: Duration::from_millis(100),
            gossip_probe_timeout: Duration::from_millis(200),
            gossip_suspect_timeout: Duration::from_millis(600),
            enable_watchdog: true,
            watchdog_interval: Duration::from_millis(50),
            watchdog_stall_deadline: Duration::from_secs(1),
            slow_invocation_budget: Duration::from_secs(2),
        }
    }
}

/// The reserved object name under which each kernel answers telemetry
/// scrapes (`get_metrics`, `get_trace`, `get_flight_log`).
///
/// [`NameGenerator`] epochs and sequence numbers start at zero and
/// never reach `u32::MAX`/`u64::MAX`, so the sentinel cannot collide
/// with a real object. Because the name's birth-node field is `node`,
/// ordinary invocation routing delivers a scrape to the right kernel
/// with no extra location traffic.
pub fn node_object_name(node: NodeId) -> ObjName {
    ObjName::from_parts(node, u32::MAX, u64::MAX)
}

/// A read-only capability for `node`'s telemetry object — the handle a
/// monitor holds per node it watches.
pub fn node_object_cap(node: NodeId) -> Capability {
    Capability::with_rights(node_object_name(node), Rights::READ)
}

/// Replies the receive loop can rendezvous to a waiting requester.
pub(crate) enum ReplyMsg {
    Invoke(Status, Vec<Value>, NodeId),
    MoveAck(bool, String),
    CkptAck(bool, u64),
    CkptData(Option<ObjectImage>),
    Replica(Option<ObjectImage>),
    DirAnswer(Option<NodeId>, DirState),
    Pong,
}

/// One remote request in flight: the registered reply waiter plus
/// what `Node::pipeline_wait` needs to retransmit and to attribute the
/// exchange.
pub(crate) struct PipelineTicket {
    pub(crate) inv_id: u64,
    pub(crate) dst: NodeId,
    pub(crate) waiter: Arc<Waiter<ReplyMsg>>,
    pub(crate) start_ns: u64,
    /// The exchange's `client-send` span, recorded when it ends.
    pub(crate) trace: Option<TraceCtx>,
}

/// Whether a remote try's status ends the location search. Every
/// status but `NoSuchObject` and `Timeout` is an *answer* from the
/// object's real home — enumerated (not `_`) so a new wire status
/// forces a decision about whether it ends the search.
pub(crate) fn ends_search(status: &Status) -> bool {
    match status {
        Status::NoSuchObject | Status::Timeout => false,
        Status::Ok
        | Status::NoSuchOperation(_)
        | Status::RightsViolation { .. }
        | Status::ObjectCrashed
        | Status::Frozen
        | Status::TypeError(_)
        | Status::NodeUnreachable
        | Status::Destroyed
        | Status::AppError { .. }
        | Status::Overloaded => true,
    }
}

/// At-most-once bookkeeping for remotely served invocations: requests
/// currently executing, and the sent replies a caller may still need
/// re-sent, so a lost reply is replayed instead of the operation
/// re-executed.
///
/// A cached reply lives until its caller acknowledges it — every
/// `InvokeRequest` carries the caller's `acked_below` watermark, its
/// lowest still-pending invocation id — or, for a caller that went
/// quiet or died, until it is older than `horizon_ns`, past which no
/// retransmission of it can still be in flight. There is no count cap:
/// at any rate, the cache holds what callers are still waiting on.
struct ServedRequests {
    in_progress: HashSet<(NodeId, u64)>,
    /// Sent replies per caller, by invocation id.
    done: HashMap<NodeId, BTreeMap<u64, CachedReply>>,
    horizon_ns: u64,
    last_sweep_ns: u64,
}

struct CachedReply {
    status: Status,
    results: Vec<Value>,
    sent_ns: u64,
}

impl ServedRequests {
    /// Unacknowledged replies are kept this long: twice the longest
    /// budget a caller retransmits for (one remote try, or a pipelined
    /// wait on the default invocation timeout), so a retransmission
    /// sent at the end of its budget still finds its reply.
    fn new(config: &NodeConfig) -> Self {
        let budget = config.remote_try_timeout.max(config.default_invoke_timeout);
        ServedRequests {
            in_progress: HashSet::new(),
            done: HashMap::new(),
            horizon_ns: 2 * budget.as_nanos() as u64,
            last_sweep_ns: 0,
        }
    }

    /// Drops `caller`'s cached replies below its watermark: it holds
    /// their replies already, or has stopped waiting for them.
    fn acknowledge(&mut self, caller: NodeId, acked_below: u64) {
        if let Some(replies) = self.done.get_mut(&caller) {
            while let Some(entry) = replies.first_entry() {
                if *entry.key() >= acked_below {
                    break;
                }
                entry.remove();
            }
        }
    }

    fn cached(&self, (caller, inv_id): (NodeId, u64)) -> Option<(Status, Vec<Value>)> {
        let reply = self.done.get(&caller)?.get(&inv_id)?;
        Some((reply.status.clone(), reply.results.clone()))
    }

    fn record_done(&mut self, key: (NodeId, u64), status: Status, results: Vec<Value>) {
        let now = now_ns();
        self.in_progress.remove(&key);
        self.done.entry(key.0).or_default().insert(
            key.1,
            CachedReply {
                status,
                results,
                sent_ns: now,
            },
        );
        // Expire unacknowledged replies a few times per horizon; each
        // sweep walks only what acknowledgements left behind.
        if now.saturating_sub(self.last_sweep_ns) >= self.horizon_ns / 4 {
            self.last_sweep_ns = now;
            let cutoff = now.saturating_sub(self.horizon_ns);
            self.done.retain(|_, replies| {
                replies.retain(|_, reply| reply.sent_ns >= cutoff);
                !replies.is_empty()
            });
        }
    }

    /// Cached replies currently held, across every caller.
    fn len(&self) -> usize {
        self.done.values().map(BTreeMap::len).sum()
    }
}

struct LocationService {
    /// Last known holder of an object (hints; may be stale). Bounded by
    /// [`NodeConfig::location_cache_cap`] with LRU eviction.
    cache: Mutex<LruMap<ObjName, NodeId>>,
    /// Where objects this node moved away now live.
    forwards: RwLock<HashMap<ObjName, NodeId>>,
    /// Outstanding broadcast queries.
    queries: Mutex<HashMap<u64, Arc<QueryCollector>>>,
}

pub(crate) struct NodeInner {
    id: NodeId,
    config: NodeConfig,
    names: NameGenerator,
    registry: Arc<TypeRegistry>,
    objects: RwLock<HashMap<ObjName, Arc<ObjectSlot>>>,
    destroyed: Mutex<HashSet<ObjName>>,
    served: Mutex<ServedRequests>,
    location: LocationService,
    /// The sharded location directory and gossip membership (`None`
    /// reproduces the seed kernel exactly). The service is a pure state
    /// machine: the receive loop ticks it and feeds it frames; no thread
    /// of its own.
    directory: Option<Mutex<DirectoryService>>,
    /// Reply waiters by request id. Ordered, so the lowest pending id —
    /// the `acked_below` watermark invocation requests carry — is at the
    /// front.
    pending: Mutex<BTreeMap<u64, Arc<Waiter<ReplyMsg>>>>,
    store: Arc<dyn CheckpointStore>,
    endpoint: Arc<dyn Endpoint>,
    vprocs: VirtualProcessorPool,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    metrics: MetricsCell,
    obs: Arc<ObsRegistry>,
    last_move_rejection: Mutex<Option<String>>,
    recv_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Remote invocations currently awaiting a reply:
    /// `inv_id -> (start_ns, trace_id)`. The watchdog walks this to
    /// report invocations past [`NodeConfig::slow_invocation_budget`].
    inflight: Mutex<HashMap<u64, (u64, u64)>>,
    /// The most recent watchdog diagnostic snapshot, if any stall has
    /// ever been detected on this node (scraped via `get_watchdog`).
    watchdog_snapshot: Mutex<Option<String>>,
    watchdog_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// One Eden kernel instance. Cheap to clone (shared interior).
#[derive(Clone)]
pub struct Node {
    inner: Arc<NodeInner>,
}

/// Introspection snapshot of one active object (see
/// [`Node::object_info`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectInfo {
    /// The object's unique name.
    pub name: ObjName,
    /// Its type.
    pub type_name: String,
    /// Lifecycle status.
    pub status: crate::object::ObjStatus,
    /// Whether the representation is frozen.
    pub frozen: bool,
    /// Whether this is a cached replica.
    pub replica: bool,
    /// Last durable checkpoint version.
    pub checkpoint_version: u64,
    /// Node keeping the long-term state.
    pub checksite: NodeId,
    /// Representation payload bytes.
    pub data_size: usize,
    /// Invocations queued at the coordinator.
    pub queued_invocations: usize,
    /// Invocation processes currently executing.
    pub running_invocations: usize,
}

/// A handle on an asynchronous invocation (§4.2 promises asynchronous
/// invocation "through a separate kernel primitive"; this is it).
///
/// Starting the invocation never waits: a local (or locally
/// reactivatable) object gets it queued at its coordinator, any other
/// is sent to the best current guess of its holder. The thread that
/// calls [`wait`](Self::wait) finishes it. Dropping the handle
/// abandons the reply, not the invocation.
pub struct InvocationHandle {
    node: Node,
    cap: Capability,
    op: String,
    args: Vec<Value>,
    /// `None` once the result has been taken.
    started: Mutex<Option<Started>>,
}

/// How far [`Node::invoke_async`] got without waiting.
enum Started {
    /// Queued at a coordinator on this node.
    Local(LocalCall),
    /// Sent to the first guess of a remote holder.
    Remote(PipelineTicket),
    /// No first guess could be sent: `wait` runs the full search.
    Search,
    /// Answered at once.
    Done(Result<Vec<Value>>),
}

/// An invocation queued at a local coordinator, not yet waited for.
struct LocalCall {
    waiter: Arc<Waiter<LocalReply>>,
    start_ns: u64,
    trace: Option<TraceCtx>,
}

impl InvocationHandle {
    /// Blocks until the invocation completes or `timeout` elapses. The
    /// result is taken once; a later call reports a timeout.
    ///
    /// When the first guess of a remote holder answers that it does not
    /// hold the object, the invocation never ran, and this falls back
    /// to the full location search within the remaining budget.
    pub fn wait(&self, timeout: Duration) -> Result<Vec<Value>> {
        let deadline = Instant::now() + timeout;
        let Some(started) = self.started.lock().take() else {
            return Err(EdenError::Invoke(Status::Timeout));
        };
        let (node, cap, op, args) = (&self.node, self.cap, &self.op, &self.args);
        let search = || {
            let left = deadline.saturating_duration_since(Instant::now());
            node.invoke_with_timeout(cap, op, args, left)
        };
        let (status, results) = match started {
            Started::Done(result) => return result,
            Started::Local(call) => node.wait_local(&call, cap, op, args, deadline),
            Started::Remote(ticket) => match node.pipeline_wait(&ticket, cap, op, args, timeout) {
                (Status::NoSuchObject, ..) => return search(),
                (status, results, _) => (status, results),
            },
            Started::Search => return search(),
        };
        node.invoke_result(status, results)
    }

    /// Non-blocking poll: the result, if the invocation has completed.
    /// An invocation still to be sent on (the object moved, or the
    /// first guess was wrong) completes only through [`wait`](Self::wait).
    pub fn try_take(&self) -> Option<Result<Vec<Value>>> {
        let ready = match &*self.started.lock() {
            Some(Started::Done(_)) => true,
            Some(Started::Local(call)) => call
                .waiter
                .peek(|reply| matches!(reply, LocalReply::Done(..))),
            Some(Started::Remote(ticket)) => ticket
                .waiter
                .peek(|reply| !matches!(reply, ReplyMsg::Invoke(Status::NoSuchObject, ..))),
            Some(Started::Search) | None => false,
        };
        ready.then(|| self.wait(Duration::ZERO))
    }
}

impl Drop for InvocationHandle {
    fn drop(&mut self) {
        if let Some(Started::Remote(ticket)) = self.started.get_mut().take() {
            self.node.pipeline_abandon(ticket.inv_id);
        }
    }
}

impl Node {
    /// Boots a kernel on `endpoint` with the given store and type
    /// registry, and starts its receive loop.
    pub fn new(
        config: NodeConfig,
        endpoint: Arc<dyn Endpoint>,
        store: Arc<dyn CheckpointStore>,
        registry: Arc<TypeRegistry>,
    ) -> Node {
        let id = endpoint.node();
        let obs = Arc::new(ObsRegistry::new(id.0));
        obs.set_sampling(config.trace_sampling.clone());
        endpoint.attach_obs(obs.clone());
        store.attach_obs(obs.clone());
        let directory = if config.enable_directory {
            let gossip = GossipConfig {
                probe_interval: config.gossip_interval,
                probe_timeout: config.gossip_probe_timeout,
                suspect_timeout: config.gossip_suspect_timeout,
                ..GossipConfig::default()
            };
            Some(Mutex::new(DirectoryService::new(
                id,
                &endpoint.peers(),
                gossip,
                Instant::now(),
            )))
        } else {
            None
        };
        let cache_cap = config.location_cache_cap;
        let inner = Arc::new(NodeInner {
            id,
            vprocs: VirtualProcessorPool::new(
                id,
                config.virtual_processors,
                config.vproc_queue_cap,
                &obs,
            ),
            served: Mutex::new(ServedRequests::new(&config)),
            config,
            names: NameGenerator::new(id),
            registry,
            objects: RwLock::new(HashMap::new()),
            destroyed: Mutex::new(HashSet::new()),
            location: LocationService {
                cache: Mutex::new(LruMap::new(cache_cap)),
                forwards: RwLock::new(HashMap::new()),
                queries: Mutex::new(HashMap::new()),
            },
            directory,
            pending: Mutex::new(BTreeMap::new()),
            store,
            endpoint,
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            metrics: MetricsCell::new(&obs),
            obs,
            last_move_rejection: Mutex::new(None),
            recv_thread: Mutex::new(None),
            inflight: Mutex::new(HashMap::new()),
            watchdog_snapshot: Mutex::new(None),
            watchdog_thread: Mutex::new(None),
        });
        let node = Node { inner };
        let recv_node = node.clone();
        let handle = std::thread::Builder::new()
            .name(format!("eden-recv-{id}"))
            .spawn(move || recv_node.recv_loop())
            .expect("spawn receive loop");
        *node.inner.recv_thread.lock() = Some(handle);
        if node.inner.config.enable_watchdog {
            let dog = node.clone();
            let handle = std::thread::Builder::new()
                .name(format!("eden-watchdog-{id}"))
                .spawn(move || dog.watchdog_loop())
                .expect("spawn watchdog");
            *node.inner.watchdog_thread.lock() = Some(handle);
        }
        node
    }

    /// This kernel's node id.
    pub fn node_id(&self) -> NodeId {
        self.inner.id
    }

    /// The type registry (register types before creating objects).
    pub fn registry(&self) -> &Arc<TypeRegistry> {
        &self.inner.registry
    }

    /// A snapshot of the kernel counters.
    pub fn metrics(&self) -> KernelMetrics {
        self.inner.metrics.snapshot()
    }

    /// This node's observability registry: histograms, gauges, the
    /// flight recorder, and the span collector.
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        &self.inner.obs
    }

    /// A snapshot of the transport counters.
    pub fn transport_stats(&self) -> eden_transport::TransportStats {
        self.inner.endpoint.stats()
    }

    /// Replies held in the at-most-once reply cache for retransmitting
    /// callers (entries leave once acknowledged or past the horizon).
    pub fn cached_replies(&self) -> usize {
        self.inner.served.lock().len()
    }

    /// A snapshot of the virtual-processor pool: configured workers,
    /// live/idle/blocked counts, queue depth, and lifetime counters.
    pub fn vproc_stats(&self) -> VprocStats {
        self.inner.vprocs.stats()
    }

    /// The other nodes reachable on this node's network — what a policy
    /// object consults to make location decisions (§4.3).
    pub fn peers(&self) -> Vec<NodeId> {
        self.inner.endpoint.peers()
    }

    /// Names of objects currently active on this node.
    pub fn active_objects(&self) -> Vec<ObjName> {
        self.inner.objects.read().keys().copied().collect()
    }

    /// Whether `name` is active (or a cached replica) on this node.
    pub fn is_local(&self, name: ObjName) -> bool {
        self.inner.objects.read().contains_key(&name)
    }

    /// The kernel's checkpoint store (used by tooling and experiments).
    pub fn store(&self) -> &Arc<dyn CheckpointStore> {
        &self.inner.store
    }

    fn fresh_id(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocates an invocation id and registers its reply waiter in one
    /// step under the `pending` lock, so [`acked_below`](Self::acked_below)
    /// never sees an id that is allocated but not yet pending.
    fn register_invocation(&self, waiter: Arc<Waiter<ReplyMsg>>) -> u64 {
        let mut pending = self.inner.pending.lock();
        let inv_id = self.fresh_id();
        pending.insert(inv_id, waiter);
        inv_id
    }

    /// One request/reply exchange with `dst`: registers a reply waiter
    /// under a fresh id, sends the message `request` builds for that id
    /// and waits up to `timeout` for the reply — as a blocking scope, so
    /// a pool worker gives its processor up meanwhile.
    fn request(
        &self,
        dst: NodeId,
        timeout: Duration,
        request: impl FnOnce(u64) -> Message,
    ) -> Option<ReplyMsg> {
        let waiter = Arc::new(Waiter::new());
        let id = self.register_invocation(waiter.clone());
        let _ = self
            .inner
            .endpoint
            .send(Frame::to(self.inner.id, dst, request(id)));
        let reply = self.inner.vprocs.blocking(|| waiter.wait(timeout));
        self.inner.pending.lock().remove(&id);
        reply
    }

    /// The acknowledgement watermark for outgoing invocation requests:
    /// the lowest id still awaiting a reply, or the next fresh id when
    /// nothing is pending. Every invocation below it is answered or
    /// abandoned, so its server may drop the cached reply.
    fn acked_below(&self) -> u64 {
        let pending = self.inner.pending.lock();
        match pending.keys().next() {
            Some(&lowest) => lowest,
            None => self.inner.next_id.load(Ordering::Relaxed),
        }
    }

    // ================= Location directory =================

    /// The cached location hint for `name`, refreshed as most recently
    /// used.
    pub fn location_hint(&self, name: ObjName) -> Option<NodeId> {
        self.inner.location.cache.lock().get(&name).copied()
    }

    /// Number of live location hints (bounded by
    /// [`NodeConfig::location_cache_cap`]).
    pub fn location_cache_len(&self) -> usize {
        self.inner.location.cache.lock().len()
    }

    fn cache_insert(&self, name: ObjName, holder: NodeId) {
        let evicted = self.inner.location.cache.lock().insert(name, holder);
        for _ in 0..evicted {
            self.inner.metrics.bump_cache_eviction();
        }
    }

    /// The gossip membership view: every known node with its believed
    /// status and incarnation, self included. Self-only when the
    /// directory is disabled.
    pub fn membership(&self) -> Vec<(NodeId, MemberStatus, u64)> {
        match &self.inner.directory {
            Some(dir) => dir.lock().snapshot(),
            None => vec![(self.inner.id, MemberStatus::Alive, 0)],
        }
    }

    /// The directory home node for `name` on this node's current ring,
    /// if the directory is enabled.
    pub fn directory_home(&self, name: ObjName) -> Option<NodeId> {
        self.inner
            .directory
            .as_ref()
            .and_then(|d| d.lock().home(name))
    }

    /// Number of directory entries homed on this node's shard.
    pub fn directory_shard_len(&self) -> usize {
        self.inner
            .directory
            .as_ref()
            .map(|d| d.lock().shard_len())
            .unwrap_or(0)
    }

    /// Whether gossip currently believes `node` is dead. Used to skip
    /// doomed candidate probes; safe because the broadcast fallback (or
    /// the directory itself) still finds the object if gossip is wrong.
    fn peer_is_dead(&self, node: NodeId) -> bool {
        match &self.inner.directory {
            Some(dir) => dir.lock().status_of(node) == MemberStatus::Dead,
            None => false,
        }
    }

    /// Sends the frames a directory/membership step produced and applies
    /// its liveness events to kernel state.
    fn apply_dir_output(&self, out: DirOutput) {
        for (dst, msg) in out.msgs {
            let _ = self.inner.endpoint.send(Frame::to(self.inner.id, dst, msg));
        }
        for event in out.events {
            match event {
                MemberEvent::Alive(node) => {
                    self.inner
                        .obs
                        .recorder()
                        .record(KernelEvent::MemberAlive { node: node.0 });
                }
                MemberEvent::Suspect(node) => {
                    self.inner
                        .obs
                        .recorder()
                        .record(KernelEvent::MemberSuspect { node: node.0 });
                }
                MemberEvent::Dead(node) => {
                    self.inner.metrics.bump_gossip_dead();
                    self.inner
                        .obs
                        .recorder()
                        .record(KernelEvent::MemberDead { node: node.0 });
                    // Hints pointing at a dead node are now worthless.
                    self.inner
                        .location
                        .cache
                        .lock()
                        .retain(|_, holder| *holder != node);
                    // Broadcasts in flight will never hear from it: rule
                    // it out so their collectors can complete early.
                    for collector in self.inner.location.queries.lock().values() {
                        collector.note_unreachable();
                    }
                }
            }
        }
        if out.topology_changed {
            self.reregister_local_objects();
        }
    }

    /// Re-registers every locally active object after a ring change so
    /// its directory entry migrates to the new home node. Checkpoint-only
    /// registrations are not re-announced (the store has no enumeration);
    /// until the holder's next checkpoint a re-homed entry simply lacks
    /// its checksite fallback and a miss rides the broadcast instead.
    fn reregister_local_objects(&self) {
        let names: Vec<ObjName> = self
            .inner
            .objects
            .read()
            .iter()
            .filter(|(_, slot)| !slot.is_replica())
            .map(|(name, _)| *name)
            .collect();
        for name in names {
            self.dir_register(name, self.inner.id, DirRegisterKind::Active);
        }
    }

    /// Registers (or drops) a holder fact at the object's directory home.
    /// Fire-and-forget: the directory stores hints, not truth (§4.3), so
    /// a lost registration merely degrades a later locate to the
    /// broadcast fallback.
    fn dir_register(&self, name: ObjName, holder: NodeId, kind: DirRegisterKind) {
        let Some(dir) = &self.inner.directory else {
            return;
        };
        self.inner.metrics.bump_dir_register();
        let forward = dir
            .lock()
            .handle_register(self.inner.id, name, holder, kind);
        let home = forward
            .as_ref()
            .map(|(dst, _)| *dst)
            .unwrap_or(self.inner.id);
        self.inner
            .obs
            .recorder()
            .record(KernelEvent::DirectoryRegister {
                obj: name.to_u128(),
                home: home.0,
            });
        if let Some((dst, msg)) = forward {
            let _ = self.inner.endpoint.send(Frame::to(self.inner.id, dst, msg));
        }
    }

    /// Resolves `name` through the sharded directory: one `DirQuery` to
    /// the object's home node (or a local shard lookup when this node is
    /// the home). Returns the registered holder on a hit; `None` on a
    /// miss, a withheld (suspect) answer, or an unreachable home.
    pub fn directory_locate(&self, name: ObjName) -> Option<NodeId> {
        let deadline = Instant::now() + self.inner.config.locate_window;
        self.directory_locate_before(name, deadline, None)
    }

    fn directory_locate_before(
        &self,
        name: ObjName,
        deadline: Instant,
        trace: Option<TraceCtx>,
    ) -> Option<NodeId> {
        let dir = self.inner.directory.as_ref()?;
        let home = dir.lock().home(name)?;
        let query_start = now_ns();
        self.inner.metrics.bump_dir_query();
        self.inner
            .obs
            .recorder()
            .record(KernelEvent::DirectoryQuery {
                obj: name.to_u128(),
                home: home.0,
            });
        let hit = if home == self.inner.id {
            let (holder, state) = dir.lock().answer_query(name);
            (state == DirState::Hit).then_some(holder).flatten()
        } else {
            let budget = self
                .inner
                .config
                .locate_window
                .min(deadline.saturating_duration_since(Instant::now()));
            let reply = self.request(home, budget, |query_id| Message::DirQuery {
                query_id,
                name,
                reply_to: self.inner.id,
            });
            match reply {
                Some(ReplyMsg::DirAnswer(holder, state)) => {
                    (state == DirState::Hit).then_some(holder).flatten()
                }
                // Home unreachable or the answer was lost: treat as a
                // miss and let the caller fall back.
                _ => None,
            }
        };
        if hit.is_some() {
            self.inner.metrics.bump_dir_hit();
        }
        if let Some(t) = trace {
            // Retroactive: covers the shard lookup or the DirQuery RTT,
            // so the critical-path report can price directory time.
            self.inner.obs.record_span_staged(
                "dir-query",
                stage::DIRECTORY,
                t,
                query_start,
                now_ns(),
            );
        }
        hit
    }

    // ================= Object creation =================

    /// Creates a new object of `type_name` on this node; `args` go to the
    /// type manager's `initialize`. Returns the full-rights capability.
    pub fn create_object(&self, type_name: &str, args: &[Value]) -> Result<Capability> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(EdenError::ShuttingDown);
        }
        let manager = self
            .inner
            .registry
            .manager(type_name)
            .ok_or_else(|| EdenError::UnknownType(type_name.to_string()))?;
        let name = self.inner.names.next_name();
        let slot = ObjectSlot::new(
            name,
            type_name.to_string(),
            Representation::new(),
            ObjStatus::Active,
            Checksite {
                node: self.inner.id,
                level: ReliabilityLevel::Local,
            },
        );
        self.inner.objects.write().insert(name, slot.clone());
        let cap = Capability::mint(name);
        let ctx = OpCtx::new(self, &slot, cap, self.inner.id, "<initialize>");
        match manager.initialize(&ctx, args) {
            Ok(()) => {
                self.dir_register(name, self.inner.id, DirRegisterKind::Active);
                Ok(cap)
            }
            Err(e) => {
                self.inner.objects.write().remove(&name);
                Err(EdenError::Invoke(e.into_status()))
            }
        }
    }

    // ================= Invocation =================

    /// Invokes `op` on the object designated by `cap`, blocking for the
    /// status and return parameters. Location-independent: the target may
    /// be on any node, active or passive.
    pub fn invoke(&self, cap: Capability, op: &str, args: &[Value]) -> Result<Vec<Value>> {
        self.invoke_with_timeout(cap, op, args, self.inner.config.default_invoke_timeout)
    }

    /// [`Node::invoke`] with a caller-supplied timeout (§4.2: "The
    /// invocation request may also contain a user-supplied timeout").
    pub fn invoke_with_timeout(
        &self,
        cap: Capability,
        op: &str,
        args: &[Value],
        timeout: Duration,
    ) -> Result<Vec<Value>> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(EdenError::ShuttingDown);
        }
        let (status, results) = self.do_invoke(cap, op, args, timeout);
        self.invoke_result(status, results)
    }

    /// An invocation's outcome as the caller sees it.
    fn invoke_result(&self, status: Status, results: Vec<Value>) -> Result<Vec<Value>> {
        match status {
            Status::Ok => Ok(results),
            Status::Timeout => {
                self.inner.metrics.bump_timeout();
                Err(EdenError::Invoke(Status::Timeout))
            }
            other => Err(EdenError::Invoke(other)),
        }
    }

    /// Starts an invocation without waiting for it; the returned
    /// handle's [`wait`](InvocationHandle::wait) finishes it. No
    /// virtual processor waits on its behalf.
    pub fn invoke_async(&self, cap: Capability, op: &str, args: &[Value]) -> InvocationHandle {
        let started = if self.inner.shutdown.load(Ordering::Acquire) {
            Started::Done(Err(EdenError::ShuttingDown))
        } else {
            let root = self.detached_root(op);
            match self.start_local(cap, op, args, root) {
                Some(Ok(call)) => Started::Local(call),
                Some(Err(status)) => Started::Done(Err(EdenError::Invoke(status))),
                None => {
                    let dst = self.pipeline_default_dst(cap.name());
                    if dst == self.inner.id || self.peer_is_dead(dst) {
                        Started::Search
                    } else {
                        self.pipeline_send(dst, cap, op, args, root)
                            .map_or(Started::Search, Started::Remote)
                    }
                }
            }
        };
        InvocationHandle {
            node: self.clone(),
            cap,
            op: op.to_string(),
            args: args.to_vec(),
            started: Mutex::new(Some(started)),
        }
    }

    /// The invocation state machine: local slot → local checkpoint →
    /// located remote holder.
    fn do_invoke(
        &self,
        cap: Capability,
        op: &str,
        args: &[Value],
        timeout: Duration,
    ) -> (Status, Vec<Value>) {
        let deadline = Instant::now() + timeout;
        let name = cap.name();
        // Telemetry scrape of this kernel: served inline, before any
        // span opens, so scraping never perturbs the traces it reads.
        // A scrape of a *remote* kernel falls through to the ordinary
        // remote path below — the sentinel name's birth hint routes it.
        if name == node_object_name(self.inner.id) {
            return self.serve_node_object(cap, op, args);
        }
        // The root of this invocation's trace: every downstream span —
        // client-send, net, dispatch, execute, reply — descends from it,
        // across however many nodes the invocation visits. Subject to
        // the node's sampling policy: `None` means this invocation is
        // unsampled and no layer anywhere opens a span for it.
        let root = self.inner.obs.sampled_root_span("invoke", op);
        let ctx = root.as_ref().map(|r| r.ctx());

        // Fast path: the object is (or reactivates) on this node.
        match self.start_local(cap, op, args, ctx) {
            Some(Ok(call)) => return self.wait_local(&call, cap, op, args, deadline),
            Some(Err(status)) => return (status, Vec::new()),
            None => {}
        }

        // Remote: try hints in order, then broadcast.
        let hint_start = now_ns();
        let peers = self.inner.endpoint.peers();
        let mut tried = HashSet::new();
        let mut candidates: Vec<(NodeId, bool)> = Vec::new(); // (node, from_cache)
        if let Some(&fwd) = self.inner.location.forwards.read().get(&name) {
            candidates.push((fwd, false));
        }
        if self.inner.config.enable_location_cache {
            if let Some(hint) = self.inner.location.cache.lock().get(&name).copied() {
                candidates.push((hint, true));
            }
        }
        let birth = name.birth_node();
        if birth != self.inner.id && peers.contains(&birth) {
            candidates.push((birth, false));
        }
        if let Some(t) = ctx {
            // Hint assembly (forwarding table + LRU cache + birth hint):
            // usually nanoseconds, but visible in the report when lock
            // contention makes it otherwise.
            self.inner.obs.record_span_staged(
                "hint-probe",
                stage::DIRECTORY,
                t,
                hint_start,
                now_ns(),
            );
        }

        for (candidate, from_cache) in candidates {
            if candidate == self.inner.id || !tried.insert(candidate) {
                continue;
            }
            if !peers.contains(&candidate) {
                continue;
            }
            // Gossip already declared this candidate dead: skip the
            // doomed probe and its whole try budget. The directory (and
            // the broadcast fallback) find the survivor.
            if self.peer_is_dead(candidate) {
                continue;
            }
            let Some(budget) = self.try_budget(deadline) else {
                return (Status::Timeout, Vec::new());
            };
            if from_cache {
                self.inner.metrics.bump_cache_hit();
            }
            let (status, results) = self.remote_invoke(candidate, cap, op, args, budget, ctx);
            if ends_search(&status) {
                return (status, results);
            }
            if from_cache {
                self.inner.location.cache.lock().remove(&name);
            }
        }

        // Directory lookup: one message to the object's home node names
        // the registered holder, where the seed paid a broadcast plus
        // the locate window.
        if self.inner.directory.is_some() {
            if let Some(holder) = self.directory_locate_before(name, deadline, ctx) {
                if holder != self.inner.id
                    && peers.contains(&holder)
                    && !self.peer_is_dead(holder)
                    && tried.insert(holder)
                {
                    let Some(budget) = self.try_budget(deadline) else {
                        return (Status::Timeout, Vec::new());
                    };
                    // A stale registration (the holder moved or crashed
                    // since it registered) falls through to the
                    // broadcast safety net.
                    let (status, results) = self.remote_invoke(holder, cap, op, args, budget, ctx);
                    if ends_search(&status) {
                        return (status, results);
                    }
                }
            }
            if !self.inner.config.enable_broadcast_fallback {
                // Directory-only mode (experiments): a miss is final.
                return (Status::NoSuchObject, Vec::new());
            }
        }

        // Broadcast search.
        if Instant::now() >= deadline {
            return (Status::Timeout, Vec::new());
        }
        let where_is_start = now_ns();
        let answers = self.locate_broadcast(name);
        if let Some(t) = ctx {
            // The seed's safety net: a WhereIs broadcast plus the locate
            // window. When this dominates a trace, the directory missed.
            self.inner.obs.record_span_staged(
                "where-is",
                stage::DIRECTORY,
                t,
                where_is_start,
                now_ns(),
            );
        }
        let mut ordered: Vec<NodeId> = Vec::new();
        for want in [
            HeldState::Active,
            HeldState::FrozenReplica,
            HeldState::Passive,
        ] {
            for a in &answers {
                if a.state == want && !ordered.contains(&a.holder) {
                    ordered.push(a.holder);
                }
            }
        }
        for holder in ordered {
            if holder == self.inner.id || tried.contains(&holder) {
                continue;
            }
            let Some(budget) = self.try_budget(deadline) else {
                return (Status::Timeout, Vec::new());
            };
            let (status, results) = self.remote_invoke(holder, cap, op, args, budget, ctx);
            if ends_search(&status) {
                return (status, results);
            }
        }
        (Status::NoSuchObject, Vec::new())
    }

    /// Serves an invocation on this kernel's reserved telemetry object
    /// (see [`node_object_name`]). The kernel itself is the "object":
    /// there is no slot, no coordinator, no queueing — a scrape reads
    /// the observability registry and replies inline. `Rights::READ`
    /// gates all three operations.
    fn serve_node_object(&self, cap: Capability, op: &str, args: &[Value]) -> (Status, Vec<Value>) {
        if !cap.permits(Rights::READ) {
            self.inner.metrics.bump_rights_violation();
            return (
                Status::RightsViolation {
                    required: Rights::READ,
                    held: cap.rights(),
                },
                Vec::new(),
            );
        }
        let obs = &self.inner.obs;
        match op {
            // Counters, gauges and histogram snapshots of this node.
            "get_metrics" => (
                Status::Ok,
                vec![eden_wire::obs_codec::registry_metrics_to_value(obs)],
            ),
            // Span records — all of them, or one trace when the first
            // argument is a `U64` trace id.
            "get_trace" => {
                let spans = match args.first() {
                    Some(Value::U64(trace_id)) => obs.traces().spans_for(*trace_id),
                    _ => obs.traces().spans(),
                };
                (
                    Status::Ok,
                    vec![eden_wire::obs_codec::spans_to_value(&spans)],
                )
            }
            // Flight-recorder events — all retained, or the last `n`
            // when the first argument is a `U64`.
            "get_flight_log" => {
                let events = match args.first() {
                    Some(Value::U64(n)) => obs.recorder().last(*n as usize),
                    _ => obs.recorder().events(),
                };
                (
                    Status::Ok,
                    vec![eden_wire::obs_codec::events_to_value(
                        self.inner.id.0,
                        &events,
                    )],
                )
            }
            // This node's gossip membership view: one map per known node
            // with its believed status and incarnation (self-only when
            // the directory is disabled).
            "get_membership" => {
                let rows = self
                    .membership()
                    .into_iter()
                    .map(|(node, status, incarnation)| {
                        let mut m = std::collections::BTreeMap::new();
                        m.insert("node".to_string(), Value::U64(node.0 as u64));
                        m.insert("status".to_string(), Value::Str(status.label().to_string()));
                        m.insert("incarnation".to_string(), Value::U64(incarnation));
                        Value::Map(m)
                    })
                    .collect();
                (Status::Ok, vec![Value::List(rows)])
            }
            // Stall-watchdog state: the cumulative stall count and the
            // most recent diagnostic snapshot (empty string when the
            // node has never stalled).
            "get_watchdog" => {
                let mut m = std::collections::BTreeMap::new();
                m.insert(
                    "stalls".to_string(),
                    Value::U64(obs.counter("watchdog.stalls").get()),
                );
                m.insert(
                    "snapshot".to_string(),
                    Value::Str(
                        self.inner
                            .watchdog_snapshot
                            .lock()
                            .clone()
                            .unwrap_or_default(),
                    ),
                );
                (Status::Ok, vec![Value::Map(m)])
            }
            other => (Status::NoSuchOperation(other.to_string()), Vec::new()),
        }
    }

    /// Remaining time for one candidate attempt, if any remains.
    fn try_budget(&self, deadline: Instant) -> Option<Duration> {
        let now = Instant::now();
        if now >= deadline {
            return None;
        }
        Some((deadline - now).min(self.inner.config.remote_try_timeout))
    }

    /// Starts an invocation on an object that is (or reactivates) on
    /// this node: validates it and queues it at the object's
    /// coordinator, without waiting. `None` when the object is
    /// elsewhere.
    fn start_local(
        &self,
        cap: Capability,
        op: &str,
        args: &[Value],
        trace: Option<TraceCtx>,
    ) -> Option<std::result::Result<LocalCall, Status>> {
        let name = cap.name();
        // Bound first so the table's read guard drops before the
        // invocation blocks (an `if let` scrutinee guard would be held
        // across the wait and deadlock crash/move teardown).
        let local = self.inner.objects.read().get(&name).cloned();
        let slot = match local {
            Some(slot) => slot,
            None => {
                if self.inner.destroyed.lock().contains(&name) {
                    return Some(Err(Status::Destroyed));
                }
                // Passive here: reincarnate locally — but only when we
                // have not moved the object away. An object's checkpoints
                // legitimately stay at its checksite after a move (§4.4),
                // so a forwarding address must win over the local
                // checkpoint or the source node would resurrect a stale
                // twin.
                if self.inner.location.forwards.read().contains_key(&name) {
                    return None;
                }
                self.activate_passive_local(name)?
            }
        };
        self.inner.metrics.bump_local();
        let start_ns = now_ns();
        let waiter = Arc::new(Waiter::new());
        let sink = ReplySink::Local(waiter.clone());
        Some(
            self.validate(&slot, cap, op, args, sink, trace)
                .map(|pending| {
                    self.enqueue(&slot, pending);
                    LocalCall {
                        waiter,
                        start_ns,
                        trace,
                    }
                }),
        )
    }

    /// Waits for a locally queued invocation until `deadline`. If the
    /// object moved away before the invocation ran, sends it on to the
    /// new holder.
    fn wait_local(
        &self,
        call: &LocalCall,
        cap: Capability,
        op: &str,
        args: &[Value],
        deadline: Instant,
    ) -> (Status, Vec<Value>) {
        let budget = deadline.saturating_duration_since(Instant::now());
        // A pool worker waiting here (a nested invocation) gives up its
        // processor: the reply it waits for may itself need one.
        let outcome = self.inner.vprocs.blocking(|| call.waiter.wait(budget));
        self.inner
            .obs
            .histogram("invoke.local")
            .record(now_ns().saturating_sub(call.start_ns));
        match outcome {
            Some(LocalReply::Done(status, results)) => (status, results),
            Some(LocalReply::Moved(dst)) => match self.try_budget(deadline) {
                Some(budget) => self.remote_invoke(dst, cap, op, args, budget, call.trace),
                None => (Status::Timeout, Vec::new()),
            },
            None => (Status::Timeout, Vec::new()),
        }
    }

    /// Builds a validated [`PendingInvocation`], or the failure status.
    fn validate(
        &self,
        slot: &Arc<ObjectSlot>,
        cap: Capability,
        op: &str,
        args: &[Value],
        sink: ReplySink,
        trace: Option<TraceCtx>,
    ) -> std::result::Result<PendingInvocation, Status> {
        let Some(resolved) = self.inner.registry.resolve_op(&slot.type_name, op) else {
            return Err(Status::NoSuchOperation(op.to_string()));
        };
        if !cap.permits(resolved.op.required) {
            self.inner.metrics.bump_rights_violation();
            return Err(Status::RightsViolation {
                required: resolved.op.required,
                held: cap.rights(),
            });
        }
        Ok(PendingInvocation {
            presented: cap,
            operation: op.to_string(),
            args: args.to_vec(),
            resolved,
            sink,
            caller: self.inner.id,
            trace,
            enqueue_ns: now_ns(),
        })
    }

    /// Queues an invocation at the coordinator and pumps dispatch.
    fn enqueue(&self, slot: &Arc<ObjectSlot>, pending: PendingInvocation) {
        let mut coord = slot.coord.lock();
        self.inner.obs.gauge("coord.queue_depth").inc();
        if coord.status == ObjStatus::Crashed {
            // Teardown is in progress; the invocation rides along and is
            // rerouted (or refused) by the teardown path.
            coord.queue.push_back(pending);
            return;
        }
        coord.queue.push_back(pending);
        if coord.queue.len() > 1 || coord.status != ObjStatus::Active {
            self.inner.metrics.bump_class_queued();
        }
        self.pump(slot, coord);
    }

    /// Drains the coordinator queue, keeping the queue-depth gauge true.
    fn drain_queue(&self, coord: &mut CoordState) -> Vec<PendingInvocation> {
        let queued: Vec<PendingInvocation> = coord.queue.drain(..).collect();
        self.inner
            .obs
            .gauge("coord.queue_depth")
            .add(-(queued.len() as i64));
        queued
    }

    /// The coordinator's dispatch rule: scan the queue for invocations
    /// whose class has spare capacity; spawn an invocation process for
    /// each (§4.2).
    fn pump(&self, slot: &Arc<ObjectSlot>, mut coord: MutexGuard<'_, CoordState>) {
        if coord.status != ObjStatus::Active {
            return;
        }
        if coord.crash_requested || coord.destroy_requested {
            return;
        }
        if let Some(dst) = coord.pending_move {
            if coord.running == 0 {
                coord.status = ObjStatus::Moving;
                coord.pending_move = None;
                let node = self.clone();
                let task_slot = slot.clone();
                if self
                    .inner
                    .vprocs
                    .submit(move || node.start_move(task_slot, dst))
                    .is_err()
                {
                    // Pool saturated (or shutting down): resume in place;
                    // a later pump retries the move.
                    coord.status = ObjStatus::Active;
                    coord.pending_move = Some(dst);
                }
            }
            return; // No dispatch while a move is pending.
        }
        // An invocation shed for backpressure is answered after the
        // coordinator lock is released: the reply goes out through the
        // at-most-once cache and the transport, neither of which belongs
        // under per-object state.
        let mut shed = None;
        let mut i = 0;
        while i < coord.queue.len() {
            if coord.running >= self.inner.config.max_processes_per_object {
                break;
            }
            let class = coord.queue[i].resolved.op.class.clone();
            let limit = coord.queue[i].resolved.limit;
            let in_service = coord.class_in_service.get(&class).copied().unwrap_or(0);
            if in_service < limit {
                let pending = coord.queue.remove(i).expect("index in bounds");
                coord.running += 1;
                self.inner.obs.gauge("coord.queue_depth").dec();
                self.inner
                    .obs
                    .gauge(&format!("class.in_service.{class}"))
                    .inc();
                *coord.class_in_service.entry(class.clone()).or_insert(0) += 1;
                let node = self.clone();
                let task_slot = slot.clone();
                let sink = pending.sink.clone();
                let trace = pending.trace;
                // Close the coordinator-residency gap retroactively:
                // `dispatch` covers enqueue → this dispatch decision.
                // The invocation's remaining spans (the pool's
                // `vproc-wait`, then `execute`) parent on it, so the
                // three intervals tile the queue time without overlap.
                let mut pending = pending;
                let dispatch_ctx = trace.map(|t| {
                    self.inner.obs.record_span_staged(
                        "dispatch",
                        stage::DISPATCH,
                        t,
                        pending.enqueue_ns,
                        now_ns(),
                    )
                });
                pending.trace = dispatch_ctx;
                let mut job: Option<Box<dyn FnOnce() + Send + 'static>> =
                    Some(Box::new(move || node.run_invocation(task_slot, pending)));
                // While the receive loop is working through a frame
                // batch, hand the dispatch to its collector instead of
                // the pool: the whole batch is then submitted under one
                // pool lock/notify, and the collector owns the undo for
                // any per-task Overloaded verdict.
                let deferred = DISPATCH_BUF.with(|buf| {
                    let mut b = buf.borrow_mut();
                    if let Some(list) = b.as_mut() {
                        list.push(DeferredDispatch {
                            job: job.take().expect("job not yet consumed"),
                            dispatch_ctx,
                            slot: slot.clone(),
                            class: class.clone(),
                            sink: sink.clone(),
                            reply_trace: trace,
                        });
                        true
                    } else {
                        false
                    }
                });
                if deferred {
                    // Accounted as a process at flush time if accepted.
                } else if self
                    .inner
                    .vprocs
                    .submit_traced(job.take().expect("job not yet consumed"), dispatch_ctx)
                    .is_ok()
                {
                    self.inner.metrics.bump_process();
                } else {
                    // Pool saturated: undo the dispatch bookkeeping and
                    // shed this invocation with the backpressure status.
                    self.release_process(&mut coord, &class);
                    shed = Some((sink, trace));
                    break; // The queue is full; later pumps retry the rest.
                }
            } else {
                i += 1;
            }
        }
        drop(coord);
        if let Some((sink, trace)) = shed {
            self.send_reply(sink, Status::Overloaded, Vec::new(), trace);
        }
    }

    /// The body of one invocation process.
    fn run_invocation(&self, slot: Arc<ObjectSlot>, pending: PendingInvocation) {
        // `pending.trace` was rewritten at dispatch (see `pump`) to the
        // `dispatch` span's context; queue residency in the pool was
        // already recorded by the pool itself as `vproc-wait`. All that
        // remains here is timing the execution.
        let exec_span = pending.trace.map(|t| {
            self.inner
                .obs
                .child_span_staged("execute", stage::EXECUTE, t)
        });
        let exec_start = now_ns();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let ctx = OpCtx::new(
                self,
                &slot,
                pending.presented,
                pending.caller,
                pending.operation.clone(),
            );
            pending
                .resolved
                .manager
                .dispatch(&ctx, &pending.operation, &pending.args)
        }));
        self.inner
            .obs
            .histogram("invoke.execute")
            .record(now_ns().saturating_sub(exec_start));
        let exec_ctx = exec_span.map(|s| {
            let c = s.ctx();
            s.finish();
            c
        });

        let (status, results) = match outcome {
            Ok(Ok(values)) => (Status::Ok, values),
            Ok(Err(e)) => (e.into_status(), Vec::new()),
            Err(_) => (
                Status::AppError {
                    code: -3,
                    message: format!("operation '{}' panicked", pending.operation),
                },
                Vec::new(),
            ),
        };
        self.send_reply(pending.sink, status, results, exec_ctx);

        // Completion bookkeeping: release the class slot, then either
        // finish a requested crash/destroy or pump the next dispatch.
        let mut coord = slot.coord.lock();
        self.release_process(&mut coord, &pending.resolved.op.class);
        if coord.running == 0 {
            slot.quiesce_cv.notify_all();
            if coord.crash_requested {
                coord.status = ObjStatus::Crashed;
                drop(coord);
                self.finish_crash(&slot);
                return;
            }
            if coord.destroy_requested {
                coord.status = ObjStatus::Crashed;
                drop(coord);
                self.finish_destroy(&slot);
                return;
            }
        }
        self.pump(&slot, coord);
    }

    /// Releases a process slot of `class` at the coordinator: the
    /// process finished, or its dispatch was undone.
    fn release_process(&self, coord: &mut CoordState, class: &str) {
        coord.running -= 1;
        self.inner
            .obs
            .gauge(&format!("class.in_service.{class}"))
            .dec();
        if let Some(n) = coord.class_in_service.get_mut(class) {
            *n -= 1;
            if *n == 0 {
                coord.class_in_service.remove(class);
            }
        }
    }

    fn send_reply(
        &self,
        sink: ReplySink,
        status: Status,
        results: Vec<Value>,
        trace: Option<TraceCtx>,
    ) {
        match sink {
            ReplySink::Local(waiter) => waiter.complete(LocalReply::Done(status, results)),
            ReplySink::Remote { inv_id, reply_to } => {
                self.inner.served.lock().record_done(
                    (reply_to, inv_id),
                    status.clone(),
                    results.clone(),
                );
                let mut frame = Frame::to(
                    self.inner.id,
                    reply_to,
                    Message::InvokeReply {
                        inv_id,
                        status,
                        results,
                    },
                );
                if let Some(t) = trace {
                    frame = frame.with_trace(t);
                }
                let _ = self.inner.endpoint.send(frame);
            }
        }
    }

    /// Sends one invocation to `dst` and waits up to `budget` for its
    /// reply; an answer re-aims the hint cache at the node that sent it.
    fn remote_invoke(
        &self,
        dst: NodeId,
        cap: Capability,
        op: &str,
        args: &[Value],
        budget: Duration,
        parent: Option<TraceCtx>,
    ) -> (Status, Vec<Value>) {
        match self.pipeline_send(dst, cap, op, args, parent) {
            Ok(ticket) => {
                let (status, results, _) = self.pipeline_wait(&ticket, cap, op, args, budget);
                (status, results)
            }
            Err(status) => (status, Vec::new()),
        }
    }

    // ================= Remote invocation =================
    //
    // Every remote request/reply exchange is these two halves: a
    // non-blocking send that registers the reply waiter, and a wait that
    // can be called later — in any order across calls, because replies
    // rendezvous by `inv_id`. `remote_invoke` runs them back to back;
    // `PipelinedClient` (see `crate::pipeline`) and `invoke_async` keep
    // many requests in flight at once.

    /// Opens and at once closes a sampled root span for `op`. For an
    /// invocation started now and waited for later, the root marks the
    /// start and its children carry the durations.
    pub(crate) fn detached_root(&self, op: &str) -> Option<TraceCtx> {
        self.inner
            .obs
            .sampled_root_span("invoke", op)
            .map(|s| s.ctx())
    }

    /// Sends one invocation request to `dst` without waiting for the
    /// reply. The returned ticket holds the registered waiter; complete
    /// it with [`pipeline_wait`](Self::pipeline_wait) or release it with
    /// [`pipeline_abandon`](Self::pipeline_abandon). Fails only when the
    /// transport refuses the frame outright.
    pub(crate) fn pipeline_send(
        &self,
        dst: NodeId,
        cap: Capability,
        op: &str,
        args: &[Value],
        parent: Option<TraceCtx>,
    ) -> std::result::Result<PipelineTicket, Status> {
        self.inner.metrics.bump_remote_sent();
        let start_ns = now_ns();
        // The `client-send` span covering the exchange: its context
        // rides the request frame so the serving kernel's spans nest
        // under it, and `pipeline_wait` records it once the exchange
        // ends. No parent means the invocation was sampled out.
        let trace = parent.map(|p| self.inner.obs.child_ctx(p));
        let waiter = Arc::new(Waiter::new());
        let inv_id = self.register_invocation(waiter.clone());
        self.inner
            .inflight
            .lock()
            .insert(inv_id, (start_ns, trace.map_or(0, |c| c.trace_id)));
        let ticket = PipelineTicket {
            inv_id,
            dst,
            waiter,
            start_ns,
            trace,
        };
        if self
            .inner
            .endpoint
            .send(self.pipeline_request(&ticket, cap, op, args))
            .is_err()
        {
            self.pipeline_abandon(inv_id);
            return Err(Status::NodeUnreachable);
        }
        Ok(ticket)
    }

    /// Builds the request frame for `ticket` (also used to retransmit —
    /// same `inv_id`, so the serving kernel dedupes).
    fn pipeline_request(
        &self,
        ticket: &PipelineTicket,
        cap: Capability,
        op: &str,
        args: &[Value],
    ) -> Frame {
        let mut frame = Frame::to(
            self.inner.id,
            ticket.dst,
            Message::InvokeRequest {
                inv_id: ticket.inv_id,
                target: cap,
                operation: op.to_string(),
                args: args.to_vec(),
                reply_to: self.inner.id,
                hops: self.inner.config.hop_limit,
                acked_below: self.acked_below(),
            },
        );
        if let Some(t) = ticket.trace {
            frame = frame.with_trace(t);
        }
        frame
    }

    /// Waits for the reply to a pipelined request, retransmitting on the
    /// configured interval exactly like `remote_invoke`. Consumes the
    /// ticket's registration; the third element is the node that
    /// actually answered (cached so a forwarding chain is paid once).
    pub(crate) fn pipeline_wait(
        &self,
        ticket: &PipelineTicket,
        cap: Capability,
        op: &str,
        args: &[Value],
        budget: Duration,
    ) -> (Status, Vec<Value>, NodeId) {
        let result = self.inner.vprocs.blocking(|| {
            if !self.inner.config.enable_retransmission {
                ticket.waiter.wait(budget)
            } else {
                let deadline = Instant::now() + budget;
                loop {
                    // A reply already in is taken even on a zero budget.
                    let slice = self
                        .inner
                        .config
                        .retransmit_interval
                        .min(deadline.saturating_duration_since(Instant::now()));
                    if let Some(reply) = ticket.waiter.wait(slice) {
                        break Some(reply);
                    }
                    if Instant::now() >= deadline {
                        break None;
                    }
                    self.inner.obs.recorder().record(KernelEvent::Retransmit {
                        inv_id: ticket.inv_id,
                        dst: ticket.dst.0,
                    });
                    let _ = self
                        .inner
                        .endpoint
                        .send(self.pipeline_request(ticket, cap, op, args));
                }
            }
        });
        self.pipeline_abandon(ticket.inv_id);
        let end_ns = now_ns();
        if let Some(t) = ticket.trace {
            self.inner
                .obs
                .record_span_as("client-send", stage::NONE, t, ticket.start_ns, end_ns);
        }
        self.inner
            .obs
            .histogram("invoke.remote")
            .record(end_ns.saturating_sub(ticket.start_ns));
        match result {
            Some(ReplyMsg::Invoke(status, results, from)) => {
                // Cache the node that *answered*: after a forwarding
                // chain that is the object's real home.
                if self.inner.config.enable_location_cache && ends_search(&status) {
                    self.cache_insert(cap.name(), from);
                }
                (status, results, from)
            }
            _ => {
                self.inner
                    .obs
                    .recorder()
                    .record(KernelEvent::RemoteTimeout { dst: ticket.dst.0 });
                (Status::Timeout, Vec::new(), ticket.dst)
            }
        }
    }

    /// Unregisters a pipelined request's reply waiter (wait completed,
    /// send failed, or the pending call was dropped unharvested).
    pub(crate) fn pipeline_abandon(&self, inv_id: u64) {
        self.inner.pending.lock().remove(&inv_id);
        self.inner.inflight.lock().remove(&inv_id);
    }

    /// Best current destination guess for `name`: forwarding address,
    /// then hint cache, then the birth node baked into the name.
    pub(crate) fn pipeline_default_dst(&self, name: ObjName) -> NodeId {
        if let Some(&fwd) = self.inner.location.forwards.read().get(&name) {
            return fwd;
        }
        if self.inner.config.enable_location_cache {
            if let Some(hint) = self.inner.location.cache.lock().get(&name).copied() {
                return hint;
            }
        }
        name.birth_node()
    }

    /// The default per-exchange reply budget for pipelined calls.
    pub(crate) fn pipeline_default_budget(&self) -> Duration {
        self.inner.config.default_invoke_timeout
    }

    // ================= Location =================

    /// Broadcasts a `WhereIs` and collects answers for the locate window
    /// (cut short as soon as an active holder replies).
    fn locate_broadcast(&self, name: ObjName) -> Vec<LocationAnswer> {
        self.inner.metrics.bump_broadcast();
        self.inner
            .obs
            .recorder()
            .record(KernelEvent::WhereIsBroadcast {
                obj: name.to_u128(),
            });
        let query_id = self.fresh_id();
        // With the membership view, the wait can also end once every
        // live peer has answered (negative answers and gossip deaths
        // count), instead of always sleeping out the locate window.
        // When gossip believes *no* peer is live, keep the seed's
        // full-window wait: the verdict may be false (lossy network) and
        // a "dead" peer's answer is then the only way to find the object.
        let expected = self
            .inner
            .directory
            .as_ref()
            .map(|dir| dir.lock().expected_responders())
            .unwrap_or(0);
        let collector = if expected > 0 {
            Arc::new(QueryCollector::with_expected(expected))
        } else {
            Arc::new(QueryCollector::new())
        };
        self.inner
            .location
            .queries
            .lock()
            .insert(query_id, collector.clone());
        // Broadcast fans out as one enqueue per peer writer; an
        // unreachable node sheds its copy without delaying the others,
        // so the locate window below is pure answer-collection time.
        let _ = self.inner.endpoint.send(Frame::broadcast(
            self.inner.id,
            Message::WhereIs {
                query_id,
                name,
                reply_to: self.inner.id,
            },
        ));
        let answers = self
            .inner
            .vprocs
            .blocking(|| collector.wait(self.inner.config.locate_window));
        self.inner.location.queries.lock().remove(&query_id);
        answers
    }

    // ================= Lifecycle: checkpoint / crash / reincarnate =====

    /// Persists `slot`'s representation at its checksite; returns the
    /// durable version.
    pub(crate) fn checkpoint_slot(&self, slot: &Arc<ObjectSlot>) -> Result<u64> {
        let cs = slot.checksite();
        let image = {
            let repr = slot.repr.read();
            repr.to_image(
                &slot.type_name,
                slot.is_frozen(),
                slot.checkpoint_version() + 1,
            )
        };
        let version = self.put_checkpoint(cs.node, slot.name, &image)?;
        if let ReliabilityLevel::Replicated(k) = cs.level {
            // Best-effort replication to k additional sites: a down
            // replica does not fail the checkpoint (the checksite copy is
            // the durability contract; replicas raise availability).
            let mut peers = self.inner.endpoint.peers();
            peers.sort();
            let mut sent = 0;
            for peer in peers {
                if sent >= k {
                    break;
                }
                if peer == cs.node {
                    continue;
                }
                let _ = self.put_checkpoint(peer, slot.name, &image);
                sent += 1;
            }
            if sent < k && cs.node != self.inner.id {
                // Fall back to a local copy to honour the replica count
                // as far as possible.
                let _ = self.put_checkpoint(self.inner.id, slot.name, &image);
            }
        }
        slot.version.store(version, Ordering::Release);
        self.inner.metrics.bump_checkpoint();
        self.inner
            .obs
            .recorder()
            .record(KernelEvent::CheckpointWrite {
                obj: slot.name.to_u128(),
                version,
            });
        Ok(version)
    }

    /// Writes one checkpoint image at `site` (local store or remote
    /// checksite over the wire).
    fn put_checkpoint(&self, site: NodeId, name: ObjName, image: &ObjectImage) -> Result<u64> {
        if site == self.inner.id {
            let version = self.inner.store.put(name, &image.encode_to_bytes())?;
            self.dir_register(name, self.inner.id, DirRegisterKind::Checkpoint);
            return Ok(version);
        }
        let timeout = self.inner.config.remote_try_timeout;
        let reply = self.request(site, timeout, |req_id| Message::CheckpointPut {
            req_id,
            name,
            image: image.clone(),
            reply_to: self.inner.id,
        });
        match reply {
            Some(ReplyMsg::CkptAck(true, version)) => Ok(version),
            Some(ReplyMsg::CkptAck(false, _)) => Err(EdenError::Store(eden_store::StoreError::Io(
                format!("checksite {site} refused the checkpoint"),
            ))),
            _ => Err(EdenError::Invoke(Status::NodeUnreachable)),
        }
    }

    /// Reads one checkpoint of `name` from the store at `site`: store
    /// version `version`, or the latest for `None`. `Ok(None)` when that
    /// store holds no such checkpoint (never written, or dropped by
    /// retention); an error when `site` does not answer.
    pub(crate) fn fetch_checkpoint(
        &self,
        site: NodeId,
        name: ObjName,
        version: Option<u64>,
    ) -> Result<Option<ObjectImage>> {
        if site == self.inner.id {
            return Ok(self
                .read_local_checkpoint(name, version)?
                .and_then(|bytes| ObjectImage::decode_from_bytes(&bytes).ok()));
        }
        let timeout = self.inner.config.remote_try_timeout;
        let reply = self.request(site, timeout, |req_id| Message::CheckpointFetch {
            req_id,
            name,
            reply_to: self.inner.id,
            version,
        });
        match reply {
            Some(ReplyMsg::CkptData(image)) => Ok(image),
            _ => Err(EdenError::Invoke(Status::NodeUnreachable)),
        }
    }

    fn read_local_checkpoint(
        &self,
        name: ObjName,
        version: Option<u64>,
    ) -> Result<Option<bytes::Bytes>> {
        Ok(match version {
            Some(v) => self.inner.store.get(name, v)?,
            None => self.inner.store.latest(name)?.map(|(_, bytes)| bytes),
        })
    }

    /// Sets the checksite of `slot` and persists it into the
    /// representation so it survives checkpoints and moves.
    pub(crate) fn set_checksite(
        &self,
        slot: &Arc<ObjectSlot>,
        node: NodeId,
        level: ReliabilityLevel,
    ) -> Result<()> {
        if slot.is_frozen() {
            return Err(EdenError::BadRequest(
                "cannot change the checksite of a frozen object".into(),
            ));
        }
        if node != self.inner.id && !self.inner.endpoint.peers().contains(&node) {
            return Err(EdenError::BadRequest(format!(
                "checksite {node} is not a known node"
            )));
        }
        *slot.checksite.lock() = Checksite { node, level };
        let mut w = Writer::new();
        w.put_u16(node.0);
        match level {
            ReliabilityLevel::Local => {
                w.put_u8(0);
                w.put_u32(0);
            }
            ReliabilityLevel::Replicated(k) => {
                w.put_u8(1);
                w.put_u32(k as u32);
            }
        }
        slot.repr.write().put(CHECKSITE_SEGMENT, w.finish());
        Ok(())
    }

    /// Parses a checksite persisted by [`Node::set_checksite`].
    fn parse_checksite(repr: &Representation, fallback: NodeId) -> Checksite {
        let Some(bytes) = repr.get(CHECKSITE_SEGMENT) else {
            return Checksite {
                node: fallback,
                level: ReliabilityLevel::Local,
            };
        };
        let mut r = Reader::new(bytes);
        let mut parse = || -> std::result::Result<Checksite, eden_wire::CodecError> {
            let node = NodeId(r.get_u16()?);
            let level = match r.get_u8()? {
                1 => ReliabilityLevel::Replicated(r.get_u32()? as usize),
                _ => ReliabilityLevel::Local,
            };
            Ok(Checksite { node, level })
        };
        parse().unwrap_or(Checksite {
            node: fallback,
            level: ReliabilityLevel::Local,
        })
    }

    /// Requests a crash (§4.4): active state is destroyed once running
    /// invocations complete; queued invocations reincarnate the object
    /// from its last checkpoint if one exists.
    pub(crate) fn request_crash(&self, slot: &Arc<ObjectSlot>) {
        let mut coord = slot.coord.lock();
        coord.crash_requested = true;
        if coord.running == 0 && coord.status == ObjStatus::Active {
            coord.status = ObjStatus::Crashed;
            drop(coord);
            self.finish_crash(slot);
        }
    }

    /// Requests permanent destruction.
    pub(crate) fn request_destroy(&self, slot: &Arc<ObjectSlot>) {
        let mut coord = slot.coord.lock();
        coord.destroy_requested = true;
        if coord.running == 0 && coord.status == ObjStatus::Active {
            coord.status = ObjStatus::Crashed;
            drop(coord);
            self.finish_destroy(slot);
        }
    }

    /// Destroys active state: the crash primitive's teardown half.
    fn finish_crash(&self, slot: &Arc<ObjectSlot>) {
        self.inner.metrics.bump_crash();
        self.inner.obs.recorder().record(KernelEvent::Crash {
            obj: slot.name.to_u128(),
        });
        slot.short.teardown();
        self.inner.objects.write().remove(&slot.name);
        // Retract the holder registration before any reincarnation below
        // re-registers it (per-peer FIFO delivery keeps the order).
        self.dir_register(slot.name, self.inner.id, DirRegisterKind::Drop);
        let queued = self.drain_queue(&mut slot.coord.lock());
        if queued.is_empty() {
            return;
        }
        // The single-level-store illusion: invocations that arrived
        // during the crash reincarnate the object if it checkpointed.
        if let Some(new_slot) = self.activate_passive_local(slot.name) {
            for pending in queued {
                self.enqueue(&new_slot, pending);
            }
        } else {
            for pending in queued {
                let trace = pending.trace;
                self.send_reply(pending.sink, Status::ObjectCrashed, Vec::new(), trace);
            }
        }
    }

    /// Destroys the object and its checkpoints everywhere we know of.
    fn finish_destroy(&self, slot: &Arc<ObjectSlot>) {
        slot.short.teardown();
        self.inner.objects.write().remove(&slot.name);
        self.inner.destroyed.lock().insert(slot.name);
        self.dir_register(slot.name, self.inner.id, DirRegisterKind::Drop);
        let _ = self.inner.store.delete(slot.name);
        let cs = slot.checksite();
        if cs.node != self.inner.id {
            let req_id = self.fresh_id();
            let _ = self.inner.endpoint.send(Frame::to(
                self.inner.id,
                cs.node,
                Message::CheckpointDelete {
                    req_id,
                    name: slot.name,
                    reply_to: self.inner.id,
                },
            ));
        }
        for pending in self.drain_queue(&mut slot.coord.lock()) {
            let trace = pending.trace;
            self.send_reply(pending.sink, Status::Destroyed, Vec::new(), trace);
        }
    }

    /// Reincarnates `name` from a locally held checkpoint, if any.
    ///
    /// Returns the (possibly still-reincarnating) slot; invocations may be
    /// queued against it immediately.
    fn activate_passive_local(&self, name: ObjName) -> Option<Arc<ObjectSlot>> {
        let image = {
            let (version, bytes) = self.inner.store.latest(name).ok()??;
            let image = ObjectImage::decode_from_bytes(&bytes).ok()?;
            (version, image)
        };
        let (version, image) = image;
        if !self.inner.registry.has(&image.type_name) {
            return None;
        }
        let slot = {
            let mut objects = self.inner.objects.write();
            if let Some(existing) = objects.get(&name) {
                return Some(existing.clone()); // Raced with another activation.
            }
            let repr = Representation::from_image(&image);
            let checksite = Self::parse_checksite(&repr, self.inner.id);
            let slot = ObjectSlot::new(
                name,
                image.type_name.clone(),
                repr,
                ObjStatus::Reincarnating,
                checksite,
            );
            slot.version.store(version, Ordering::Release);
            slot.frozen.store(image.frozen, Ordering::Release);
            objects.insert(name, slot.clone());
            slot
        };
        let node = self.clone();
        let task_slot = slot.clone();
        if self
            .inner
            .vprocs
            .submit(move || node.run_reincarnation(task_slot))
            .is_err()
        {
            // Pool saturated: back out; the object stays passive and a
            // later invocation retries the reincarnation.
            self.inner.objects.write().remove(&name);
            return None;
        }
        Some(slot)
    }

    /// Runs the reincarnation condition handler, then lets the queued
    /// invocations dispatch (§4.2).
    fn run_reincarnation(&self, slot: Arc<ObjectSlot>) {
        let manager = match self.inner.registry.manager(&slot.type_name) {
            Some(m) => m,
            None => {
                self.fail_reincarnation(&slot, "type manager vanished");
                return;
            }
        };
        let cap = Capability::mint(slot.name);
        let ctx = OpCtx::new(self, &slot, cap, self.inner.id, "<reincarnate>");
        match manager.reincarnate(&ctx) {
            Ok(()) => {
                self.inner.metrics.bump_reincarnation();
                self.inner
                    .obs
                    .recorder()
                    .record(KernelEvent::Reincarnation {
                        obj: slot.name.to_u128(),
                        version: slot.checkpoint_version(),
                    });
                self.dir_register(slot.name, self.inner.id, DirRegisterKind::Active);
                let mut coord = slot.coord.lock();
                coord.status = ObjStatus::Active;
                self.pump(&slot, coord);
            }
            Err(e) => {
                let status = e.into_status();
                self.fail_reincarnation(&slot, &format!("{status}"));
            }
        }
    }

    fn fail_reincarnation(&self, slot: &Arc<ObjectSlot>, reason: &str) {
        self.inner.objects.write().remove(&slot.name);
        for pending in self.drain_queue(&mut slot.coord.lock()) {
            let trace = pending.trace;
            self.send_reply(
                pending.sink,
                Status::AppError {
                    code: -2,
                    message: format!("reincarnation failed: {reason}"),
                },
                Vec::new(),
                trace,
            );
        }
    }

    // ================= Mobility (§4.3) =================

    /// Requests that a local active object move to `dst` (rights already
    /// verified by the caller: the object itself via [`OpCtx::move_to`],
    /// or [`Node::move_object`] which checks `Rights::MOVE`).
    pub(crate) fn request_move(&self, slot: &Arc<ObjectSlot>, dst: NodeId) -> Result<()> {
        if dst == self.inner.id {
            return Ok(());
        }
        if !self.inner.endpoint.peers().contains(&dst) {
            return Err(EdenError::BadRequest(format!("{dst} is not a known node")));
        }
        let mut coord = slot.coord.lock();
        if coord.status == ObjStatus::Moving || coord.pending_move.is_some() {
            return Err(EdenError::BadRequest("move already in progress".into()));
        }
        coord.pending_move = Some(dst);
        self.pump(slot, coord);
        Ok(())
    }

    /// The kernel-level move operation, usable by policy objects holding
    /// `Rights::MOVE` on the target (§4.3: "some objects may have the
    /// ability to make location decisions for other objects").
    pub fn move_object(&self, cap: Capability, dst: NodeId) -> Result<()> {
        if !cap.permits(eden_capability::Rights::MOVE) {
            return Err(EdenError::Invoke(Status::RightsViolation {
                required: eden_capability::Rights::MOVE,
                held: cap.rights(),
            }));
        }
        let slot =
            self.inner
                .objects
                .read()
                .get(&cap.name())
                .cloned()
                .ok_or(EdenError::BadRequest(
                    "move_object requires the object to be active on this node".into(),
                ))?;
        self.request_move(&slot, dst)
    }

    /// Executes a quiesced move: ship the image, then hand over the
    /// queue and leave a forwarding address.
    fn start_move(&self, slot: Arc<ObjectSlot>, dst: NodeId) {
        let image = {
            let repr = slot.repr.read();
            repr.to_image(&slot.type_name, slot.is_frozen(), slot.checkpoint_version())
        };
        let ack = self.request(dst, self.inner.config.move_timeout, |xfer_id| {
            Message::MoveTransfer {
                xfer_id,
                name: slot.name,
                image,
                reply_to: self.inner.id,
            }
        });
        match ack {
            Some(ReplyMsg::MoveAck(true, _reason)) => {
                self.inner.metrics.bump_move_out();
                self.inner.obs.recorder().record(KernelEvent::MoveOut {
                    obj: slot.name.to_u128(),
                    dst: dst.0,
                });
                slot.short.teardown();
                self.inner.objects.write().remove(&slot.name);
                self.inner.location.forwards.write().insert(slot.name, dst);
                self.cache_insert(slot.name, dst);
                let queued = self.drain_queue(&mut slot.coord.lock());
                for pending in queued {
                    match pending.sink {
                        ReplySink::Remote { inv_id, reply_to } => {
                            self.inner.metrics.bump_forward();
                            self.inner.obs.recorder().record(KernelEvent::Forward {
                                obj: slot.name.to_u128(),
                                dst: dst.0,
                            });
                            let mut frame = Frame::to(
                                self.inner.id,
                                dst,
                                Message::InvokeRequest {
                                    inv_id,
                                    target: pending.presented,
                                    operation: pending.operation,
                                    args: pending.args,
                                    reply_to,
                                    hops: self.inner.config.hop_limit,
                                    // The caller's watermark did not
                                    // survive queueing; 0 acknowledges
                                    // nothing, which is always safe.
                                    acked_below: 0,
                                },
                            );
                            if let Some(t) = pending.trace {
                                frame = frame.with_trace(t);
                            }
                            let _ = self.inner.endpoint.send(frame);
                        }
                        ReplySink::Local(waiter) => waiter.complete(LocalReply::Moved(dst)),
                    }
                }
            }
            other => {
                // Rejected or timed out: resume in place. The rejection
                // reason is recorded for introspection.
                if let Some(ReplyMsg::MoveAck(false, reason)) = other {
                    *self.inner.last_move_rejection.lock() = Some(reason);
                }
                let mut coord = slot.coord.lock();
                coord.status = ObjStatus::Active;
                coord.pending_move = None;
                self.pump(&slot, coord);
            }
        }
    }

    /// The reason the most recent outbound move was rejected, if any —
    /// diagnostic surface for policy objects and tests.
    pub fn last_move_rejection(&self) -> Option<String> {
        self.inner.last_move_rejection.lock().clone()
    }

    /// Installs an object shipped to us by a move.
    fn install_moved(&self, src: NodeId, xfer_id: u64, name: ObjName, image: ObjectImage) {
        let reject = |reason: &str| {
            let _ = self.inner.endpoint.send(Frame::to(
                self.inner.id,
                src,
                Message::MoveAck {
                    xfer_id,
                    accepted: false,
                    reason: reason.to_string(),
                },
            ));
        };
        if !self.inner.registry.has(&image.type_name) {
            reject(&format!("type '{}' not registered here", image.type_name));
            return;
        }
        let slot = {
            let mut objects = self.inner.objects.write();
            if objects.contains_key(&name) {
                drop(objects);
                reject("object already present");
                return;
            }
            let repr = Representation::from_image(&image);
            let checksite = Self::parse_checksite(&repr, self.inner.id);
            let slot = ObjectSlot::new(
                name,
                image.type_name.clone(),
                repr,
                ObjStatus::Reincarnating,
                checksite,
            );
            slot.version.store(image.version, Ordering::Release);
            slot.frozen.store(image.frozen, Ordering::Release);
            objects.insert(name, slot.clone());
            slot
        };
        // The object's short-term state is rebuilt from scratch on the new
        // node: run the reincarnation condition handler.
        let manager = self
            .inner
            .registry
            .manager(&slot.type_name)
            .expect("checked above");
        let cap = Capability::mint(name);
        let ctx = OpCtx::new(self, &slot, cap, src, "<reincarnate>");
        match manager.reincarnate(&ctx) {
            Ok(()) => {
                self.inner.metrics.bump_move_in();
                self.inner.obs.recorder().record(KernelEvent::MoveIn {
                    obj: name.to_u128(),
                    src: src.0,
                });
                // If we had previously moved this object away, the old
                // forwarding entry is now wrong.
                self.inner.location.forwards.write().remove(&name);
                self.dir_register(name, self.inner.id, DirRegisterKind::Active);
                let _ = self.inner.endpoint.send(Frame::to(
                    self.inner.id,
                    src,
                    Message::MoveAck {
                        xfer_id,
                        accepted: true,
                        reason: String::new(),
                    },
                ));
                let mut coord = slot.coord.lock();
                coord.status = ObjStatus::Active;
                self.pump(&slot, coord);
            }
            Err(e) => {
                self.inner.objects.write().remove(&name);
                reject(&format!("reincarnation failed: {}", e.into_status()));
            }
        }
    }

    // ================= Frozen objects (§4.3) =================

    /// Freezes `slot`: representation becomes immutable, a frozen
    /// checkpoint is taken, and replicas may be cached elsewhere.
    pub(crate) fn freeze_slot(&self, slot: &Arc<ObjectSlot>) -> Result<u64> {
        slot.frozen.store(true, Ordering::Release);
        self.checkpoint_slot(slot)
    }

    /// Fetches a frozen object's representation and installs a local
    /// replica, so subsequent invocations run locally (§4.3: "Such an
    /// object can be replicated and cached at several sites in order to
    /// save the overhead of remote invocations").
    ///
    /// Requires `Rights::READ`: a replica is a readable copy of the
    /// whole representation, so a capability that cannot read the
    /// object must not be able to pull its bytes across the network.
    pub fn cache_replica(&self, cap: Capability) -> Result<()> {
        if !cap.permits(Rights::READ) {
            self.inner.metrics.bump_rights_violation();
            return Err(EdenError::Invoke(Status::RightsViolation {
                required: Rights::READ,
                held: cap.rights(),
            }));
        }
        let name = cap.name();
        if let Some(slot) = self.inner.objects.read().get(&name) {
            return if slot.is_frozen() {
                Ok(()) // Already local (home or replica).
            } else {
                Err(EdenError::BadRequest(
                    "object is local and not frozen".into(),
                ))
            };
        }
        // Find the holder.
        let mut holder = self.inner.location.cache.lock().get(&name).copied();
        if holder.is_none() {
            let peers = self.inner.endpoint.peers();
            let birth = name.birth_node();
            if peers.contains(&birth) {
                holder = Some(birth);
            }
        }
        let answers;
        let candidates: Vec<NodeId> = match holder {
            Some(h) => vec![h],
            None => {
                answers = self.locate_broadcast(name);
                answers.iter().map(|a| a.holder).collect()
            }
        };
        for h in candidates {
            let timeout = self.inner.config.remote_try_timeout;
            let reply = self.request(h, timeout, |req_id| Message::ReplicaRequest {
                req_id,
                name,
                reply_to: self.inner.id,
            });
            if let Some(ReplyMsg::Replica(Some(image))) = reply {
                if !image.frozen {
                    return Err(EdenError::BadRequest("object is not frozen".into()));
                }
                if !self.inner.registry.has(&image.type_name) {
                    return Err(EdenError::UnknownType(image.type_name));
                }
                let repr = Representation::from_image(&image);
                let slot =
                    ObjectSlot::new_replica(name, image.type_name.clone(), repr, image.version, h);
                self.inner.objects.write().insert(name, slot);
                self.inner.metrics.bump_replica();
                return Ok(());
            }
        }
        Err(EdenError::Invoke(Status::NoSuchObject))
    }

    /// Activates a passive object *on this node*, pulling its latest
    /// checkpoint from whichever nodes hold one (§4.4: "the checksite
    /// node that is responsible for maintaining an object's long-term
    /// state need not be the node responsible for supporting its active
    /// execution"). Picks the highest version among the answering
    /// holders. Fails if the object is already active anywhere or no
    /// checkpoint can be found.
    ///
    /// Requires `Rights::MOVE`, matching [`Node::move_object`]:
    /// activation decides *where* the object runs, which §4.3 reserves
    /// to holders of the location-decision right.
    pub fn activate_here(&self, cap: Capability) -> Result<()> {
        if !cap.permits(Rights::MOVE) {
            self.inner.metrics.bump_rights_violation();
            return Err(EdenError::Invoke(Status::RightsViolation {
                required: Rights::MOVE,
                held: cap.rights(),
            }));
        }
        let name = cap.name();
        if self.inner.objects.read().contains_key(&name) {
            return Ok(()); // Already active here.
        }
        // Try the local store first.
        if self.activate_passive_local(name).is_some() {
            return Ok(());
        }
        let answers = self.locate_broadcast(name);
        if answers.iter().any(|a| a.state == HeldState::Active) {
            return Err(EdenError::BadRequest(
                "object is active elsewhere; use move_object instead".into(),
            ));
        }
        // Fetch from every passive holder; keep the newest image.
        let mut best: Option<ObjectImage> = None;
        for answer in answers.iter().filter(|a| a.state == HeldState::Passive) {
            if let Ok(Some(image)) = self.fetch_checkpoint(answer.holder, name, None) {
                if best
                    .as_ref()
                    .map(|b| image.version > b.version)
                    .unwrap_or(true)
                {
                    best = Some(image);
                }
            }
        }
        let Some(image) = best else {
            return Err(EdenError::Invoke(Status::NoSuchObject));
        };
        if !self.inner.registry.has(&image.type_name) {
            return Err(EdenError::UnknownType(image.type_name));
        }
        // Persist the fetched image locally so this node can answer
        // passive queries and re-reincarnate after its own crashes.
        self.inner.store.put(name, &image.encode_to_bytes())?;
        match self.activate_passive_local(name) {
            Some(_) => Ok(()),
            None => Err(EdenError::Invoke(Status::NoSuchObject)),
        }
    }

    /// A point-in-time description of one locally active object.
    pub fn object_info(&self, name: ObjName) -> Option<ObjectInfo> {
        let slot = self.inner.objects.read().get(&name).cloned()?;
        let (queued, running) = {
            let coord = slot.coord.lock();
            (coord.queue.len(), coord.running)
        };
        let data_size = slot.repr.read().data_size();
        Some(ObjectInfo {
            name,
            type_name: slot.type_name.clone(),
            status: slot.status(),
            frozen: slot.is_frozen(),
            replica: slot.is_replica(),
            checkpoint_version: slot.checkpoint_version(),
            checksite: slot.checksite().node,
            data_size,
            queued_invocations: queued,
            running_invocations: running,
        })
    }

    // ================= Liveness =================

    /// Pings `node`; `true` if it answered within `timeout`.
    pub fn ping(&self, node: NodeId, timeout: Duration) -> bool {
        let reply = self.request(node, timeout, |token| Message::Ping { token });
        matches!(reply, Some(ReplyMsg::Pong))
    }

    /// Stops the receive loop, tears down behaviors, drains the
    /// virtual-processor pool, and detaches from the network.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.inner.obs.recorder().record(KernelEvent::NodeShutdown);
        if let Some(h) = self.inner.watchdog_thread.lock().take() {
            let _ = h.join();
        }
        self.inner.endpoint.shutdown();
        if let Some(h) = self.inner.recv_thread.lock().take() {
            let _ = h.join();
        }
        // Teardown before the pool drain: it wakes behaviors (and their
        // port waits), so pool tasks blocked on object state can finish.
        for slot in self.inner.objects.read().values() {
            slot.short.teardown();
        }
        self.inner.vprocs.shutdown();
    }

    // ================= The stall watchdog =================

    /// The body of the `eden-watchdog-<id>` thread: every
    /// [`NodeConfig::watchdog_interval`] it probes the three places an
    /// invocation can silently wedge — the virtual-processor pool (a
    /// busy worker or an un-dequeued head-of-queue task past the stall
    /// deadline), the transport's per-peer writer queues (non-draining
    /// past the same deadline), and the in-flight remote invocations
    /// (older than the slow-invocation budget). Each finding becomes a
    /// typed flight-recorder event plus a bump of `watchdog.stalls`,
    /// and the batch is rendered into a diagnostic snapshot scrapeable
    /// via the node object's `get_watchdog` operation.
    fn watchdog_loop(&self) {
        let interval = self.inner.config.watchdog_interval;
        let deadline_ns = self.inner.config.watchdog_stall_deadline.as_nanos() as u64;
        let budget_ns = self.inner.config.slow_invocation_budget.as_nanos() as u64;
        // Per-finding report times, so a persistent stall re-reports
        // once per deadline period instead of once per probe tick.
        let mut last_report: HashMap<(u8, u64), u64> = HashMap::new();
        loop {
            // Sleep in small slices so shutdown joins promptly even
            // with a long probe interval.
            let mut slept = Duration::ZERO;
            while slept < interval {
                if self.inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let nap = (interval - slept).min(Duration::from_millis(10));
                std::thread::sleep(nap);
                slept += nap;
            }
            let now = now_ns();
            let mut due = |key: (u8, u64)| match last_report.get(&key) {
                Some(&t) if now.saturating_sub(t) < deadline_ns => false,
                _ => {
                    last_report.insert(key, now);
                    true
                }
            };
            let mut stalls: Vec<KernelEvent> = Vec::new();
            let probe = self.inner.vprocs.stall_probe();
            if let Some((wid, age)) = probe.busiest {
                if age >= deadline_ns && due((0, wid as u64)) {
                    stalls.push(KernelEvent::VprocStall {
                        worker: wid,
                        age_ms: age / 1_000_000,
                        queued: probe.queued as u64,
                    });
                }
            }
            if probe.oldest_wait_ns >= deadline_ns && due((1, 0)) {
                // `u16::MAX` is the reserved "no particular worker"
                // marker: the queue head itself is not being picked up.
                stalls.push(KernelEvent::VprocStall {
                    worker: u16::MAX,
                    age_ms: probe.oldest_wait_ns / 1_000_000,
                    queued: probe.queued as u64,
                });
            }
            for (dst, age, queued) in self.inner.endpoint.writer_probe() {
                if age >= deadline_ns && due((2, dst.0 as u64)) {
                    stalls.push(KernelEvent::WriterStall {
                        dst: dst.0,
                        age_ms: age / 1_000_000,
                        queued,
                    });
                }
            }
            {
                let inflight = self.inner.inflight.lock();
                for (&inv_id, &(start_ns, trace)) in inflight.iter() {
                    let age = now.saturating_sub(start_ns);
                    if age >= budget_ns && due((3, inv_id)) {
                        stalls.push(KernelEvent::SlowInvocation {
                            inv_id,
                            age_ms: age / 1_000_000,
                            trace,
                        });
                    }
                }
            }
            if stalls.is_empty() {
                continue;
            }
            self.inner
                .obs
                .counter("watchdog.stalls")
                .add(stalls.len() as u64);
            for e in &stalls {
                self.inner.obs.recorder().record(*e);
            }
            *self.inner.watchdog_snapshot.lock() = Some(self.watchdog_snapshot_text(&stalls));
        }
    }

    /// Renders one watchdog finding batch plus the node state needed to
    /// interpret it: thread names, pool and writer-queue depths, the
    /// oldest in-flight invocation, the oldest retained span, and the
    /// gossip membership view.
    fn watchdog_snapshot_text(&self, stalls: &[KernelEvent]) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let id = self.inner.id;
        let _ = writeln!(s, "watchdog snapshot node={id} at_ns={}", now_ns());
        for e in stalls {
            let _ = writeln!(s, "  stall: {e}");
        }
        let v = self.inner.vprocs.stats();
        let _ = writeln!(
            s,
            "  threads: eden-recv-{id} eden-watchdog-{id} eden-vproc-{id}-[0..{}]",
            v.live
        );
        let _ = writeln!(
            s,
            "  vprocs: queued={} live={} blocked={} executed={} rejected={}",
            v.queued, v.live, v.blocked, v.executed, v.rejected
        );
        for (dst, age, queued) in self.inner.endpoint.writer_probe() {
            let _ = writeln!(
                s,
                "  writer-queue dst={dst}: {queued} frames, idle {} ms",
                age / 1_000_000
            );
        }
        {
            let inflight = self.inner.inflight.lock();
            let oldest = inflight.iter().min_by_key(|(_, &(start, _))| start);
            let _ = write!(s, "  inflight: {}", inflight.len());
            if let Some((inv_id, &(start, trace))) = oldest {
                let _ = write!(
                    s,
                    ", oldest inv={inv_id} age={} ms trace={trace:#x}",
                    now_ns().saturating_sub(start) / 1_000_000
                );
            }
            let _ = writeln!(s);
        }
        if let Some(span) = self
            .inner
            .obs
            .traces()
            .spans()
            .into_iter()
            .min_by_key(|r| r.start_ns)
        {
            let _ = writeln!(
                s,
                "  oldest-span: {} trace={:#x} start_ns={}",
                span.name, span.trace_id, span.start_ns
            );
        }
        for (node, status, incarnation) in self.membership() {
            let _ = writeln!(
                s,
                "  member node={node} status={} incarnation={incarnation}",
                status.label()
            );
        }
        s
    }

    // ================= The receive loop =================

    fn recv_loop(&self) {
        // Gossip rides the receive loop (no thread of its own): the
        // state machine's timers are checked between frames, at most
        // every half protocol period and at least every recv timeout.
        let tick_every = (self.inner.config.gossip_interval / 2)
            .clamp(Duration::from_millis(5), Duration::from_millis(50));
        let mut next_gossip = Instant::now();
        loop {
            if self.inner.shutdown.load(Ordering::Acquire) {
                return;
            }
            if self.inner.directory.is_some() {
                let now = Instant::now();
                if now >= next_gossip {
                    let out = self
                        .inner
                        .directory
                        .as_ref()
                        .map(|dir| dir.lock().tick(now));
                    if let Some(out) = out {
                        self.apply_dir_output(out);
                    }
                    next_gossip = now + tick_every;
                }
            }
            match self
                .inner
                .endpoint
                .recv_batch(RECV_BATCH_MAX, Duration::from_millis(50))
            {
                Ok(batch) if batch.is_empty() => continue,
                Ok(batch) => self.handle_frame_batch(batch),
                Err(_) => return,
            }
        }
    }

    /// Handles one receive-loop batch. Frames are processed inline in
    /// arrival order (so replies, gossip and location traffic keep their
    /// ordering), but invocation dispatches that `pump` would have
    /// submitted one-by-one are collected in [`DISPATCH_BUF`] and handed
    /// to the pool as a single [`VirtualProcessorPool::submit_batch`] —
    /// one lock/notify for the whole batch instead of one per frame.
    fn handle_frame_batch(&self, frames: Vec<Frame>) {
        if frames.len() == 1 {
            for frame in frames {
                self.handle_frame(frame);
            }
            return;
        }
        DISPATCH_BUF.with(|buf| *buf.borrow_mut() = Some(Vec::new()));
        for frame in frames {
            self.handle_frame(frame);
        }
        let deferred = DISPATCH_BUF
            .with(|buf| buf.borrow_mut().take())
            .unwrap_or_default();
        self.flush_dispatch_batch(deferred);
    }

    /// Enqueues a batch of deferred invocation dispatches in one pool
    /// transaction. A per-task `Overloaded` verdict undoes that task's
    /// dispatch bookkeeping at its coordinator (exactly what `pump` does
    /// inline on the non-batched path) and sheds the invocation with the
    /// backpressure status.
    fn flush_dispatch_batch(&self, deferred: Vec<DeferredDispatch>) {
        if deferred.is_empty() {
            return;
        }
        let mut tasks = Vec::with_capacity(deferred.len());
        let mut undo_meta = Vec::with_capacity(deferred.len());
        for d in deferred {
            tasks.push((d.job, d.dispatch_ctx));
            undo_meta.push((d.slot, d.class, d.sink, d.reply_trace));
        }
        let results = self.inner.vprocs.submit_batch(tasks);
        for (result, (slot, class, sink, reply_trace)) in results.into_iter().zip(undo_meta) {
            if result.is_ok() {
                self.inner.metrics.bump_process();
                continue;
            }
            {
                let mut coord = slot.coord.lock();
                self.release_process(&mut coord, &class);
                if coord.running == 0 {
                    slot.quiesce_cv.notify_all();
                }
            }
            self.send_reply(sink, Status::Overloaded, Vec::new(), reply_trace);
        }
    }

    fn complete_pending(&self, id: u64, msg: ReplyMsg) {
        let waiter = self.inner.pending.lock().get(&id).cloned();
        if let Some(w) = waiter {
            w.complete(msg);
        }
    }

    fn handle_frame(&self, frame: Frame) {
        let src = frame.src;
        let trace = frame.trace;
        match frame.msg {
            Message::InvokeRequest {
                inv_id,
                target,
                operation,
                args,
                reply_to,
                hops,
                acked_below,
            } => self.handle_invoke_request(
                inv_id,
                target,
                operation,
                args,
                (reply_to, acked_below),
                hops,
                trace,
            ),
            Message::InvokeReply {
                inv_id,
                status,
                results,
            } => {
                // Close the trace on the requester's side: a point span
                // marking when the reply reached this kernel.
                if let Some(ctx) = trace {
                    let t = now_ns();
                    self.inner.obs.record_span("reply", ctx, t, t);
                }
                self.complete_pending(inv_id, ReplyMsg::Invoke(status, results, src))
            }
            Message::WhereIs {
                query_id,
                name,
                reply_to,
            } => {
                let state = if let Some(slot) = self.inner.objects.read().get(&name) {
                    Some(if slot.is_replica() {
                        HeldState::FrozenReplica
                    } else {
                        HeldState::Active
                    })
                } else if self.inner.location.forwards.read().contains_key(&name) {
                    // Moved away: the checkpoint here is the checksite
                    // copy of an object active elsewhere, not a passive
                    // object.
                    None
                } else if matches!(self.inner.store.latest(name), Ok(Some(_))) {
                    Some(HeldState::Passive)
                } else {
                    None
                };
                // With the directory on, a miss is still an *answer*
                // (`NotHeld`): the querier's collector can then complete
                // as soon as every live peer has spoken instead of
                // sleeping out the locate window.
                let state = match state {
                    Some(s) => Some(s),
                    None if self.inner.directory.is_some() => Some(HeldState::NotHeld),
                    None => None,
                };
                if let Some(state) = state {
                    let _ = self.inner.endpoint.send(Frame::to(
                        self.inner.id,
                        reply_to,
                        Message::HereIs {
                            query_id,
                            name,
                            state,
                        },
                    ));
                }
            }
            Message::HereIs {
                query_id,
                name,
                state,
            } => {
                if state == HeldState::Active {
                    self.cache_insert(name, src);
                }
                let collector = self.inner.location.queries.lock().get(&query_id).cloned();
                if let Some(c) = collector {
                    if state == HeldState::NotHeld {
                        c.add_negative();
                    } else {
                        c.add_answer(LocationAnswer { holder: src, state });
                    }
                }
            }
            Message::MoveTransfer {
                xfer_id,
                name,
                image,
                reply_to,
            } => {
                let node = self.clone();
                if self
                    .inner
                    .vprocs
                    .submit(move || node.install_moved(reply_to, xfer_id, name, image))
                    .is_err()
                {
                    // Refuse the transfer; the source resumes in place.
                    let _ = self.inner.endpoint.send(Frame::to(
                        self.inner.id,
                        reply_to,
                        Message::MoveAck {
                            xfer_id,
                            accepted: false,
                            reason: "node overloaded".to_string(),
                        },
                    ));
                }
            }
            Message::MoveAck {
                xfer_id,
                accepted,
                reason,
            } => self.complete_pending(xfer_id, ReplyMsg::MoveAck(accepted, reason)),
            Message::ReplicaRequest {
                req_id,
                name,
                reply_to,
            } => {
                let image = self.inner.objects.read().get(&name).and_then(|slot| {
                    if slot.is_frozen() {
                        let repr = slot.repr.read();
                        Some(repr.to_image(&slot.type_name, true, slot.checkpoint_version()))
                    } else {
                        None
                    }
                });
                let _ = self.inner.endpoint.send(Frame::to(
                    self.inner.id,
                    reply_to,
                    Message::ReplicaPush {
                        req_id,
                        name,
                        image,
                    },
                ));
            }
            Message::ReplicaPush { req_id, image, .. } => {
                self.complete_pending(req_id, ReplyMsg::Replica(image))
            }
            Message::CheckpointPut {
                req_id,
                name,
                image,
                reply_to,
            } => {
                let result = self.inner.store.put(name, &image.encode_to_bytes());
                let (ok, version) = match result {
                    Ok(v) => (true, v),
                    Err(_) => (false, 0),
                };
                let _ = self.inner.endpoint.send(Frame::to(
                    self.inner.id,
                    reply_to,
                    Message::CheckpointAck {
                        req_id,
                        ok,
                        version,
                    },
                ));
            }
            Message::CheckpointAck {
                req_id,
                ok,
                version,
            } => self.complete_pending(req_id, ReplyMsg::CkptAck(ok, version)),
            Message::CheckpointFetch {
                req_id,
                name,
                reply_to,
                version,
            } => {
                let image = self
                    .read_local_checkpoint(name, version)
                    .ok()
                    .flatten()
                    .and_then(|bytes| ObjectImage::decode_from_bytes(&bytes).ok());
                let _ = self.inner.endpoint.send(Frame::to(
                    self.inner.id,
                    reply_to,
                    Message::CheckpointData {
                        req_id,
                        name,
                        image,
                    },
                ));
            }
            Message::CheckpointData { req_id, image, .. } => {
                self.complete_pending(req_id, ReplyMsg::CkptData(image))
            }
            Message::CheckpointDelete {
                req_id,
                name,
                reply_to,
            } => {
                let ok = self.inner.store.delete(name).is_ok();
                self.inner.destroyed.lock().insert(name);
                let _ = self.inner.endpoint.send(Frame::to(
                    self.inner.id,
                    reply_to,
                    Message::CheckpointAck {
                        req_id,
                        ok,
                        version: 0,
                    },
                ));
            }
            Message::Ping { token } => {
                let _ = self.inner.endpoint.send(Frame::to(
                    self.inner.id,
                    src,
                    Message::Pong { token },
                ));
            }
            Message::Pong { token } => self.complete_pending(token, ReplyMsg::Pong),
            Message::GossipPing {
                seq,
                reply_to,
                updates,
            } => {
                if let Some(dir) = &self.inner.directory {
                    let out = dir
                        .lock()
                        .handle_ping(src, seq, reply_to, &updates, Instant::now());
                    self.apply_dir_output(out);
                }
            }
            Message::GossipAck { seq, updates } => {
                if let Some(dir) = &self.inner.directory {
                    let out = dir.lock().handle_ack(src, seq, &updates, Instant::now());
                    self.apply_dir_output(out);
                }
            }
            Message::GossipPingReq {
                seq,
                target,
                reply_to,
                updates,
            } => {
                if let Some(dir) = &self.inner.directory {
                    let out = dir.lock().handle_ping_req(
                        src,
                        seq,
                        target,
                        reply_to,
                        &updates,
                        Instant::now(),
                    );
                    self.apply_dir_output(out);
                }
            }
            Message::DirRegister { name, holder, kind } => {
                if let Some(dir) = &self.inner.directory {
                    // This node may no longer be the name's home (the
                    // registrant's ring was stale): forward one hop.
                    let forward = dir.lock().handle_register(src, name, holder, kind);
                    if let Some((dst, msg)) = forward {
                        let _ = self.inner.endpoint.send(Frame::to(self.inner.id, dst, msg));
                    }
                }
            }
            Message::DirQuery {
                query_id,
                name,
                reply_to,
            } => {
                let (holder, state) = match &self.inner.directory {
                    Some(dir) => {
                        self.inner.metrics.bump_dir_served();
                        dir.lock().answer_query(name)
                    }
                    // Directory disabled here: answer a definitive miss
                    // so the querier falls back instead of waiting.
                    None => (None, DirState::Miss),
                };
                let _ = self.inner.endpoint.send(Frame::to(
                    self.inner.id,
                    reply_to,
                    Message::DirAnswer {
                        query_id,
                        name,
                        holder,
                        state,
                    },
                ));
            }
            Message::DirAnswer {
                query_id,
                holder,
                state,
                ..
            } => self.complete_pending(query_id, ReplyMsg::DirAnswer(holder, state)),
        }
    }

    /// Services an invocation request from another kernel.
    #[allow(clippy::too_many_arguments)]
    fn handle_invoke_request(
        &self,
        inv_id: u64,
        target: Capability,
        operation: String,
        args: Vec<Value>,
        (reply_to, acked_below): (NodeId, u64),
        hops: u8,
        trace: Option<TraceCtx>,
    ) {
        self.inner.metrics.bump_remote_served();
        let name = target.name();
        let sink = ReplySink::Remote { inv_id, reply_to };

        // At-most-once: replay a cached reply for a retransmitted
        // request; drop retransmissions of requests still executing.
        // Check *and* admit under one lock acquisition — with pipelined
        // clients a duplicate can race the original through the receive
        // path, and only an atomic check-and-insert keeps exactly one of
        // them executing. Every admitted request reaches `send_reply`
        // (which records it done and clears the marker) except the
        // forwarding path, which removes the marker itself.
        {
            let mut served = self.inner.served.lock();
            served.acknowledge(reply_to, acked_below);
            let key = (reply_to, inv_id);
            if let Some((status, results)) = served.cached(key) {
                drop(served);
                let _ = self.inner.endpoint.send(Frame::to(
                    self.inner.id,
                    reply_to,
                    Message::InvokeReply {
                        inv_id,
                        status,
                        results,
                    },
                ));
                return;
            }
            if !served.in_progress.insert(key) {
                return;
            }
        }

        // Remote telemetry scrape of this kernel: no slot exists for
        // the sentinel name, so answer before the object-table lookup.
        // The scrape enters the same at-most-once bookkeeping as an
        // ordinary invocation — `send_reply` records it done — so a
        // retransmitted scrape replays the cached reply instead of
        // re-executing and double-counting scrape-side metrics.
        if name == node_object_name(self.inner.id) {
            let (status, results) = self.serve_node_object(target, &operation, &args);
            self.send_reply(sink, status, results, trace);
            return;
        }

        let slot = self.inner.objects.read().get(&name).cloned();
        let slot = match slot {
            Some(s) => Some(s),
            None => {
                if self.inner.destroyed.lock().contains(&name) {
                    self.send_reply(sink, Status::Destroyed, Vec::new(), trace);
                    return;
                }
                // A forwarding address wins over a local checkpoint: the
                // checkpoint at the old checksite must not resurrect an
                // object that is active elsewhere.
                if self.inner.location.forwards.read().contains_key(&name) {
                    None
                } else {
                    self.activate_passive_local(name)
                }
            }
        };
        if let Some(slot) = slot {
            match self.validate(&slot, target, &operation, &args, sink, trace) {
                Ok(pending) => self.enqueue(&slot, pending),
                Err(status) => self.send_reply(
                    ReplySink::Remote { inv_id, reply_to },
                    status,
                    Vec::new(),
                    trace,
                ),
            }
            return;
        }
        // Forwarding address from a past move?
        if let Some(&fwd) = self.inner.location.forwards.read().get(&name) {
            if hops > 0 {
                // Not served here after all: clear the admission marker so
                // a later retransmission can be forwarded again (the next
                // holder replies directly to `reply_to` and runs its own
                // at-most-once bookkeeping).
                self.inner
                    .served
                    .lock()
                    .in_progress
                    .remove(&(reply_to, inv_id));
                self.inner.metrics.bump_forward();
                self.inner.obs.recorder().record(KernelEvent::Forward {
                    obj: name.to_u128(),
                    dst: fwd.0,
                });
                let mut forwarded = Frame::to(
                    self.inner.id,
                    fwd,
                    Message::InvokeRequest {
                        inv_id,
                        target,
                        operation,
                        args,
                        reply_to,
                        hops: hops - 1,
                        acked_below,
                    },
                );
                if let Some(t) = trace {
                    forwarded = forwarded.with_trace(t);
                }
                let _ = self.inner.endpoint.send(forwarded);
                return;
            }
        }
        self.send_reply(sink, Status::NoSuchObject, Vec::new(), trace);
    }
}

impl core::fmt::Debug for Node {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.inner.id)
            .field("objects", &self.inner.objects.read().len())
            .finish()
    }
}
