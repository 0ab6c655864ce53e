//! The anatomy of an Eden object (Figure 4) and its coordinator state.
//!
//! §4.1 names four parts, all present in [`ObjectSlot`]:
//!
//! * the **name** — a [`ObjName`];
//! * the **representation** — a [`Representation`] behind a lock;
//! * the **type** — the name binding the slot to a registered
//!   [`TypeManager`](crate::TypeManager) (the paper's capability for the
//!   type manager object);
//! * the **short-term state** — `ShortTerm`: synchronization objects,
//!   scratch data and behavior handles, "never written to long-term
//!   storage".
//!
//! §4.2's *coordinator* is here too: `CoordState` is the per-object
//! state machine that receives invocations, enforces invocation-class
//! limits, and dispatches invocation processes. The paper describes the
//! coordinator as a distinguished process at the root of the object's
//! process tree; this implementation makes it a lock-protected state
//! machine driven by whichever kernel thread touches the object — the
//! same serialization of dispatch decisions without a parked thread per
//! object.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use eden_capability::{Capability, NodeId, ObjName};
use eden_obs::TraceCtx;
use eden_wire::{Status, Value};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::behavior::BehaviorHandle;
use crate::repr::Representation;
use crate::sync::{EdenSemaphore, MessagePort};
use crate::types::ResolvedOp;
use crate::waiter::Waiter;

/// Reserved representation segment where the kernel persists the
/// checksite so it survives checkpoints and moves.
pub(crate) const CHECKSITE_SEGMENT: &str = "__kernel.checksite";

/// The externally visible lifecycle state of an active object slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjStatus {
    /// Receiving and dispatching invocations.
    Active,
    /// Being rebuilt from a checkpoint; invocations queue.
    Reincarnating,
    /// Quiescing for (or executing) a move; invocations queue.
    Moving,
    /// Crash requested; no further dispatch, teardown pending.
    Crashed,
}

/// The reliability level requested through the checksite primitive
/// (§4.4: "what level of reliability is required").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReliabilityLevel {
    /// Checkpoints go to the checksite node only.
    Local,
    /// Checkpoints additionally replicate to this many other nodes.
    Replicated(usize),
}

/// Where and how reliably this object's long-term state is kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksite {
    /// The node responsible for the long-term state.
    pub node: NodeId,
    /// Reliability level for checkpoint writes.
    pub level: ReliabilityLevel,
}

/// What a local invoker's waiter receives.
pub(crate) enum LocalReply {
    /// The invocation ran: its status and results.
    Done(Status, Vec<Value>),
    /// The object moved away before the invocation ran; the invoker
    /// sends it on to the node named here.
    Moved(NodeId),
}

/// Where a completed invocation's status and results go.
#[derive(Clone)]
pub(crate) enum ReplySink {
    /// An invoker on this node waits on the waiter.
    Local(Arc<Waiter<LocalReply>>),
    /// A remote kernel awaits an `InvokeReply` frame.
    Remote {
        /// The requester's invocation id.
        inv_id: u64,
        /// The requester's node.
        reply_to: NodeId,
    },
}

/// An invocation accepted by the coordinator but not yet completed.
pub(crate) struct PendingInvocation {
    /// The capability the invoker presented (rights already verified).
    pub presented: Capability,
    /// Operation name.
    pub operation: String,
    /// Parameters.
    pub args: Vec<Value>,
    /// The resolved operation (defining manager, spec, class limit).
    pub resolved: ResolvedOp,
    /// Reply destination.
    pub sink: ReplySink,
    /// The node the invocation came from.
    pub caller: NodeId,
    /// Tracing context the invocation arrived with (parent of the
    /// dispatch/execute spans), if any.
    pub trace: Option<TraceCtx>,
    /// When the coordinator accepted the invocation — start of the
    /// retroactive queue-wait (`dispatch`) span.
    pub enqueue_ns: u64,
}

/// The coordinator's mutable state.
pub(crate) struct CoordState {
    /// Lifecycle state.
    pub status: ObjStatus,
    /// Invocation processes currently executing.
    pub running: usize,
    /// Per-class in-service counts (§4.2 flow control).
    pub class_in_service: HashMap<String, usize>,
    /// Accepted invocations awaiting dispatch.
    pub queue: VecDeque<PendingInvocation>,
    /// Destination of a requested move, if any.
    pub pending_move: Option<NodeId>,
    /// The crash primitive was called; tear down once quiescent.
    pub crash_requested: bool,
    /// Destruction was requested; tear down and delete checkpoints.
    pub destroy_requested: bool,
}

impl CoordState {
    fn new(status: ObjStatus) -> Self {
        CoordState {
            status,
            running: 0,
            class_in_service: HashMap::new(),
            queue: VecDeque::new(),
            pending_move: None,
            crash_requested: false,
            destroy_requested: false,
        }
    }
}

/// Short-term state: "any temporal data, synchronization information, and
/// processor state necessary to maintain one or more executing
/// invocations" (§4.1).
#[derive(Default)]
pub(crate) struct ShortTerm {
    /// Named semaphores, created on demand.
    pub semaphores: Mutex<HashMap<String, Arc<EdenSemaphore>>>,
    /// Named message ports, created on demand.
    pub ports: Mutex<HashMap<String, Arc<MessagePort>>>,
    /// Detached behavior processes (§4.2).
    pub behaviors: Mutex<Vec<BehaviorHandle>>,
    /// Uninterpreted temporal key/value data shared by this object's
    /// processes.
    pub scratch: Mutex<HashMap<String, Value>>,
}

impl ShortTerm {
    /// Signals every behavior to stop and closes every port, releasing
    /// blocked processes. Called on crash, move-out and shutdown.
    pub fn teardown(&self) {
        for b in self.behaviors.lock().drain(..) {
            b.request_stop();
        }
        for port in self.ports.lock().values() {
            port.close();
        }
    }
}

/// One active object on a node.
pub struct ObjectSlot {
    /// The unique name.
    pub name: ObjName,
    /// The type binding.
    pub type_name: String,
    /// Long-term state.
    pub(crate) repr: RwLock<Representation>,
    /// Immutability flag (§4.3 frozen objects).
    pub(crate) frozen: AtomicBool,
    /// This slot is a cached replica of a frozen object held elsewhere.
    pub(crate) is_replica: bool,
    /// Last durably checkpointed version.
    pub(crate) version: AtomicU64,
    /// Short-term state.
    pub(crate) short: ShortTerm,
    /// Coordinator state.
    pub(crate) coord: Mutex<CoordState>,
    /// Signalled when `running` reaches zero (quiesce waits).
    pub(crate) quiesce_cv: Condvar,
    /// Long-term storage site and level.
    pub(crate) checksite: Mutex<Checksite>,
}

impl ObjectSlot {
    /// Creates a slot in the given lifecycle state.
    pub(crate) fn new(
        name: ObjName,
        type_name: String,
        repr: Representation,
        status: ObjStatus,
        checksite: Checksite,
    ) -> Arc<Self> {
        Arc::new(ObjectSlot {
            name,
            type_name,
            repr: RwLock::new(repr),
            frozen: AtomicBool::new(false),
            is_replica: false,
            version: AtomicU64::new(0),
            short: ShortTerm::default(),
            coord: Mutex::new(CoordState::new(status)),
            quiesce_cv: Condvar::new(),
            checksite: Mutex::new(checksite),
        })
    }

    /// Creates a frozen-replica slot (cached copy of a frozen object).
    pub(crate) fn new_replica(
        name: ObjName,
        type_name: String,
        repr: Representation,
        version: u64,
        home: NodeId,
    ) -> Arc<Self> {
        let slot = ObjectSlot {
            name,
            type_name,
            repr: RwLock::new(repr),
            frozen: AtomicBool::new(true),
            is_replica: true,
            version: AtomicU64::new(version),
            short: ShortTerm::default(),
            coord: Mutex::new(CoordState::new(ObjStatus::Active)),
            quiesce_cv: Condvar::new(),
            checksite: Mutex::new(Checksite {
                node: home,
                level: ReliabilityLevel::Local,
            }),
        };
        Arc::new(slot)
    }

    /// Whether the representation is frozen (immutable).
    pub fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::Acquire)
    }

    /// Whether this slot is a cached replica.
    pub fn is_replica(&self) -> bool {
        self.is_replica
    }

    /// The last checkpointed version.
    pub fn checkpoint_version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Current lifecycle status.
    pub fn status(&self) -> ObjStatus {
        self.coord.lock().status
    }

    /// Reads the checksite.
    pub fn checksite(&self) -> Checksite {
        *self.checksite.lock()
    }

    /// The named semaphore, created with `initial` permits on first use.
    pub fn semaphore(&self, name: &str, initial: u64) -> Arc<EdenSemaphore> {
        self.short
            .semaphores
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(EdenSemaphore::new(initial)))
            .clone()
    }

    /// The named message port, created unbounded on first use.
    pub fn port(&self, name: &str) -> Arc<MessagePort> {
        self.short
            .ports
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(MessagePort::unbounded()))
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_capability::{NameGenerator, NodeId};

    fn slot() -> Arc<ObjectSlot> {
        let g = NameGenerator::with_epoch(NodeId(1), 1);
        ObjectSlot::new(
            g.next_name(),
            "t".into(),
            Representation::new(),
            ObjStatus::Active,
            Checksite {
                node: NodeId(1),
                level: ReliabilityLevel::Local,
            },
        )
    }

    #[test]
    fn fresh_slot_is_active_and_unfrozen() {
        let s = slot();
        assert_eq!(s.status(), ObjStatus::Active);
        assert!(!s.is_frozen());
        assert!(!s.is_replica());
        assert_eq!(s.checkpoint_version(), 0);
    }

    #[test]
    fn named_semaphores_are_memoized() {
        let s = slot();
        let a = s.semaphore("mutex", 1);
        let b = s.semaphore("mutex", 99);
        assert!(
            Arc::ptr_eq(&a, &b),
            "same name must give the same semaphore"
        );
        assert_eq!(b.permits(), 1, "initial count comes from first creation");
        let c = s.semaphore("other", 2);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn named_ports_are_memoized() {
        let s = slot();
        let a = s.port("in");
        let b = s.port("in");
        assert!(Arc::ptr_eq(&a, &b));
        a.send(Value::I64(1));
        assert_eq!(b.try_recv(), Some(Value::I64(1)));
    }

    #[test]
    fn teardown_closes_ports() {
        let s = slot();
        let p = s.port("work");
        s.short.teardown();
        assert!(!p.send(Value::Unit));
    }

    #[test]
    fn replica_slots_are_frozen() {
        let g = NameGenerator::with_epoch(NodeId(2), 2);
        let r = ObjectSlot::new_replica(
            g.next_name(),
            "dict".into(),
            Representation::new(),
            3,
            NodeId(0),
        );
        assert!(r.is_frozen());
        assert!(r.is_replica());
        assert_eq!(r.checkpoint_version(), 3);
    }
}
