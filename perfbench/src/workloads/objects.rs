//! `objects`: each generator thread keeps one synchronous
//! `Node::invoke` outstanding over a seeded mix —
//!
//! * 50% `read` of 1 KiB frozen blobs; 80% of reads hit the hot
//!   [`HOT`], whose replicas the client kernel caches;
//! * 40% `touch` of [`MUTABLE`] 256 B mutable objects, more than the
//!   client's location hint cache holds;
//! * 10% `migrate` of a mutable object to the server not holding it.
//!
//! This exercises the location service (hint evictions, birth hints,
//! forwarding after moves), mobility, directory registrations and the
//! local replica fast path, all of which `rpc` bypasses.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bytes::Bytes;
use eden_bench::types::PayloadType;
use eden_capability::Capability;
use eden_efs::BlobType;
use eden_kernel::{Node, PipelinedClient};
use eden_wire::{Status, Value};

use super::{per_server, Guard, Scenario, Stop, THREADS};
use crate::cluster::{EdenCluster, CLIENT, SERVERS};
use crate::layers::ClusterDelta;
use crate::record::{Outcome, ThreadLog, Totals};
use crate::rng::Rng;

/// Frozen blobs.
pub const BLOBS: usize = 4096;
/// Blobs whose replicas the client caches (`0..HOT`).
pub const HOT: usize = 1024;
/// Bytes per blob.
pub const BLOB_BYTES: usize = 1024;
/// Mutable objects; thread `t` owns, touches and migrates those with
/// index ≡ t (mod threads), so it alone tracks where they live.
pub const MUTABLE: usize = 16384;
/// Bytes each mutable object's payload is filled to.
pub const PAYLOAD_BYTES: u64 = 256;
/// Op mix, percent: reads, then touches; the rest migrate.
const READ_PCT: usize = 50;
const TOUCH_PCT: usize = 40;
/// Percent of reads aimed at the hot blobs.
const HOT_READ_PCT: usize = 80;
/// Pipelined touches in flight per thread while warming the hint cache.
const WARM_WINDOW: usize = 32;
/// Reply budget of a warm-up touch.
const WARM_BUDGET: Duration = Duration::from_secs(30);
/// A thread does not migrate any of its last this-many migrated objects
/// again: a move completes after the `migrate` op returns, and a second
/// move requested while one is pending is refused.
const RECENT_MIGRATIONS: usize = 64;
/// How long the final check waits for requested moves to complete.
const SETTLE: Duration = Duration::from_secs(10);

/// The populated `objects` workload.
pub struct Objects {
    nodes: Vec<Node>,
    blobs: Vec<Capability>,
    blob_data: Vec<Bytes>,
    mutable: Vec<Capability>,
    /// The server each mutable object was last asked to move to (its
    /// creation server before that). Only the owning thread touches an
    /// entry, and phases are separated by thread joins, so relaxed
    /// ordering suffices.
    homes: Vec<AtomicU16>,
    /// Successful `migrate` ops since the cluster booted; each must end
    /// as one move out of a server.
    migrated: AtomicU64,
    /// Per thread, the objects it migrated most recently.
    recent: Vec<Mutex<VecDeque<usize>>>,
    seed: u64,
}

impl Objects {
    /// Creates the blobs and mutable objects on the servers, caches the
    /// hot replicas on the client, and fills the client's hint cache by
    /// touching every mutable object once.
    pub fn populate(cluster: &EdenCluster, seed: u64) -> Result<Objects, String> {
        let mut rng = Rng::stream(seed, 0);
        let blob_data: Vec<Bytes> = (0..BLOBS).map(|_| rng.bytes(BLOB_BYTES)).collect();
        let mut created = per_server(|s, server| {
            let node = &cluster.nodes[server];
            let mut blobs = Vec::new();
            for (i, data) in blob_data.iter().enumerate() {
                if blob_home(i) == s {
                    blobs.push(
                        node.create_object(BlobType::NAME, &[Value::Blob(data.clone())])
                            .map_err(|e| format!("create blob: {e}"))?,
                    );
                }
            }
            let mut mutable = Vec::new();
            for _ in (0..MUTABLE).filter(|&i| mutable_home(i) == s) {
                let cap = node
                    .create_object(PayloadType::NAME, &[])
                    .map_err(|e| format!("create mutable object: {e}"))?;
                node.invoke(cap, "fill", &[Value::U64(PAYLOAD_BYTES)])
                    .map_err(|e| format!("fill mutable object: {e}"))?;
                mutable.push(cap);
            }
            Ok((blobs.into_iter(), mutable.into_iter()))
        })?;
        let blobs: Vec<Capability> = (0..BLOBS)
            .map(|i| created[blob_home(i)].0.next().expect("one blob per index"))
            .collect();
        let mutable: Vec<Capability> = (0..MUTABLE)
            .map(|i| {
                created[mutable_home(i)]
                    .1
                    .next()
                    .expect("one object per index")
            })
            .collect();
        let homes = (0..MUTABLE)
            .map(|i| AtomicU16::new(SERVERS[mutable_home(i)] as u16))
            .collect();
        let client = cluster.nodes[CLIENT].clone();
        per_server(|s, _| {
            for &blob in blobs[..HOT].iter().skip(s).step_by(SERVERS.len()) {
                client
                    .cache_replica(blob)
                    .map_err(|e| format!("cache replica: {e}"))?;
            }
            Ok(())
        })?;
        per_server(|s, _| warm_hints(&client, &mutable[s..], SERVERS.len()))?;
        Ok(Objects {
            nodes: cluster.nodes.clone(),
            blobs,
            blob_data,
            mutable,
            homes,
            migrated: AtomicU64::new(0),
            recent: (0..THREADS).map(|_| Mutex::new(VecDeque::new())).collect(),
            seed,
        })
    }

    fn client(&self) -> &Node {
        &self.nodes[CLIENT]
    }
}

/// Index into [`SERVERS`] of the server blob `i` is created on.
fn blob_home(i: usize) -> usize {
    i % SERVERS.len()
}

/// Index into [`SERVERS`] of the server mutable object `i` is created
/// on. Owners alternate fastest (`i % THREADS`), so each thread's
/// objects start out split across both servers.
fn mutable_home(i: usize) -> usize {
    (i / THREADS) % SERVERS.len()
}

/// Touches every `step`-th object of `objects` through pipelined calls,
/// so the client's hint cache starts the run full (and evicting).
fn warm_hints(client: &Node, objects: &[Capability], step: usize) -> Result<(), String> {
    let clients: Vec<PipelinedClient> = objects
        .iter()
        .step_by(step)
        .map(|&cap| client.pipelined_client(cap))
        .collect();
    let mut window = VecDeque::with_capacity(WARM_WINDOW);
    let check = |(status, out): (Status, Vec<Value>)| {
        if status == Status::Ok && out == [Value::U64(PAYLOAD_BYTES)] {
            Ok(())
        } else {
            Err(format!("warm-up touch returned {status:?} {out:?}"))
        }
    };
    for c in &clients {
        if window.len() == WARM_WINDOW {
            let pending: eden_kernel::PendingCall<'_> = window.pop_front().expect("window is full");
            check(pending.wait(WARM_BUDGET))?;
        }
        window.push_back(
            c.call("touch", &[])
                .map_err(|s| format!("warm-up touch: {s:?}"))?,
        );
    }
    while let Some(pending) = window.pop_front() {
        check(pending.wait(WARM_BUDGET))?;
    }
    Ok(())
}

/// Classifies a synchronous invocation's result against `expected`.
fn check(
    result: eden_kernel::Result<Vec<Value>>,
    expected: impl FnOnce(&[Value]) -> bool,
) -> Outcome {
    match result {
        Ok(out) if expected(&out) => Outcome::Ok,
        Ok(out) => Outcome::Wrong(format!("{} unexpected values", out.len())),
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

impl Scenario for Objects {
    fn drive(&self, thread: usize, stop: Stop, log: &mut ThreadLog) {
        let mut rng = Rng::stream(self.seed, 1 + thread as u64);
        let owned = MUTABLE / THREADS;
        let mut issued = 0u64;
        while !stop.reached(issued) {
            issued += 1;
            let roll = rng.below(100);
            if roll < READ_PCT {
                let i = if rng.percent(HOT_READ_PCT) {
                    rng.below(HOT)
                } else {
                    HOT + rng.below(BLOBS - HOT)
                };
                let op = log.begin_op("read");
                let r = log.call(&op, "Node::invoke read", || {
                    self.client().invoke(self.blobs[i], "read", &[])
                });
                let want = &self.blob_data[i];
                let outcome = check(r, |out| matches!(out, [Value::Blob(b)] if b == want));
                log.end_op(op, "read", outcome);
                continue;
            }
            let mut i = rng.below(owned) * THREADS + thread;
            if roll < READ_PCT + TOUCH_PCT {
                let cap = self.mutable[i];
                let op = log.begin_op("touch");
                let r = log.call(&op, "Node::invoke touch", || {
                    self.client().invoke(cap, "touch", &[])
                });
                let outcome = check(r, |out| out == [Value::U64(PAYLOAD_BYTES)]);
                log.end_op(op, "touch", outcome);
            } else {
                let mut recent = self.recent[thread]
                    .lock()
                    .expect("recent migrations poisoned");
                while recent.contains(&i) {
                    i = (i + THREADS) % MUTABLE;
                }
                if recent.len() == RECENT_MIGRATIONS {
                    recent.pop_front();
                }
                recent.push_back(i);
                drop(recent);
                let cap = self.mutable[i];
                let from = self.homes[i].load(Ordering::Relaxed);
                let to = SERVERS
                    .iter()
                    .map(|&s| s as u16)
                    .find(|&s| s != from)
                    .expect("two servers");
                let op = log.begin_op("migrate");
                let r = log.call(&op, "Node::invoke migrate", || {
                    self.client()
                        .invoke(cap, "migrate", &[Value::U64(to as u64)])
                });
                let outcome = check(r, <[Value]>::is_empty);
                if matches!(outcome, Outcome::Ok) {
                    self.homes[i].store(to, Ordering::Relaxed);
                    self.migrated.fetch_add(1, Ordering::Relaxed);
                }
                log.end_op(op, "migrate", outcome);
            }
        }
    }

    fn verify(&self) -> Vec<String> {
        let mut problems = Vec::new();
        // Moves finish after their `migrate` op returns; give the last
        // ones time to land. Then every mutable object must be active on
        // the server it was last moved to and nowhere else, and every
        // successful `migrate` must have moved its object exactly once:
        // a move accepted and then dropped leaves `homes` wrong, and a
        // later move of the same object would hide that.
        let migrated = self.migrated.load(Ordering::Relaxed);
        let deadline = Instant::now() + SETTLE;
        let (misplaced, moves) = loop {
            let misplaced = self
                .mutable
                .iter()
                .zip(&self.homes)
                .filter(|(cap, home)| {
                    let home = home.load(Ordering::Relaxed) as usize;
                    SERVERS
                        .iter()
                        .any(|&s| self.nodes[s].is_local(cap.name()) != (s == home))
                })
                .count();
            let moves: u64 = SERVERS
                .iter()
                .map(|&s| self.nodes[s].metrics().moves_out)
                .sum();
            if (misplaced == 0 && moves == migrated) || Instant::now() >= deadline {
                break (misplaced, moves);
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        if misplaced > 0 {
            problems.push(format!(
                "{misplaced} of {MUTABLE} mutable objects are not active on exactly the server last moved to"
            ));
        }
        if moves != migrated {
            problems.push(format!(
                "{moves} moves out of the servers for {migrated} successful migrate ops"
            ));
        }
        let uncached = self.blobs[..HOT]
            .iter()
            .filter(|b| !self.client().is_local(b.name()))
            .count();
        if uncached > 0 {
            problems.push(format!(
                "{uncached} of {HOT} hot replicas are missing on the client"
            ));
        }
        problems
    }

    fn guards(&self, delta: &ClusterDelta, totals: &Totals) -> Vec<Guard> {
        let client = &delta.0[CLIENT].kernel;
        vec![
            Guard::positive(
                "moves_out",
                delta.sum(|n| n.kernel.moves_out),
                "migrate ops",
                totals.count("migrate"),
            ),
            Guard::positive(
                "client local replica reads",
                client.local_invocations,
                "read ops",
                totals.count("read"),
            ),
            Guard::positive(
                "client hint evictions",
                client.location_cache_evictions,
                "ops",
                totals.counts.attempted,
            ),
        ]
    }
}
