//! At-most-once execution over a lossy network: the `ServedRequests`
//! dedup path in `handle_invoke_request`.
//!
//! §4.2 promises status-and-return-parameter semantics per invocation;
//! over a best-effort Ethernet that requires the serving kernel to
//! (a) drop retransmissions of a request still executing, (b) replay a
//! cached reply when the original reply frame was lost, and (c) apply
//! the same bookkeeping to scrapes of the per-node telemetry sentinel,
//! which used to bypass it and double-count on retransmission.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_capability::{Capability, NodeId, Rights};
use eden_kernel::node::{node_object_cap, node_object_name};
use eden_kernel::{
    Cluster, Node, NodeConfig, OpCtx, OpError, OpResult, TypeManager, TypeRegistry, TypeSpec,
};
use eden_store::MemStore;
use eden_transport::{Endpoint, LoopbackMesh, MeshOptions};
use eden_wire::{Frame, Message, Status, Value};

/// Counts *executions* (not replies): the probe for duplicate dispatch.
struct ExecCounted {
    executions: Arc<AtomicU64>,
    hold: Duration,
}

impl TypeManager for ExecCounted {
    fn spec(&self) -> TypeSpec {
        TypeSpec::new("amo.counted")
            .class("all", 4)
            .op("bump", "all", Rights::EXECUTE)
    }

    fn dispatch(&self, _ctx: &OpCtx<'_>, op: &str, _args: &[Value]) -> OpResult {
        match op {
            "bump" => {
                let n = self.executions.fetch_add(1, Ordering::SeqCst) + 1;
                std::thread::sleep(self.hold);
                Ok(vec![Value::U64(n)])
            }
            other => Err(OpError::no_such_op(other)),
        }
    }
}

/// A kernel on endpoint 0 and a *raw* client on endpoint 1, so tests
/// can hand-craft duplicate `InvokeRequest` frames with a fixed
/// invocation id — exactly what a retransmitting peer produces.
fn kernel_and_raw_client(
    executions: Arc<AtomicU64>,
    hold: Duration,
) -> (Node, Arc<dyn Endpoint>, Arc<LoopbackMesh>) {
    let mesh = Arc::new(LoopbackMesh::with_options(2, MeshOptions::default()));
    let registry = Arc::new(TypeRegistry::new());
    registry
        .register(Arc::new(ExecCounted { executions, hold }))
        .expect("register type");
    let node = Node::new(
        NodeConfig::default(),
        mesh.endpoint(0),
        Arc::new(MemStore::new()),
        registry,
    );
    let client: Arc<dyn Endpoint> = mesh.endpoint(1);
    (node, client, mesh)
}

/// A request from a raw client with nothing else outstanding: its own
/// id is the lowest pending one.
fn invoke_request(inv_id: u64, target: Capability, op: &str) -> Frame {
    invoke_request_acked(inv_id, inv_id, target, op)
}

fn invoke_request_acked(inv_id: u64, acked_below: u64, target: Capability, op: &str) -> Frame {
    Frame::to(
        NodeId(1),
        NodeId(0),
        Message::InvokeRequest {
            inv_id,
            target,
            operation: op.to_string(),
            args: Vec::new(),
            reply_to: NodeId(1),
            hops: 8,
            acked_below,
        },
    )
}

/// Waits for exactly `n` replies (or panics after a generous deadline).
fn expect_replies(client: &Arc<dyn Endpoint>, n: usize) -> Vec<(u64, Status, Vec<Value>)> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut replies = Vec::with_capacity(n);
    while replies.len() < n {
        let left = deadline
            .checked_duration_since(Instant::now())
            .unwrap_or_else(|| panic!("only {} of {n} replies arrived", replies.len()));
        if let Some(frame) = client.recv_timeout(left).expect("recv") {
            if let Message::InvokeReply {
                inv_id,
                status,
                results,
            } = frame.msg
            {
                replies.push((inv_id, status, results));
            }
        }
    }
    replies
}

/// Drains replies arriving at the raw client within `window`.
fn collect_replies(client: &Arc<dyn Endpoint>, window: Duration) -> Vec<(u64, Status, Vec<Value>)> {
    let deadline = Instant::now() + window;
    let mut replies = Vec::new();
    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
        match client.recv_timeout(left) {
            Ok(Some(frame)) => {
                if let Message::InvokeReply {
                    inv_id,
                    status,
                    results,
                } = frame.msg
                {
                    replies.push((inv_id, status, results));
                }
            }
            Ok(None) => continue,
            Err(_) => break,
        }
    }
    replies
}

#[test]
fn duplicate_request_during_execution_runs_once() {
    let executions = Arc::new(AtomicU64::new(0));
    let (node, client, mesh) =
        kernel_and_raw_client(executions.clone(), Duration::from_millis(150));
    let cap = node.create_object("amo.counted", &[]).expect("create");

    // The duplicate lands while the original still executes (the op
    // holds for 150 ms): it must be dropped, not dispatched again.
    client.send(invoke_request(42, cap, "bump")).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    client.send(invoke_request(42, cap, "bump")).unwrap();

    let replies = collect_replies(&client, Duration::from_millis(600));
    assert_eq!(replies.len(), 1, "one reply for one logical request");
    assert_eq!(replies[0].1, Status::Ok);
    assert_eq!(
        executions.load(Ordering::SeqCst),
        1,
        "executed exactly once"
    );

    // A retransmission arriving *after* completion replays the cached
    // reply — byte-for-byte the same results — without re-executing.
    client.send(invoke_request(42, cap, "bump")).unwrap();
    let replayed = collect_replies(&client, Duration::from_millis(400));
    assert_eq!(replayed.len(), 1, "lost replies are replayed from cache");
    assert_eq!(replayed[0].2, replies[0].2);
    assert_eq!(
        executions.load(Ordering::SeqCst),
        1,
        "replay must not re-execute"
    );

    node.shutdown();
    mesh.shutdown();
}

#[test]
fn duplicates_arriving_in_one_receive_batch_run_once() {
    let executions = Arc::new(AtomicU64::new(0));
    let (node, client, mesh) =
        kernel_and_raw_client(executions.clone(), Duration::from_millis(100));
    let cap = node.create_object("amo.counted", &[]).expect("create");

    // Three copies back-to-back with no gap: the receive loop drains
    // them as one batch, so the dedup must hold within a single
    // `handle_frame_batch` pass (atomic check-and-insert), not just
    // across well-spaced frames.
    for _ in 0..3 {
        client.send(invoke_request(77, cap, "bump")).unwrap();
    }

    let replies = collect_replies(&client, Duration::from_millis(600));
    assert_eq!(replies.len(), 1, "one reply for one logical request");
    assert_eq!(replies[0].1, Status::Ok);
    assert_eq!(executions.load(Ordering::SeqCst), 1);

    node.shutdown();
    mesh.shutdown();
}

#[test]
fn lossy_mesh_with_retransmission_executes_each_invocation_once() {
    let executions = Arc::new(AtomicU64::new(0));
    let exec_for_factory = executions.clone();
    // A quarter of all frames vanish; the client-side retransmitter
    // (20 ms interval, well under the 60 ms service time) re-sends
    // aggressively, so the server sees plenty of duplicates.
    let cluster = Cluster::builder()
        .nodes(2)
        .mesh(MeshOptions {
            loss_probability: 0.25,
            seed: 7,
            ..Default::default()
        })
        .node_config(NodeConfig {
            retransmit_interval: Duration::from_millis(20),
            default_invoke_timeout: Duration::from_secs(30),
            remote_try_timeout: Duration::from_secs(10),
            ..Default::default()
        })
        .register(move || {
            Box::new(ExecCounted {
                executions: exec_for_factory.clone(),
                hold: Duration::from_millis(60),
            })
        })
        .build();
    let cap = cluster
        .node(0)
        .create_object("amo.counted", &[])
        .expect("create");

    const CALLS: u64 = 20;
    for i in 0..CALLS {
        let out = cluster
            .node(1)
            .invoke(cap, "bump", &[])
            .unwrap_or_else(|e| panic!("call {i} failed: {e}"));
        // The returned execution ordinal matches the call index: no
        // retransmitted duplicate ever slipped past the dedup.
        assert_eq!(out[0], Value::U64(i + 1));
    }
    assert_eq!(executions.load(Ordering::SeqCst), CALLS);
    cluster.shutdown();
}

#[test]
fn telemetry_sentinel_scrapes_are_deduplicated_and_replayed() {
    let executions = Arc::new(AtomicU64::new(0));
    let (node, client, mesh) = kernel_and_raw_client(executions, Duration::ZERO);
    let scrape = node_object_cap(NodeId(0));
    assert_eq!(scrape.name(), node_object_name(NodeId(0)));

    client
        .send(invoke_request(9, scrape, "get_metrics"))
        .unwrap();
    let first = collect_replies(&client, Duration::from_millis(400));
    assert_eq!(first.len(), 1);
    assert_eq!(first[0].1, Status::Ok);

    // Perturb the kernel's metrics so a *re-executed* scrape would
    // observe different counters than the cached reply carries.
    let cap = node.create_object("amo.counted", &[]).expect("create");
    node.invoke(cap, "bump", &[]).expect("local bump");

    // The retransmitted scrape (same inv_id) must come from the reply
    // cache: identical payload, despite the metric churn in between.
    client
        .send(invoke_request(9, scrape, "get_metrics"))
        .unwrap();
    let replayed = collect_replies(&client, Duration::from_millis(400));
    assert_eq!(replayed.len(), 1);
    assert_eq!(replayed[0].1, Status::Ok);
    assert_eq!(
        replayed[0].2, first[0].2,
        "sentinel scrape replayed from the reply cache, not re-executed"
    );

    node.shutdown();
    mesh.shutdown();
}

#[test]
fn lost_reply_is_replayed_after_thousands_of_other_requests() {
    let executions = Arc::new(AtomicU64::new(0));
    let (node, client, mesh) = kernel_and_raw_client(executions.clone(), Duration::ZERO);
    let cap = node.create_object("amo.counted", &[]).expect("create");

    // Request 1 executes, but its reply is "lost": the client keeps it
    // pending, so every later request carries acked_below = 1.
    client.send(invoke_request(1, cap, "bump")).unwrap();
    let lost = expect_replies(&client, 1);
    assert_eq!(lost[0].2, vec![Value::U64(1)]);

    // Far more traffic than any fixed-size reply cache would hold
    // (the old cache kept the last 4096 replies).
    const OTHERS: u64 = 5000;
    const WINDOW: u64 = 250;
    let mut next = 2;
    while next < 2 + OTHERS {
        let end = (next + WINDOW).min(2 + OTHERS);
        for inv_id in next..end {
            client
                .send(invoke_request_acked(inv_id, 1, cap, "bump"))
                .unwrap();
        }
        let replies = expect_replies(&client, (end - next) as usize);
        assert!(replies.iter().all(|r| r.1 == Status::Ok));
        next = end;
    }
    assert_eq!(executions.load(Ordering::SeqCst), 1 + OTHERS);

    // The retransmission replays the original reply, not a new run.
    client
        .send(invoke_request_acked(1, 1, cap, "bump"))
        .unwrap();
    let replayed = expect_replies(&client, 1);
    assert_eq!(replayed[0].0, 1);
    assert_eq!(
        replayed[0].2,
        vec![Value::U64(1)],
        "replayed, not re-executed"
    );
    assert_eq!(executions.load(Ordering::SeqCst), 1 + OTHERS);

    // Once the client acknowledges everything, the cache lets go of
    // every reply but the newest request's own.
    let last = 2 + OTHERS;
    client
        .send(invoke_request_acked(last, last, cap, "bump"))
        .unwrap();
    expect_replies(&client, 1);
    assert_eq!(node.cached_replies(), 1);

    node.shutdown();
    mesh.shutdown();
}
