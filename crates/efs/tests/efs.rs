//! EFS end-to-end tests: naming, versions, replication and transactions
//! over real clusters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eden_capability::NodeId;
use eden_efs::{with_efs, BlobType, DirectoryType, Efs, EfsError, FileType};
use eden_kernel::{Cluster, Node, NodeConfig, Representation, TypeRegistry};
use eden_store::MemStore;
use eden_transport::LoopbackMesh;
use eden_wire::{ObjectImage, Value, WireDecode};

fn cluster(n: usize) -> Cluster {
    with_efs(Cluster::builder().nodes(n)).build()
}

#[test]
fn write_then_read_round_trips() {
    let c = cluster(1);
    let efs = Efs::format(c.node(0).clone()).unwrap();
    let v = efs.write("/docs/readme", b"first").unwrap();
    assert_eq!(v, 1);
    assert_eq!(&efs.read("/docs/readme").unwrap()[..], b"first");
}

#[test]
fn versions_are_immutable_history() {
    let c = cluster(1);
    let efs = Efs::format(c.node(0).clone()).unwrap();
    efs.write("/f", b"one").unwrap();
    efs.write("/f", b"two").unwrap();
    efs.write("/f", b"three").unwrap();
    assert_eq!(efs.history("/f").unwrap(), vec![1, 2, 3]);
    assert_eq!(&efs.read_version("/f", 1).unwrap()[..], b"one");
    assert_eq!(&efs.read_version("/f", 2).unwrap()[..], b"two");
    assert_eq!(&efs.read("/f").unwrap()[..], b"three");
    assert!(matches!(
        efs.read_version("/f", 99),
        Err(EfsError::NotFound(_))
    ));
}

/// The `ver:` segments resident in the latest checkpoint of the file at
/// `path` (checkpointed at the node hosting it).
fn resident_version_segments(efs: &Efs, host: &Node, path: &str) -> usize {
    let file = efs.lookup(path).unwrap();
    let (_, bytes) = host.store().latest(file.name()).unwrap().unwrap();
    let image = ObjectImage::decode_from_bytes(&bytes).unwrap();
    Representation::from_image(&image)
        .segments_with_prefix("ver:")
        .count()
}

fn payload(v: u64) -> Vec<u8> {
    format!("version {v}").into_bytes()
}

#[test]
fn a_thousand_writes_leave_one_resident_version() {
    let c = cluster(1);
    let efs = Efs::format(c.node(0).clone()).unwrap();
    const WRITES: u64 = 1000;
    for v in 1..=WRITES {
        assert_eq!(efs.write("/log", &payload(v)).unwrap(), v);
    }
    assert_eq!(resident_version_segments(&efs, c.node(0), "/log"), 1);
    // Every version stays readable, resident or not.
    for v in 1..=WRITES {
        assert_eq!(efs.read_version("/log", v).unwrap(), payload(v), "v{v}");
    }
    assert_eq!(efs.read("/log").unwrap(), payload(WRITES));
    assert_eq!(
        efs.history("/log").unwrap(),
        (1..=WRITES).collect::<Vec<_>>()
    );
    // Old versions publish too.
    let file = efs.lookup("/log").unwrap();
    let out = c.node(0).invoke(file, "publish", &[Value::U64(7)]).unwrap();
    let blob = out[0].as_cap().unwrap();
    let out = c.node(0).invoke(blob, "read", &[]).unwrap();
    assert_eq!(out[0].as_blob().unwrap().to_vec(), payload(7));
}

#[test]
fn old_versions_survive_crash_and_reincarnation() {
    let c = cluster(1);
    let efs = Efs::format(c.node(0).clone()).unwrap();
    for v in 1..=20 {
        efs.write("/f", &payload(v)).unwrap();
    }
    let file = efs.lookup("/f").unwrap();
    c.node(0).invoke(file, "crash", &[]).unwrap();
    // The next invocation reincarnates from the latest checkpoint.
    for v in 1..=20 {
        assert_eq!(efs.read_version("/f", v).unwrap(), payload(v), "v{v}");
    }
    // Appends after reincarnation keep the chain readable, and the
    // image shrinks back to one resident version.
    for v in 21..=24 {
        assert_eq!(efs.write("/f", &payload(v)).unwrap(), v);
    }
    assert_eq!(resident_version_segments(&efs, c.node(0), "/f"), 1);
    assert_eq!(efs.history("/f").unwrap(), (1..=24).collect::<Vec<_>>());
    for v in 1..=24 {
        assert_eq!(efs.read_version("/f", v).unwrap(), payload(v), "v{v}");
    }
}

#[test]
fn old_versions_are_fetched_from_a_remote_checksite() {
    // Versions 1..=10 checkpoint at node 0; the file then moves to node
    // 1, whose own store takes the later checkpoints. Reading the early
    // versions from node 1 fetches node 0's checkpoints over the wire.
    let c = cluster(2);
    let efs0 = Efs::format(c.node(0).clone()).unwrap();
    for v in 1..=10 {
        efs0.write("/moved", &payload(v)).unwrap();
    }
    let file = efs0.lookup("/moved").unwrap();
    c.node(0).move_object(file, NodeId(1)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !c.node(1).is_local(file.name()) {
        assert!(Instant::now() < deadline, "move did not complete");
        std::thread::sleep(Duration::from_millis(5));
    }
    let efs1 = Efs::mount(c.node(1).clone(), efs0.root());
    for v in 11..=15 {
        assert_eq!(efs1.write("/moved", &payload(v)).unwrap(), v);
    }
    assert_eq!(resident_version_segments(&efs1, c.node(1), "/moved"), 1);
    for efs in [&efs0, &efs1] {
        for v in 1..=15 {
            assert_eq!(efs.read_version("/moved", v).unwrap(), payload(v), "v{v}");
        }
        assert_eq!(efs.history("/moved").unwrap(), (1..=15).collect::<Vec<_>>());
    }
    // The early versions really live only at node 0: with it gone they
    // are unreachable, while node 1's own versions still read.
    c.kill(0);
    let read = |v: u64| c.node(1).invoke(file, "read", &[Value::U64(v)]);
    assert_eq!(
        read(15).unwrap()[0].as_blob().unwrap().to_vec(),
        payload(15)
    );
    assert!(read(3).is_err(), "v3 must need node 0's checkpoint");
}

#[test]
fn versions_whose_checkpoint_was_retired_read_as_not_found() {
    // A store keeping only the 4 newest checkpoints per object.
    let mesh = LoopbackMesh::new(1);
    let registry = Arc::new(TypeRegistry::new());
    registry.register(Arc::new(FileType)).unwrap();
    registry.register(Arc::new(BlobType)).unwrap();
    registry.register(Arc::new(DirectoryType)).unwrap();
    let node = Node::new(
        NodeConfig::default(),
        mesh.endpoint(0),
        Arc::new(MemStore::with_retention(4)),
        registry,
    );
    let efs = Efs::format(node.clone()).unwrap();
    for v in 1..=10 {
        efs.write("/short", &payload(v)).unwrap();
    }
    let history = efs.history("/short").unwrap();
    let oldest = history[0];
    assert!(oldest > 1, "retention must have dropped early versions");
    assert_eq!(history, (oldest..=10).collect::<Vec<_>>());
    for v in 1..oldest {
        assert!(
            matches!(efs.read_version("/short", v), Err(EfsError::NotFound(_))),
            "v{v} outlived its checkpoint"
        );
    }
    for v in oldest..=10 {
        assert_eq!(efs.read_version("/short", v).unwrap(), payload(v));
    }
    node.shutdown();
}

#[test]
fn directories_nest_and_list() {
    let c = cluster(1);
    let efs = Efs::format(c.node(0).clone()).unwrap();
    efs.write("/a/b/c/file1", b"x").unwrap();
    efs.write("/a/b/file2", b"y").unwrap();
    efs.mkdir_p("/a/empty").unwrap();
    let mut names = efs.list("/a").unwrap();
    names.sort();
    assert_eq!(names, vec!["b".to_string(), "empty".to_string()]);
    let mut names = efs.list("/a/b").unwrap();
    names.sort();
    assert_eq!(names, vec!["c".to_string(), "file2".to_string()]);
}

#[test]
fn lookup_missing_is_not_found() {
    let c = cluster(1);
    let efs = Efs::format(c.node(0).clone()).unwrap();
    assert!(matches!(efs.read("/nope"), Err(EfsError::NotFound(_))));
    assert!(matches!(efs.read("/deep/nope"), Err(EfsError::NotFound(_))));
}

#[test]
fn relative_paths_are_rejected() {
    let c = cluster(1);
    let efs = Efs::format(c.node(0).clone()).unwrap();
    assert!(matches!(efs.write("oops", b"x"), Err(EfsError::BadPath(_))));
}

#[test]
fn unbind_removes_the_name_not_the_object() {
    let c = cluster(1);
    let efs = Efs::format(c.node(0).clone()).unwrap();
    let file = efs.create_file("/doomed").unwrap();
    efs.write("/doomed", b"still here").unwrap();
    efs.unbind("/doomed").unwrap();
    assert!(matches!(efs.read("/doomed"), Err(EfsError::NotFound(_))));
    // The object remains reachable by capability.
    let out = c.node(0).invoke(file, "read", &[]).unwrap();
    assert_eq!(
        out[0].as_blob().unwrap(),
        &bytes::Bytes::from_static(b"still here")
    );
}

#[test]
fn the_same_efs_mounts_on_every_node() {
    let c = cluster(3);
    let efs0 = Efs::format(c.node(0).clone()).unwrap();
    efs0.write("/shared/data", b"from node 0").unwrap();

    // Node 2 mounts via the root capability alone.
    let efs2 = Efs::mount(c.node(2).clone(), efs0.root());
    assert_eq!(&efs2.read("/shared/data").unwrap()[..], b"from node 0");
    efs2.write("/shared/data", b"updated from node 2").unwrap();
    assert_eq!(
        &efs0.read("/shared/data").unwrap()[..],
        b"updated from node 2"
    );
}

#[test]
fn files_survive_node_crash_via_checkpoints() {
    // Files checkpoint on every write; EFS state on a killed node's
    // store is lost, so place the file on node 1 and kill node 0 (the
    // client) instead — the file must be unaffected.
    let c = cluster(3);
    let efs1 = Efs::format(c.node(1).clone()).unwrap();
    efs1.write("/persistent", b"precious").unwrap();
    let root = efs1.root();
    c.kill(0);
    let efs2 = Efs::mount(c.node(2).clone(), root);
    assert_eq!(&efs2.read("/persistent").unwrap()[..], b"precious");
}

#[test]
fn published_blobs_are_frozen_and_cacheable() {
    let c = cluster(3);
    let efs = Efs::format(c.node(0).clone()).unwrap();
    efs.write("/pub/article", b"read widely").unwrap();
    let blob = efs.publish("/pub/article").unwrap();

    // Cache a replica on node 2 and read without network traffic.
    c.node(2).cache_replica(blob).unwrap();
    let sent_before = c.node(2).metrics().remote_invocations_sent;
    let out = c.node(2).invoke(blob, "read", &[]).unwrap();
    assert_eq!(
        out[0].as_blob().unwrap(),
        &bytes::Bytes::from_static(b"read widely")
    );
    assert_eq!(
        c.node(2).metrics().remote_invocations_sent,
        sent_before,
        "replica read must be local"
    );
}

#[test]
fn transaction_commits_atomically() {
    let c = cluster(1);
    let efs = Efs::format(c.node(0).clone()).unwrap();
    let a = efs.create_file("/acct/a").unwrap();
    let b = efs.create_file("/acct/b").unwrap();
    c.node(0)
        .invoke(
            a,
            "write",
            &[Value::Blob(bytes::Bytes::from_static(b"100"))],
        )
        .unwrap();
    c.node(0)
        .invoke(b, "write", &[Value::Blob(bytes::Bytes::from_static(b"0"))])
        .unwrap();

    let mgr = efs.transaction_manager("2pl").unwrap();
    let txn = efs.begin(mgr).unwrap();
    let a_val: i64 = String::from_utf8(txn.read(a).unwrap().to_vec())
        .unwrap()
        .parse()
        .unwrap();
    txn.write(a, format!("{}", a_val - 30).as_bytes()).unwrap();
    txn.write(b, b"30").unwrap();
    assert!(txn.commit().unwrap());

    assert_eq!(&efs.read("/acct/a").unwrap()[..], b"70");
    assert_eq!(&efs.read("/acct/b").unwrap()[..], b"30");
}

#[test]
fn aborted_transaction_leaves_no_trace() {
    let c = cluster(1);
    let efs = Efs::format(c.node(0).clone()).unwrap();
    efs.write("/x", b"original").unwrap();
    let file = efs.lookup("/x").unwrap();

    let mgr = efs.transaction_manager("2pl").unwrap();
    let txn = efs.begin(mgr).unwrap();
    txn.write(file, b"should never appear").unwrap();
    // Read-your-writes inside the transaction.
    assert_eq!(&txn.read(file).unwrap()[..], b"should never appear");
    txn.abort().unwrap();

    assert_eq!(&efs.read("/x").unwrap()[..], b"original");
    assert_eq!(efs.history("/x").unwrap(), vec![1]);
}

#[test]
fn dropped_transaction_auto_aborts() {
    let c = cluster(1);
    let efs = Efs::format(c.node(0).clone()).unwrap();
    efs.write("/y", b"before").unwrap();
    let file = efs.lookup("/y").unwrap();
    let mgr = efs.transaction_manager("2pl").unwrap();
    {
        let txn = efs.begin(mgr).unwrap();
        txn.write(file, b"leak?").unwrap();
        // Dropped without commit.
    }
    // The lock must be released: a fresh transaction can proceed.
    let txn = efs.begin(mgr).unwrap();
    txn.write(file, b"after").unwrap();
    assert!(txn.commit().unwrap());
    assert_eq!(&efs.read("/y").unwrap()[..], b"after");
}

/// Concurrent blind increments must serialize under 2PL: every
/// transaction commits and no update is lost.
#[test]
fn two_phase_locking_serializes_concurrent_increments() {
    let c = Arc::new(cluster(2));
    let efs = Efs::format(c.node(0).clone()).unwrap();
    efs.write("/counter", b"0").unwrap();
    let file = efs.lookup("/counter").unwrap();
    let mgr = efs.transaction_manager("2pl").unwrap();

    let workers = 4;
    let per_worker = 5;
    let mut handles = Vec::new();
    for w in 0..workers {
        let node = c.node(w % 2).clone();
        let efs_w = Efs::mount(node, efs.root());
        handles.push(std::thread::spawn(move || {
            for _ in 0..per_worker {
                let mut attempts = 0;
                loop {
                    attempts += 1;
                    assert!(attempts < 200, "2PL increment failed to make progress");
                    let txn = efs_w.begin(mgr).unwrap();
                    // A lock timeout anywhere aborts the transaction
                    // server-side; the client retries from the top.
                    let Ok(raw) = txn.read_for_update(file) else {
                        continue;
                    };
                    let cur: i64 = String::from_utf8(raw.to_vec()).unwrap().parse().unwrap();
                    if txn.write(file, format!("{}", cur + 1).as_bytes()).is_err() {
                        continue;
                    }
                    match txn.commit() {
                        Ok(true) => break,
                        _ => continue,
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total: i64 = String::from_utf8(efs.read("/counter").unwrap().to_vec())
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(
        total,
        (workers * per_worker) as i64,
        "no update may be lost"
    );
}

/// The same workload under OCC: conflicting commits abort and retry;
/// the final state is identical, but aborts are observed.
#[test]
fn optimistic_cc_aborts_conflicts_but_converges() {
    let c = Arc::new(cluster(2));
    let efs = Efs::format(c.node(0).clone()).unwrap();
    efs.write("/counter", b"0").unwrap();
    let file = efs.lookup("/counter").unwrap();
    let mgr = efs.transaction_manager("occ").unwrap();

    let aborts = Arc::new(AtomicU64::new(0));
    let workers = 4;
    let per_worker = 5;
    let mut handles = Vec::new();
    for w in 0..workers {
        let node = c.node(w % 2).clone();
        let efs_w = Efs::mount(node, efs.root());
        let aborts = aborts.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..per_worker {
                let mut attempts = 0;
                loop {
                    attempts += 1;
                    assert!(attempts < 500, "OCC increment failed to make progress");
                    let txn = efs_w.begin(mgr).unwrap();
                    let cur: i64 = String::from_utf8(txn.read(file).unwrap().to_vec())
                        .unwrap()
                        .parse()
                        .unwrap();
                    txn.write(file, format!("{}", cur + 1).as_bytes()).unwrap();
                    if txn.commit().unwrap() {
                        break;
                    }
                    aborts.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total: i64 = String::from_utf8(efs.read("/counter").unwrap().to_vec())
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(total, (workers * per_worker) as i64);
    // With 4 contending workers on one hot file, validation must have
    // caught at least one conflict.
    assert!(
        aborts.load(Ordering::Relaxed) > 0,
        "expected optimistic aborts under contention"
    );
}

/// Disjoint write sets commit concurrently under both disciplines.
#[test]
fn disjoint_transactions_do_not_interfere() {
    let c = cluster(1);
    let efs = Efs::format(c.node(0).clone()).unwrap();
    for cc in ["2pl", "occ"] {
        let mgr = efs.transaction_manager(cc).unwrap();
        let f1 = efs.create_file(&format!("/{cc}/one")).unwrap();
        let f2 = efs.create_file(&format!("/{cc}/two")).unwrap();
        let t1 = efs.begin(mgr).unwrap();
        let t2 = efs.begin(mgr).unwrap();
        t1.write(f1, b"t1").unwrap();
        t2.write(f2, b"t2").unwrap();
        assert!(t1.commit().unwrap(), "{cc}: t1 must commit");
        assert!(t2.commit().unwrap(), "{cc}: t2 must commit");
        assert_eq!(&efs.read(&format!("/{cc}/one")).unwrap()[..], b"t1");
        assert_eq!(&efs.read(&format!("/{cc}/two")).unwrap()[..], b"t2");
    }
}

// ----- Record management (Figure 3's third system-software layer) -----

#[test]
fn records_insert_get_delete_round_trip() {
    use eden_efs::Records;
    let c = cluster(1);
    let table = Records::create(c.node(0).clone(), 4).unwrap();
    assert!(!table.insert("user:alice", b"researcher").unwrap());
    assert!(
        table.insert("user:alice", b"professor").unwrap(),
        "upsert reports existence"
    );
    assert_eq!(&table.get("user:alice").unwrap().unwrap()[..], b"professor");
    assert_eq!(table.get("user:ghost").unwrap(), None);
    assert!(table.delete("user:alice").unwrap());
    assert!(!table.delete("user:alice").unwrap());
    assert_eq!(table.count().unwrap(), 0);
}

#[test]
fn records_scan_is_ordered_and_prefix_bounded() {
    use eden_efs::Records;
    let c = cluster(1);
    let table = Records::create(c.node(0).clone(), 16).unwrap();
    for key in ["user:zoe", "user:amy", "user:bob", "group:staff"] {
        table.insert(key, key.as_bytes()).unwrap();
    }
    let rows = table.scan("user:", 10).unwrap();
    let keys: Vec<&str> = rows.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, vec!["user:amy", "user:bob", "user:zoe"]);
    let rows = table.scan("user:", 2).unwrap();
    assert_eq!(rows.len(), 2, "limit respected");
    assert_eq!(table.scan("nothing:", 10).unwrap().len(), 0);
}

#[test]
fn records_batched_checkpointing_bounds_the_loss_window() {
    use eden_efs::Records;
    let c = cluster(1);
    // Flush every 3 mutations: checkpoints land after mutations 3 and 6.
    let table = Records::create(c.node(0).clone(), 3).unwrap();
    for i in 0..7 {
        table.insert(&format!("k{i}"), b"v").unwrap();
    }
    assert_eq!(table.count().unwrap(), 7);

    // Crash: the 7th insert was inside the dirty batch and is lost;
    // reincarnation restores the 6-mutation checkpoint.
    c.node(0).invoke(table.capability(), "crash", &[]).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    loop {
        let count = table.count().unwrap();
        if count == 6 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "expected the checkpointed 6 records, got {count}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(table.get("k6").unwrap(), None, "the dirty insert is gone");
    assert!(
        table.get("k5").unwrap().is_some(),
        "checkpointed data survives"
    );

    // A flush closes the window: nothing is lost across the next crash.
    table.insert("k7", b"v").unwrap();
    table.flush().unwrap();
    c.node(0).invoke(table.capability(), "crash", &[]).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while table.get("k7").unwrap().is_none() {
        assert!(std::time::Instant::now() < deadline, "flushed record lost");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

#[test]
fn records_are_shareable_across_nodes_by_capability() {
    use eden_efs::Records;
    let c = cluster(3);
    let table = Records::create(c.node(0).clone(), 2).unwrap();
    table.insert("shared", b"value").unwrap();
    let remote = Records::open(c.node(2).clone(), table.capability());
    assert_eq!(&remote.get("shared").unwrap().unwrap()[..], b"value");
    remote.insert("from-node-2", b"x").unwrap();
    assert_eq!(table.count().unwrap(), 2);
}

/// OCC must validate the *read set*: a transaction that read A and
/// writes B aborts if A changed under it (no write-write conflict
/// involved).
#[test]
fn occ_validates_reads_of_unwritten_files() {
    let c = cluster(1);
    let efs = Efs::format(c.node(0).clone()).unwrap();
    let a = efs.create_file("/ra").unwrap();
    let b = efs.create_file("/rb").unwrap();
    c.node(0)
        .invoke(a, "write", &[Value::Blob(bytes::Bytes::from_static(b"a1"))])
        .unwrap();
    let mgr = efs.transaction_manager("occ").unwrap();

    let txn = efs.begin(mgr).unwrap();
    assert_eq!(&txn.read(a).unwrap()[..], b"a1");
    txn.write(b, b"derived from a1").unwrap();

    // A concurrent (non-transactional) writer bumps A before commit.
    c.node(0)
        .invoke(a, "write", &[Value::Blob(bytes::Bytes::from_static(b"a2"))])
        .unwrap();

    assert!(
        !txn.commit().unwrap(),
        "stale read of A must abort the commit even though only B was written"
    );
    // B was never touched.
    let out = c.node(0).invoke(b, "latest_version", &[]).unwrap();
    assert_eq!(out, vec![Value::U64(0)]);
}

/// 2PL read locks block concurrent writers until commit, so the same
/// scenario under 2PL *commits* (the interloper waits).
#[test]
fn twopl_read_locks_exclude_writers_until_commit() {
    let c = cluster(1);
    let efs = Efs::format(c.node(0).clone()).unwrap();
    let a = efs.create_file("/la").unwrap();
    c.node(0)
        .invoke(a, "write", &[Value::Blob(bytes::Bytes::from_static(b"a1"))])
        .unwrap();
    let mgr = efs.transaction_manager("2pl").unwrap();

    let txn = efs.begin(mgr).unwrap();
    assert_eq!(&txn.read(a).unwrap()[..], b"a1");

    // A competing transaction cannot take the exclusive lock while the
    // shared lock is held.
    let interloper = efs.begin(mgr).unwrap();
    let blocked = interloper.read_for_update(a);
    assert!(
        blocked.is_err(),
        "exclusive lock must be refused: {blocked:?}"
    );

    assert!(txn.commit().unwrap());
    // After commit, the lock is free.
    let retry = efs.begin(mgr).unwrap();
    assert_eq!(&retry.read_for_update(a).unwrap()[..], b"a1");
    retry.abort().unwrap();
}
