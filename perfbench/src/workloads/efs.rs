//! `efs-txn`: each generator thread runs EFS strict-2PL transactions
//! back to back through one transaction manager on the client kernel.
//! Half are read-only (`read` two files, `commit`); half are
//! read-modify-write (`read_for_update` two files, `write` 1 KiB to each,
//! `commit`). Files are picked uniformly from [`FILES`] on the servers,
//! and every kernel checkpoints to a disk log with fsync on every
//! checkpoint: the durable path of two-phase commit.
//!
//! Every payload carries the id of the write that produced it, so the
//! generator can check what it reads and, at the end, that each file's
//! committed writes form one chain from its initial content whose tail
//! is the file's latest version (no lost or phantom update).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bytes::Bytes;
use eden_capability::Capability;
use eden_efs::{FileType, Transaction, TxnManagerType};
use eden_kernel::Node;
use eden_wire::Value;

use super::{per_server, Guard, Scenario, Stop, THREADS};
use crate::cluster::{EdenCluster, CLIENT, SERVERS};
use crate::layers::ClusterDelta;
use crate::record::{Op, Outcome, ThreadLog, Totals};
use crate::rng::Rng;

/// EFS files, alternating between the two servers.
pub const FILES: usize = 256;
/// Bytes per file version.
pub const FILE_BYTES: usize = 1024;
/// Percent of transactions that only read.
const READ_ONLY_PCT: usize = 50;
/// Id tag of a file's initial content (the file index fills the rest).
const INITIAL_ID: u64 = 1 << 63;

/// The payload written by write `id`: the id, then seeded bytes.
fn payload(seed: u64, id: u64) -> Bytes {
    let mut buf = vec![0u8; FILE_BYTES];
    buf[..8].copy_from_slice(&id.to_le_bytes());
    Rng::stream(seed, id).fill(&mut buf[8..]);
    Bytes::from(buf)
}

/// The id of the write that produced `data`, if `data` is exactly what
/// that write wrote.
fn written_by(seed: u64, data: &[u8]) -> Option<u64> {
    let id = u64::from_le_bytes(data.get(..8)?.try_into().ok()?);
    (payload(seed, id)[..] == *data).then_some(id)
}

/// The populated `efs-txn` workload.
pub struct EfsTxn {
    client: Node,
    manager: Capability,
    files: Vec<Capability>,
    seed: u64,
    /// Per-thread sequence numbers for write ids.
    next_write: Vec<AtomicU64>,
    /// Per file, the committed writes as (id read under the lock, id
    /// written) pairs.
    committed: Mutex<Vec<Vec<(u64, u64)>>>,
}

impl EfsTxn {
    /// Creates the transaction manager on the client and the files on
    /// the servers, each holding its seeded initial content.
    pub fn populate(cluster: &EdenCluster, seed: u64) -> Result<EfsTxn, String> {
        let client = cluster.nodes[CLIENT].clone();
        let manager = client
            .create_object(&TxnManagerType::name_for("2pl"), &[])
            .map_err(|e| format!("create transaction manager: {e}"))?;
        let created = per_server(|s, server| {
            (s..FILES)
                .step_by(SERVERS.len())
                .map(|f| {
                    let initial = payload(seed, INITIAL_ID | f as u64);
                    cluster.nodes[server]
                        .create_object(FileType::NAME, &[Value::Blob(initial)])
                        .map_err(|e| format!("create file: {e}"))
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        let files = (0..FILES)
            .map(|f| created[f % SERVERS.len()][f / SERVERS.len()])
            .collect();
        Ok(EfsTxn {
            client,
            manager,
            files,
            seed,
            next_write: (0..THREADS).map(|_| AtomicU64::new(0)).collect(),
            committed: Mutex::new(vec![Vec::new(); FILES]),
        })
    }

    fn write_id(&self, thread: usize) -> u64 {
        let seq = self.next_write[thread].fetch_add(1, Ordering::Relaxed) + 1;
        ((thread as u64 + 1) << 48) | seq
    }

    /// One transaction attempt over `pair` (ascending, so every
    /// transaction locks in one global order and none deadlock).
    fn transact(
        &self,
        op: &Op,
        log: &mut ThreadLog,
        pair: [usize; 2],
        writes: Option<[u64; 2]>,
    ) -> Outcome {
        let tx = match log.call(op, "Transaction::begin", || {
            Transaction::begin(self.client.clone(), self.manager)
        }) {
            Ok(tx) => tx,
            Err(e) => return Outcome::Failed(e.to_string()),
        };
        let mut seen = [0u64; 2];
        for (k, &f) in pair.iter().enumerate() {
            let file = self.files[f];
            let read = if writes.is_some() {
                log.call(op, "Transaction::read_for_update", || {
                    tx.read_for_update(file)
                })
            } else {
                log.call(op, "Transaction::read", || tx.read(file))
            };
            match read {
                Ok(data) => match written_by(self.seed, &data) {
                    Some(id) => seen[k] = id,
                    None => {
                        return Outcome::Wrong(format!("file {f} holds bytes no write produced"))
                    }
                },
                Err(e) => return Outcome::Failed(e.to_string()),
            }
        }
        if let Some(ids) = writes {
            for (&f, &id) in pair.iter().zip(&ids) {
                let data = payload(self.seed, id);
                if let Err(e) =
                    log.call(op, "Transaction::write", || tx.write(self.files[f], &data))
                {
                    return Outcome::Failed(e.to_string());
                }
            }
        }
        match log.call(op, "Transaction::commit", || tx.commit()) {
            Ok(true) => {
                if let Some(ids) = writes {
                    let mut committed = self.committed.lock().expect("commit log poisoned");
                    for k in 0..2 {
                        committed[pair[k]].push((seen[k], ids[k]));
                    }
                    log.add("bytes committed", (2 * FILE_BYTES) as u64);
                }
                Outcome::Ok
            }
            Ok(false) => Outcome::Aborted,
            Err(e) => Outcome::Failed(e.to_string()),
        }
    }
}

impl Scenario for EfsTxn {
    fn drive(&self, thread: usize, stop: Stop, log: &mut ThreadLog) {
        let mut rng = Rng::stream(self.seed, 1 + thread as u64);
        let mut issued = 0u64;
        while !stop.reached(issued) {
            issued += 1;
            let a = rng.below(FILES);
            let mut b = rng.below(FILES - 1);
            if b >= a {
                b += 1;
            }
            let pair = [a.min(b), a.max(b)];
            let (kind, writes) = if rng.percent(READ_ONLY_PCT) {
                ("txn.read-only", None)
            } else {
                (
                    "txn.read-write",
                    Some([self.write_id(thread), self.write_id(thread)]),
                )
            };
            let op = log.begin_op(kind);
            let outcome = self.transact(&op, log, pair, writes);
            log.end_op(op, kind, outcome);
        }
    }

    fn verify(&self) -> Vec<String> {
        let committed = self.committed.lock().expect("commit log poisoned");
        let mut problems = Vec::new();
        for (f, writes) in committed.iter().enumerate() {
            let latest = match self.client.invoke(self.files[f], "read", &[]) {
                Ok(out) => match out.first().and_then(Value::as_blob) {
                    Some(data) => written_by(self.seed, data),
                    None => None,
                },
                Err(e) => {
                    problems.push(format!("final read of file {f}: {e}"));
                    continue;
                }
            };
            let next: HashMap<u64, u64> = writes.iter().copied().collect();
            let mut tail = INITIAL_ID | f as u64;
            let mut steps = 0;
            while let Some(&n) = next.get(&tail) {
                tail = n;
                steps += 1;
                if steps > writes.len() {
                    break;
                }
            }
            if next.len() != writes.len() || steps != writes.len() {
                problems.push(format!(
                    "file {f}: {} committed writes do not form one chain from its initial content",
                    writes.len()
                ));
            } else if latest != Some(tail) {
                problems.push(format!(
                    "file {f}: latest content is not its last committed write"
                ));
            }
        }
        problems
    }

    fn guards(&self, delta: &ClusterDelta, totals: &Totals) -> Vec<Guard> {
        let all: Vec<usize> = (0..delta.0.len()).collect();
        vec![
            Guard::positive(
                "fsyncs",
                delta.hist(&all, "store.fsync").count,
                "transactions",
                totals.counts.attempted,
            ),
            Guard::positive(
                "checkpoints",
                delta.sum(|n| n.kernel.checkpoints),
                "transactions",
                totals.counts.attempted,
            ),
        ]
    }
}
