//! `rpc`: each generator thread keeps [`WINDOW`] pipelined `echo` calls
//! outstanding against [`OBJECTS`] echo objects split across the two
//! servers, harvesting oldest-first. The smallest-message remote path:
//! wire codec, writer coalescing, reader pool, receive batching and
//! vproc dispatch, with no store, EFS or location search (every target
//! is aimed at its holder).

use std::collections::VecDeque;
use std::time::Duration;

use bytes::Bytes;
use eden_bench::types::EchoType;
use eden_capability::NodeId;
use eden_kernel::{PendingCall, PipelinedClient};
use eden_wire::{Status, Value};

use super::{Guard, Scenario, Stop};
use crate::cluster::{EdenCluster, CLIENT, SERVERS};
use crate::layers::ClusterDelta;
use crate::record::{Op, Outcome, ThreadLog, Totals};
use crate::rng::Rng;

/// Pipelined calls each generator thread keeps outstanding.
pub const WINDOW: usize = 32;
/// Echo objects, alternating between the two servers.
pub const OBJECTS: usize = 64;
/// Bytes in each `echo` argument.
pub const ARG_BYTES: usize = 64;
/// Distinct seeded arguments the calls draw from.
const ARGS: usize = 256;
/// Reply budget per call; loopback never loses a frame, so a call that
/// outlives this is a failure.
const REPLY_BUDGET: Duration = Duration::from_secs(30);

/// The populated `rpc` workload.
pub struct Rpc {
    clients: Vec<PipelinedClient>,
    args: Vec<Bytes>,
    seed: u64,
}

impl Rpc {
    /// Creates the echo objects and one pipelined client per object on
    /// the client kernel.
    pub fn populate(cluster: &EdenCluster, seed: u64) -> Result<Rpc, String> {
        let mut rng = Rng::stream(seed, 0);
        let args = (0..ARGS).map(|_| rng.bytes(ARG_BYTES)).collect();
        let mut clients = Vec::with_capacity(OBJECTS);
        for i in 0..OBJECTS {
            let server = SERVERS[i % SERVERS.len()];
            let cap = cluster.nodes[server]
                .create_object(EchoType::NAME, &[])
                .map_err(|e| format!("create echo object: {e}"))?;
            clients.push(cluster.nodes[CLIENT].pipelined_client_to(cap, NodeId(server as u16)));
        }
        Ok(Rpc {
            clients,
            args,
            seed,
        })
    }

    fn harvest(&self, pending: PendingCall<'_>, op: Op, arg: usize, log: &mut ThreadLog) {
        let (status, results) = log.call(&op, "PendingCall::wait", || pending.wait(REPLY_BUDGET));
        let outcome = if status != Status::Ok {
            Outcome::Failed(format!("{status:?}"))
        } else if results != [Value::Blob(self.args[arg].clone())] {
            Outcome::Wrong(format!(
                "echo returned {} values, not its argument",
                results.len()
            ))
        } else {
            Outcome::Ok
        };
        log.end_op(op, "echo", outcome);
    }
}

impl Scenario for Rpc {
    fn drive(&self, thread: usize, stop: Stop, log: &mut ThreadLog) {
        let mut rng = Rng::stream(self.seed, 1 + thread as u64);
        let mut window: VecDeque<(PendingCall<'_>, Op, usize)> = VecDeque::with_capacity(WINDOW);
        let mut issued = 0u64;
        while !stop.reached(issued) {
            if window.len() == WINDOW {
                let (pending, op, arg) = window.pop_front().expect("window is full");
                self.harvest(pending, op, arg, log);
            }
            let client = &self.clients[rng.below(OBJECTS)];
            let arg = rng.below(ARGS);
            let args = [Value::Blob(self.args[arg].clone())];
            issued += 1;
            let op = log.begin_op("echo");
            match log.call(&op, "PipelinedClient::call", || client.call("echo", &args)) {
                Ok(pending) => window.push_back((pending, op, arg)),
                Err(status) => log.end_op(op, "echo", Outcome::Failed(format!("{status:?}"))),
            }
        }
        while let Some((pending, op, arg)) = window.pop_front() {
            self.harvest(pending, op, arg, log);
        }
    }

    fn verify(&self) -> Vec<String> {
        // Every reply was checked against its argument as it arrived.
        Vec::new()
    }

    fn guards(&self, delta: &ClusterDelta, totals: &Totals) -> Vec<Guard> {
        vec![
            Guard::zero(
                "client local invocations",
                delta.0[CLIENT].kernel.local_invocations,
                "ops",
                totals.counts.attempted,
            ),
            Guard::zero(
                "location broadcasts",
                delta.sum(|n| n.kernel.location_broadcasts),
                "ops",
                totals.counts.attempted,
            ),
        ]
    }
}
