//! The three closed-loop workloads. Each populates a fresh cluster from
//! the seed, warms it, and then drives it from [`THREADS`] generator
//! threads through the client kernel, checking every result.

use std::time::Instant;

use crate::cluster::{EdenCluster, SERVERS};
use crate::layers::ClusterDelta;
use crate::record::{ThreadLog, Totals};

pub mod efs;
pub mod objects;
pub mod rpc;

/// Generator threads (the host has two cores).
pub const THREADS: usize = 2;

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pipelined `echo` calls: the smallest-message remote path.
    Rpc,
    /// Synchronous invocations over frozen replicas, mutable objects
    /// beyond the hint cache, and migrations.
    Objects,
    /// EFS strict-2PL transactions over durable stores.
    EfsTxn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Rpc, Workload::Objects, Workload::EfsTxn];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Rpc => "rpc",
            Workload::Objects => "objects",
            Workload::EfsTxn => "efs-txn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Calls each generator thread keeps outstanding.
    pub fn outstanding(self) -> usize {
        match self {
            Workload::Rpc => rpc::WINDOW,
            Workload::Objects | Workload::EfsTxn => 1,
        }
    }

    /// Whether the kernels checkpoint to disk.
    pub fn durable(self) -> bool {
        self == Workload::EfsTxn
    }
}

/// When a generator thread stops issuing.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many ops (warm-up).
    Ops(u64),
    /// At this instant (the timed phase).
    At(Instant),
}

impl Stop {
    /// Whether a thread that has issued `issued` ops should stop.
    pub fn reached(self, issued: u64) -> bool {
        match self {
            Stop::Ops(n) => issued >= n,
            Stop::At(t) => Instant::now() >= t,
        }
    }
}

/// A count that proves a workload exercised (or bypassed) a layer.
#[derive(Debug, Clone)]
pub struct Guard {
    /// What is counted.
    pub name: &'static str,
    /// The count.
    pub value: u64,
    /// What it is counted against.
    pub base_name: &'static str,
    /// The base's size.
    pub base: u64,
    /// The expectation, as text.
    pub expect: &'static str,
    /// Whether the expectation held.
    pub held: bool,
}

impl Guard {
    /// A guard requiring `value > 0`.
    pub fn positive(name: &'static str, value: u64, base_name: &'static str, base: u64) -> Guard {
        Guard {
            name,
            value,
            base_name,
            base,
            expect: "> 0",
            held: value > 0,
        }
    }

    /// A guard requiring `value == 0`.
    pub fn zero(name: &'static str, value: u64, base_name: &'static str, base: u64) -> Guard {
        Guard {
            name,
            value,
            base_name,
            base,
            expect: "= 0",
            held: value == 0,
        }
    }
}

/// A populated, warmed workload ready to drive.
pub trait Scenario: Sync {
    /// Runs the op mix on generator thread `thread` until `stop`.
    fn drive(&self, thread: usize, stop: Stop, log: &mut ThreadLog);

    /// Checks the program's final state against what the generator
    /// recorded; returns the problems found.
    fn verify(&self) -> Vec<String>;

    /// The mechanism guards over the timed phase.
    fn guards(&self, delta: &ClusterDelta, totals: &Totals) -> Vec<Guard>;
}

/// Populates `cluster` for `workload` from `seed` and warms it.
pub fn prepare(
    workload: Workload,
    cluster: &EdenCluster,
    seed: u64,
) -> Result<Box<dyn Scenario>, String> {
    let scenario: Box<dyn Scenario> = match workload {
        Workload::Rpc => Box::new(rpc::Rpc::populate(cluster, seed)?),
        Workload::Objects => Box::new(objects::Objects::populate(cluster, seed)?),
        Workload::EfsTxn => Box::new(efs::EfsTxn::populate(cluster, seed)?),
    };
    let warm = run_phase(scenario.as_ref(), Stop::Ops(warm_up_ops(workload)), false);
    let problems: Vec<String> = warm.iter().flat_map(|l| l.problems.clone()).collect();
    if let Some(p) = problems.first() {
        return Err(format!("warm-up: {p}"));
    }
    Ok(scenario)
}

/// Ops each thread issues while warming up.
fn warm_up_ops(workload: Workload) -> u64 {
    match workload {
        Workload::Rpc => 2_000,
        Workload::Objects => 200,
        Workload::EfsTxn => 20,
    }
}

/// Drives `scenario` from [`THREADS`] threads until `stop`; with
/// `spans`, each thread also records a span around every public call.
pub fn run_phase(scenario: &dyn Scenario, stop: Stop, spans: bool) -> Vec<ThreadLog> {
    let start_ns = eden_obs::now_ns();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let mut log = ThreadLog::new(t, start_ns, spans);
                    scenario.drive(t, stop, &mut log);
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

/// Runs `f(s, server)` for each server on its own thread (at most two
/// generator threads, one per server).
pub fn per_server<T: Send>(
    f: impl Fn(usize, usize) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = SERVERS
            .iter()
            .enumerate()
            .map(|(i, &server)| {
                let f = &f;
                s.spawn(move || f(i, server))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("populate thread panicked"))
            .collect()
    })
}
