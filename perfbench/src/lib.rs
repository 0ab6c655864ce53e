//! The Eden serving benchmark.
//!
//! One process boots a 3-node Eden cluster over real loopback TCP
//! (node 0 the client, nodes 1 and 2 the servers) and drives one of
//! three closed-loop workloads from two generator threads. Everything is
//! measured from outside the program: by timing the public calls the
//! generator makes, and by reading the counters the kernels already keep
//! through their public snapshots.
//!
//! * An untraced run (`trace = false`) sets up several fresh clusters
//!   one after another and measures each for an equal share of the run
//!   with tracing off; throughput and latency pool every cluster's whole
//!   phase, `setup_s` is the median set-up.
//! * A traced run (`trace = true`) measures the per-layer metrics: an
//!   untraced phase for the counters and call timings, then a phase on a
//!   fresh cluster with every invocation traced, for the stitched
//!   critical-path shares, the tracing overhead and a Chrome trace.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod hist;
pub mod layers;
pub mod record;
pub mod report;
pub mod rng;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use eden_obs::{SpanRecord, TraceSampling};

use cluster::EdenCluster;
use hist::LatHist;
use layers::ClusterDelta;
use record::{ThreadLog, Totals, WINDOW_NS};
use workloads::{Guard, Scenario, Stop, Workload};

/// Clusters set up and measured per untraced run. The reader threads of
/// a fresh cluster fall into nap phases against each other that decide
/// whether a remote call waits out one reader nap or two, and a cluster
/// can keep its phases for seconds; pooling many short-lived clusters
/// averages over those draws instead of riding one.
pub const SETUPS: usize = 10;

/// What one invocation of the benchmark does.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the run's timed phases together (split evenly between
    /// the clusters of an untraced run, or the untraced and traced
    /// phases of a traced run).
    pub measure: Duration,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Where durable stores, the per-layer table and the Chrome trace go.
    pub out_dir: PathBuf,
}

/// One timed phase on one cluster.
#[derive(Debug)]
pub struct Phase {
    /// Merged generator records.
    pub totals: Totals,
    /// Counter growth over the phase.
    pub delta: ClusterDelta,
    /// Wall-clock length, from first issue to last checked result.
    pub elapsed_s: f64,
    /// Length of each latency window in `totals.windows`.
    pub window_s: Vec<f64>,
    /// Mechanism guards.
    pub guards: Vec<Guard>,
    /// Wrong results, failed final-state checks and broken guards.
    pub problems: Vec<String>,
}

impl Phase {
    /// Successful ops per second over the whole phase.
    pub fn throughput(&self) -> f64 {
        stats::ratio(self.totals.counts.ok as f64, self.elapsed_s)
    }

    /// Whether every output check and guard held.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// The traced phase and what its spans yield.
#[derive(Debug)]
pub struct Traced {
    /// The phase, run with every invocation traced.
    pub phase: Phase,
    /// Stitched critical-path shares.
    pub stages: spans::StageShares,
    /// Chrome-trace JSON of the complete window.
    pub chrome: String,
}

/// The result of one invocation.
#[derive(Debug)]
pub struct RunResult {
    /// The configuration run.
    pub config: RunConfig,
    /// Seconds each set-up took.
    pub setups_s: Vec<f64>,
    /// The untraced phases, one per cluster.
    pub phases: Vec<Phase>,
    /// The traced phase, on a traced run.
    pub traced: Option<Traced>,
    /// Peak resident memory of the process when the first cluster's
    /// phase ended, MiB (later clusters start in a process that has
    /// already run one).
    pub peak_rss_mib: f64,
}

impl RunResult {
    /// Every timed phase, untraced first.
    pub fn all_phases(&self) -> impl Iterator<Item = &Phase> {
        self.phases
            .iter()
            .chain(self.traced.as_ref().map(|t| &t.phase))
    }

    /// Whether every output check and guard held in every phase.
    pub fn correct(&self) -> bool {
        self.all_phases().all(Phase::correct)
    }

    /// Ops attempted over every timed phase.
    pub fn attempted(&self) -> u64 {
        self.all_phases().map(|p| p.totals.counts.attempted).sum()
    }

    /// Ops failed over every timed phase.
    pub fn failed(&self) -> u64 {
        self.all_phases().map(|p| p.totals.counts.failed).sum()
    }

    /// Successful ops per second over every untraced phase together.
    pub fn throughput(&self) -> f64 {
        let ok: u64 = self.phases.iter().map(|p| p.totals.counts.ok).sum();
        let elapsed_s: f64 = self.phases.iter().map(|p| p.elapsed_s).sum();
        stats::ratio(ok as f64, elapsed_s)
    }

    /// Every successful op's latency over every untraced phase.
    pub fn latency(&self) -> LatHist {
        let mut h = LatHist::new();
        for p in &self.phases {
            h.merge(&p.totals.all());
        }
        h
    }
}

/// A booted, populated and warmed cluster, and the seconds that took.
fn set_up(cfg: &RunConfig, tag: usize) -> Result<(EdenCluster, Box<dyn Scenario>, f64), String> {
    let start = Instant::now();
    let dir = cfg.workload.durable().then(|| {
        cfg.out_dir
            .join(format!("stores-{}-{tag}", std::process::id()))
    });
    let cluster = EdenCluster::boot(dir.as_deref())?;
    match workloads::prepare(cfg.workload, &cluster, cfg.seed) {
        Ok(scenario) => Ok((cluster, scenario, start.elapsed().as_secs_f64())),
        Err(e) => {
            cluster.shutdown();
            Err(e)
        }
    }
}

/// Kernel spans gathered at the end of a traced phase, and the instant
/// after which they are complete.
type KernelSpans = (Vec<SpanRecord>, u64);

/// Drives `scenario` for `length`, then checks the program's outputs and
/// the guards. With `traced`, every invocation is traced and every
/// generator call gets a span; the kernels' spans are gathered before
/// the final-state checks add traces of their own.
fn measure(
    cluster: &EdenCluster,
    scenario: &dyn Scenario,
    length: Duration,
    traced: bool,
) -> (Phase, Vec<ThreadLog>, Option<KernelSpans>) {
    if traced {
        cluster.set_sampling(TraceSampling::Always);
    }
    let before = cluster.snapshot();
    let start = Instant::now();
    let logs = workloads::run_phase(scenario, Stop::At(start + length), traced);
    let elapsed_s = start.elapsed().as_secs_f64();
    let delta = cluster.snapshot().since(&before);
    let kernel_spans = traced.then(|| spans::collect(&cluster.nodes));
    cluster.set_sampling(cluster::node_config().trace_sampling);
    let mut totals = Totals::merge(&logs);
    // Whole seconds of the phase; completions after the last boundary
    // (the drain of outstanding calls) join the last window.
    let full = ((length.as_nanos() / WINDOW_NS as u128) as usize).max(1);
    if totals.windows.len() > full {
        let tail: Vec<LatHist> = totals.windows.drain(full..).collect();
        for h in &tail {
            totals.windows[full - 1].merge(h);
        }
    }
    totals.windows.resize_with(full, LatHist::new);
    let window_s = (0..full)
        .map(|w| {
            if w + 1 < full {
                WINDOW_NS as f64 / 1e9
            } else {
                elapsed_s - (full - 1) as f64 * WINDOW_NS as f64 / 1e9
            }
        })
        .collect();
    let guards = scenario.guards(&delta, &totals);
    let mut problems = totals.problems.clone();
    problems.extend(scenario.verify());
    let c = &totals.counts;
    if c.ok + c.failed + c.aborted != c.attempted {
        problems.push(format!(
            "ok {} + failed {} + aborted {} != attempted {}",
            c.ok, c.failed, c.aborted, c.attempted
        ));
    }
    if c.wrong > 0 {
        problems.push(format!("{} ops returned a wrong result", c.wrong));
    }
    for g in guards.iter().filter(|g| !g.held) {
        problems.push(format!(
            "guard broken: {} = {} (expected {})",
            g.name, g.value, g.expect
        ));
    }
    let phase = Phase {
        totals,
        delta,
        elapsed_s,
        window_s,
        guards,
        problems,
    };
    (phase, logs, kernel_spans)
}

/// Runs the benchmark once.
///
/// Untraced: [`SETUPS`] fresh clusters in turn, each set up, measured
/// for `measure / SETUPS` and shut down. Traced: an untraced phase and a
/// traced phase, each on a fresh cluster and each half of `measure`.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("create {}: {e}", cfg.out_dir.display()))?;
    let clusters = if cfg.trace { 1 } else { SETUPS };
    let length = cfg.measure / if cfg.trace { 2 } else { clusters as u32 };
    let mut setups_s = Vec::with_capacity(clusters);
    let mut phases = Vec::with_capacity(clusters);
    let mut peak_rss_mib = 0.0;
    for tag in 0..clusters {
        let (cluster, scenario, setup_s) = set_up(cfg, tag)?;
        let (phase, _, _) = measure(&cluster, scenario.as_ref(), length, false);
        drop(scenario);
        cluster.shutdown();
        if tag == 0 {
            peak_rss_mib = self::peak_rss_mib();
        }
        setups_s.push(setup_s);
        phases.push(phase);
    }
    let traced = if cfg.trace {
        let (cluster, scenario, _) = set_up(cfg, clusters)?;
        let (phase, mut logs, kernel) = measure(&cluster, scenario.as_ref(), length, true);
        drop(scenario);
        cluster.shutdown();
        let (kernel_spans, complete_after) = kernel.expect("a traced phase gathers spans");
        let generator: Vec<SpanRecord> = logs.iter_mut().flat_map(ThreadLog::take_spans).collect();
        Some(Traced {
            phase,
            stages: spans::stage_shares(&kernel_spans, complete_after, cluster::CLIENT as u16),
            chrome: spans::chrome_trace(&kernel_spans, &generator, complete_after),
        })
    } else {
        None
    };
    Ok(RunResult {
        config: cfg.clone(),
        setups_s,
        phases,
        traced,
        peak_rss_mib,
    })
}

/// Peak resident set of this process (`VmHWM`), MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
