//! Turning a run into metrics: the end-to-end set (untraced run), the
//! per-layer set (traced run), the human-readable tables and the final
//! JSON line.

use std::fmt::Write as _;

use eden_obs::STAGE_ORDER;

use crate::cluster::{node_config, CLIENT, NODES, SERVERS};
use crate::layers::hist_us;
use crate::stats::{self, per};
use crate::workloads::{Workload, THREADS};
use crate::{Phase, RunResult};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Its value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Numerator and base of a ratio, or another note.
    pub note: String,
}

fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note: note.into(),
    }
}

fn ratio_metric(
    name: &str,
    num: u64,
    den: u64,
    unit: &'static str,
    num_name: &str,
    den_name: &str,
) -> Metric {
    metric(
        name,
        per(num, den),
        unit,
        format!("{num} {num_name} / {den} {den_name}"),
    )
}

/// The end-to-end metrics of an untraced run. Throughput, p50 and p90
/// pool the whole phases of every cluster ([`RunResult::throughput`],
/// [`RunResult::latency`]); no cluster and no window is left out.
/// `setup_s` is the median of the set-ups. Every cluster's figures are
/// printed beside them by [`end_to_end_notes`].
///
/// The tail reported as a bounded metric is p90. The p99 is printed
/// beside it, with the number of samples beyond it: over ten runs on a
/// shared 2-vCPU VM its spread between quartiles reached 0.29 of its
/// median on every workload, above the largest bound the benchmark may
/// set.
pub fn end_to_end(r: &RunResult) -> Vec<Metric> {
    let lat = r.latency();
    let pooled = format!("{} clusters pooled, whole phases", r.phases.len());
    vec![
        metric(
            "setup_s",
            stats::median(&r.setups_s),
            "s",
            format!(
                "median of {} set-ups: {}",
                r.setups_s.len(),
                r.setups_s
                    .iter()
                    .map(|s| format!("{s:.3}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        metric("throughput_ops_s", r.throughput(), "ops/s", pooled.clone()),
        metric(
            "latency_p50_us",
            lat.percentile_us(50.0),
            "us",
            format!("{pooled}, {} samples", lat.len()),
        ),
        metric("latency_p90_us", lat.percentile_us(90.0), "us", pooled),
        metric(
            "peak_rss_mib",
            r.peak_rss_mib,
            "MiB",
            "VmHWM when the first cluster's phase ended",
        ),
    ]
}

/// Lines reported beside the end-to-end metrics but not gated, per
/// cluster: whole-phase figures with the p99 and its support, the
/// failure share (0 on a healthy run, so unusable as a bounded metric),
/// per-window throughput, and the highest percentile with at least ten
/// samples beyond it.
pub fn end_to_end_notes(r: &RunResult) -> Vec<String> {
    let mut lines = Vec::new();
    for (k, p) in r.phases.iter().enumerate() {
        let c = &p.totals.counts;
        let all = p.totals.all();
        let n = all.len() as usize;
        let beyond_p99 = stats::beyond(n, 99.0);
        lines.push(format!(
            "cluster {k}: {:.1} ops/s over {:.3} s, p50 {:.1} us, p90 {:.1} us, p99 {:.1} us ({n} samples, {beyond_p99} beyond p99{})",
            p.throughput(),
            p.elapsed_s,
            all.percentile_us(50.0),
            all.percentile_us(90.0),
            all.percentile_us(99.0),
            if beyond_p99 < stats::MIN_BEYOND { ": too few to support it" } else { "" }
        ));
        lines.push(format!(
            "  failed_share {} ({} failed / {} attempted; {} ok, {} aborted)",
            per(c.failed, c.attempted),
            c.failed,
            c.attempted,
            c.ok,
            c.aborted
        ));
        lines.push(format!(
            "  ops/s per window: {}",
            p.totals
                .windows
                .iter()
                .zip(&p.window_s)
                .map(|(w, s)| format!("{:.0}", stats::ratio(w.len() as f64, *s)))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        if let Some(q) = stats::tail_percentile(n) {
            lines.push(format!(
                "  highest supported tail: p{q} = {:.1} us ({} samples beyond)",
                all.percentile_us(q),
                stats::beyond(n, q)
            ));
        }
    }
    lines
}

/// The per-layer metrics of a traced run (counters and call timings
/// from its untraced phase; stage shares and overhead from its traced
/// phase).
pub fn per_layer(r: &RunResult) -> Vec<Metric> {
    let p = &r.phases[0];
    let t = &p.totals;
    let d = &p.delta;
    let ops = t.counts.attempted;
    let all: Vec<usize> = (0..NODES).collect();
    let client = &d.0[CLIENT];
    let ck = &client.kernel;
    let sum = |f: fn(&crate::layers::NodeDelta) -> u64| d.sum(f);
    let hist = |nodes: &[usize], name: &str| d.hist(nodes, name);
    let moves = sum(|n| n.kernel.moves_out);
    let fsync = hist(&all, "store.fsync");
    let task_wait = hist(&SERVERS, "vproc.task_wait");
    let txns = t.count("txn.read-only") + t.count("txn.read-write");
    let call_p50 = |names: &[&str]| t.calls_of(names).percentile_us(50.0);
    let client_frames = client.transport.frames_sent + client.transport.frames_received;
    let client_bytes = client.transport.bytes_sent + client.transport.bytes_received;
    let mut m = vec![
        ratio_metric(
            "wire.frames_per_op",
            client_frames,
            ops,
            "frames/op",
            "client frames",
            "ops",
        ),
        ratio_metric(
            "wire.bytes_per_op",
            client_bytes,
            ops,
            "B/op",
            "client bytes",
            "ops",
        ),
        ratio_metric(
            "transport.frames_per_batch",
            sum(|n| n.transport.frames_sent),
            sum(|n| n.transport.batches_sent),
            "frames/batch",
            "frames sent",
            "write batches",
        ),
        metric(
            "transport.frames_shed",
            sum(|n| n.transport.frames_shed) as f64,
            "count",
            "",
        ),
        metric(
            "transport.frames_dropped",
            sum(|n| n.transport.frames_dropped) as f64,
            "count",
            "",
        ),
        metric(
            "kernel.vproc.task_wait_us_p50",
            hist_us(&task_wait, 50.0),
            "us",
            format!("servers' vproc.task_wait, {} samples", task_wait.count),
        ),
        metric(
            "kernel.vproc.task_wait_us_p99",
            hist_us(&task_wait, 99.0),
            "us",
            format!("servers' vproc.task_wait, {} samples", task_wait.count),
        ),
        ratio_metric(
            "kernel.vproc.executed_per_op",
            sum(|n| n.executed),
            ops,
            "tasks/op",
            "tasks executed",
            "ops",
        ),
        metric(
            "kernel.vproc.spares_spawned",
            sum(|n| n.spares_spawned) as f64,
            "count",
            "",
        ),
        metric(
            "kernel.vproc.rejected",
            sum(|n| n.rejected) as f64,
            "count",
            "",
        ),
        metric(
            "kernel.invoke_local_us_p50",
            hist_us(&hist(&[CLIENT], "invoke.local"), 50.0),
            "us",
            "client invoke.local",
        ),
        metric(
            "kernel.invoke_remote_us_p50",
            hist_us(&hist(&[CLIENT], "invoke.remote"), 50.0),
            "us",
            "client invoke.remote",
        ),
        metric(
            "kernel.execute_us_p50",
            hist_us(&hist(&all, "invoke.execute"), 50.0),
            "us",
            "invoke.execute, all nodes",
        ),
        ratio_metric(
            "kernel.class_queued_per_op",
            sum(|n| n.kernel.class_queued),
            ops,
            "count/op",
            "class-queued invocations",
            "ops",
        ),
        ratio_metric(
            "kernel.remote_share",
            ck.remote_invocations_sent,
            ck.remote_invocations_sent + ck.local_invocations,
            "share",
            "client remote invocations",
            "client invocations",
        ),
        ratio_metric(
            "kernel.location.cache_hit_share",
            ck.location_cache_hits,
            ck.remote_invocations_sent,
            "share",
            "client hint-cache hits",
            "client remote invocations",
        ),
        metric(
            "kernel.location.cache_evictions",
            ck.location_cache_evictions as f64,
            "count",
            "client",
        ),
        ratio_metric(
            "kernel.location.forwards_per_op",
            sum(|n| n.kernel.forwards),
            ops,
            "count/op",
            "forwards",
            "ops",
        ),
        metric(
            "kernel.location.broadcasts",
            sum(|n| n.kernel.location_broadcasts) as f64,
            "count",
            "",
        ),
        metric(
            "kernel.mobility.moves",
            moves as f64,
            "count",
            "moves_out, all nodes",
        ),
        metric(
            "kernel.mobility.migrate_us_p50",
            call_p50(&["Node::invoke migrate"]),
            "us",
            "Node::invoke of migrate",
        ),
        ratio_metric(
            "kernel.replica.local_read_share",
            ck.local_invocations,
            t.count("read"),
            "share",
            "client local invocations",
            "read ops",
        ),
        ratio_metric(
            "kernel.lifecycle.checkpoints_per_op",
            sum(|n| n.kernel.checkpoints),
            ops,
            "count/op",
            "checkpoints",
            "ops",
        ),
        ratio_metric(
            "directory.registrations_per_move",
            sum(|n| n.kernel.directory_registrations),
            moves,
            "count/move",
            "registrations",
            "moves",
        ),
        metric(
            "directory.queries",
            sum(|n| n.kernel.directory_queries) as f64,
            "count",
            "",
        ),
        metric(
            "directory.hits",
            sum(|n| n.kernel.directory_hits) as f64,
            "count",
            "",
        ),
        metric(
            "store.write_us_p50",
            hist_us(&hist(&all, "store.write"), 50.0),
            "us",
            "store.write, all nodes",
        ),
        metric(
            "store.fsync_us_p50",
            hist_us(&fsync, 50.0),
            "us",
            format!("{} fsyncs", fsync.count),
        ),
        metric(
            "store.fsync_us_p99",
            hist_us(&fsync, 99.0),
            "us",
            format!("{} fsyncs", fsync.count),
        ),
        ratio_metric(
            "store.fsyncs_per_txn",
            fsync.count,
            txns,
            "count/txn",
            "fsyncs",
            "transactions",
        ),
        ratio_metric(
            "store.bytes_per_user_byte",
            sum(|n| n.log_bytes),
            t.count("bytes committed"),
            "B/B",
            "log bytes",
            "payload bytes committed",
        ),
        metric(
            "efs.begin_us_p50",
            call_p50(&["Transaction::begin"]),
            "us",
            "",
        ),
        metric(
            "efs.read_us_p50",
            call_p50(&["Transaction::read", "Transaction::read_for_update"]),
            "us",
            "read and read_for_update",
        ),
        metric(
            "efs.write_us_p50",
            call_p50(&["Transaction::write"]),
            "us",
            "",
        ),
        metric(
            "efs.commit_us_p50",
            call_p50(&["Transaction::commit"]),
            "us",
            "",
        ),
        ratio_metric(
            "efs.remote_invocations_per_txn",
            if txns > 0 {
                sum(|n| n.kernel.remote_invocations_sent)
            } else {
                0
            },
            txns,
            "count/txn",
            "remote invocations",
            "transactions",
        ),
        ratio_metric(
            "efs.abort_share",
            t.counts.aborted,
            txns,
            "share",
            "aborts",
            "transactions",
        ),
    ];
    if matches!(r.config.workload, Workload::Rpc) {
        // Only `rpc` calls `PipelinedClient::call` in a timed phase.
        m.insert(
            3,
            metric(
                "transport.call_us_p50",
                call_p50(&["PipelinedClient::call"]),
                "us",
                "time inside PipelinedClient::call",
            ),
        );
    }
    if let Some(tr) = &r.traced {
        let untraced = p.throughput();
        let traced = tr.phase.throughput();
        m.push(metric(
            "obs.trace_overhead_share",
            1.0 - stats::ratio(traced, untraced),
            "share",
            format!("traced {traced:.1} ops/s vs untraced {untraced:.1} ops/s"),
        ));
        for stage in STAGE_ORDER {
            m.push(metric(
                format!("critpath.{stage}_share"),
                tr.stages.shares.get(stage).copied().unwrap_or(0.0),
                "share",
                "",
            ));
        }
        m.push(metric(
            "critpath.coverage",
            tr.stages.coverage,
            "share",
            format!("{} traces stitched", tr.stages.traces),
        ));
        m.push(metric(
            "critpath.traces",
            tr.stages.traces as f64,
            "count",
            "",
        ));
    }
    m
}

/// The environment record printed ahead of the results.
pub fn environment(workload: Workload, seed: u64, seconds: f64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut s = String::new();
    let _ = writeln!(
        s,
        "eden serving benchmark: workload {} seed {seed}",
        workload.name()
    );
    let _ = writeln!(
        s,
        "  nproc {nproc}; build profile {profile}; timed phase {seconds} s"
    );
    let _ = writeln!(
        s,
        "  cluster: {NODES} kernels in one process; traffic crosses the host's loopback TCP, not a real link"
    );
    if workload.durable() {
        let _ = writeln!(
            s,
            "  stores: DiskStore with fsync on every checkpoint; fsync is the host filesystem's, not a dedicated device's"
        );
    } else {
        let _ = writeln!(s, "  stores: in memory");
    }
    let _ = writeln!(
        s,
        "  NodeConfig differs from default in: trace_sampling = {:?}{}",
        node_config().trace_sampling,
        if trace {
            " (Always in the traced phase)"
        } else {
            ""
        }
    );
    let _ = writeln!(
        s,
        "  generator: {THREADS} threads x {} outstanding call(s), closed loop, through node {CLIENT}",
        workload.outstanding()
    );
    s
}

/// Aligned `name value unit  note` lines.
pub fn table(metrics: &[Metric]) -> String {
    let mut s = String::new();
    for m in metrics {
        let _ = writeln!(
            s,
            "  {:<36} {:>14.4} {:<12} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    s
}

/// The guard lines of a phase.
pub fn guards(p: &Phase) -> String {
    let mut s = String::new();
    for g in &p.guards {
        let _ = writeln!(
            s,
            "  guard {:<28} {} (expected {}) over {} {}: {}",
            g.name,
            g.value,
            g.expect,
            g.base,
            g.base_name,
            if g.held { "held" } else { "BROKEN" }
        );
    }
    s
}

/// The final JSON line.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let line = json_line(true, 10, 0, &[metric("setup_s", 1.25, "s", "")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn non_finite_values_are_reported_as_zero() {
        assert_eq!(metric("x", f64::NAN, "s", "").value, 0.0);
        assert_eq!(ratio_metric("x", 3, 0, "share", "a", "b").value, 0.0);
    }
}
