//! Short smoke runs of every workload: each must set up, pass its
//! output checks and mechanism guards, and report every metric.

use std::sync::Mutex;
use std::time::Duration;

use eden_perfbench::workloads::Workload;
use eden_perfbench::{report, run, RunConfig};

/// The runs share the machine's two cores; one cluster at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: Workload, trace: bool) -> eden_perfbench::RunResult {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = RunConfig {
        workload,
        seed: 42,
        measure: Duration::from_millis(500),
        trace,
        out_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke"),
    };
    let r = run(&cfg).expect("run completes");
    assert_eq!(r.failed(), 0);
    for p in r.all_phases() {
        assert!(p.correct(), "{workload:?}: {:?}", p.problems);
        let c = &p.totals.counts;
        assert!(c.ok > 0);
        assert_eq!(c.ok + c.failed + c.aborted, c.attempted);
        assert!(p.guards.iter().all(|g| g.held));
    }
    let _ = std::fs::remove_dir_all(&cfg.out_dir);
    r
}

fn names(metrics: &[report::Metric]) -> Vec<&str> {
    metrics.iter().map(|m| m.name.as_str()).collect()
}

#[test]
fn rpc_smoke() {
    let r = smoke(Workload::Rpc, false);
    let e2e = report::end_to_end(&r);
    assert_eq!(
        names(&e2e),
        [
            "setup_s",
            "throughput_ops_s",
            "latency_p50_us",
            "latency_p90_us",
            "peak_rss_mib"
        ]
    );
    assert!(e2e.iter().all(|m| m.value > 0.0), "{e2e:?}");
}

#[test]
fn objects_smoke() {
    let r = smoke(Workload::Objects, false);
    assert!(r.phases[0].totals.count("migrate") > 0);
    assert!(
        r.phases[0].delta.0[0].kernel.local_invocations > 0,
        "replica reads ran locally"
    );
}

#[test]
fn efs_txn_smoke() {
    let r = smoke(Workload::EfsTxn, false);
    assert!(r.phases[0].totals.count("txn.read-write") > 0);
}

#[test]
fn traced_smoke_reports_stage_shares() {
    let r = smoke(Workload::Rpc, true);
    let layers = report::per_layer(&r);
    let traced = r.traced.as_ref().expect("traced phase ran");
    assert!(traced.stages.traces > 0);
    assert!(traced.chrome.starts_with('{'));
    for name in [
        "obs.trace_overhead_share",
        "critpath.wire_share",
        "critpath.coverage",
        "wire.frames_per_op",
    ] {
        assert!(names(&layers).contains(&name), "missing {name}");
    }
}
