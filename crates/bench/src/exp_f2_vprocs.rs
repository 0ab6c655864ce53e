//! F2 — Figure 2 as a measured system: virtual processors.
//!
//! The default Eden node machine has two GDPs, "field upgradable" to
//! four (§3). A node's virtual processors bound how many invocation
//! processes execute simultaneously, so completing a batch of
//! fixed-service-time invocations should take `batch / vprocs` — the
//! scaling the extra GDPs buy.
//!
//! Two workloads:
//!
//! * **fixed service time** — each invocation occupies its virtual
//!   processor for 40 ms (a simulated instruction budget). This isolates
//!   the kernel's virtual-processor admission from the host machine, so
//!   the expected near-linear scaling holds even on a single-core host.
//! * **CPU-bound** — a real arithmetic loop; its scaling is additionally
//!   capped by the *host's* physical cores (reported alongside), exactly
//!   as Eden's was capped by the number of physical GDPs.

use std::time::{Duration, Instant};

use eden_kernel::NodeConfig;
use eden_wire::Value;

use crate::table::Table;
use crate::types::{bench_cluster_with, HoldType, SpinType};

const TASKS: usize = 16;
const HOLD_MS: u64 = 40;
const SPIN_ITERS: u64 = 60_000_000;

fn batch_seconds(vprocs: usize, cpu_bound: bool) -> f64 {
    let cluster = bench_cluster_with(
        1,
        NodeConfig {
            virtual_processors: vprocs,
            ..Default::default()
        },
    );
    let (type_name, op, arg): (String, &str, Value) = if cpu_bound {
        (SpinType::NAME.to_string(), "spin", Value::U64(SPIN_ITERS))
    } else {
        // Class limit 16 ≥ TASKS: the virtual processors are the only limiter.
        (HoldType::name_for(16), "hold_ms", Value::U64(HOLD_MS))
    };
    let cap = cluster
        .node(0)
        .create_object(&type_name, &[])
        .expect("create workload object");
    let start = Instant::now();
    let handles: Vec<_> = (0..TASKS)
        .map(|_| {
            cluster
                .node(0)
                .invoke_async(cap, op, std::slice::from_ref(&arg))
        })
        .collect();
    for h in handles {
        h.wait(Duration::from_secs(120)).expect("task");
    }
    let secs = start.elapsed().as_secs_f64();
    cluster.shutdown();
    secs
}

/// Batch time for the fixed-service-time workload (used by the
/// Criterion bench too).
pub fn held_batch_seconds(vprocs: usize) -> f64 {
    batch_seconds(vprocs, false)
}

/// Runs F2 and returns the table.
pub fn run() -> Table {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut t = Table::new(
        format!(
            "F2 — batch completion vs virtual processors (16 invocations; host has {cores} core(s))"
        ),
        &[
            "virtual processors",
            "40ms-service batch (s)",
            "speedup",
            "cpu-bound batch (s)",
            "speedup",
        ],
    );
    let held_base = batch_seconds(1, false);
    let spin_base = batch_seconds(1, true);
    t.row(vec![
        "1 (half-default)".into(),
        format!("{held_base:.2}"),
        "1.00×".into(),
        format!("{spin_base:.2}"),
        "1.00×".into(),
    ]);
    for vp in [2usize, 4, 8] {
        let held = batch_seconds(vp, false);
        let spin = batch_seconds(vp, true);
        let label = match vp {
            2 => "2 (default node machine)".to_string(),
            4 => "4 (field-upgraded)".to_string(),
            other => other.to_string(),
        };
        t.row(vec![
            label,
            format!("{held:.2}"),
            format!("{:.2}×", held_base / held),
            format!("{spin:.2}"),
            format!("{:.2}×", spin_base / spin),
        ]);
    }
    t.note("expected shape: service-time batch scales ~linearly with virtual processors (ideal 16×40ms/vprocs)");
    t.note(format!(
        "cpu-bound scaling is additionally capped by the host's {cores} physical core(s), as Eden's was by its GDP count"
    ));
    t
}
