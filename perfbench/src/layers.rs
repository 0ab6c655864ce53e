//! Counters the program already keeps, read through its public
//! snapshots (`Node::metrics`, `transport_stats`, `vproc_stats`,
//! `obs().histograms_snapshot()`, `DiskStore::log_bytes`) and
//! differenced over the timed phase.

use std::collections::BTreeMap;

use eden_kernel::{KernelMetrics, VprocStats};
use eden_obs::HistogramSnapshot;
use eden_transport::TransportStats;

/// One kernel's counters at an instant.
#[derive(Debug, Clone)]
pub struct NodeSnap {
    /// `Node::metrics`.
    pub kernel: KernelMetrics,
    /// `Node::transport_stats`.
    pub transport: TransportStats,
    /// `Node::vproc_stats`.
    pub vproc: VprocStats,
    /// `obs().histograms_snapshot()`.
    pub hist: BTreeMap<String, HistogramSnapshot>,
    /// `DiskStore::log_bytes` (0 for memory stores).
    pub log_bytes: u64,
}

/// Every kernel's counters at an instant, indexed by node id.
#[derive(Debug, Clone)]
pub struct ClusterSnap(pub Vec<NodeSnap>);

/// One kernel's counter growth over an interval.
#[derive(Debug, Clone)]
pub struct NodeDelta {
    /// Kernel counter growth.
    pub kernel: KernelMetrics,
    /// Transport counter growth (`queue_depth` is the closing level).
    pub transport: TransportStats,
    /// Tasks executed.
    pub executed: u64,
    /// Tasks refused at a full queue.
    pub rejected: u64,
    /// Spare workers injected.
    pub spares_spawned: u64,
    /// Histogram samples recorded in the interval.
    pub hist: BTreeMap<String, HistogramSnapshot>,
    /// Disk log growth in bytes.
    pub log_bytes: u64,
}

/// The samples `after` holds beyond `before`. Bucket counts, count and
/// sum subtract exactly; min and max are the closing snapshot's, which
/// bound the interval's own.
pub fn hist_delta(
    after: &HistogramSnapshot,
    before: Option<&HistogramSnapshot>,
) -> HistogramSnapshot {
    let Some(before) = before else {
        return after.clone();
    };
    let buckets = after
        .buckets()
        .iter()
        .zip(before.buckets())
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    HistogramSnapshot::from_parts(
        buckets,
        after.count.saturating_sub(before.count),
        after.sum.saturating_sub(before.sum),
        after.min,
        after.max,
    )
}

impl ClusterSnap {
    /// Growth from `before` to `self`, per node.
    pub fn since(&self, before: &ClusterSnap) -> ClusterDelta {
        ClusterDelta(
            self.0
                .iter()
                .zip(&before.0)
                .map(|(a, b)| NodeDelta {
                    kernel: a.kernel.delta(&b.kernel),
                    transport: a.transport.delta(&b.transport),
                    executed: a.vproc.executed - b.vproc.executed,
                    rejected: a.vproc.rejected - b.vproc.rejected,
                    spares_spawned: a.vproc.spares_spawned - b.vproc.spares_spawned,
                    hist: a
                        .hist
                        .iter()
                        .map(|(k, h)| (k.clone(), hist_delta(h, b.hist.get(k))))
                        .collect(),
                    log_bytes: a.log_bytes - b.log_bytes,
                })
                .collect(),
        )
    }
}

/// Counter growth over the timed phase, indexed by node id.
#[derive(Debug, Clone)]
pub struct ClusterDelta(pub Vec<NodeDelta>);

impl ClusterDelta {
    /// Sum of a per-node count over every node.
    pub fn sum(&self, f: impl Fn(&NodeDelta) -> u64) -> u64 {
        self.0.iter().map(f).sum()
    }

    /// Histogram `name` merged over `nodes`.
    pub fn hist(&self, nodes: &[usize], name: &str) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for &i in nodes {
            if let Some(h) = self.0[i].hist.get(name) {
                merged.merge(h);
            }
        }
        merged
    }
}

/// Percentile `p` of a nanosecond histogram, in microseconds (0 when
/// empty).
pub fn hist_us(h: &HistogramSnapshot, p: f64) -> f64 {
    if h.count == 0 {
        0.0
    } else {
        h.percentile(p) as f64 / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_obs::Histogram;

    #[test]
    fn histogram_delta_keeps_only_new_samples() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(1_000);
        }
        let before = h.snapshot();
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let d = hist_delta(&h.snapshot(), Some(&before));
        assert_eq!(d.count, 10);
        assert!(d.percentile(50.0) > 500_000, "median is a new sample");
    }
}
