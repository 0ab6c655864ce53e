//! The traced run's span work: gather the kernels' stage-tagged spans,
//! stitch them per trace with `eden_obs::critical_path`, and export
//! them with the generator's own spans as a Chrome trace.

use std::collections::{BTreeMap, HashMap};

use eden_kernel::Node;
use eden_obs::{critical_path, SpanRecord, STAGE_ORDER};

/// Per-stage shares of the stitched critical paths.
#[derive(Debug, Clone)]
pub struct StageShares {
    /// Stage → share of the summed end-to-end time of the stitched
    /// traces, for every stage in `STAGE_ORDER`.
    pub shares: BTreeMap<&'static str, f64>,
    /// Share of the summed time the named stages account for.
    pub coverage: f64,
    /// Traces stitched.
    pub traces: usize,
}

/// Every kernel's retained spans, and the instant after which all of
/// them are still retained (each node's collector keeps only its most
/// recent spans; a trace that started after every collector's oldest
/// retained span is complete).
pub fn collect(nodes: &[Node]) -> (Vec<SpanRecord>, u64) {
    let mut all = Vec::new();
    let mut complete_after = 0;
    for n in nodes {
        let spans = n.obs().traces().spans();
        if spans.len() >= eden_obs::registry::DEFAULT_TRACE_CAPACITY {
            if let Some(oldest) = spans.first() {
                complete_after = complete_after.max(oldest.end_ns);
            }
        }
        all.extend(spans);
    }
    (all, complete_after)
}

/// Stitches every invocation trace rooted on `client` that started
/// after `complete_after`. A pipelined call's root span closes when the
/// request is issued, so each root's window is widened to the end of
/// its trace's last span.
pub fn stage_shares(spans: &[SpanRecord], complete_after: u64, client: u16) -> StageShares {
    let mut by_trace: HashMap<u64, Vec<SpanRecord>> = HashMap::new();
    for s in spans {
        by_trace.entry(s.trace_id).or_default().push(s.clone());
    }
    let mut stage_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut total_ns, mut accounted_ns, mut traces) = (0u64, 0u64, 0usize);
    for (id, mut trace) in by_trace {
        let last_end = trace.iter().map(|s| s.end_ns).max().unwrap_or(0);
        let Some(root) = trace
            .iter_mut()
            .filter(|s| s.parent_span == 0)
            .min_by_key(|s| s.start_ns)
        else {
            continue;
        };
        if root.node != client || root.start_ns <= complete_after {
            continue;
        }
        root.end_ns = root.end_ns.max(last_end);
        let Some(cp) = critical_path(&trace, id) else {
            continue;
        };
        traces += 1;
        total_ns += cp.total_ns;
        accounted_ns += cp.accounted_ns;
        for (stage, ns) in cp.stages {
            *stage_ns.entry(stage).or_default() += ns;
        }
    }
    let share = |ns: u64| crate::stats::per(ns, total_ns);
    StageShares {
        shares: STAGE_ORDER
            .iter()
            .map(|&s| (s, share(stage_ns.get(s).copied().unwrap_or(0))))
            .collect(),
        coverage: share(accounted_ns),
        traces,
    }
}

/// The Chrome trace of the window in which every layer's spans are
/// complete: all retained kernel spans, plus the generator's spans that
/// start after `complete_after`.
pub fn chrome_trace(
    kernel: &[SpanRecord],
    generator: &[SpanRecord],
    complete_after: u64,
) -> String {
    let mut spans: Vec<SpanRecord> = kernel.to_vec();
    spans.extend(
        generator
            .iter()
            .filter(|s| s.start_ns > complete_after)
            .cloned(),
    );
    spans.sort_by_key(|s| s.start_ns);
    eden_obs::export::chrome_trace_json(&spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        trace_id: u64,
        span_id: u64,
        parent: u64,
        node: u16,
        stage: &'static str,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace_id,
            span_id,
            parent_span: parent,
            node,
            name: "s",
            stage,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn pipelined_roots_are_widened_to_their_trace() {
        // A root that closed at issue (0..1) with an execute span on a
        // server covering 10..90 of a 0..100 exchange.
        let spans = vec![
            span(7, 1, 0, 0, "", 0, 1),
            span(7, 2, 1, 0, "", 0, 100),
            span(7, 3, 2, 1, eden_obs::stage::EXECUTE, 10, 90),
        ];
        let shares = stage_shares(&spans, 0, 0);
        assert_eq!(shares.traces, 0, "root at the cutoff instant is excluded");
        let shares = stage_shares(&spans, u64::MAX, 0);
        assert_eq!(shares.traces, 0);
        let shifted: Vec<SpanRecord> = spans
            .iter()
            .map(|s| SpanRecord {
                start_ns: s.start_ns + 5,
                end_ns: s.end_ns + 5,
                ..s.clone()
            })
            .collect();
        let shares = stage_shares(&shifted, 0, 0);
        assert_eq!(shares.traces, 1);
        assert!((shares.shares["execute"] - 0.8).abs() < 1e-9);
        assert!(shares.coverage >= 0.8);
    }

    #[test]
    fn traces_rooted_elsewhere_are_skipped() {
        let spans = vec![span(9, 1, 0, 2, "", 5, 50)];
        assert_eq!(stage_shares(&spans, 0, 0).traces, 0);
    }
}
