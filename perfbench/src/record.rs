//! What one generator thread saw: per-op outcomes, latencies binned
//! into one-second windows, the time spent inside each public call it
//! made, and — on the traced run — a span around every such call.

use std::collections::BTreeMap;

use eden_obs::{now_ns, SpanRecord};

use crate::hist::LatHist;

/// The Chrome-trace `pid` of the generator's own spans (cluster kernels
/// are 0..3).
pub const GENERATOR_PID: u16 = 1000;
/// High byte of every trace and span id the generator mints, so they
/// never collide with kernel-minted ids (node id in bits 48..64).
const GENERATOR_ID_TAG: u64 = 0xBE << 56;
/// Width of a latency window.
pub const WINDOW_NS: u64 = 1_000_000_000;
/// Problems kept per thread; the counts carry the rest.
const MAX_PROBLEMS: usize = 5;

/// How one op ended.
#[derive(Debug)]
pub enum Outcome {
    /// Completed with the expected result.
    Ok,
    /// The program returned an error.
    Failed(String),
    /// The program returned a result that differs from the expected one.
    Wrong(String),
    /// An EFS concurrency-control abort: neither success nor failure.
    Aborted,
}

/// An op in progress.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    trace_id: u64,
    span_id: u64,
    start_ns: u64,
}

/// Counts shared by a thread's log and the merged totals.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that succeeded with a checked result.
    pub ok: u64,
    /// Ops that returned an error or a wrong result.
    pub failed: u64,
    /// Of `failed`, ops whose result was wrong.
    pub wrong: u64,
    /// Concurrency-control aborts.
    pub aborted: u64,
    /// Per-kind counts (`read`, `touch`, `migrate`, ...).
    pub kinds: BTreeMap<&'static str, u64>,
}

/// One generator thread's record of a phase.
#[derive(Debug)]
pub struct ThreadLog {
    thread: u64,
    seq: u64,
    start_ns: u64,
    /// Outcome counts.
    pub counts: Counts,
    /// Issue-to-checked-result latency of successful ops, one histogram
    /// per [`WINDOW_NS`] window of completion time since the phase start.
    pub windows: Vec<LatHist>,
    /// Per public call, the time spent inside it.
    pub calls: BTreeMap<&'static str, LatHist>,
    /// The first few problems, for the report.
    pub problems: Vec<String>,
    spans: Option<Vec<SpanRecord>>,
}

impl ThreadLog {
    /// An empty log for a phase that started at `start_ns`; with
    /// `spans`, every call also records a span.
    pub fn new(thread: usize, start_ns: u64, spans: bool) -> ThreadLog {
        ThreadLog {
            thread: thread as u64,
            seq: 0,
            start_ns,
            counts: Counts::default(),
            windows: Vec::new(),
            calls: BTreeMap::new(),
            problems: Vec::new(),
            spans: spans.then(Vec::new),
        }
    }

    fn next_id(&mut self) -> u64 {
        self.seq += 1;
        GENERATOR_ID_TAG | (self.thread << 48) | self.seq
    }

    /// Starts timing an op of kind `kind`.
    pub fn begin_op(&mut self, kind: &'static str) -> Op {
        *self.counts.kinds.entry(kind).or_default() += 1;
        self.counts.attempted += 1;
        let trace_id = self.next_id();
        Op {
            trace_id,
            span_id: self.next_id(),
            start_ns: now_ns(),
        }
    }

    /// Times one public call made on behalf of `op`.
    pub fn call<R>(&mut self, op: &Op, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = now_ns();
        let r = f();
        let end_ns = now_ns();
        self.calls
            .entry(name)
            .or_default()
            .record(end_ns.saturating_sub(start_ns));
        if self.spans.is_some() {
            let span_id = self.next_id();
            self.push_span(SpanRecord {
                trace_id: op.trace_id,
                span_id,
                parent_span: op.span_id,
                node: GENERATOR_PID,
                name,
                stage: "",
                start_ns,
                end_ns,
            });
        }
        r
    }

    /// Closes `op` with its outcome; `name` labels the op's root span.
    pub fn end_op(&mut self, op: Op, name: &'static str, outcome: Outcome) {
        let end_ns = now_ns();
        match outcome {
            Outcome::Ok => {
                self.counts.ok += 1;
                let w = (end_ns.saturating_sub(self.start_ns) / WINDOW_NS) as usize;
                if self.windows.len() <= w {
                    self.windows.resize_with(w + 1, LatHist::new);
                }
                self.windows[w].record(end_ns.saturating_sub(op.start_ns));
            }
            Outcome::Failed(why) => {
                self.counts.failed += 1;
                self.note(format!("{name} failed: {why}"));
            }
            Outcome::Wrong(why) => {
                self.counts.failed += 1;
                self.counts.wrong += 1;
                self.note(format!("{name} wrong result: {why}"));
            }
            Outcome::Aborted => self.counts.aborted += 1,
        }
        if self.spans.is_some() {
            self.push_span(SpanRecord {
                trace_id: op.trace_id,
                span_id: op.span_id,
                parent_span: 0,
                node: GENERATOR_PID,
                name,
                stage: "",
                start_ns: op.start_ns,
                end_ns,
            });
        }
    }

    /// Records a problem found outside any op.
    pub fn note(&mut self, problem: String) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(problem);
        }
    }

    /// Adds `n` to the per-kind count `kind`.
    pub fn add(&mut self, kind: &'static str, n: u64) {
        *self.counts.kinds.entry(kind).or_default() += n;
    }

    fn push_span(&mut self, span: SpanRecord) {
        if let Some(spans) = &mut self.spans {
            spans.push(span);
        }
    }

    /// The spans recorded so far (empty unless recording).
    pub fn take_spans(&mut self) -> Vec<SpanRecord> {
        self.spans.as_mut().map(std::mem::take).unwrap_or_default()
    }
}

/// Every thread's log of one phase, merged.
#[derive(Debug, Default)]
pub struct Totals {
    /// Outcome counts.
    pub counts: Counts,
    /// Per-window latency histograms (all threads).
    pub windows: Vec<LatHist>,
    /// Per-call time histograms.
    pub calls: BTreeMap<&'static str, LatHist>,
    /// Problems reported by any thread.
    pub problems: Vec<String>,
}

impl Totals {
    /// Merges thread logs.
    pub fn merge(logs: &[ThreadLog]) -> Totals {
        let mut t = Totals::default();
        for l in logs {
            let c = &mut t.counts;
            c.attempted += l.counts.attempted;
            c.ok += l.counts.ok;
            c.failed += l.counts.failed;
            c.wrong += l.counts.wrong;
            c.aborted += l.counts.aborted;
            for (k, v) in &l.counts.kinds {
                *c.kinds.entry(k).or_default() += v;
            }
            if t.windows.len() < l.windows.len() {
                t.windows.resize_with(l.windows.len(), LatHist::new);
            }
            for (w, h) in t.windows.iter_mut().zip(&l.windows) {
                w.merge(h);
            }
            for (k, h) in &l.calls {
                t.calls.entry(k).or_default().merge(h);
            }
            t.problems.extend(l.problems.iter().cloned());
        }
        t
    }

    /// A per-kind count (0 when absent).
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.kinds.get(kind).copied().unwrap_or(0)
    }

    /// Every successful op's latency.
    pub fn all(&self) -> LatHist {
        let mut h = LatHist::new();
        for w in &self.windows {
            h.merge(w);
        }
        h
    }

    /// The calls named `names`, merged.
    pub fn calls_of(&self, names: &[&str]) -> LatHist {
        let mut h = LatHist::new();
        for n in names {
            if let Some(c) = self.calls.get(n) {
                h.merge(c);
            }
        }
        h
    }
}
