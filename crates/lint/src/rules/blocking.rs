//! L7 `blocking-discipline`: a virtual-processor worker must not block
//! the processor. Blocking operations (`recv_timeout`, `wait` —
//! including the TCP reader's `sys::wait` readiness wait —,
//! `wait_timeout`, `sleep`, `fsync`, `connect`, `dial`, `join`, `poll`)
//! that are lexically inside a `submit(…)`/`submit_traced(…)` closure or
//! a boxed pool job (`Box::new(move || …)`), or inside a function
//! reachable (same-crate, name-resolved call graph) from one, must be
//! wrapped in the pool's `blocking(…)` spare-injection guard.
//!
//! `crates/core/src/vproc.rs` is out of scope: it *is* the pool — its
//! condvar waits are the scheduler, and `blocking()` itself must block.

use std::collections::{BTreeSet, HashMap, VecDeque};

use crate::model::Workspace;
use crate::{Finding, Rule};

const SCOPE: [&str; 3] = ["core", "transport", "directory"];
const POOL_IMPL: &str = "crates/core/src/vproc.rs";

pub(crate) fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    // Roots: call targets inside submit closures, per crate. A call
    // already under a blocking() guard is exempt — the pool has been
    // told this path may stall.
    let mut roots: BTreeSet<(String, String)> = BTreeSet::new();
    for file in scoped(ws) {
        for f in &file.fns {
            for c in &f.calls {
                if c.in_submit && !c.guarded && !c.in_spawn {
                    roots.insert((file.crate_key.clone(), c.callee.clone()));
                }
            }
        }
    }

    // BFS over unguarded call edges; remember which root reaches each
    // function for the diagnostic.
    let mut fn_index: HashMap<(String, String), Vec<(usize, usize)>> = HashMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if !SCOPE.contains(&file.crate_key.as_str()) {
            continue;
        }
        for (gi, f) in file.fns.iter().enumerate() {
            fn_index
                .entry((file.crate_key.clone(), f.name.clone()))
                .or_default()
                .push((fi, gi));
        }
    }
    let mut reached: HashMap<(String, String), String> = HashMap::new();
    let mut queue: VecDeque<(String, String)> = VecDeque::new();
    for (krate, name) in &roots {
        let key = (krate.clone(), name.clone());
        if fn_index.contains_key(&key) && !reached.contains_key(&key) {
            reached.insert(key.clone(), name.clone());
            queue.push_back(key);
        }
    }
    while let Some(key) = queue.pop_front() {
        let root = reached[&key].clone();
        for &(fi, gi) in &fn_index[&key] {
            let file = &ws.files[fi];
            for c in &file.fns[gi].calls {
                if c.guarded || c.in_spawn {
                    // blocking() has told the pool; spawn closures run on
                    // their own thread, which is allowed to block.
                    continue;
                }
                let next = (key.0.clone(), c.callee.clone());
                if fn_index.contains_key(&next) && !reached.contains_key(&next) {
                    reached.insert(next.clone(), root.clone());
                    queue.push_back(next);
                }
            }
        }
    }

    // Findings: unguarded blocking sites in reachable functions, plus
    // unguarded blocking sites lexically inside submit closures.
    let mut seen: BTreeSet<(String, usize)> = BTreeSet::new();
    for file in scoped(ws) {
        for f in &file.fns {
            let via_root = reached.get(&(file.crate_key.clone(), f.name.clone()));
            for b in &f.blocking {
                if b.guarded || b.in_spawn {
                    continue; // dedicated threads are allowed to block
                }
                let reachable = via_root.is_some() || b.in_submit;
                if !reachable {
                    continue;
                }
                let line = file.model.line_of(b.at);
                if !seen.insert((file.rel_path.clone(), line)) {
                    continue;
                }
                let how = match via_root {
                    Some(root) if !b.in_submit => {
                        format!("in `{}`, reachable from pool entry point `{root}`", f.name)
                    }
                    _ => "inside a pool submit closure".to_string(),
                };
                out.push(Finding {
                    rule: Rule::BlockingDiscipline,
                    file: file.rel_path.clone(),
                    line,
                    message: format!(
                        "blocking `.{}(…)` {how}; it would stall a virtual processor — \
                         wrap the call in VirtualProcessorPool::blocking(…) so the pool \
                         injects a spare worker",
                        b.what
                    ),
                    suppressed: false,
                });
            }
        }
    }
}

fn scoped(ws: &Workspace) -> impl Iterator<Item = &crate::model::FileModel> {
    ws.files
        .iter()
        .filter(|f| SCOPE.contains(&f.crate_key.as_str()) && f.rel_path != POOL_IMPL)
}
