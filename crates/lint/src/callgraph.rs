//! Workspace-wide approximate call graph and cross-function lock analysis.
//!
//! Functions are merged **by name** across the workspace — the item tree
//! has no type information, so `a.evaluate()` resolves to every workspace
//! `fn evaluate`. Two things keep that imprecision useful rather than
//! noisy: ubiquitous std-colliding names ([`COMMON_SKIP`]) never resolve,
//! and unresolved names contribute no edges. Lock identities are
//! crate-qualified (`stats::shards`), so same-named fields in different
//! crates stay distinct.
//!
//! The index answers three questions for rule R6 `lock_discipline`:
//! which locks can a call transitively acquire (fixpoint over the call
//! graph), does any call chain re-acquire a lock already held at the call
//! site, and does the union of intra- and cross-function lock-order edges
//! contain a cycle (lock-order inversion, found per strongly-connected
//! component).

use crate::items::FnFacts;
use std::collections::{BTreeMap, BTreeSet};

/// Method/function names too generic to resolve through the name-merged
/// call graph: std collisions (`len`, `insert`, `clear`, ...) would
/// otherwise attribute every container touch to same-named workspace fns.
pub(crate) const COMMON_SKIP: [&str; 44] = [
    "len",
    "get",
    "get_mut",
    "insert",
    "remove",
    "clear",
    "clone",
    "push",
    "pop",
    "iter",
    "into_iter",
    "next",
    "new",
    "default",
    "fmt",
    "lock",
    "read",
    "write",
    "unwrap",
    "expect",
    "ok",
    "err",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "min",
    "max",
    "sum",
    "abs",
    "to_string",
    "to_owned",
    "as_str",
    "as_ref",
    "collect",
    "extend",
    "contains",
    "entry",
    "retain",
    "drain",
    "take",
    "flush",
    "drop",
];

/// Analysis results for one source file, fed into [`build_index`].
#[derive(Debug, Clone, Default)]
pub(crate) struct FileFacts {
    /// Crate the file belongs to.
    pub(crate) crate_name: String,
    /// Repo-relative path.
    pub(crate) path: String,
    /// Per-function concurrency facts.
    pub(crate) facts: Vec<FnFacts>,
    /// `(fn name, returns Result)` for every fn item in the file.
    pub(crate) fns: Vec<(String, bool)>,
}

/// A lock-order edge: `acquired` taken while `held` was live.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct LockEdge {
    /// Crate-qualified lock already held.
    pub(crate) held: String,
    /// Crate-qualified lock acquired under it.
    pub(crate) acquired: String,
    /// File the acquiring site (or call site) is in.
    pub(crate) path: String,
    /// 0-based line of the site.
    pub(crate) line: usize,
    /// Callee name when the edge crosses a function call.
    pub(crate) via: Option<String>,
}

/// A workspace-level violation found by the cross-function analysis,
/// routed back to a file so per-file suppression applies.
#[derive(Debug, Clone)]
pub(crate) struct GraphFinding {
    /// Repo-relative path of the offending site.
    pub(crate) path: String,
    /// 0-based line.
    pub(crate) line: usize,
    /// Human-readable message.
    pub(crate) message: String,
}

/// The workspace-wide index built from every file's [`FileFacts`].
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkspaceIndex {
    /// Fn names where at least one workspace definition exists and *every*
    /// definition returns `Result` — the targets rule R8 protects.
    pub(crate) result_fns: BTreeSet<String>,
    /// All workspace fn names (resolution domain of the call graph).
    pub(crate) fn_names: BTreeSet<String>,
    /// Every lock-order edge (intra-fn and cross-fn) with attribution.
    pub(crate) lock_edges: Vec<LockEdge>,
    /// Lock-order inversion findings (edges participating in a cycle).
    pub(crate) cycles: Vec<GraphFinding>,
    /// Same-lock re-acquisition through a call chain.
    pub(crate) reacquires: Vec<GraphFinding>,
}

/// Extracts the call-graph inputs from one analyzed file.
pub(crate) fn file_facts_of(
    crate_name: &str,
    path: &str,
    analysis: &crate::items::FileAnalysis,
) -> FileFacts {
    // Unit-test modules inside src files stay out of the index: their
    // helper fns would otherwise pollute `result_fns` unanimity and add
    // phantom lock edges.
    let in_test = |line: usize| analysis.clean.lines.get(line).is_some_and(|l| l.in_test);
    FileFacts {
        crate_name: crate_name.to_owned(),
        path: path.to_owned(),
        facts: analysis
            .facts
            .iter()
            .filter(|f| !in_test(f.line))
            .cloned()
            .collect(),
        fns: analysis
            .fns
            .iter()
            .filter(|s| !in_test(s.line))
            .map(|s| (s.name.clone(), s.returns_result))
            .collect(),
    }
}

/// Builds the workspace index: merges fns by name, runs the transitive
/// lock-set fixpoint, and finds lock-order cycles and cross-call
/// re-acquisitions.
pub(crate) fn build_index(files: &[FileFacts]) -> WorkspaceIndex {
    let mut index = WorkspaceIndex::default();

    // Result-returning fn names: all definitions must agree.
    let mut result_votes: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for file in files {
        for (name, returns_result) in &file.fns {
            index.fn_names.insert(name.clone());
            let (yes, total) = result_votes.entry(name.as_str()).or_insert((0, 0));
            *total += 1;
            if *returns_result {
                *yes += 1;
            }
        }
    }
    for (name, (yes, total)) in &result_votes {
        if yes == total && *yes > 0 && !COMMON_SKIP.contains(name) {
            index.result_fns.insert((*name).to_owned());
        }
    }

    // Direct lock sets and call edges, merged by fn name. Lock names are
    // crate-qualified here so cross-crate analysis keeps them distinct.
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for file in files {
        for facts in &file.facts {
            let d = direct.entry(facts.name.clone()).or_default();
            for (lock, _) in &facts.acquires {
                d.insert(qualify(&file.crate_name, lock));
            }
            let c = calls.entry(facts.name.clone()).or_default();
            for callee in &facts.calls {
                if !COMMON_SKIP.contains(&callee.as_str())
                    && index.fn_names.contains(callee)
                    && callee != &facts.name
                {
                    c.insert(callee.clone());
                }
            }
        }
    }

    // Transitive lock sets: fixpoint over the call graph.
    let mut trans = direct.clone();
    loop {
        let mut changed = false;
        let names: Vec<String> = trans.keys().cloned().collect();
        for name in names {
            let mut add: BTreeSet<String> = BTreeSet::new();
            if let Some(cs) = calls.get(&name) {
                for callee in cs {
                    if let Some(locks) = trans.get(callee) {
                        add.extend(locks.iter().cloned());
                    }
                }
            }
            let set = trans.entry(name).or_default();
            let before = set.len();
            set.extend(add);
            changed |= set.len() != before;
        }
        if !changed {
            break;
        }
    }

    // Edges: intra-fn order edges, plus cross-fn edges for every call made
    // under a live guard whose callee transitively acquires locks.
    for file in files {
        for facts in &file.facts {
            for (held, acquired, line) in &facts.order_edges {
                index.lock_edges.push(LockEdge {
                    held: qualify(&file.crate_name, held),
                    acquired: qualify(&file.crate_name, acquired),
                    path: file.path.clone(),
                    line: *line,
                    via: None,
                });
            }
            for (callee, held, line) in &facts.calls_under {
                if COMMON_SKIP.contains(&callee.as_str()) || !index.fn_names.contains(callee) {
                    continue;
                }
                let held_q = qualify(&file.crate_name, held);
                let Some(callee_locks) = trans.get(callee) else {
                    continue;
                };
                for acq in callee_locks {
                    if *acq == held_q {
                        index.reacquires.push(GraphFinding {
                            path: file.path.clone(),
                            line: *line,
                            message: format!(
                                "call to `{callee}` can re-acquire lock `{held_q}` already held here"
                            ),
                        });
                    } else {
                        index.lock_edges.push(LockEdge {
                            held: held_q.clone(),
                            acquired: acq.clone(),
                            path: file.path.clone(),
                            line: *line,
                            via: Some(callee.clone()),
                        });
                    }
                }
            }
        }
    }
    index.lock_edges.sort();
    index.lock_edges.dedup();

    find_cycles(&mut index);
    index
}

/// Crate-qualifies a lock name.
fn qualify(crate_name: &str, lock: &str) -> String {
    format!("{crate_name}::{lock}")
}

/// Finds strongly-connected components of the lock-order graph and emits
/// one finding per edge inside a multi-node SCC (self-loops were already
/// reported as re-acquisitions).
fn find_cycles(index: &mut WorkspaceIndex) {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for e in &index.lock_edges {
        adj.entry(&e.held).or_default().insert(&e.acquired);
        nodes.insert(&e.held);
        nodes.insert(&e.acquired);
    }
    // Kosaraju: order by DFS finish time on the graph, then collect SCCs on
    // the transpose. Both DFS passes are iterative (no recursion).
    let mut order: Vec<&str> = Vec::new();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for &start in &nodes {
        if seen.contains(start) {
            continue;
        }
        // (node, child-iteration index) stack.
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        seen.insert(start);
        while let Some((node, idx)) = stack.pop() {
            let children: Vec<&str> = adj
                .get(node)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            if idx < children.len() {
                stack.push((node, idx + 1));
                let child = children[idx];
                if seen.insert(child) {
                    stack.push((child, 0));
                }
            } else {
                order.push(node);
            }
        }
    }
    let mut radj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &index.lock_edges {
        radj.entry(&e.acquired).or_default().insert(&e.held);
    }
    let mut component: BTreeMap<&str, usize> = BTreeMap::new();
    let mut comp_id = 0usize;
    for &start in order.iter().rev() {
        if component.contains_key(start) {
            continue;
        }
        let mut stack = vec![start];
        component.insert(start, comp_id);
        while let Some(node) = stack.pop() {
            for &prev in radj.get(node).into_iter().flatten() {
                if !component.contains_key(prev) {
                    component.insert(prev, comp_id);
                    stack.push(prev);
                }
            }
        }
        comp_id += 1;
    }
    let mut comp_size: BTreeMap<usize, usize> = BTreeMap::new();
    for c in component.values() {
        *comp_size.entry(*c).or_insert(0) += 1;
    }
    let mut findings = Vec::new();
    for e in &index.lock_edges {
        let (Some(a), Some(b)) = (
            component.get(e.held.as_str()),
            component.get(e.acquired.as_str()),
        ) else {
            continue;
        };
        if a == b && comp_size.get(a).copied().unwrap_or(0) > 1 {
            let cycle: Vec<&str> = component
                .iter()
                .filter(|(_, c)| *c == a)
                .map(|(n, _)| *n)
                .collect();
            let via = e
                .via
                .as_deref()
                .map(|v| format!(" via call to `{v}`"))
                .unwrap_or_default();
            findings.push(GraphFinding {
                path: e.path.clone(),
                line: e.line,
                message: format!(
                    "lock-order inversion: `{}` acquired while holding `{}`{via}; cycle over {{{}}}",
                    e.acquired,
                    e.held,
                    cycle.join(", ")
                ),
            });
        }
    }
    index.cycles = findings;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::{concurrency_decls, fn_spans, scan_fn, tokenize};
    use crate::lexer::clean;

    fn file_facts(crate_name: &str, path: &str, src: &str) -> FileFacts {
        let file = clean(src);
        let toks = tokenize(&file);
        let decls = concurrency_decls(&toks);
        let spans = fn_spans(&toks);
        FileFacts {
            crate_name: crate_name.to_owned(),
            path: path.to_owned(),
            facts: spans.iter().map(|s| scan_fn(s, &toks, &decls)).collect(),
            fns: spans
                .iter()
                .map(|s| (s.name.clone(), s.returns_result))
                .collect(),
        }
    }

    #[test]
    fn inverted_lock_order_is_a_cycle() {
        let facts = file_facts(
            "demo",
            "src/demo.rs",
            "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             impl S {\n\
               fn fwd(&self) { let ga = self.a.lock().unwrap(); let gb = self.b.lock().unwrap(); }\n\
               fn rev(&self) { let gb = self.b.lock().unwrap(); let ga = self.a.lock().unwrap(); }\n\
             }\n",
        );
        let index = build_index(&[facts]);
        assert!(!index.cycles.is_empty());
        assert!(index.cycles[0].message.contains("lock-order inversion"));
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let facts = file_facts(
            "demo",
            "src/demo.rs",
            "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             impl S {\n\
               fn one(&self) { let ga = self.a.lock().unwrap(); let gb = self.b.lock().unwrap(); }\n\
               fn two(&self) { let ga = self.a.lock().unwrap(); let gb = self.b.lock().unwrap(); }\n\
             }\n",
        );
        let index = build_index(&[facts]);
        assert!(index.cycles.is_empty());
        assert!(index.reacquires.is_empty());
    }

    #[test]
    fn cross_function_inversion_is_found() {
        let facts = file_facts(
            "demo",
            "src/demo.rs",
            "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
             impl S {\n\
               fn take_b(&self) { let gb = self.b.lock().unwrap(); }\n\
               fn fwd(&self) { let ga = self.a.lock().unwrap(); self.take_b(); }\n\
               fn take_a(&self) { let ga = self.a.lock().unwrap(); }\n\
               fn rev(&self) { let gb = self.b.lock().unwrap(); self.take_a(); }\n\
             }\n",
        );
        let index = build_index(&[facts]);
        assert!(
            index.cycles.iter().any(|c| c.message.contains("via call")),
            "{:?}",
            index.cycles
        );
    }

    #[test]
    fn cross_function_same_lock_reacquire_is_found() {
        let facts = file_facts(
            "demo",
            "src/demo.rs",
            "struct S { a: Mutex<u8> }\n\
             impl S {\n\
               fn inner(&self) { let g = self.a.lock().unwrap(); }\n\
               fn outer(&self) { let g = self.a.lock().unwrap(); self.inner(); }\n\
             }\n",
        );
        let index = build_index(&[facts]);
        assert_eq!(index.reacquires.len(), 1);
        assert!(index.reacquires[0].message.contains("re-acquire"));
        assert_eq!(index.reacquires[0].line, 3);
    }

    #[test]
    fn same_field_name_in_different_crates_stays_distinct() {
        let f1 = file_facts(
            "one",
            "crates/one/src/lib.rs",
            "struct S { q: Mutex<u8>, r: Mutex<u8> }\n\
             impl S { fn fwd(&self) { let a = self.q.lock().unwrap(); let b = self.r.lock().unwrap(); } }\n",
        );
        let f2 = file_facts(
            "two",
            "crates/two/src/lib.rs",
            "struct T { q: Mutex<u8>, r: Mutex<u8> }\n\
             impl T { fn rev(&self) { let b = self.r.lock().unwrap(); let a = self.q.lock().unwrap(); } }\n",
        );
        let index = build_index(&[f1, f2]);
        assert!(index.cycles.is_empty(), "{:?}", index.cycles);
    }

    #[test]
    fn result_fns_require_unanimous_result_returns() {
        let facts = file_facts(
            "demo",
            "src/demo.rs",
            "fn fallible() -> Result<(), E> { Ok(()) }\n\
             fn sometimes() -> Result<(), E> { Ok(()) }\n\
             fn sometimes_not() {}\n\
             mod b { fn sometimes() {} }\n",
        );
        let index = build_index(&[facts]);
        assert!(index.result_fns.contains("fallible"));
        assert!(!index.result_fns.contains("sometimes"), "split vote");
        assert!(!index.result_fns.contains("sometimes_not"));
    }

    #[test]
    fn common_names_do_not_create_edges() {
        // `len` on a Vec under a guard must not resolve to the workspace's
        // lock-acquiring `len`.
        let facts = file_facts(
            "demo",
            "src/demo.rs",
            "struct S { a: Mutex<Vec<u8>>, b: Mutex<u8> }\n\
             impl S {\n\
               fn len(&self) -> usize { let g = self.b.lock().unwrap(); 0 }\n\
               fn f(&self) { let g = self.a.lock().unwrap(); let n = xs.len(); }\n\
             }\n",
        );
        let index = build_index(&[facts]);
        assert!(
            index
                .lock_edges
                .iter()
                .all(|e| e.via.as_deref() != Some("len")),
            "{:?}",
            index.lock_edges
        );
    }
}
