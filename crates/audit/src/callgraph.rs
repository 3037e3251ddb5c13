//! Heuristic workspace call graph, rooted at the serving layer.
//!
//! Resolution is *name-based*: a call site `foo(...)` or `x.foo(...)`
//! creates an edge to every workspace function named `foo`, in any crate.
//! That deliberately over-approximates — a `.get(...)` on a `HashMap`
//! also "reaches" every workspace `get` — because for a safety audit the
//! cheap failure mode must be a false *positive* (a finding you then
//! `allow` with a reason or baseline), never a panic site silently
//! considered unreachable. A call through a type path, `Row::new(...)` or
//! `Self::new(...)`, names its type, so it reaches only the functions
//! qualified `Row::new`; only when the workspace has none (a std type, a
//! trait's provided method, a type parameter) does it fall back to every
//! `new`. The under-approximations that remain are
//! dynamic dispatch through non-method paths (function pointers stored in
//! collections) and macros that synthesize calls; both are rare in this
//! workspace and covered by the rule fixtures.
//!
//! Roots are every non-test function in `crates/serve` — the wire surface
//! PR 5's manual panic audit covered by hand. Everything transitively
//! named from there is **serve-reachable** and subject to QA101/QA102.

use crate::index::SourceFile;
use std::collections::{HashMap, HashSet, VecDeque};

/// A function's global identity: (file index, fn index within the file).
pub type FnId = (usize, usize);

/// The workspace-wide graph over every indexed file.
pub struct CallGraph {
    /// Bare name → all functions carrying it.
    by_name: HashMap<String, Vec<FnId>>,
    /// Impl-qualified name (`Row::new`) → all functions carrying it.
    by_qual: HashMap<String, Vec<FnId>>,
    /// Functions reachable from the serve roots (non-test only).
    reachable: HashSet<FnId>,
}

impl CallGraph {
    /// Build the graph and compute serve-reachability over `files`.
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let (mut by_name, mut by_qual) = (HashMap::new(), HashMap::new());
        for (fi, file) in files.iter().enumerate() {
            for (ii, item) in file.fns.iter().enumerate() {
                if !item.is_test {
                    by_name.entry(item.name.clone()).or_insert_with(Vec::new).push((fi, ii));
                    by_qual.entry(item.qual.clone()).or_insert_with(Vec::new).push((fi, ii));
                }
            }
        }
        let mut graph = CallGraph { by_name, by_qual, reachable: HashSet::new() };
        let mut reachable: HashSet<FnId> = HashSet::new();

        let mut queue: VecDeque<FnId> = VecDeque::new();
        for (fi, file) in files.iter().enumerate() {
            if file.crate_name != "serve" {
                continue;
            }
            for (ii, item) in file.fns.iter().enumerate() {
                if !item.is_test && reachable.insert((fi, ii)) {
                    queue.push_back((fi, ii));
                }
            }
        }
        while let Some((fi, ii)) = queue.pop_front() {
            for (callee, _) in &files[fi].fns[ii].calls {
                for &t in graph.named(callee) {
                    if reachable.insert(t) {
                        queue.push_back(t);
                    }
                }
            }
        }
        graph.reachable = reachable;
        graph
    }

    /// True when `id` is transitively callable from the serve roots.
    pub fn is_reachable(&self, id: FnId) -> bool {
        self.reachable.contains(&id)
    }

    /// The non-test functions a callee (as `FnItem::calls` records it) may
    /// be: those qualified `Type::f` when the workspace has any, else every
    /// function named `f`.
    pub fn named(&self, callee: &str) -> &[FnId] {
        let bare = callee.rsplit("::").next().unwrap_or(callee);
        let ids = self.by_qual.get(callee).filter(|_| bare != callee);
        ids.or_else(|| self.by_name.get(bare)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of reachable functions (used by the CLI summary).
    pub fn reachable_count(&self) -> usize {
        self.reachable.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files() -> Vec<SourceFile> {
        vec![
            SourceFile::parse(
                "crates/serve/src/server.rs",
                "fn handle() { execute(); }\nfn execute() { run_query(); }",
            ),
            SourceFile::parse(
                "crates/query/src/engine.rs",
                "pub fn run_query() { deep(); }\npub fn deep() {}\npub fn island() {}",
            ),
            SourceFile::parse("crates/bench/src/lib.rs", "pub fn bench_only() { island(); }"),
        ]
    }

    #[test]
    fn serve_roots_reach_transitively() {
        let files = files();
        let g = CallGraph::build(&files);
        let id = |path: &str, name: &str| -> FnId {
            let fi = files.iter().position(|f| f.path == path).unwrap();
            let ii = files[fi].fns.iter().position(|f| f.name == name).unwrap();
            (fi, ii)
        };
        assert!(g.is_reachable(id("crates/serve/src/server.rs", "handle")));
        assert!(g.is_reachable(id("crates/query/src/engine.rs", "run_query")));
        assert!(g.is_reachable(id("crates/query/src/engine.rs", "deep")));
        // Not named from any serve-reachable body:
        assert!(!g.is_reachable(id("crates/query/src/engine.rs", "island")));
        assert!(!g.is_reachable(id("crates/bench/src/lib.rs", "bench_only")));
    }

    #[test]
    fn test_fns_are_neither_roots_nor_targets() {
        let files = vec![
            SourceFile::parse(
                "crates/serve/src/server.rs",
                "#[cfg(test)]\nmod tests { fn t() { hidden(); } }",
            ),
            SourceFile::parse("crates/query/src/lib.rs", "pub fn hidden() {}"),
        ];
        let g = CallGraph::build(&files);
        assert_eq!(g.reachable_count(), 0);
    }
}
