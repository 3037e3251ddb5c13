//! The user layer: data-exploitation modes over raw text and derived
//! structure.
//!
//! §3.2's exploitation story: users "start in whatever data-exploitation
//! mode they deem comfortable (e.g., keyword search, structured querying,
//! browsing)", and the system helps them "move seamlessly into the mode
//! that is ultimately appropriate". The modes:
//!
//! - [`index`] — inverted index with BM25 ranking (the keyword mode, and
//!   the baseline E1 compares structured querying against);
//! - [`engine`] — a compositional structured query engine (scan / filter /
//!   project / join / group-aggregate) over the structured store;
//! - [`planner`] — the binding walk that checks a query's names against
//!   the snapshot it runs on, resolves each to a row position, and lowers
//!   the tree to an index-aware physical plan, and the executor that runs
//!   it;
//! - [`translate`] — keyword → structured translation: "guess and show the
//!   user several structured queries", ranked (E8);
//! - [`forms`] — rendering candidate queries as fillable forms, the
//!   recognition-not-generation interface of §3.3;
//! - [`lint`] — the binder's diagnostics (QQ001–QQ003), span-anchored on
//!   the query's rendering; QQ002 refuses a query before it runs.
//!
//! A session that moves between the modes is `quarry_core::Snapshot`:
//! keyword search with suggested forms, structured queries and `EXPLAIN`
//! against one pinned view.

#![forbid(unsafe_code)]

pub mod engine;
pub mod forms;
pub mod index;
pub mod lint;
pub mod planner;
pub mod translate;

pub use engine::{AggFn, Predicate, Query, QueryError, QueryResult};
pub use index::{InvertedIndex, SearchHit};
pub use lint::check_query;
pub use planner::{
    execute_snapshot_with, execute_with, plan, AccessPath, OpTrace, PhysPlan, PlannerConfig,
};
pub use translate::{CandidateQuery, Translator};
