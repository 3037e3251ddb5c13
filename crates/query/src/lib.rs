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
//! - [`translate`] — keyword → structured translation: "guess and show the
//!   user several structured queries", ranked (E8);
//! - [`forms`] — rendering candidate queries as fillable forms, the
//!   recognition-not-generation interface of §3.3;
//! - [`lint`] — static validation of query trees against table schemas
//!   (QQ001–QQ003), run before execution with span-anchored diagnostics;
//! - [`session`] — an exploration session that records mode transitions.

#![forbid(unsafe_code)]

pub mod engine;
pub mod forms;
pub mod index;
pub mod lint;
pub mod planner;
pub mod session;
pub mod translate;

pub use engine::{AggFn, Predicate, Query, QueryError, QueryResult};
pub use index::{InvertedIndex, SearchHit};
pub use lint::check_query;
pub use planner::{
    execute_snapshot_with, execute_with, plan, AccessPath, OpTrace, PhysPlan, PlannerConfig,
};
pub use session::{Mode, Session};
pub use translate::{CandidateQuery, Translator};
