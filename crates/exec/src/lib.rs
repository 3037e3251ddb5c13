//! Work-stealing parallel executor for Quarry's document-at-a-time hot
//! paths: corpus extraction, pairwise similarity scoring, and pipeline
//! `EXTRACT` statements.
//!
//! Design constraints, in priority order:
//!
//! 1. **Bit-identical results.** Every parallel entry point returns
//!    exactly what the sequential code would have returned, element for
//!    element. Parallelism here is an implementation detail of the data
//!    plane, never observable through output order. See
//!    [`pool::ExecPool::map`] and [`pool::ExecPool::sort_by`] for the
//!    determinism arguments.
//! 2. **No unsafe, no dependencies.** Workers run inside
//!    [`std::thread::scope`], so borrowed inputs need no `'static`
//!    gymnastics and no reference counting. Scoped spawn costs a few
//!    microseconds per worker per stage; batching amortises it, and the
//!    pool transparently degrades to an inline loop for small inputs
//!    where spawning would dominate.
//! 3. **Failed items are re-executed.** The paper's physical layer runs
//!    IE/II as "Map-Reduce-like processes", which survive a failed task
//!    by running it again. [`pool::ExecPool::map`] does the same per
//!    item: a closure that panics is re-run, up to four runs, and only
//!    a completed run's output is kept. Closures must therefore be
//!    idempotent. A side-effect counter such as `sim_cache_hits` may
//!    count a retried item twice, but outputs, and the pipeline's
//!    `ExecStats` built from them, may not differ.
//! 4. **Observable.** Every stage records an entry in an
//!    [`report::ExecReport`]: items, batches, throughput, batch-latency
//!    spread, re-executions, and how many batches were stolen rather
//!    than executed by their home worker. Named counters capture cache
//!    behaviour.

#![forbid(unsafe_code)]

pub mod cache;
pub mod diag;
pub mod explain;
pub mod metrics;
pub mod pool;
pub mod report;

pub use cache::MemoCache;
pub use diag::{closest, line_col_of, Diagnostic, LintReport, Severity, SourceMap, Span};
pub use explain::PlanNode;
pub use metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use pool::ExecPool;
pub use report::{ExecReport, OpStats, StageReport};
