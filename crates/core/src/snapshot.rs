//! MVCC read sessions over the façade: [`Snapshot`] and [`SharedQuarry`].
//!
//! - [`Quarry::snapshot`] captures a [`Snapshot`]: an immutable view of
//!   the structured store pinned to one write-clock LSN (see
//!   [`DbSnapshot`]) plus the working document set. Every exploitation
//!   mode — structured query, keyword search, forms, query plans, static
//!   checks, stats — and the explanation of a stored row, read from the
//!   `_provenance` table at the snapshot's LSN, is a `&self` method on it,
//!   and snapshots never block writers or each other.
//! - [`SharedQuarry`] packages the split for multi-threaded hosts: a
//!   single-writer mutex around the [`Quarry`] write surface, the store
//!   itself for writes that need nothing else, and a lock-free snapshot
//!   factory for readers. `quarry-serve` is built on it.
//!
//! What one crawl snapshot derives — its documents, keyword index and
//! extraction cache — is one immutable `WorkingSet`, published whole by
//! [`Quarry::ingest`]: a snapshot holds the one it was captured with, so
//! it reads nothing derived from other documents. The rest of the shared
//! read-path state (the LSN-keyed translator, the metrics registry, the
//! DGE log) lives behind small internal locks. See `docs/concurrency.md`
//! for the full scheme.

use crate::dge::{DgeEvent, DgeLog};
use crate::system::{Quarry, QuarryError};
use parking_lot::Mutex;
use quarry_corpus::Document;
use quarry_exec::{ExecReport, LintReport, MetricsRegistry, MetricsSnapshot};
use quarry_lang::provenance::{self, Explanation};
use quarry_lang::ExtractionCache;
use quarry_query::engine::{execute_snapshot, Query, QueryResult};
use quarry_query::forms::QueryForm;
use quarry_query::{CandidateQuery, InvertedIndex, SearchHit, Translator};
use quarry_storage::{Database, DbSnapshot, Value};
use std::sync::{Arc, OnceLock};

/// Everything derived from one crawl snapshot, valid for exactly that
/// snapshot: its documents, their keyword index (built on the first
/// keyword search) and their extraction cache. [`Quarry::ingest`]
/// publishes a new one whole, and the old one is dropped with the last
/// snapshot or run that holds it.
pub(crate) struct WorkingSet {
    pub(crate) docs: Vec<Document>,
    index: OnceLock<InvertedIndex>,
    pub(crate) cache: Arc<ExtractionCache>,
}

impl WorkingSet {
    pub(crate) fn new(docs: Vec<Document>) -> WorkingSet {
        WorkingSet { docs, index: OnceLock::new(), cache: Arc::default() }
    }
}

/// Read-path state shared between the writer ([`Quarry`]) and every
/// [`Snapshot`]. All interior locks are leaves — nothing is held while
/// calling back into the engine's own locks, and snapshot capture never
/// takes the writer's lock.
pub(crate) struct ReadState {
    pub(crate) db: Arc<Database>,
    /// The published working set; the writer replaces it on ingest, so a
    /// capture is one lock + one `Arc` clone.
    pub(crate) docs: Mutex<Arc<WorkingSet>>,
    /// Keyword→structured translator, lazily built and keyed by the
    /// snapshot LSN it was derived from (any committed write moves the
    /// clock, so a stale vocabulary can never serve a newer snapshot).
    translator: Mutex<Option<(u64, Arc<Translator>)>>,
    pub(crate) dge: DgeLog,
    pub(crate) last_report: Mutex<ExecReport>,
    pub(crate) metrics: MetricsRegistry,
}

impl ReadState {
    pub(crate) fn new(db: Arc<Database>, dge: DgeLog, metrics: MetricsRegistry) -> ReadState {
        ReadState {
            db,
            docs: Mutex::new(Arc::new(WorkingSet::new(Vec::new()))),
            translator: Mutex::new(None),
            dge,
            last_report: Mutex::new(ExecReport::new()),
            metrics,
        }
    }

    /// Count one static check — [`Quarry::check_program`],
    /// [`Snapshot::check_query`], or the compile inside
    /// [`Quarry::run_pipeline`] (one per pipeline of a
    /// [`Quarry::run_script`]) — under `check.*`.
    pub(crate) fn note_check(&self, report: &LintReport, start: std::time::Instant) {
        self.metrics.incr("check.checks", 1);
        self.metrics.incr("check.errors", report.error_count() as u64);
        self.metrics.incr("check.warnings", report.warning_count() as u64);
        self.metrics.incr("check.total_micros", start.elapsed().as_micros() as u64);
    }

    /// [`Quarry::checkpoint`]: the one place a checkpoint is counted and timed.
    pub(crate) fn checkpoint(&self) -> Result<(), QuarryError> {
        let start = std::time::Instant::now();
        let result = self.db.checkpoint();
        self.metrics.observe("facade.checkpoint_us", start.elapsed());
        self.metrics.incr("facade.checkpoints", 1);
        if result.is_err() {
            self.metrics.incr("facade.checkpoint_errors", 1);
        }
        Ok(result?)
    }

    /// The unified observability snapshot behind both [`Quarry::metrics`]
    /// and [`Snapshot::stats`].
    pub(crate) fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let report = self.last_report.lock();
        for (name, n) in &report.counters {
            snap.counters.insert(format!("exec.{name}"), *n);
        }
        for (name, op) in &report.operators {
            snap.counters.insert(format!("exec.op.{name}.invocations"), op.invocations as u64);
            snap.counters.insert(format!("exec.op.{name}.micros"), op.elapsed.as_micros() as u64);
        }
        // Pager buffer-pool residency (present only for paged checkpoint
        // images); surfaced so shard residency is observable remotely.
        if let Some(pool) = self.db.image_pool_stats() {
            snap.counters.insert("pool.hits".into(), pool.hits);
            snap.counters.insert("pool.misses".into(), pool.misses);
            snap.counters.insert("pool.evictions".into(), pool.evictions);
        }
        if let Some(pages) = self.db.image_cached_pages() {
            snap.counters.insert("pool.cached_pages".into(), pages as u64);
        }
        snap
    }
}

/// What [`Snapshot::query_cache_stats`] returns; see there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
}

/// An immutable read session pinned to one LSN of the write clock.
///
/// Captured by [`Quarry::snapshot`] or [`SharedQuarry::snapshot`] in O(1)
/// `Arc` clones (plus a per-table copy only for tables an uncommitted
/// transaction is touching at capture time). Every method takes `&self`;
/// many snapshots read concurrently while the single writer proceeds.
/// All results are bit-identical — rows, ordering, error kinds, keyword
/// scores, explain output — to what the live façade would have returned
/// at the captured LSN.
pub struct Snapshot {
    db: DbSnapshot,
    working: Arc<WorkingSet>,
    shared: Arc<ReadState>,
}

impl Snapshot {
    pub(crate) fn capture(shared: &Arc<ReadState>) -> Snapshot {
        let db = shared.db.snapshot();
        let working = Arc::clone(&shared.docs.lock());
        Snapshot { db, working, shared: Arc::clone(shared) }
    }

    /// The write-clock LSN this session is pinned to: the session sees
    /// every unit committed at capture time and nothing committed later.
    pub fn lsn(&self) -> u64 {
        self.db.lsn()
    }

    /// The pinned structured-store view.
    pub fn db(&self) -> &DbSnapshot {
        &self.db
    }

    /// The pinned working document set.
    pub fn docs(&self) -> &[Document] {
        &self.working.docs
    }

    /// The pinned documents' keyword index, built by the first call on
    /// any snapshot of this working set (counted under
    /// `facade.keyword_index_builds`).
    fn index(&self) -> &InvertedIndex {
        self.working.index.get_or_init(|| {
            self.shared.metrics.incr("facade.keyword_index_builds", 1);
            InvertedIndex::build(self.working.docs.iter())
        })
    }

    fn translator(&self) -> Arc<Translator> {
        let mut slot = self.shared.translator.lock();
        match &*slot {
            Some((lsn, tr)) if *lsn == self.lsn() => Arc::clone(tr),
            _ => {
                let tr = Arc::new(Translator::from_snapshot(&self.db));
                *slot = Some((self.lsn(), Arc::clone(&tr)));
                tr
            }
        }
    }

    /// Run a structured query against the pinned view. An answered query
    /// is one DGE event; a refused one is counted and leaves none.
    pub fn query(&self, q: &Query) -> Result<QueryResult, QuarryError> {
        let start = std::time::Instant::now();
        let result = execute_snapshot(&self.db, q);
        self.shared.metrics.observe("facade.query_us", start.elapsed());
        self.shared.metrics.incr("facade.queries", 1);
        match &result {
            Ok(r) => {
                let event = DgeEvent::StructuredQuery { rendered: q.display(), rows: r.rows.len() };
                self.shared.dge.record(event);
            }
            Err(_) => self.shared.metrics.incr("facade.query_errors", 1),
        }
        Ok(result?)
    }

    /// Keyword search over the pinned documents: hits plus suggested
    /// structured queries. Read-only — the DGE side channel is internally
    /// synchronized, the index is the working set's own and the
    /// translator comes from a shared LSN-keyed slot.
    pub fn keyword(&self, query: &str, k: usize) -> (Vec<SearchHit>, Vec<CandidateQuery>) {
        let start = std::time::Instant::now();
        let hits = self.index().search(query, k);
        let candidates = self.translator().translate(query, k);
        self.shared.dge.record(DgeEvent::KeywordQuery {
            query: query.to_string(),
            hits: hits.len(),
            candidates: candidates.len(),
        });
        self.shared.metrics.observe("facade.keyword_us", start.elapsed());
        self.shared.metrics.incr("facade.keyword_searches", 1);
        (hits, candidates)
    }

    /// Render the suggested queries for a keyword query as forms.
    pub fn suggest_forms(&self, query: &str, k: usize) -> Vec<QueryForm> {
        let (_, candidates) = self.keyword(query, k);
        candidates.iter().map(|c| quarry_query::forms::render(&c.query)).collect()
    }

    /// Explain a structured query against the pinned view: same physical
    /// plan and rendering as the live path at this LSN.
    pub fn explain_query(&self, q: &Query) -> Result<String, QuarryError> {
        Ok(q.explain_snapshot(&self.db)?)
    }

    /// Explain the stored row of `table` keyed `key`: each non-null cell
    /// with the source `_provenance` holds for it at this snapshot's LSN
    /// (see [`provenance::explain`]).
    pub fn explain(&self, table: &str, key: &[Value]) -> Result<Explanation, QuarryError> {
        Ok(provenance::explain(&self.db, table, key)?)
    }

    /// Statically check a structured query against the pinned schemas.
    pub fn check_query(&self, q: &Query) -> LintReport {
        let start = std::time::Instant::now();
        let report = quarry_query::lint::check_query(&self.db, q);
        self.shared.note_check(&report, start);
        report
    }

    /// Always zero: the façade's query-result cache is gone. Kept for its
    /// one caller, `quarry_bench/src/layers.rs:243,255` — the benchmark's
    /// files are frozen for a PR that is not a benchmark PR; it goes with
    /// `core.qcache_hit_ratio` in the next one that is.
    pub fn query_cache_stats(&self) -> QueryCacheStats {
        QueryCacheStats::default()
    }

    /// The unified observability snapshot (same view as
    /// [`Quarry::metrics`]). Live counters, not pinned: stats reflect the
    /// system at call time, which is what a serving Stats endpoint wants.
    pub fn stats(&self) -> MetricsSnapshot {
        self.shared.metrics_snapshot()
    }
}

/// The façade split for multi-threaded hosts: a single writer behind a
/// mutex, unlimited concurrent readers through lock-free snapshots.
///
/// This type is how `quarry-serve` holds the system — reads
/// ([`SharedQuarry::snapshot`]) never acquire the writer lock, so a slow
/// (or parked) write request cannot block them, and vice versa. A store
/// write ([`SharedQuarry::db`], [`SharedQuarry::checkpoint`]) takes no lock
/// here either: it waits at the database's writer gate.
pub struct SharedQuarry {
    writer: Mutex<Quarry>,
    shared: Arc<ReadState>,
}

impl SharedQuarry {
    /// Wrap a system for shared use.
    pub fn new(quarry: Quarry) -> SharedQuarry {
        let shared = quarry.read_state();
        SharedQuarry { writer: Mutex::new(quarry), shared }
    }

    /// Capture a read session at the current LSN. Never blocks on the
    /// writer lock.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::capture(&self.shared)
    }

    /// Run a mutation under the single-writer lock.
    pub fn with_writer<R>(&self, f: impl FnOnce(&mut Quarry) -> R) -> R {
        f(&mut self.writer.lock())
    }

    /// The structured store, without the writer lock.
    pub fn db(&self) -> &Database {
        &self.shared.db
    }

    /// [`Quarry::checkpoint`], without the writer lock.
    pub fn checkpoint(&self) -> Result<(), QuarryError> {
        self.shared.checkpoint()
    }

    /// Unwrap the writer (e.g. at server shutdown).
    pub fn into_inner(self) -> Quarry {
        self.writer.into_inner()
    }
}

impl std::fmt::Debug for SharedQuarry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedQuarry").finish_non_exhaustive()
    }
}
