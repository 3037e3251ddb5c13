//! The [`Quarry`] façade: one object exposing the whole Figure-1 system.

use crate::dge::{DgeEvent, DgeLog};
use crate::feedback::{Correction, CorrectionStatus, FeedbackQueue};
use crate::monitor::{MonitorFire, MonitorSet};
use crate::snapshot::{ReadState, Snapshot};
use crate::users::UserDirectory;
use quarry_corpus::{Corpus, CorpusConfig, CorpusError, DocId, Document};
use quarry_debugger::{HealthMonitor, LearnConfig, SemanticDebugger, Suspicion};
use quarry_exec::{ExecPool, ExecReport, LintReport, MetricsRegistry, MetricsSnapshot};
use quarry_extract::Extraction;
use quarry_hi::Crowd;
use quarry_integrate::IntegrateError;
use quarry_lang::exec::{ExecError, TruthOracle};
use quarry_lang::{
    compile, compile_script, optimize, CheckedProgram, CompileError, ExecContext, ExecStats,
    Executor, ExtractorRegistry,
};
use quarry_query::engine::{Query, QueryError};
use quarry_storage::{is_system_table, Database, ScanAccess, SnapshotStore, StorageError, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Quarry configuration. Construct with [`QuarryConfig::builder`] (or
/// `Default` for the stock settings).
#[derive(Debug, Clone, Default)]
pub struct QuarryConfig {
    /// Path for the structured store's WAL; `None` = in-memory.
    pub wal_path: Option<std::path::PathBuf>,
    /// Storage backend for the structured store's WAL and checkpoints;
    /// `None` = the real filesystem. Lets tests interpose a
    /// fault-injecting backend (see `quarry_storage::faultfs`).
    pub storage_backend: Option<std::sync::Arc<dyn quarry_storage::StorageBackend>>,
    /// Worker threads for pipeline execution; `0` = one per CPU.
    /// Results are identical at every thread count.
    pub threads: usize,
}

impl QuarryConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> QuarryConfigBuilder {
        QuarryConfigBuilder { config: QuarryConfig::default() }
    }
}

/// Builder for [`QuarryConfig`].
#[derive(Debug, Clone, Default)]
pub struct QuarryConfigBuilder {
    config: QuarryConfig,
}

impl QuarryConfigBuilder {
    /// Persist the structured store's WAL at `path`.
    pub fn wal_path(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.config.wal_path = Some(path.into());
        self
    }

    /// Route the structured store's file I/O through an explicit storage
    /// backend (fault injection, instrumentation). Only meaningful together
    /// with [`QuarryConfigBuilder::wal_path`].
    pub fn storage_backend(
        mut self,
        backend: std::sync::Arc<dyn quarry_storage::StorageBackend>,
    ) -> Self {
        self.config.storage_backend = Some(backend);
        self
    }

    /// Worker threads for pipeline execution (`0` = one per CPU,
    /// `1` = run inline).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Finish building.
    pub fn build(self) -> QuarryConfig {
        self.config
    }
}

/// Any error the façade can surface. Every subsystem error arrives as a
/// structured variant wrapping the subsystem's own error type, so callers
/// can match on causes instead of parsing strings.
#[derive(Debug)]
pub enum QuarryError {
    /// QDL source failed to parse.
    Parse(quarry_lang::parser::ParseError),
    /// A parsed pipeline failed during planning or execution.
    Pipeline(ExecError),
    /// Storage failure.
    Storage(StorageError),
    /// Structured-query failure.
    Query(QueryError),
    /// Invalid corpus configuration.
    Corpus(CorpusError),
    /// Invalid integration (matcher) configuration.
    Integrate(IntegrateError),
    /// A QDL program failed static analysis before execution — the report
    /// carries the span-anchored diagnostics over the submitted source.
    Lint(LintReport),
}

impl fmt::Display for QuarryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarryError::Parse(e) => write!(f, "pipeline error: {e}"),
            QuarryError::Pipeline(e) => write!(f, "pipeline error: {e}"),
            QuarryError::Storage(e) => write!(f, "storage error: {e}"),
            QuarryError::Query(e) => write!(f, "query error: {e}"),
            QuarryError::Corpus(e) => write!(f, "corpus error: {e}"),
            QuarryError::Integrate(e) => write!(f, "integrate error: {e}"),
            QuarryError::Lint(report) => write!(
                f,
                "program rejected by static analysis ({} error(s)):\n{}",
                report.error_count(),
                report.render()
            ),
        }
    }
}

impl std::error::Error for QuarryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QuarryError::Parse(e) => Some(e),
            QuarryError::Pipeline(e) => Some(e),
            QuarryError::Storage(e) => Some(e),
            QuarryError::Query(e) => Some(e),
            QuarryError::Corpus(e) => Some(e),
            QuarryError::Integrate(e) => Some(e),
            QuarryError::Lint(_) => None,
        }
    }
}

impl From<StorageError> for QuarryError {
    fn from(e: StorageError) -> Self {
        QuarryError::Storage(e)
    }
}

impl From<QueryError> for QuarryError {
    fn from(e: QueryError) -> Self {
        QuarryError::Query(e)
    }
}

impl From<ExecError> for QuarryError {
    fn from(e: ExecError) -> Self {
        QuarryError::Pipeline(e)
    }
}

/// A refused program answers as the façade always has: a syntax error is
/// `Parse`, an unknown extractor and no other error is
/// `Pipeline(UnknownExtractor)`, and any other error diagnostic is `Lint`.
impl From<CompileError> for QuarryError {
    fn from(e: CompileError) -> Self {
        match e {
            CompileError::Parse(e) => QuarryError::Parse(e),
            CompileError::UnknownExtractor { name, .. } => {
                QuarryError::Pipeline(ExecError::UnknownExtractor(name))
            }
            CompileError::Lint(report) => QuarryError::Lint(report),
        }
    }
}

impl From<CorpusError> for QuarryError {
    fn from(e: CorpusError) -> Self {
        QuarryError::Corpus(e)
    }
}

impl From<IntegrateError> for QuarryError {
    fn from(e: IntegrateError) -> Self {
        QuarryError::Integrate(e)
    }
}

/// Versions between full keyframes of the page store (see
/// [`SnapshotStore::new`]).
const KEYFRAME_INTERVAL: usize = 16;
/// Ticks of silence after which the health monitor calls a component
/// unresponsive.
const HEARTBEAT_TIMEOUT: u64 = 10;

/// The end-to-end system: the façade's **write surface**.
///
/// Mutations (`ingest`, `run_pipeline`, `submit_correction`, DDL,
/// checkpoint) live here and take `&mut self` — a single writer. Reads go
/// through [`Quarry::snapshot`]: an immutable [`Snapshot`] pinned to one
/// write-clock LSN, whose query/keyword/explain/stats methods are all
/// `&self` and never block the writer. Multi-threaded hosts wrap the split
/// in [`crate::SharedQuarry`].
pub struct Quarry {
    /// Versioned raw-page store (storage layer).
    pub snapshots: SnapshotStore,
    /// The structured store (storage layer). Shared with read snapshots;
    /// `Arc` keeps `quarry.db.…` call sites working unchanged.
    pub db: Arc<Database>,
    /// Operator library (processing layer).
    pub registry: ExtractorRegistry,
    /// System health (processing layer, Part VI).
    pub health: HealthMonitor,
    /// User accounts (user layer).
    pub users: UserDirectory,
    /// The DGE event log (internally synchronized; clones share it).
    pub dge: DgeLog,
    /// Standing queries (monitoring exploitation mode).
    pub monitors: MonitorSet,
    /// User-contributed corrections awaiting support.
    pub feedback: FeedbackQueue,
    /// Writer-local handle to the working set (also published to
    /// [`ReadState`] for snapshot capture).
    docs: Arc<Vec<Document>>,
    cache: HashMap<(DocId, String), Vec<Extraction>>,
    crowd: Option<Crowd>,
    truth: Option<TruthOracle>,
    pool: ExecPool,
    shared: Arc<ReadState>,
    day: usize,
    tick: u64,
}

impl Quarry {
    /// Bring up a system.
    pub fn new(config: QuarryConfig) -> Result<Quarry, QuarryError> {
        let db = Arc::new(match (&config.wal_path, &config.storage_backend) {
            (Some(p), Some(backend)) => Database::open_with(std::sync::Arc::clone(backend), p)?,
            (Some(p), None) => Database::open(p)?,
            (None, _) => Database::in_memory(),
        });
        let mut health = HealthMonitor::new(HEARTBEAT_TIMEOUT);
        health.register("ingest", [("docs", 0.0, f64::INFINITY)]);
        health.register("pipeline", [("extractions_per_doc", 0.0, 1000.0)]);
        let dge = DgeLog::new();
        let shared = Arc::new(ReadState::new(Arc::clone(&db), dge.clone(), MetricsRegistry::new()));
        Ok(Quarry {
            snapshots: SnapshotStore::new(KEYFRAME_INTERVAL),
            db,
            registry: ExtractorRegistry::standard(),
            health,
            users: UserDirectory::new(),
            dge,
            monitors: MonitorSet::new(),
            feedback: FeedbackQueue::new(2.0),
            docs: Arc::new(Vec::new()),
            cache: HashMap::new(),
            crowd: None,
            truth: None,
            pool: ExecPool::new(config.threads),
            shared,
            day: 0,
            tick: 0,
        })
    }

    /// Capture an immutable read session pinned to the current LSN. O(1)
    /// `Arc` clones; the session's query/keyword/explain/stats methods
    /// are `&self` and run concurrently with the writer. This is the
    /// read half of the façade API — see [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::capture(&self.shared)
    }

    pub(crate) fn read_state(&self) -> Arc<ReadState> {
        Arc::clone(&self.shared)
    }

    /// Instrumentation from the most recent pipeline run: per-stage
    /// throughput and batch latencies, per-extractor timings, and
    /// similarity-cache counters.
    pub fn last_report(&self) -> ExecReport {
        self.shared.last_report.lock().clone()
    }

    /// Checkpoint the structured store: publish an atomic snapshot of
    /// committed state and reset the WAL, bounding recovery time. Waits for
    /// the open transaction, if any, and keeps writers (not readers)
    /// waiting while it runs; a no-op for in-memory databases. See
    /// `docs/durability.md` for the crash-safety argument. Each call is
    /// counted (`facade.checkpoints`, failures also under
    /// `facade.checkpoint_errors`) and timed (`facade.checkpoint_us`) in the
    /// metrics registry.
    pub fn checkpoint(&self) -> Result<(), QuarryError> {
        let start = std::time::Instant::now();
        let result = self.db.checkpoint();
        self.shared.metrics.observe("facade.checkpoint_us", start.elapsed());
        self.shared.metrics.incr("facade.checkpoints", 1);
        if result.is_err() {
            self.shared.metrics.incr("facade.checkpoint_errors", 1);
        }
        Ok(result?)
    }

    /// Generate a synthetic corpus from a validated configuration and
    /// ingest it, returning the number of documents.
    pub fn ingest_generated(&mut self, config: &CorpusConfig) -> Result<usize, QuarryError> {
        config.validate()?;
        let corpus = Corpus::generate(config);
        let n = corpus.docs.len();
        self.ingest(corpus.docs);
        Ok(n)
    }

    /// Wire human-intervention capability (simulated crowd + truth oracle).
    pub fn set_hi(&mut self, crowd: Crowd, truth: TruthOracle) {
        self.crowd = Some(crowd);
        self.truth = Some(truth);
    }

    /// The current working document set.
    pub fn docs(&self) -> &[Document] {
        &self.docs
    }

    /// Ingest one crawl snapshot: pages are versioned in the snapshot
    /// store, the working set replaced, and the keyword index invalidated.
    pub fn ingest(&mut self, docs: Vec<Document>) {
        self.tick += 1;
        self.snapshots.put_snapshot(docs.iter().map(|d| (d.title.as_str(), d.text.as_str())));
        self.dge.record(DgeEvent::Ingest { docs: docs.len(), day: self.day });
        self.health.heartbeat(self.tick, "ingest", [("docs", docs.len() as f64)]);
        self.day += 1;
        self.docs = Arc::new(docs);
        // Publish the new working set under a bumped generation: snapshots
        // captured from here on see the new docs, and the shared keyword
        // index (keyed by generation) rebuilds lazily on next use.
        {
            let mut published = self.shared.docs.lock();
            published.0 += 1;
            published.1 = Arc::clone(&self.docs);
        }
        // Page content changed: cached extractions are stale.
        self.cache.clear();
    }

    /// Run a QDL program over the current working set.
    ///
    /// The program is [compiled](quarry_lang::compile()) first, and a
    /// refused one never reads a document: a syntax error is
    /// [`QuarryError::Parse`], unknown extractors with no other error are
    /// [`ExecError::UnknownExtractor`], and any other error diagnostic is
    /// [`QuarryError::Lint`]. The program is checked against the tables
    /// of a snapshot of [`Quarry::db`], so a `STORE` whose key disagrees
    /// with its existing table is refused (QL008).
    pub fn run_pipeline(&mut self, src: &str) -> Result<ExecStats, QuarryError> {
        self.metered(|q| {
            let start = std::time::Instant::now();
            let compiled = compile("<program>", src, &q.registry, Some(&q.db.snapshot()));
            match &compiled {
                Ok(program) => q.shared.note_check(program.report(), start),
                Err(e) => e.report().into_iter().for_each(|r| q.shared.note_check(r, start)),
            }
            q.execute(&compiled?)
        })
    }

    /// Run every pipeline of a multi-pipeline QDL script, in order, and
    /// return per-pipeline stats. The script is compiled whole first, so
    /// a refused pipeline anywhere runs none of them; a pipeline that
    /// fails while running stops the ones after it.
    pub fn run_script(&mut self, src: &str) -> Result<Vec<(String, ExecStats)>, QuarryError> {
        let start = std::time::Instant::now();
        let compiled = compile_script("<script>", src, &self.registry, Some(&self.db.snapshot()));
        match &compiled {
            Ok(programs) => programs.iter().for_each(|p| self.shared.note_check(p.report(), start)),
            Err(e) => e.report().into_iter().for_each(|r| self.shared.note_check(r, start)),
        }
        compiled?
            .iter()
            .map(|p| Ok((p.name().to_string(), self.metered(|q| q.execute(p))?)))
            .collect()
    }

    /// Count and time one pipeline run under `facade.pipeline_*`.
    fn metered(
        &mut self,
        run: impl FnOnce(&mut Quarry) -> Result<ExecStats, QuarryError>,
    ) -> Result<ExecStats, QuarryError> {
        let start = std::time::Instant::now();
        self.tick += 1;
        let result = run(self);
        self.shared.metrics.observe("facade.pipeline_us", start.elapsed());
        self.shared.metrics.incr("facade.pipeline_runs", 1);
        if result.is_err() {
            self.shared.metrics.incr("facade.pipeline_errors", 1);
        }
        result
    }

    fn execute(&mut self, program: &CheckedProgram) -> Result<ExecStats, QuarryError> {
        let program = optimize(program, &self.registry);
        let mut ctx = ExecContext {
            docs: &self.docs,
            registry: &self.registry,
            db: &self.db,
            crowd: self.crowd.take(),
            truth: self.truth.clone(),
            cache: std::mem::take(&mut self.cache),
            pool: self.pool,
            report: ExecReport::new(),
        };
        let result = Executor::run(&program, &mut ctx);
        self.crowd = ctx.crowd.take();
        self.cache = std::mem::take(&mut ctx.cache);
        *self.shared.last_report.lock() = std::mem::take(&mut ctx.report);
        let stats = result?;
        self.dge.record(DgeEvent::PipelineRun {
            name: program.name().to_string(),
            extractions: stats.extractions,
            entities: stats.entities,
            questions: stats.questions_asked,
        });
        let per_doc = if self.docs.is_empty() {
            0.0
        } else {
            stats.extractions as f64 / self.docs.len() as f64
        };
        self.health.heartbeat(self.tick, "pipeline", [("extractions_per_doc", per_doc)]);
        // The translator cache is keyed by snapshot LSN, so the stored
        // structure this run produced invalidates it automatically.
        // Generation moved the data: standing queries may have new answers.
        self.check_monitors();
        Ok(stats)
    }

    /// Statically check a QDL program against the operator library and
    /// the tables of a snapshot of [`Quarry::db`] without running it: the
    /// check [`Quarry::run_pipeline`] makes. Syntax errors come back as a
    /// QL000 diagnostic in the report rather than an `Err`, so callers can
    /// render every outcome uniformly.
    pub fn check_program(&self, src: &str) -> LintReport {
        let start = std::time::Instant::now();
        let report = quarry_lang::lint::lint_source(
            "<program>",
            src,
            &self.registry,
            Some(&self.db.snapshot()),
        );
        self.shared.note_check(&report, start);
        report
    }

    /// Register a standing query; its changes are reported by
    /// [`Quarry::check_monitors`] and automatically after each pipeline run.
    pub fn register_monitor(&mut self, name: &str, query: Query) {
        self.monitors.register(name, query);
    }

    /// A user proposes a correction to a stored cell (ordinary-user data
    /// generation). Applied once reputation-weighted support suffices.
    pub fn submit_correction(
        &mut self,
        user: &str,
        correction: Correction,
    ) -> Result<CorrectionStatus, QuarryError> {
        let subject = format!("{}.{}", correction.table, correction.column);
        let status = self.feedback.submit(&mut self.users, &self.db, user, correction)?;
        self.dge.record(DgeEvent::Feedback { user: user.to_string(), subject });
        if status == CorrectionStatus::Applied {
            // The data moved: monitors may fire. (The translator cache is
            // LSN-keyed, so the applied write invalidates it by itself.)
            let _ = self.check_monitors();
        }
        Ok(status)
    }

    /// Re-evaluate standing queries; fires are logged as DGE events.
    pub fn check_monitors(&mut self) -> Vec<MonitorFire> {
        let fires = self.monitors.check(&self.db);
        for f in &fires {
            self.dge.record(DgeEvent::MonitorFired {
                monitor: f.name.clone(),
                rows: f.current.rows.len(),
            });
        }
        fires
    }

    /// Declare a secondary index on a stored table's column (idempotent,
    /// WAL-logged). Subsequent structured queries with equality or range
    /// predicates on that column route through the index.
    pub fn create_index(&self, table: &str, column: &str) -> Result<(), QuarryError> {
        self.db.create_index(table, column)?;
        Ok(())
    }

    /// A handle to the façade's shared metrics registry. Clones record
    /// into the same counters and histograms, so other layers (the network
    /// server, background workers) can contribute observations that
    /// [`Quarry::metrics`] will report.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        self.shared.metrics.clone()
    }

    /// One unified observability snapshot: the live metrics registry
    /// (request latency histograms, façade counters, anything other layers
    /// recorded through [`Quarry::metrics_registry`], the static checks'
    /// `check.*` counters) merged with the last pipeline run's
    /// [`ExecReport`] counters and operator timings (`exec.*`) and the
    /// page pool's residency (`pool.*`).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics_snapshot()
    }

    /// Audit a stored table with the semantic debugger: constraints are
    /// learned from the table itself, so only minority-violating cells
    /// (outliers, FD breaks, type intruders) get flagged.
    pub fn audit_table(&mut self, table: &str) -> Result<Vec<Suspicion>, QuarryError> {
        let snap = self.db.snapshot();
        let (schema, rows) = (snap.schema(table)?, snap.scan(table)?);
        let columns: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
        let serialized: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                r.iter().map(|v| if v.is_null() { String::new() } else { v.to_string() }).collect()
            })
            .collect();
        let dbg = SemanticDebugger::learn(&columns, &serialized, &LearnConfig::default());
        let flags = dbg.check(&serialized);
        self.dge.record(DgeEvent::DebuggerFlag { table: table.to_string(), flags: flags.len() });
        Ok(flags)
    }

    /// Browse an entity: render its card — fields, plus rows of *other*
    /// tables that share one of its text values (cheap value-join links,
    /// the "browsing" exploitation mode of §3.2).
    pub fn browse(&self, table: &str, key: &[Value]) -> Result<String, QuarryError> {
        use std::fmt::Write as _;
        let snap = self.db.snapshot();
        let schema = snap.schema(table)?;
        let (found, _) = snap.select(table, ScanAccess::Pk { key }, &mut |_| true, None)?;
        let row = found
            .into_iter()
            .next()
            .ok_or_else(|| StorageError::NotFound(format!("{table} key {key:?}")))?;
        let mut card = String::new();
        let _ = writeln!(
            card,
            "┌ {table}: {}",
            key.iter().map(Value::to_string).collect::<Vec<_>>().join(", ")
        );
        for (c, v) in schema.columns.iter().zip(&row) {
            if !v.is_null() {
                let _ = writeln!(card, "│ {} = {v}", c.name);
            }
        }
        // Value links: other data tables mentioning any of this row's text
        // values (a system table is about the data, not part of it).
        let texts: Vec<&str> = row.iter().filter_map(Value::as_text).collect();
        for other in snap.table_names() {
            if other == table || is_system_table(&other) {
                continue;
            }
            let Ok(other_schema) = snap.schema(&other) else { continue };
            let Ok(rows) = snap.scan(&other) else { continue };
            let mut links = 0usize;
            for orow in &rows {
                if orow.iter().filter_map(Value::as_text).any(|t| texts.contains(&t)) {
                    if links == 0 {
                        let _ = writeln!(card, "├ related in {other}:");
                    }
                    if links < 3 {
                        let key_render: Vec<String> =
                            other_schema.key.iter().map(|&i| orow[i].to_string()).collect();
                        let _ = writeln!(card, "│   {}", key_render.join(", "));
                    }
                    links += 1;
                }
            }
            if links > 3 {
                let _ = writeln!(card, "│   … and {} more", links - 3);
            }
        }
        card.push('└');
        Ok(card)
    }

    /// Advance the health clock and report component statuses.
    pub fn health_check(&mut self) -> Vec<(String, quarry_debugger::HealthStatus)> {
        self.tick += 1;
        ["ingest", "pipeline"]
            .iter()
            .filter_map(|c| self.health.status(self.tick, c).map(|s| (c.to_string(), s)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_corpus::{Corpus, CorpusConfig, NoiseConfig};
    use quarry_lang::provenance::Source;

    fn system_with_corpus() -> (Quarry, Corpus) {
        let corpus = Corpus::generate(&CorpusConfig {
            noise: NoiseConfig::none(),
            ..CorpusConfig::tiny(21)
        });
        let mut q = Quarry::new(QuarryConfig::builder().build()).unwrap();
        q.ingest(corpus.docs.clone());
        (q, corpus)
    }

    const CITY_PIPELINE: &str = r#"
PIPELINE cities FROM corpus
EXTRACT infobox, rules
WHERE attribute IN ("name", "state", "population", "founded")
RESOLVE BY name
STORE INTO cities KEY name
"#;

    #[test]
    fn ingest_then_pipeline_then_query() {
        let (mut q, corpus) = system_with_corpus();
        let stats = q.run_pipeline(CITY_PIPELINE).unwrap();
        assert!(stats.rows_stored >= corpus.truth.cities.len());

        // The paper's exploitation path: keyword → suggested structured query,
        // both through one read session pinned to the post-pipeline LSN.
        let city = &corpus.truth.cities[0];
        let snap = q.snapshot();
        let (hits, candidates) = snap.keyword(&format!("population {}", city.name), 5);
        assert!(!hits.is_empty());
        assert!(!candidates.is_empty());
        let result = snap.query(&candidates[0].query).unwrap();
        assert!(
            result.rows.iter().flatten().any(|v| *v == Value::Int(city.population as i64)),
            "expected population {} in {result:?}",
            city.population
        );

        // DGE log saw generation and exploitation.
        let (gen, exploit) = q.dge.generation_exploitation_split();
        assert!(gen >= 2);
        assert!(exploit >= 2);
    }

    #[test]
    fn snapshot_store_versions_ingests() {
        let (mut q, corpus) = system_with_corpus();
        q.ingest(corpus.docs.clone()); // second identical snapshot
        let stats = q.snapshots.stats();
        assert_eq!(stats.versions, corpus.docs.len() * 2);
        assert!(stats.compression_ratio() > 1.5, "{}", stats.compression_ratio());
    }

    #[test]
    fn audit_flags_planted_outlier() {
        let (mut q, _) = system_with_corpus();
        q.run_pipeline(CITY_PIPELINE).unwrap();
        // Plant an impossible population on one row.
        let rows = q.db.snapshot().scan("cities").unwrap();
        let schema = q.db.schema("cities").unwrap();
        let pi = schema.column_index("population").unwrap();
        let mut victim = rows[0].clone();
        victim[pi] = Value::Int(-5_000_000);
        let key = schema.key_of(&rows[0]);
        let tx = q.db.begin();
        q.db.update(tx, "cities", &key, victim).unwrap();
        q.db.commit(tx).unwrap();

        let flags = q.audit_table("cities").unwrap();
        assert!(
            flags.iter().any(|s| s.attribute == "population"),
            "expected population flag, got {flags:?}"
        );
    }

    #[test]
    fn lineage_traces_rows_to_source_spans() {
        let (mut q, corpus) = system_with_corpus();
        q.run_pipeline(CITY_PIPELINE).unwrap();
        let snap = q.snapshot();
        let rows = snap.db().scan("cities").unwrap();
        assert!(!rows.is_empty());
        // Every non-null cell of every stored row traces to the raw text
        // it was read from.
        for row in &rows {
            let explained = snap.explain("cities", &row[..1]).unwrap();
            assert_eq!(explained.cells.len(), row.iter().filter(|v| !v.is_null()).count());
            for cell in &explained.cells {
                let Some(Source::Extracted { doc, span, raw, .. }) = &cell.source else {
                    panic!("{explained}")
                };
                assert_eq!(&corpus.docs[doc.index()].text[span.start..span.end], raw);
            }
        }
        let text = snap.explain("cities", &rows[0][..1]).unwrap().to_string();
        assert!(text.starts_with("row of cities: "), "{text}");
        assert!(text.contains("via infobox"), "{text}");
    }

    #[test]
    fn health_reflects_activity_and_staleness() {
        let (mut q, _) = system_with_corpus();
        q.run_pipeline(CITY_PIPELINE).unwrap();
        let statuses = q.health_check();
        assert!(statuses.iter().all(|(_, s)| *s == quarry_debugger::HealthStatus::Healthy));
        // Let the clock run past the heartbeat timeout.
        for _ in 0..12 {
            q.health_check();
        }
        let statuses = q.health_check();
        assert!(statuses.iter().any(|(_, s)| *s == quarry_debugger::HealthStatus::Unresponsive));
    }

    #[test]
    fn monitors_fire_when_generation_moves_the_data() {
        let (mut q, corpus) = system_with_corpus();
        q.register_monitor(
            "city-count",
            Query::scan("cities").aggregate(None, quarry_query::engine::AggFn::Count, "name"),
        );
        // First pipeline run fires the monitor (first evaluation).
        q.run_pipeline(CITY_PIPELINE).unwrap();
        let fired =
            q.dge.events().iter().filter(|e| matches!(e, DgeEvent::MonitorFired { .. })).count();
        assert_eq!(fired, 1);
        // Quiet when nothing changes.
        assert!(q.check_monitors().is_empty());
        // Re-ingesting and re-running with the same corpus keeps the same
        // answer → still quiet.
        q.ingest(corpus.docs.clone());
        q.run_pipeline(CITY_PIPELINE).unwrap();
        let fired =
            q.dge.events().iter().filter(|e| matches!(e, DgeEvent::MonitorFired { .. })).count();
        assert_eq!(fired, 1, "unchanged answer must not re-fire");
    }

    #[test]
    fn bad_pipeline_is_a_clean_error() {
        let (mut q, _) = system_with_corpus();
        assert!(matches!(q.run_pipeline("PIPELINE broken FROM"), Err(QuarryError::Parse(_))));
        // Execution failures carry the structured executor error.
        assert!(matches!(
            q.run_pipeline(
                "PIPELINE p FROM corpus EXTRACT nonexistent RESOLVE BY name STORE INTO t KEY name"
            ),
            Err(QuarryError::Pipeline(ExecError::UnknownExtractor(_)))
        ));
    }

    #[test]
    fn statically_broken_program_is_rejected_before_reading_documents() {
        let (mut q, _) = system_with_corpus();
        // The RESOLVE key is filtered out by the WHERE clause (QL005), so
        // the program can never store a keyed row — rejected up front.
        let broken = r#"PIPELINE p FROM corpus
EXTRACT infobox
WHERE attribute IN ("population", "state")
RESOLVE BY name
STORE INTO broken KEY name"#;
        match q.run_pipeline(broken) {
            Err(QuarryError::Lint(report)) => {
                assert!(report.diagnostics.iter().any(|d| d.code == "QL005"), "{report}");
            }
            other => panic!("expected Lint rejection, got {other:?}"),
        }
        // Nothing executed: no extraction cache, no stage report, no table.
        assert!(q.cache.is_empty());
        assert!(q.db.schema("broken").is_err());
    }

    #[test]
    fn check_apis_report_without_running_and_count_stats() {
        let (mut q, _) = system_with_corpus();
        assert_eq!(q.metrics().counter("check.checks"), 0);

        // Syntax errors come back as a QL000 report, not an Err.
        let report = q.check_program("PIPELINE broken FROM");
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.diagnostics[0].code, "QL000");

        // A clean program checks clean and stores nothing.
        let report = q.check_program(CITY_PIPELINE);
        assert_eq!(report.error_count(), 0);
        assert!(q.db.schema("cities").is_err(), "check_program must not execute");

        // Structured-query checking against live schemas.
        q.run_pipeline(CITY_PIPELINE).unwrap();
        let bad = Query::scan("cities")
            .filter(vec![quarry_query::Predicate::Eq("ghost".into(), Value::Null)]);
        let report = q.snapshot().check_query(&bad);
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.diagnostics[0].code, "QQ002");
        // ... and the same query is refused at execution time.
        assert!(matches!(
            q.snapshot().query(&bad),
            Err(QuarryError::Query(QueryError::Invalid(_)))
        ));

        let stats = q.metrics();
        // check_program ×2 + check_query ×1 + run_pipeline's implicit gate.
        assert_eq!(stats.counter("check.checks"), 4);
        assert!(stats.counter("check.errors") >= 2, "{}", stats.render());
    }

    #[test]
    fn multi_pipeline_script_runs_in_order() {
        let (mut q, _) = system_with_corpus();
        let script = r#"
-- city facts first
PIPELINE cities FROM corpus
EXTRACT infobox
WHERE attribute IN ("name", "state", "population")
RESOLVE BY name
STORE INTO cities KEY name

-- then people
PIPELINE people FROM corpus
EXTRACT infobox
WHERE attribute IN ("name", "birth_year", "employer")
RESOLVE BY name
STORE INTO people KEY name
"#;
        let results = q.run_script(script).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].0, "cities");
        assert_eq!(results[1].0, "people");
        assert!(q.db.row_count("cities").unwrap() > 0);
        assert!(q.db.row_count("people").unwrap() > 0);
        // A broken second pipeline stops the script with an error.
        assert!(q.run_script("PIPELINE a FROM corpus EXTRACT infobox RESOLVE BY name STORE INTO t1 KEY name\nPIPELINE b FROM").is_err());
    }

    #[test]
    fn user_corrections_flow_into_the_store() {
        let (mut q, corpus) = system_with_corpus();
        q.run_pipeline(CITY_PIPELINE).unwrap();
        q.users.register("editor", false).unwrap();
        for _ in 0..20 {
            q.users.record_contribution("editor", true).unwrap(); // trusted
        }
        let city = &corpus.truth.cities[0];
        let status = q
            .submit_correction(
                "editor",
                Correction {
                    table: "cities".into(),
                    key: vec![city.name.as_str().into()],
                    column: "population".into(),
                    value: Value::Int(123_456),
                },
            )
            .unwrap();
        assert_eq!(status, CorrectionStatus::Applied);
        let tx = q.db.begin();
        let row = q.db.get(tx, "cities", &[city.name.as_str().into()]).unwrap();
        q.db.commit(tx).unwrap();
        let schema = q.db.schema("cities").unwrap();
        assert_eq!(row[schema.column_index("population").unwrap()], Value::Int(123_456));
        // The DGE log recorded the feedback.
        assert!(q.dge.events().iter().any(|e| matches!(e, DgeEvent::Feedback { .. })));
    }

    #[test]
    fn browse_renders_cards_with_links() {
        let (mut q, corpus) = system_with_corpus();
        q.run_script(
            r#"PIPELINE cities FROM corpus
EXTRACT infobox
WHERE attribute IN ("name", "state", "population")
RESOLVE BY name
STORE INTO cities KEY name
PIPELINE companies FROM corpus
EXTRACT infobox
WHERE attribute IN ("name", "headquarters", "industry")
RESOLVE BY name
STORE INTO companies KEY name"#,
        )
        .unwrap();
        // A city that hosts a company headquarters gets a related-link.
        let hq = &corpus.truth.companies[0].headquarters;
        let card = q.browse("cities", &[hq.as_str().into()]).unwrap();
        assert!(card.contains(&format!("cities: {hq}")));
        assert!(card.contains("population ="));
        assert!(card.contains("related in companies:"), "{card}");
        // Missing entities error cleanly.
        assert!(q.browse("cities", &["Atlantis".into()]).is_err());
    }

    #[test]
    fn missing_table_is_a_storage_error_and_index_ddl_shows_in_explain() {
        let (mut q, _) = system_with_corpus();
        q.run_pipeline(CITY_PIPELINE).unwrap();
        assert!(matches!(
            q.snapshot().query(&Query::scan("ghost")),
            Err(QuarryError::Query(QueryError::Storage(_)))
        ));

        // Index DDL through the façade, visible in explain output.
        q.create_index("cities", "state").unwrap();
        let probe = Query::scan("cities")
            .filter(vec![quarry_query::Predicate::Eq("state".into(), "Wisconsin".into())]);
        let plan_text = q.snapshot().explain_query(&probe).unwrap();
        assert!(plan_text.contains("index eq(state"), "{plan_text}");
    }

    #[test]
    fn snapshot_pins_reads_while_the_writer_proceeds() {
        let (mut q, corpus) = system_with_corpus();
        q.run_pipeline(CITY_PIPELINE).unwrap();
        let count =
            Query::scan("cities").aggregate(None, quarry_query::engine::AggFn::Count, "name");
        let snap = q.snapshot();
        let before = snap.query(&count).unwrap();

        // Writer deletes a row after the capture.
        let schema = q.db.schema("cities").unwrap();
        let rows = q.db.snapshot().scan("cities").unwrap();
        let key = schema.key_of(&rows[0]);
        let tx = q.db.begin();
        q.db.delete(tx, "cities", &key).unwrap();
        q.db.commit(tx).unwrap();

        // The held session is immutable; a fresh one sees the delete.
        assert_eq!(snap.query(&count).unwrap(), before);
        let after = q.snapshot();
        assert!(after.lsn() > snap.lsn());
        let n = |r: &quarry_query::engine::QueryResult| r.scalar().cloned();
        assert_eq!(
            n(&after.query(&count).unwrap()),
            Some(Value::Int(rows.len() as i64 - 1)),
            "fresh snapshot sees the delete"
        );
        // Keyword search stays pinned to the captured docs too.
        let (hits, _) = snap.keyword(&corpus.truth.cities[0].name, 3);
        assert!(!hits.is_empty());
    }

    #[test]
    fn metrics_unify_facade_instrumentation_views() {
        let (mut q, _) = system_with_corpus();
        q.run_pipeline(CITY_PIPELINE).unwrap();
        let query =
            Query::scan("cities").aggregate(None, quarry_query::engine::AggFn::Count, "name");
        let snap = q.snapshot();
        snap.query(&query).unwrap();
        snap.query(&query).unwrap();
        snap.keyword("population", 3);
        assert!(snap.query(&Query::scan("ghost")).is_err());

        let snap = q.metrics();
        // Façade request counters and latency histograms.
        assert_eq!(snap.counter("facade.pipeline_runs"), 1);
        assert_eq!(snap.counter("facade.queries"), 3);
        assert_eq!(snap.counter("facade.query_errors"), 1);
        assert_eq!(snap.counter("facade.keyword_searches"), 1);
        assert_eq!(snap.histogram("facade.query_us").unwrap().count, 3);
        assert_eq!(snap.histogram("facade.pipeline_us").unwrap().count, 1);
        // Unified views: check gate, last ExecReport.
        assert_eq!(snap.counter("check.checks"), 1, "pipeline gate counted");
        assert!(
            snap.counters.keys().any(|k| k.starts_with("exec.op.")),
            "last pipeline report operators present: {:?}",
            snap.counters.keys().collect::<Vec<_>>()
        );
        // Checkpoints are counted and timed like queries.
        q.checkpoint().unwrap();
        let snap = q.metrics();
        assert_eq!(snap.counter("facade.checkpoints"), 1);
        assert_eq!(snap.counter("facade.checkpoint_errors"), 0);
        assert_eq!(snap.histogram("facade.checkpoint_us").unwrap().count, 1);
        // External layers record through a cloned handle.
        q.metrics_registry().incr("server.requests", 2);
        assert_eq!(q.metrics().counter("server.requests"), 2);
    }

    #[test]
    fn reingest_invalidates_extraction_cache() {
        let (mut q, corpus) = system_with_corpus();
        q.run_pipeline(CITY_PIPELINE).unwrap();
        assert!(!q.cache.is_empty());
        q.ingest(corpus.docs.clone());
        assert!(q.cache.is_empty());
    }
}
