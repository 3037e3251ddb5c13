//! The QDL executor.
//!
//! Runs a [`CheckedProgram`]'s plan over a document set: extraction (with a
//! materialization cache keyed by (doc, operator)), stream filtering,
//! entity resolution (blocking + pairwise matching + union-find), human
//! curation of the matcher's uncertain band, and storage into the
//! structured store, each cell with its source in [`crate::provenance`].
//! Every step reports counters in [`ExecStats`] — the numbers E3/E5 plot.

use crate::ast::Condition;
use crate::compile::CheckedProgram;
use crate::plan::PlanOp;
use crate::provenance::{self, Cell, Source};
use crate::registry::ExtractorRegistry;
use parking_lot::Mutex;
use quarry_corpus::{DocId, Document};
use quarry_exec::{ExecPool, ExecReport};
use quarry_extract::model::{dedup, dedup_order, dedup_sorted};
use quarry_extract::Extraction;
use quarry_hi::{curate, Crowd, CurateConfig, SelectionPolicy, UncertainItem};
use quarry_integrate::blocking;
use quarry_integrate::matcher::{MatchConfig, MatchDecision, Record};
use quarry_integrate::parallel::{score_pairs, SimCache};
use quarry_integrate::UnionFind;
use quarry_storage::{
    is_system_table, Column, DataType, Database, Row, StorageError, TableSchema, TxId, Value,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Executor error.
#[derive(Debug)]
pub enum ExecError {
    /// Plan references an unregistered operator.
    UnknownExtractor(String),
    /// Step sequence invalid (e.g. `STORE` before `RESOLVE`).
    InvalidPlan(String),
    /// Storage failure.
    Storage(StorageError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownExtractor(e) => write!(f, "unknown extractor: {e}"),
            ExecError::InvalidPlan(m) => write!(f, "invalid plan: {m}"),
            ExecError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

/// Ground-truth oracle for simulated curation: do two documents describe
/// the same real-world entity? Supplied by experiment harnesses (the
/// corpus knows); `None` disables curation.
pub type TruthOracle = Arc<dyn Fn(DocId, DocId) -> bool + Send + Sync>;

/// (doc, extractor) → extractions, behind a leaf lock that `EXTRACT` never
/// holds across a pool stage, so runs sharing one cache may overlap.
pub type ExtractionCache = Mutex<HashMap<(DocId, String), Vec<Extraction>>>;

/// Everything a plan needs to run.
pub struct ExecContext<'a> {
    /// The documents (the `FROM corpus` source).
    pub docs: &'a [Document],
    /// The operator library.
    pub registry: &'a ExtractorRegistry,
    /// Target structured store.
    pub db: &'a Database,
    /// Simulated users for `CURATE` and the ground truth driving them;
    /// `None` makes `CURATE` a no-op.
    pub hi: Option<(Crowd, TruthOracle)>,
    /// Materialization cache, shared across plan runs to model the
    /// blueprint's "intermediate structured data kept around for
    /// optimization purposes".
    pub cache: Arc<ExtractionCache>,
    /// Executor pool for the data-parallel stages. Results are identical
    /// at every thread count; `ExecPool::sequential()` runs inline.
    pub pool: ExecPool,
    /// Per-stage instrumentation, appended to on every run.
    pub report: ExecReport,
}

impl<'a> ExecContext<'a> {
    /// Context without HI, running inline on the calling thread.
    pub fn new(docs: &'a [Document], registry: &'a ExtractorRegistry, db: &'a Database) -> Self {
        ExecContext {
            docs,
            registry,
            db,
            hi: None,
            cache: Arc::default(),
            pool: ExecPool::sequential(),
            report: ExecReport::new(),
        }
    }
}

/// Per-run execution statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecStats {
    /// Extractor invocations actually executed.
    pub extractor_runs: usize,
    /// Invocations served from the materialization cache.
    pub cache_hits: usize,
    /// Extractions entering the stream (post-dedup).
    pub extractions: usize,
    /// Extractions removed by filters.
    pub filtered_out: usize,
    /// Per-document records entering resolution.
    pub records: usize,
    /// Candidate pairs scored by the matcher.
    pub pairs_scored: usize,
    /// Pairs in the matcher's uncertain band.
    pub uncertain_pairs: usize,
    /// HI questions asked.
    pub questions_asked: usize,
    /// HI budget units spent.
    pub hi_spent: u32,
    /// Entities after merging.
    pub entities: usize,
    /// Rows written to the store.
    pub rows_stored: usize,
    /// Cells of those rows a user corrected, which `STORE` left as they
    /// were.
    pub cells_kept: usize,
    /// Cost units consumed by extraction (registry cost × runs).
    pub cost_units: f64,
}

/// A per-document record mid-resolution: per attribute, the extraction
/// resolution picked, which is the stored cell's source.
#[derive(Debug, Clone)]
struct DocRecord {
    /// The resolution key's value, rendered.
    key: String,
    /// The extraction `key` came from; its document is the record's.
    key_source: Extraction,
    fields: BTreeMap<String, Extraction>,
}

enum State {
    Stream(Vec<Extraction>),
    Resolved {
        records: Vec<DocRecord>,
        uf: UnionFind,
        pending: Vec<(usize, usize, f64)>,
        key_attr: String,
    },
}

/// The executor.
pub struct Executor;

impl Executor {
    /// Run a checked program to completion; returns statistics. Only
    /// [`crate::compile()`] makes a [`CheckedProgram`], so every program
    /// that gets here has passed static analysis.
    pub fn run(
        program: &CheckedProgram,
        ctx: &mut ExecContext<'_>,
    ) -> Result<ExecStats, ExecError> {
        let mut stats = ExecStats::default();
        let mut state = State::Stream(Vec::new());

        for op in &program.plan.ops {
            match op {
                PlanOp::Extract { extractors } => {
                    let State::Stream(stream) = &mut state else {
                        return Err(ExecError::InvalidPlan("EXTRACT after RESOLVE".into()));
                    };
                    let fresh = extract(
                        ctx.registry,
                        extractors,
                        ctx.docs,
                        &ctx.pool,
                        &ctx.cache,
                        &mut ctx.report,
                        &mut stats,
                    )?;
                    // A second `EXTRACT` joins the stream the first left:
                    // still one witness per identity.
                    *stream = if stream.is_empty() {
                        fresh
                    } else {
                        dedup([std::mem::take(stream), fresh].concat())
                    };
                    stats.extractions = stream.len();
                }
                PlanOp::Filter { conditions } => {
                    let State::Stream(stream) = &mut state else {
                        return Err(ExecError::InvalidPlan("WHERE after RESOLVE".into()));
                    };
                    let before = stream.len();
                    stream.retain(|e| conditions.iter().all(|c| eval_condition(c, e)));
                    stats.filtered_out += before - stream.len();
                }
                PlanOp::Resolve { key } => {
                    let State::Stream(stream) = &mut state else {
                        return Err(ExecError::InvalidPlan("duplicate RESOLVE".into()));
                    };
                    let records = build_doc_records(stream, key);
                    stats.records = records.len();
                    let (uf, pending, scored) =
                        match_records(&records, key, &ctx.pool, &mut ctx.report);
                    stats.pairs_scored = scored;
                    stats.uncertain_pairs = pending.len();
                    state = State::Resolved { records, uf, pending, key_attr: key.clone() };
                }
                PlanOp::Curate { budget, votes } => {
                    let State::Resolved { records, uf, pending, .. } = &mut state else {
                        return Err(ExecError::InvalidPlan("CURATE before RESOLVE".into()));
                    };
                    let Some((crowd, truth)) = ctx.hi.as_mut() else {
                        continue; // no HI capability wired: curation is a no-op
                    };
                    // A question's id is its pair's position, and "no" is
                    // the matcher's standing decision on every band pair.
                    let items: Vec<UncertainItem> = pending
                        .iter()
                        .enumerate()
                        .map(|(id, &(i, j, auto_score))| {
                            let (a, b) = (&records[i], &records[j]);
                            UncertainItem {
                                id,
                                prompt_left: render_record(a),
                                prompt_right: render_record(b),
                                auto_decision: false,
                                auto_score,
                                truth: truth(a.key_source.doc, b.key_source.doc),
                            }
                        })
                        .collect();
                    // Most uncertain first, from the centre of the band
                    // `match_records` scored with.
                    let centre = MatchConfig::default().band_centre();
                    let cfg = CurateConfig {
                        budget: *budget,
                        votes_per_question: *votes as usize,
                        policy: SelectionPolicy::UncertaintyFirst { centre },
                        reputation: None,
                    };
                    let report = curate(&items, crowd, cfg);
                    // Merge in review order: union order decides the
                    // clusters' roots.
                    for &k in &report.reviewed {
                        if let (Some(true), Some(&(i, j, _))) =
                            (report.decisions.get(k), pending.get(k))
                        {
                            uf.union(i, j);
                        }
                    }
                    stats.questions_asked += report.reviewed.len();
                    stats.hi_spent += report.spent;
                    pending.clear();
                }
                PlanOp::Store { table, key } => {
                    let State::Resolved { records, uf, key_attr, .. } = &mut state else {
                        return Err(ExecError::InvalidPlan("STORE before RESOLVE".into()));
                    };
                    let entities = merge_clusters(records, uf);
                    stats.entities = entities.len();
                    (stats.rows_stored, stats.cells_kept) =
                        store_entities(ctx.db, table, key, key_attr, &entities)?;
                }
            }
        }
        Ok(stats)
    }
}

/// Run the named registry operators over `docs` on `pool` through
/// `cache`, and return their extractions with one witness per identity:
/// the driver behind every `EXTRACT`. A caller with no cache to keep
/// passes a fresh one.
///
/// Each operator runs on the documents the cache lacks for it (stage
/// `exec/extract:<name>`); a result the cache already holds wins and
/// counts as a hit. The stream is read back operator by operator, each in
/// document order, then sorted on the pool by [`dedup_order`] (stage
/// `exec/dedup`, stable) and cut by [`dedup_sorted`]: each identity keeps
/// its most confident witness, the earliest on a tie. The output is the
/// same at every thread count.
pub fn extract(
    registry: &ExtractorRegistry,
    names: &[impl AsRef<str>],
    docs: &[Document],
    pool: &ExecPool,
    cache: &ExtractionCache,
    report: &mut ExecReport,
    stats: &mut ExecStats,
) -> Result<Vec<Extraction>, ExecError> {
    let mut stream = Vec::new();
    for name in names.iter().map(AsRef::as_ref) {
        let reg = registry.get(name).ok_or_else(|| ExecError::UnknownExtractor(name.into()))?;
        let uncached: Vec<&Document> = {
            let cache = cache.lock();
            docs.iter().filter(|d| !cache.contains_key(&(d.id, name.to_string()))).collect()
        };
        let fresh = pool.map(
            &format!("exec/extract:{name}"),
            &uncached,
            |_, doc| {
                let t0 = Instant::now();
                let exts = (reg.run)(doc);
                (exts, t0.elapsed())
            },
            report,
        );
        let mut cache = cache.lock();
        let mut runs = 0;
        for (doc, (exts, took)) in uncached.iter().zip(fresh) {
            if let Entry::Vacant(slot) = cache.entry((doc.id, name.to_string())) {
                slot.insert(exts);
                report.record_operator(name, took);
                stats.cost_units += reg.cost;
                runs += 1;
            }
        }
        stats.extractor_runs += runs;
        stats.cache_hits += docs.len() - runs;
        for doc in docs {
            stream.extend(cache.get(&(doc.id, name.to_string())).into_iter().flatten().cloned());
        }
    }
    let sorted = pool.sort_by("exec/dedup", stream, dedup_order, report);
    Ok(dedup_sorted(sorted))
}

fn eval_condition(c: &Condition, e: &Extraction) -> bool {
    match c {
        Condition::AttributeEq(a) => &e.attribute == a,
        Condition::AttributeIn(attrs) => attrs.contains(&e.attribute),
        Condition::ConfidenceGe(t) => e.confidence >= *t,
        Condition::ExtractorEq(name) => e.extractor == name,
    }
}

/// Keep `e` in `fields` if it is the attribute's first or most confident
/// extraction so far (the first one seen wins a tie).
fn pick(fields: &mut BTreeMap<String, Extraction>, e: &Extraction) {
    match fields.get_mut(&e.attribute) {
        Some(best) if e.confidence > best.confidence => *best = e.clone(),
        Some(_) => {}
        None => {
            fields.insert(e.attribute.clone(), e.clone());
        }
    }
}

fn build_doc_records(stream: &[Extraction], key: &str) -> Vec<DocRecord> {
    let mut per_doc: BTreeMap<DocId, BTreeMap<String, Extraction>> = BTreeMap::new();
    for e in stream {
        pick(per_doc.entry(e.doc).or_default(), e);
    }
    per_doc
        .into_values()
        .filter_map(|fields| {
            let key_source = fields.get(key)?.clone();
            Some(DocRecord { key: key_source.value.to_string(), key_source, fields })
        })
        .collect()
}

/// Resolve `records` by `key`: the union-find of confident matches, the
/// uncertain pairs with their scores in pair order, and the number of
/// pairs scored.
fn match_records(
    records: &[DocRecord],
    key: &str,
    pool: &ExecPool,
    report: &mut ExecReport,
) -> (UnionFind, Vec<(usize, usize, f64)>, usize) {
    let cfg = MatchConfig { name_field: key.to_string(), ..MatchConfig::default() };
    // Materialize match records once (the sequential loop rebuilt them per
    // pair; construction is pure, so building each exactly once is
    // observationally identical and strictly less work).
    let match_recs: Vec<Record> = pool.map(
        "exec/build-records",
        records,
        |i, r| {
            let mut fields: BTreeMap<String, Value> =
                r.fields.iter().map(|(k, e)| (k.clone(), e.value.clone())).collect();
            fields.insert(key.to_string(), Value::Text(r.key.clone()));
            Record { id: i, fields }
        },
        report,
    );
    // Blocking: all pairs for small sets; last-token key blocking beyond.
    let pairs: Vec<(usize, usize)> = if records.len() <= 60 {
        blocking::all_pairs(records.len())
    } else {
        blocking::key_blocking(records, |r| {
            r.key
                .rsplit(' ')
                .next()
                .unwrap_or("")
                .trim_matches(|c: char| !c.is_alphanumeric())
                .to_lowercase()
        })
    };
    // Score all candidate pairs on the pool (decisions come back in pair
    // order), then apply union-find merges sequentially in that same
    // order — the part that actually has to be serial.
    let cache = SimCache::default();
    let decisions = score_pairs(&match_recs, &pairs, &cfg, pool, &cache, report);
    let mut uf = UnionFind::new(records.len());
    let mut pending = Vec::new();
    let mut scored = 0usize;
    for ((i, j), d, score) in decisions {
        scored += 1;
        match d {
            MatchDecision::Match => {
                uf.union(i, j);
            }
            MatchDecision::Uncertain => pending.push((i, j, score)),
            MatchDecision::NonMatch => {}
        }
    }
    (uf, pending, scored)
}

fn render_record(r: &DocRecord) -> String {
    let fields: Vec<String> = r.fields.iter().map(|(k, e)| format!("{k}={}", e.value)).collect();
    format!("{} [{}]", r.key, fields.join(", "))
}

/// Merge union-find clusters into canonical entities: per attribute, the
/// highest-confidence extraction wins; the longest key string is the
/// canonical name (abbreviations lose to full forms).
fn merge_clusters(records: &[DocRecord], uf: &mut UnionFind) -> Vec<DocRecord> {
    let mut clusters: BTreeMap<usize, Vec<&DocRecord>> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        clusters.entry(uf.find(i)).or_default().push(r);
    }
    clusters
        .into_values()
        .filter_map(|members| {
            // The first of the longest keys names the entity.
            let named = members.iter().rev().max_by_key(|r| r.key.len())?;
            let mut fields = BTreeMap::new();
            members.iter().flat_map(|r| r.fields.values()).for_each(|e| pick(&mut fields, e));
            Some(DocRecord { key: named.key.clone(), key_source: named.key_source.clone(), fields })
        })
        .collect()
}

fn infer_type(values: &[&Value]) -> DataType {
    let non_null: Vec<&&Value> = values.iter().filter(|v| !v.is_null()).collect();
    if non_null.is_empty() {
        return DataType::Text;
    }
    if non_null.iter().all(|v| matches!(v, Value::Int(_))) {
        DataType::Int
    } else if non_null.iter().all(|v| v.as_f64().is_some()) {
        DataType::Float
    } else {
        DataType::Text
    }
}

/// Upsert the merged entities into `table`, created from the attributes
/// they carry if the database does not hold it yet, and record each
/// non-null cell's source in `_provenance` in the same transaction. An
/// existing table keeps its schema: a `STORE` whose columns or key differ
/// from it, or into a system table, is refused before anything is written.
/// A cell a user corrected keeps its value and source. A row the table's
/// types reject (after the coercions below) is skipped, but a `STORE` that
/// keeps none of its entities is an error; any other failure aborts the
/// transaction. Returns the rows stored and the user cells kept.
fn store_entities(
    db: &Database,
    table: &str,
    key_cols: &[String],
    key_attr: &str,
    entities: &[DocRecord],
) -> Result<(usize, usize), ExecError> {
    if is_system_table(table) {
        return Err(ExecError::InvalidPlan(format!(
            "STORE INTO {table}: names beginning with `_` are reserved for system tables"
        )));
    }
    // Column set: declared keys first, then every other attribute sorted.
    let mut attrs: Vec<String> = entities
        .iter()
        .flat_map(|e| e.fields.keys().cloned())
        .filter(|a| a != key_attr && !key_cols.contains(a))
        .collect();
    attrs.sort();
    attrs.dedup();

    // A keyless STORE is a malformed plan, not a panic: reject it before
    // the first-key lookup below can index out of bounds.
    let Some(first_key) = key_cols.first() else {
        return Err(ExecError::InvalidPlan("STORE requires at least one KEY column".into()));
    };
    // A cell's value, coerced to its column's type, and its source: the
    // key columns hold the entity's name, every other column its attribute
    // of that name.
    let cell = |e: &DocRecord, c: &Column| -> (Value, Option<Source>) {
        let (v, x) = if c.name == key_attr || c.name == *first_key {
            (Value::Text(e.key.clone()), Some(&e.key_source))
        } else {
            let x = e.fields.get(&c.name);
            (x.map_or(Value::Null, |x| x.value.clone()), x)
        };
        let v = match (v, c.dtype) {
            (Value::Int(i), DataType::Float) => Value::Float(i as f64),
            (v, DataType::Text) if !v.is_null() && v.as_text().is_none() => {
                Value::Text(v.to_string())
            }
            (v, _) => v,
        };
        let source = if v.is_null() { None } else { x.map(Source::extracted) };
        (v, source)
    };

    let (schema, exists) = match db.schema(table) {
        Ok(schema) => {
            fits(&schema, key_cols, &attrs)?;
            (schema, true)
        }
        Err(StorageError::NoSuchTable(_)) => {
            let mut columns: Vec<Column> =
                key_cols.iter().map(|k| Column::new(k, DataType::Text)).collect();
            for a in &attrs {
                let sample: Vec<&Value> =
                    entities.iter().filter_map(|e| e.fields.get(a).map(|x| &x.value)).collect();
                columns.push(Column::nullable(a, infer_type(&sample)));
            }
            let key_refs: Vec<&str> = key_cols.iter().map(String::as_str).collect();
            (TableSchema::new(table, columns, &key_refs, &[])?, false)
        }
        Err(e) => return Err(e.into()),
    };

    let rows: Vec<(Row, Vec<Option<Source>>)> = entities
        .iter()
        .map(|e| schema.columns.iter().map(|c| cell(e, c)).unzip())
        // A type-conflicted entity is skipped rather than poison the batch.
        .filter(|(row, _)| schema.validate(row).is_ok())
        .collect();
    if rows.is_empty() && !entities.is_empty() {
        return Err(ExecError::Storage(StorageError::SchemaViolation(format!(
            "STORE INTO {table}: none of {} entities fits the table's column types",
            entities.len()
        ))));
    }
    if !exists {
        db.create_table(schema.clone())?;
    }
    provenance::ensure(db)?;

    let stored = rows.len();
    let kept = db.in_tx(|tx| {
        if !exists {
            provenance::forget_table(db, tx, table)?;
        }
        rows.into_iter().try_fold(0, |kept, (row, sources)| {
            Ok(kept + write_row(db, tx, &schema, row, sources)?)
        })
    })?;
    Ok((stored, kept))
}

/// Upsert `row` into `schema`'s table inside `tx`, each cell with its
/// source in `sources` (`None` for a null cell). A cell whose recorded
/// source is a user's keeps its stored value and source. Returns the
/// number of cells kept.
fn write_row(
    db: &Database,
    tx: TxId,
    schema: &TableSchema,
    mut row: Row,
    sources: Vec<Option<Source>>,
) -> Result<usize, StorageError> {
    let table = schema.name.as_str();
    let key = schema.key_of(&row);
    let key_text = provenance::key_text(&key);
    let stored = match db.get(tx, table, &key) {
        Ok(stored) => Some(stored),
        Err(StorageError::NotFound(_)) => None,
        Err(e) => return Err(e),
    };
    let mut kept = 0;
    let cells = schema.columns.iter().zip(row.iter_mut()).zip(sources).enumerate();
    for (i, ((column, value), source)) in cells {
        let cell = Cell { table, key: &key_text, column: &column.name };
        let recorded = provenance::get(db, tx, cell)?;
        let user_value = stored.as_ref().and_then(|stored| stored.get(i));
        if let (Some(Source::User { .. }), Some(user_value)) = (&recorded, user_value) {
            *value = user_value.clone();
            kept += 1;
        } else {
            provenance::replace(db, tx, cell, recorded.is_some(), source.as_ref())?;
        }
    }
    match stored {
        Some(_) => db.update(tx, table, &key, row)?,
        None => drop(db.insert(tx, table, row)?),
    }
    Ok(kept)
}

/// Refuse a `STORE` into an existing table whose columns or key it does
/// not share, naming what differs.
fn fits(schema: &TableSchema, key_cols: &[String], attrs: &[String]) -> Result<(), ExecError> {
    let has = |name: &str| schema.column_index(name).is_some();
    let writes = |name: &str| key_cols.iter().chain(attrs).any(|c| c == name);
    let missing: Vec<&str> =
        schema.columns.iter().map(|c| c.name.as_str()).filter(|c| !writes(c)).collect();
    let extra: Vec<&str> =
        key_cols.iter().chain(attrs).map(String::as_str).filter(|c| !has(c)).collect();
    let key: Vec<&str> =
        schema.key.iter().filter_map(|&i| schema.columns.get(i)).map(|c| c.name.as_str()).collect();
    let mut wrong = Vec::new();
    if !missing.is_empty() {
        wrong.push(format!("missing column(s) {}", missing.join(", ")));
    }
    if !extra.is_empty() {
        wrong.push(format!("extra column(s) {}", extra.join(", ")));
    }
    if key != key_cols {
        wrong.push(format!("key ({}), the table's is ({})", key_cols.join(", "), key.join(", ")));
    }
    if wrong.is_empty() {
        return Ok(());
    }
    Err(ExecError::Storage(StorageError::SchemaViolation(format!(
        "STORE INTO {} does not fit the existing table: {}",
        schema.name,
        wrong.join("; ")
    ))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileError};
    use crate::plan::optimize;
    use quarry_corpus::{Corpus, CorpusConfig, NoiseConfig};
    use quarry_extract::dictionary::Gazetteer;
    use quarry_hi::oracle::panel;

    fn corpus() -> Corpus {
        Corpus::generate(&CorpusConfig {
            noise: NoiseConfig { name_variant: 1.0, ..NoiseConfig::none() },
            duplicate_rate: 0.5,
            ..CorpusConfig::tiny(13)
        })
    }

    fn checked(src: &str, reg: &ExtractorRegistry) -> Result<CheckedProgram, CompileError> {
        compile("test.qdl", src, reg, None)
    }

    fn run_src(src: &str, corpus: &Corpus, db: &Database) -> ExecStats {
        let reg = ExtractorRegistry::standard();
        let plan = optimize(&checked(src, &reg).unwrap(), &reg);
        let mut ctx = ExecContext::new(&corpus.docs, &reg, db);
        Executor::run(&plan, &mut ctx).unwrap()
    }

    #[test]
    fn end_to_end_city_pipeline_stores_rows() {
        let c = corpus();
        let db = Database::in_memory();
        let stats = run_src(
            r#"PIPELINE cities FROM corpus
EXTRACT infobox, rules
WHERE attribute IN ("name", "state", "population", "founded")
RESOLVE BY name
STORE INTO cities KEY name"#,
            &c,
            &db,
        );
        assert!(stats.rows_stored > 0);
        assert!(stats.extractions > 0);
        let rows = db.snapshot().scan("cities").unwrap();
        assert_eq!(rows.len(), stats.rows_stored);
        // Stored city names include real ground-truth cities.
        let schema = db.schema("cities").unwrap();
        let ni = schema.column_index("name").unwrap();
        let names: Vec<String> = rows.iter().map(|r| r[ni].to_string()).collect();
        assert!(c.truth.cities.iter().any(|cf| names.contains(&cf.name)));
    }

    #[test]
    fn keyless_store_is_a_typed_error_not_a_panic() {
        let db = Database::in_memory();
        match store_entities(&db, "t", &[], "name", &[]) {
            Err(ExecError::InvalidPlan(msg)) => assert!(msg.contains("KEY"), "{msg}"),
            other => panic!("expected InvalidPlan, got {other:?}"),
        }
    }

    fn extraction(attribute: &str, value: Value) -> Extraction {
        let raw = value.to_string();
        let span = quarry_extract::Span::new(0, raw.len());
        let (doc, confidence, extractor) = (DocId(0), 1.0, "test");
        Extraction { doc, attribute: attribute.into(), raw, value, span, confidence, extractor }
    }

    fn entity(key: &str, fields: &[(&str, Value)]) -> DocRecord {
        let fields =
            fields.iter().map(|(a, v)| (a.to_string(), extraction(a, v.clone()))).collect();
        DocRecord { key: key.into(), key_source: extraction("name", key.into()), fields }
    }

    fn names(ks: &[&str]) -> Vec<String> {
        ks.iter().map(|k| k.to_string()).collect()
    }

    /// The sources `_provenance` holds for `table`'s row `key`.
    fn sources(db: &Database, table: &str, key: &str) -> Vec<(String, Source)> {
        let explained = provenance::explain(&db.snapshot(), table, &[key.into()]).unwrap();
        explained.cells.into_iter().filter_map(|c| Some((c.column, c.source?))).collect()
    }

    #[test]
    fn store_records_each_non_null_cell_and_keeps_a_user_cell() {
        let db = Database::in_memory();
        let madison = |pop: i64| {
            entity("Madison", &[("population", Value::Int(pop)), ("state", Value::Null)])
        };
        assert_eq!(
            store_entities(&db, "cities", &names(&["name"]), "name", &[madison(1)]).unwrap(),
            (1, 0)
        );
        let recorded = sources(&db, "cities", "Madison");
        let columns: Vec<&str> = recorded.iter().map(|(c, _)| c.as_str()).collect();
        assert_eq!(columns, ["name", "population"], "one source per non-null cell");
        assert_eq!(recorded[1].1, Source::extracted(&extraction("population", Value::Int(1))));

        // A user corrects the population.
        let user = Source::User { user: "editor".into(), proposal: "p".into() };
        let tx = db.begin();
        let cell = Cell { table: "cities", key: "Madison", column: "population" };
        provenance::set(&db, tx, cell, &user).unwrap();
        db.update(
            tx,
            "cities",
            &["Madison".into()],
            vec!["Madison".into(), Value::Int(7), Value::Null],
        )
        .unwrap();
        db.commit(tx).unwrap();

        // The next STORE keeps the corrected cell and counts it.
        assert_eq!(
            store_entities(&db, "cities", &names(&["name"]), "name", &[madison(2)]).unwrap(),
            (1, 1)
        );
        let row = db.snapshot().scan("cities").unwrap();
        assert_eq!(row, vec![vec!["Madison".into(), Value::Int(7), Value::Null]]);
        assert_eq!(sources(&db, "cities", "Madison")[1].1, user);

        // A table created afresh does not inherit the dropped one's sources.
        db.drop_table("cities").unwrap();
        assert_eq!(
            store_entities(&db, "cities", &names(&["name"]), "name", &[madison(3)]).unwrap(),
            (1, 0)
        );
        let recorded = sources(&db, "cities", "Madison");
        assert_eq!(recorded[1].1, Source::extracted(&extraction("population", Value::Int(3))));
        assert_eq!(db.snapshot().scan("cities").unwrap()[0][1], Value::Int(3));
    }

    #[test]
    fn a_store_into_a_system_table_is_refused() {
        let db = Database::in_memory();
        let madison = [entity("Madison", &[("population", Value::Int(1))])];
        for table in [provenance::TABLE, "_cities"] {
            let err = store_entities(&db, table, &names(&["name"]), "name", &madison);
            assert!(
                matches!(&err, Err(ExecError::InvalidPlan(m)) if m.contains("reserved")),
                "{err:?}"
            );
        }
        assert!(db.table_names().is_empty());
    }

    #[test]
    fn a_store_that_cannot_apply_is_refused_and_writes_nothing() {
        let db = Database::in_memory();
        let keys = |ks: &[&str]| ks.iter().map(|k| k.to_string()).collect::<Vec<_>>();
        let madison = entity("Madison", &[("population", Value::Int(250_000))]);
        assert_eq!(
            store_entities(&db, "cities", &keys(&["name"]), "name", &[madison]).unwrap(),
            (1, 0)
        );
        let lsn = db.snapshot().lsn();

        // Other columns than the table's: refused, naming each difference.
        let wider = entity("Oakton", &[("founded", Value::Int(1900))]);
        let err = store_entities(&db, "cities", &keys(&["name"]), "name", &[wider]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("missing column(s) population"), "{msg}");
        assert!(msg.contains("extra column(s) founded"), "{msg}");
        // Same columns, another key: refused too.
        let rekeyed = entity("Oakton", &[("population", Value::Int(9_500))]);
        let err = store_entities(&db, "cities", &keys(&["population", "name"]), "name", &[rekeyed])
            .unwrap_err();
        assert!(err.to_string().contains("the table's is (name)"), "{err}");

        // Every row fails the table's types: an error, not `Ok(0)`.
        let text = entity("Oakton", &[("population", Value::Text("many".into()))]);
        let err = store_entities(&db, "cities", &keys(&["name"]), "name", &[text]).unwrap_err();
        assert!(err.to_string().contains("none of 1 entities"), "{err}");
        // ...and for a table it would create, the table is not created.
        let no_state = entity("Oakton", &[]);
        assert!(
            store_entities(&db, "towns", &keys(&["name", "state"]), "name", &[no_state]).is_err()
        );
        assert!(db.schema("towns").is_err());

        let snap = db.snapshot();
        assert_eq!(snap.lsn(), lsn);
        assert_eq!(snap.scan("cities").unwrap(), vec![vec!["Madison".into(), Value::Int(250_000)]]);
    }

    #[test]
    fn duplicate_document_ids_do_not_break_the_extract_splice() {
        // Two documents with the same id: both miss the cache and both run
        // on the pool, but the cache keeps the first result and the second
        // occurrence counts as a hit.
        let c = corpus();
        let mut docs = c.docs.clone();
        docs.push(docs[0].clone());
        let db = Database::in_memory();
        let reg = ExtractorRegistry::standard();
        let plan = checked(
            "PIPELINE p FROM corpus EXTRACT infobox RESOLVE BY name STORE INTO t KEY name",
            &reg,
        )
        .unwrap();
        let plan = optimize(&plan, &reg);
        let mut ctx = ExecContext::new(&docs, &reg, &db);
        let stats = Executor::run(&plan, &mut ctx).unwrap();
        assert!(stats.cache_hits >= 1, "duplicate id must be served from cache: {stats:?}");
    }

    #[test]
    fn filters_reduce_the_stream() {
        let c = corpus();
        let db = Database::in_memory();
        let stats = run_src(
            r#"PIPELINE p FROM corpus
EXTRACT infobox
WHERE attribute = "population"
RESOLVE BY population
STORE INTO pops KEY population"#,
            &c,
            &db,
        );
        assert!(stats.filtered_out > 0);
    }

    #[test]
    fn cache_serves_repeated_runs() {
        let c = corpus();
        let db = Database::in_memory();
        let reg = ExtractorRegistry::standard();
        let plan = checked(
            "PIPELINE p FROM corpus EXTRACT infobox RESOLVE BY name STORE INTO t KEY name",
            &reg,
        )
        .unwrap();
        let mut ctx = ExecContext::new(&c.docs, &reg, &db);
        let s1 = Executor::run(&plan, &mut ctx).unwrap();
        assert_eq!(s1.cache_hits, 0);
        assert_eq!(s1.extractor_runs, c.docs.len());
        let s2 = Executor::run(&plan, &mut ctx).unwrap();
        assert_eq!(s2.extractor_runs, 0, "second run fully cached");
        assert_eq!(s2.cache_hits, c.docs.len());
        assert_eq!(s2.cost_units, 0.0);
    }

    #[test]
    fn resolution_merges_person_name_variants() {
        let c = corpus();
        let db = Database::in_memory();
        let stats = run_src(
            r#"PIPELINE people FROM corpus
EXTRACT infobox
WHERE attribute IN ("name", "birth_year", "employer", "residence")
RESOLVE BY name
STORE INTO people KEY name"#,
            &c,
            &db,
        );
        // Duplicate person pages must merge: fewer entities than records.
        assert!(stats.entities < stats.records, "{stats:?}");
    }

    #[test]
    fn curation_improves_merging_with_perfect_oracle() {
        let c = corpus();
        // Entity ground truth by doc: person pages sharing `entity`.
        let person_entity: HashMap<DocId, u32> =
            c.truth.people.iter().map(|p| (p.doc, p.entity)).collect();
        let truth: TruthOracle = {
            let pe = person_entity.clone();
            Arc::new(move |a, b| match (pe.get(&a), pe.get(&b)) {
                (Some(x), Some(y)) => x == y,
                _ => false,
            })
        };
        let reg = ExtractorRegistry::standard();
        let src = r#"PIPELINE people FROM corpus
EXTRACT infobox
WHERE attribute IN ("name", "birth_year", "employer", "residence")
RESOLVE BY name
CURATE BUDGET 500 VOTES 1
STORE INTO people KEY name"#;
        let plan = optimize(&checked(src, &reg).unwrap(), &reg);

        let db = Database::in_memory();
        let mut ctx = ExecContext::new(&c.docs, &reg, &db);
        ctx.hi = Some((Crowd::new(panel(3, &[0.0], 5)), truth));
        let with_hi = Executor::run(&plan, &mut ctx).unwrap();
        assert!(with_hi.questions_asked > 0 || with_hi.uncertain_pairs == 0);
        assert!(with_hi.hi_spent <= 500);
    }

    #[test]
    fn invalid_plans_error() {
        let c = corpus();
        let db = Database::in_memory();
        let reg = ExtractorRegistry::standard();
        let bad =
            checked("PIPELINE p FROM corpus EXTRACT infobox STORE INTO t KEY name", &reg).unwrap();
        let mut ctx = ExecContext::new(&c.docs, &reg, &db);
        assert!(matches!(Executor::run(&bad, &mut ctx), Err(ExecError::InvalidPlan(_))));
        let unknown = checked(
            "PIPELINE p FROM corpus EXTRACT warp_drive RESOLVE BY name STORE INTO t KEY name",
            &reg,
        );
        assert!(matches!(unknown, Err(CompileError::UnknownExtractor { .. })));
    }

    #[test]
    fn statically_broken_plans_are_rejected_before_any_document_is_read() {
        let c = corpus();
        let db = Database::in_memory();
        let reg = ExtractorRegistry::standard();
        // QL005: the resolve key is filtered out — every record would drop.
        let err = checked(
            r#"PIPELINE p FROM corpus
EXTRACT infobox
WHERE attribute IN ("population", "state")
RESOLVE BY name
STORE INTO cities KEY name"#,
            &reg,
        )
        .unwrap_err();
        let CompileError::Lint(report) = &err else { panic!("expected Lint, got {err}") };
        assert!(report.error_count() > 0);
        assert!(report.diagnostics.iter().any(|d| d.code == "QL005"), "{report:#?}");
        // Refusal is pre-execution: there is no program to run, so no
        // extractor ran, nothing was cached, no parallel stage was
        // recorded, nothing was stored.
        let ctx = ExecContext::new(&c.docs, &reg, &db);
        assert!(ctx.cache.lock().is_empty(), "extraction cache must stay untouched");
        assert!(ctx.report.stages.is_empty(), "no execution stage may have run");
        assert!(db.schema("cities").is_err(), "no table may have been created");

        // Unknown extractors are likewise refused upfront, under their own
        // variant.
        let unknown = checked(
            "PIPELINE p FROM corpus EXTRACT infobox, warp_drive RESOLVE BY name STORE INTO t KEY name",
            &reg,
        );
        let Err(CompileError::UnknownExtractor { name, .. }) = &unknown else {
            panic!("expected UnknownExtractor, got {unknown:?}")
        };
        assert_eq!(name, "warp_drive");
        let ctx = ExecContext::new(&c.docs, &reg, &db);
        assert!(
            ctx.cache.lock().is_empty(),
            "infobox must not have run before the unknown-name check"
        );
    }

    #[test]
    fn optimized_plan_does_less_work_same_rows() {
        let c = corpus();
        let reg = ExtractorRegistry::standard();
        let src = r#"PIPELINE p FROM corpus
EXTRACT infobox, rules, rule:monthly-temperature, rule:lead-author
RESOLVE BY name
WHERE attribute IN ("name", "state", "population")
STORE INTO cities KEY name"#;
        let naive = checked(src, &reg).unwrap();
        let opt = optimize(&naive, &reg);

        // The written order (WHERE after RESOLVE) is not what runs: lowering
        // places the filter, so the naive baseline is the compiled program
        // without pruning, which is what "unoptimized" means for E5.
        let db1 = Database::in_memory();
        let mut ctx1 = ExecContext::new(&c.docs, &reg, &db1);
        let s_naive = Executor::run(&naive, &mut ctx1).unwrap();

        let db2 = Database::in_memory();
        let mut ctx2 = ExecContext::new(&c.docs, &reg, &db2);
        let s_opt = Executor::run(&opt, &mut ctx2).unwrap();

        assert!(s_opt.cost_units < s_naive.cost_units, "{s_opt:?} vs {s_naive:?}");
        assert_eq!(
            db1.row_count("cities").unwrap(),
            db2.row_count("cities").unwrap(),
            "optimization must not change the stored result"
        );
    }

    /// `names` from `registry` over `c`, inline, with a fresh cache.
    fn extract_over(registry: &ExtractorRegistry, names: &[&str], c: &Corpus) -> Vec<Extraction> {
        let (pool, cache) = (ExecPool::sequential(), ExtractionCache::default());
        let (mut report, mut stats) = (ExecReport::new(), ExecStats::default());
        extract(registry, names, &c.docs, &pool, &cache, &mut report, &mut stats).unwrap()
    }

    fn scored(noise: NoiseConfig, names: &[&str]) -> quarry_extract::PrF1 {
        let c = Corpus::generate(&CorpusConfig { noise, ..CorpusConfig::tiny(42) });
        quarry_extract::eval::score(
            &extract_over(&ExtractorRegistry::standard(), names, &c),
            &c.truth,
        )
    }

    #[test]
    fn clean_corpus_extraction_is_highly_accurate() {
        let s = scored(NoiseConfig::none(), &["infobox", "rules"]);
        assert!(s.precision > 0.95, "precision {:.3}", s.precision);
        assert!(s.recall > 0.8, "recall {:.3}", s.recall);
    }

    #[test]
    fn noisy_corpus_extraction_is_imperfect_but_useful() {
        let s = scored(NoiseConfig::default(), &["infobox", "rules"]);
        // The paper's premise: automatic IE "will not be 100% accurate".
        assert!(s.f1 > 0.5, "f1 {:.3}", s.f1);
        assert!(s.f1 < 1.0, "noise must cost something, f1 {:.3}", s.f1);
    }

    #[test]
    fn infobox_only_trades_recall_for_precision() {
        let full = scored(NoiseConfig::default(), &["infobox", "rules"]);
        let ibx = scored(NoiseConfig::default(), &["infobox"]);
        assert!(
            ibx.precision >= full.precision - 0.02,
            "ibx {:.3} vs full {:.3}",
            ibx.precision,
            full.precision
        );
        assert!(ibx.recall <= full.recall, "infobox-only cannot out-recall the full set");
    }

    #[test]
    fn gazetteers_add_mentions() {
        let c = Corpus::generate(&CorpusConfig {
            noise: NoiseConfig::none(),
            ..CorpusConfig::tiny(42)
        });
        let names = c.truth.cities.iter().map(|x| x.name.as_str());
        let mut reg = ExtractorRegistry::standard();
        reg.register_gazetteer(
            "city_mention",
            Gazetteer::from_names("city_mention", names, false),
            1.0,
        );
        let exts = extract_over(&reg, &["infobox", "city_mention"], &c);
        assert!(exts.iter().any(|e| e.attribute == "city_mention"));
    }

    #[test]
    fn dedup_keeps_one_witness_per_identity() {
        let c = Corpus::generate(&CorpusConfig {
            noise: NoiseConfig::none(),
            ..CorpusConfig::tiny(42)
        });
        let exts = extract_over(&ExtractorRegistry::standard(), &["infobox", "rules"], &c);
        let mut ids: Vec<_> =
            exts.iter().map(|e| (e.doc, e.attribute.clone(), e.value.clone())).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn two_extract_steps_store_what_one_extract_of_both_stores() {
        let c = corpus();
        let run = |src: &str| {
            let db = Database::in_memory();
            let stats = run_src(src, &c, &db);
            (stats, db.snapshot().scan("t").unwrap())
        };
        let tail = "RESOLVE BY name STORE INTO t KEY name";
        let one = run(&format!("PIPELINE p FROM corpus EXTRACT infobox, rules {tail}"));
        let two = run(&format!("PIPELINE p FROM corpus EXTRACT infobox EXTRACT rules {tail}"));
        assert_eq!(two, one);
    }
}
