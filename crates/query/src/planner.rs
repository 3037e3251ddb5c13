//! Index-aware physical query planning.
//!
//! [`crate::engine`] defines *what* a query means; this module decides *how*
//! to run it. Between `Query` and execution sits a small physical planner
//! doing the three classic optimizations the paper's "database-grade query
//! processing" story needs:
//!
//! 1. **Access-path selection** — equality predicates binding the whole
//!    primary key route through the primary-key map, and equality/range
//!    predicates on an indexed column through the storage engine's B-tree
//!    secondary indexes, instead of a full table scan. Either is used
//!    strictly as a row-id *pre-filter*: every predicate stays in the
//!    residual conjunction and is re-checked against the fetched row, so a
//!    loose index bound can cost time but never correctness.
//! 2. **Predicate + projection pushdown** — residual predicates and the
//!    projection column list are pushed into the table access, which
//!    walks [`DbSnapshot::for_each_row`] and checks the residual while
//!    each row is still borrowed from the snapshot. A non-matching row is
//!    never cloned. What a matching row costs depends on its consumer:
//!    an `Aggregate` directly above the access folds the borrowed row,
//!    cloning a group key when it opens a group; a `Sort` with a limit
//!    clones a row only while it can still make the top k; any other
//!    consumer gets the projected columns cloned out.
//! 3. **Join-side selection** — the hash join builds its table on whichever
//!    input materialized fewer rows and probes with the larger, while
//!    emitting output in exactly the order the fixed-side join would have.
//!
//! Every optimization is independently toggleable through
//! [`PlannerConfig`] (mirroring the E5 ablation style of the logical
//! optimizer in `quarry-lang`), and [`PlannerConfig::full_scan`] disables
//! them all — the reference configuration the differential tests compare
//! against. Row order is part of the contract: for any config, results are
//! bit-identical to the full-scan pipeline, because both access paths
//! return rows in row-id order and the build-side swap preserves
//! probe-order output. Streaming rows into their consumer is not one of
//! the toggles: with pushdown off, a query's predicates stay in a `Filter`
//! between the access and the operator, which then folds that filter's
//! materialized rows through the same code.
//!
//! [`execute_with`] returns the result *plus* an [`OpTrace`]: per-operator
//! estimated vs. actual row counts and scan counters, rendered through the
//! shared [`PlanNode`] tree renderer by `Query::explain`.
//!

use crate::engine::{AggFn, Predicate, Query, QueryError, QueryResult};
use quarry_exec::PlanNode;
use quarry_storage::{Database, DbSnapshot, Row, ScanAccess, Value};
use std::borrow::Cow;
use std::collections::HashMap;

/// Physical-planner toggles (all on by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerConfig {
    /// Route indexable predicates through the primary-key map and
    /// secondary indexes.
    pub use_index: bool,
    /// Push residual predicates and projections into row materialization.
    pub pushdown: bool,
    /// Build the join hash table on the smaller input.
    pub join_side_selection: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig { use_index: true, pushdown: true, join_side_selection: true }
    }
}

impl PlannerConfig {
    /// The naive reference configuration: full scans, no pushdown, fixed
    /// join sides — exactly the pre-planner execution strategy.
    pub fn full_scan() -> Self {
        PlannerConfig { use_index: false, pushdown: false, join_side_selection: false }
    }
}

/// How a table access fetches candidate rows.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Scan every row.
    FullScan,
    /// Look one row up by its primary key.
    PkEq {
        /// A probe value for every primary-key column, in key order.
        key: Vec<Value>,
    },
    /// Probe a secondary index for one value.
    IndexEq {
        /// Indexed column.
        column: String,
        /// Probe value.
        value: Value,
    },
    /// Scan a secondary index over an inclusive bound window. Strict
    /// comparisons keep their strictness in the residual predicates.
    IndexRange {
        /// Indexed column.
        column: String,
        /// Lower bound (inclusive), if any.
        lo: Option<Value>,
        /// Upper bound (inclusive), if any.
        hi: Option<Value>,
    },
}

impl AccessPath {
    fn describe(&self) -> String {
        match self {
            AccessPath::FullScan => "full scan".to_string(),
            AccessPath::PkEq { key } => {
                let key: Vec<String> = key.iter().map(Value::to_string).collect();
                format!("pk eq({})", key.join(", "))
            }
            AccessPath::IndexEq { column, value } => format!("index eq({column} = {value})"),
            AccessPath::IndexRange { column, lo, hi } => {
                let lo = lo.as_ref().map(|v| v.to_string()).unwrap_or_else(|| "-inf".into());
                let hi = hi.as_ref().map(|v| v.to_string()).unwrap_or_else(|| "+inf".into());
                format!("index range({column} in [{lo}, {hi}])")
            }
        }
    }
}

/// A physical operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysPlan {
    /// Table access: path choice plus pushed-down residual filter and
    /// projection. The residual always carries the *complete* predicate
    /// conjunction — the access path only narrows which rows get checked.
    Access {
        /// Table name.
        table: String,
        /// Chosen access path.
        path: AccessPath,
        /// Pushed-down predicates, re-checked per fetched row.
        residual: Vec<Predicate>,
        /// Pushed-down projection (column names), if any.
        projection: Option<Vec<String>>,
        /// Planner's row estimate for this access, if stats were available.
        est_rows: Option<usize>,
    },
    /// Residual filter that could not be pushed into an access.
    Filter {
        /// Input plan.
        input: Box<PhysPlan>,
        /// Conjunctive predicates.
        predicates: Vec<Predicate>,
    },
    /// Projection that could not be pushed into an access.
    Project {
        /// Input plan.
        input: Box<PhysPlan>,
        /// Columns to keep, in order.
        columns: Vec<String>,
    },
    /// Hash equi-join.
    HashJoin {
        /// Left input.
        left: Box<PhysPlan>,
        /// Right input.
        right: Box<PhysPlan>,
        /// Join column on the left.
        left_col: String,
        /// Join column on the right.
        right_col: String,
        /// Pick the build side by materialized size (else always build
        /// on the right, the historical fixed side).
        select_build_side: bool,
    },
    /// Group + aggregate.
    Aggregate {
        /// Input plan.
        input: Box<PhysPlan>,
        /// Optional grouping column.
        group_by: Option<String>,
        /// Aggregate function.
        agg: crate::engine::AggFn,
        /// Aggregated column.
        over: String,
    },
    /// Order by + optional limit.
    Sort {
        /// Input plan.
        input: Box<PhysPlan>,
        /// Ordering column.
        by: String,
        /// Descending when true.
        desc: bool,
        /// Optional row cap.
        limit: Option<usize>,
    },
}

/// Per-operator execution trace: what the planner predicted and what
/// actually happened — the physical layer's ExecReport.
#[derive(Debug, Clone, PartialEq)]
pub struct OpTrace {
    /// Operator description (access path, pushed predicates, join sides…).
    pub label: String,
    /// Planner's row estimate, when it had one.
    pub est_rows: Option<usize>,
    /// Rows this operator produced.
    pub actual_rows: usize,
    /// Candidate rows examined (access operators only).
    pub scanned: Option<usize>,
    /// Input operator traces.
    pub children: Vec<OpTrace>,
}

impl OpTrace {
    /// Total candidate rows examined across the whole tree — the number
    /// access-path selection exists to shrink.
    pub fn total_scanned(&self) -> usize {
        self.scanned.unwrap_or(0) + self.children.iter().map(OpTrace::total_scanned).sum::<usize>()
    }

    /// Convert to the shared displayable tree.
    pub fn to_plan_node(&self) -> PlanNode {
        let mut ann = Vec::new();
        if let Some(e) = self.est_rows {
            ann.push(format!("est={e}"));
        }
        if let Some(s) = self.scanned {
            ann.push(format!("scanned={s}"));
        }
        ann.push(format!("rows={}", self.actual_rows));
        PlanNode::branch(
            format!("{} ({})", self.label, ann.join(", ")),
            self.children.iter().map(OpTrace::to_plan_node).collect(),
        )
    }

    /// Render with tree connectors.
    pub fn render(&self) -> String {
        self.to_plan_node().render()
    }
}

/// Lower a query tree to a physical plan. Infallible: planning never
/// touches data. Reference errors are caught before this runs by the
/// [`crate::lint`] validator in [`execute_snapshot_with`]; anything that
/// slips through (e.g. an unknown table) still surfaces at execution,
/// exactly where the unplanned engine raised it.
///
/// Schema, index list and statistics all come from the [`DbSnapshot`] the
/// plan will run on, frozen at its LSN: a plan can only name an index the
/// pinned view has.
pub fn plan(db: &DbSnapshot, q: &Query, cfg: &PlannerConfig) -> PhysPlan {
    match q {
        Query::Scan { table } => PhysPlan::Access {
            table: table.clone(),
            path: AccessPath::FullScan,
            residual: Vec::new(),
            projection: None,
            est_rows: db.row_count(table).ok(),
        },
        Query::Filter { input, predicates } => match plan(db, input, cfg) {
            // Pushdown: merge into the access and (re)pick its path from
            // the full conjunction. Only legal while no projection has
            // been pushed — predicates must validate against the table's
            // schema columns, not the projected set.
            PhysPlan::Access { table, residual: mut res, projection: None, .. } if cfg.pushdown => {
                res.extend(predicates.iter().cloned());
                let (path, est_rows) = choose_access(db, &table, &res, cfg);
                PhysPlan::Access { table, path, residual: res, projection: None, est_rows }
            }
            // No pushdown, but access-path selection may still apply: the
            // filter stays above and re-checks everything.
            PhysPlan::Access { table, residual, projection: None, path: _, est_rows: _ }
                if cfg.use_index && residual.is_empty() =>
            {
                let (path, est_rows) = choose_access(db, &table, predicates, cfg);
                PhysPlan::Filter {
                    input: Box::new(PhysPlan::Access {
                        table,
                        path,
                        residual,
                        projection: None,
                        est_rows,
                    }),
                    predicates: predicates.clone(),
                }
            }
            other => PhysPlan::Filter { input: Box::new(other), predicates: predicates.clone() },
        },
        Query::Project { input, columns } => match plan(db, input, cfg) {
            PhysPlan::Access { table, path, residual, projection: None, est_rows }
                if cfg.pushdown =>
            {
                PhysPlan::Access {
                    table,
                    path,
                    residual,
                    projection: Some(columns.clone()),
                    est_rows,
                }
            }
            other => PhysPlan::Project { input: Box::new(other), columns: columns.clone() },
        },
        Query::Join { left, right, left_col, right_col } => PhysPlan::HashJoin {
            left: Box::new(plan(db, left, cfg)),
            right: Box::new(plan(db, right, cfg)),
            left_col: left_col.clone(),
            right_col: right_col.clone(),
            select_build_side: cfg.join_side_selection,
        },
        Query::Aggregate { input, group_by, agg, over } => PhysPlan::Aggregate {
            input: Box::new(plan(db, input, cfg)),
            group_by: group_by.clone(),
            agg: *agg,
            over: over.clone(),
        },
        Query::Sort { input, by, desc, limit } => PhysPlan::Sort {
            input: Box::new(plan(db, input, cfg)),
            by: by.clone(),
            desc: *desc,
            limit: *limit,
        },
    }
}

/// Pick an access path for `table` given the full residual conjunction.
///
/// Preference order: a primary-key lookup when equalities bind every key
/// column (at most one row), then the indexed equality predicate with the
/// lowest estimated match count (from index stats), then the first
/// range-constrained indexed column with all its bounds intersected, then
/// a full scan.
fn choose_access(
    db: &DbSnapshot,
    table: &str,
    residual: &[Predicate],
    cfg: &PlannerConfig,
) -> (AccessPath, Option<usize>) {
    let full = || (AccessPath::FullScan, db.row_count(table).ok());
    if !cfg.use_index {
        return full();
    }
    let eq_value = |column: &str| {
        residual.iter().find_map(|p| match p {
            Predicate::Eq(c, v) if c == column => Some(v.clone()),
            _ => None,
        })
    };
    if let Ok(schema) = db.schema(table) {
        let key_columns = schema.key.iter().map(|&i| schema.columns.get(i));
        let key: Option<Vec<Value>> = key_columns.map(|c| eq_value(&c?.name)).collect();
        if let Some(key) = key {
            return (AccessPath::PkEq { key }, Some(1));
        }
    }
    let indexed = db.indexed_columns(table).unwrap_or_default();
    if indexed.is_empty() {
        return full();
    }
    let is_indexed = |c: &str| indexed.iter().any(|ic| ic == c);

    // Equality probes first: cheapest estimate wins, first wins ties.
    let mut best_eq: Option<(&str, &Value, usize)> = None;
    for p in residual {
        if let Predicate::Eq(c, v) = p {
            if is_indexed(c) {
                let est = db
                    .index_stats(table, c)
                    .ok()
                    .flatten()
                    .map(|s| s.eq_estimate())
                    .unwrap_or(usize::MAX);
                if best_eq.is_none_or(|(_, _, prev)| est < prev) {
                    best_eq = Some((c, v, est));
                }
            }
        }
    }
    if let Some((column, value, est)) = best_eq {
        let est = (est != usize::MAX).then_some(est);
        return (AccessPath::IndexEq { column: column.to_string(), value: value.clone() }, est);
    }

    // Range window on the first indexed column a range predicate names.
    // Strict bounds use the inclusive index window; the residual's strict
    // comparison discards boundary rows afterwards.
    let range_col = residual.iter().find_map(|p| match p {
        Predicate::Ge(c, _) | Predicate::Gt(c, _) | Predicate::Le(c, _) | Predicate::Lt(c, _)
            if is_indexed(c) =>
        {
            Some(c.as_str())
        }
        _ => None,
    });
    if let Some(col) = range_col {
        let lo = residual
            .iter()
            .filter_map(|p| match p {
                Predicate::Ge(c, v) | Predicate::Gt(c, v) if c == col => Some(v),
                _ => None,
            })
            .max();
        let hi = residual
            .iter()
            .filter_map(|p| match p {
                Predicate::Le(c, v) | Predicate::Lt(c, v) if c == col => Some(v),
                _ => None,
            })
            .min();
        let est = db.index_stats(table, col).ok().flatten().map(|s| s.entries);
        return (
            AccessPath::IndexRange { column: col.to_string(), lo: lo.cloned(), hi: hi.cloned() },
            est,
        );
    }
    full()
}

/// Plan and execute against the committed state of `db` as of now,
/// returning the result and the per-operator trace.
pub fn execute_with(
    db: &Database,
    q: &Query,
    cfg: &PlannerConfig,
) -> Result<(QueryResult, OpTrace), QueryError> {
    execute_snapshot_with(&db.snapshot(), q, cfg)
}

/// Plan and execute against an immutable [`DbSnapshot`]: a stable view,
/// so there is nothing to lock, begin, or commit.
pub fn execute_snapshot_with(
    snap: &DbSnapshot,
    q: &Query,
    cfg: &PlannerConfig,
) -> Result<(QueryResult, OpTrace), QueryError> {
    // Static validation first: unknown column references become one
    // span-anchored report instead of a runtime error deep in an
    // operator. Unknown *tables* (QQ001) deliberately don't gate — they
    // stay a `StorageError` so dynamic table probing keeps working.
    let report = crate::lint::check_query(snap, q);
    if crate::lint::gates_execution(&report) {
        return Err(QueryError::Invalid(report));
    }
    let physical = plan(snap, q, cfg);
    exec_plan(snap, &physical)
}

/// An operator's input, opened but not yet read: the columns it yields,
/// and where each sits in the rows [`Rows::for_each`] hands over.
struct Input<'p> {
    /// Output column names.
    columns: Vec<String>,
    /// Position of each output column in a handed-over row; `None` when
    /// handed-over rows are laid out as `columns` already.
    layout: Option<Vec<usize>>,
    rows: Rows<'p>,
}

/// Where an [`Input`]'s rows come from.
enum Rows<'p> {
    /// A table access, run when read: each candidate row is checked
    /// against the residual while it is borrowed from the snapshot, and
    /// only the rows that pass reach the consumer.
    Access {
        table: &'p str,
        scan: ScanAccess<'p>,
        /// Each residual predicate with the table column it tests.
        residual: Vec<(&'p Predicate, usize)>,
        label: String,
        est_rows: Option<usize>,
    },
    /// Any other operator, already executed.
    Done(Vec<Row>, OpTrace),
}

impl<'p> Input<'p> {
    /// Resolve a table access against `src`'s schema without reading it;
    /// execute any other plan.
    fn open(src: &DbSnapshot, p: &'p PhysPlan) -> Result<Input<'p>, QueryError> {
        let PhysPlan::Access { table, path, residual, projection, est_rows } = p else {
            let (r, trace) = exec_plan(src, p)?;
            return Ok(Input { columns: r.columns, layout: None, rows: Rows::Done(r.rows, trace) });
        };
        let schema = src.table(table)?.schema();
        let cols: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
        let position = |name: &str| {
            cols.iter()
                .position(|c| c == name)
                .ok_or_else(|| QueryError::UnknownColumn(name.to_string()))
        };
        let tested = residual
            .iter()
            .map(|pr| Ok((pr, position(pr.column())?)))
            .collect::<Result<_, QueryError>>()?;
        let layout = match projection {
            Some(pcols) => Some(pcols.iter().map(|c| position(c)).collect::<Result<_, _>>()?),
            None => None,
        };
        let scan = match path {
            AccessPath::FullScan => ScanAccess::Full,
            AccessPath::PkEq { key } => ScanAccess::Pk { key },
            AccessPath::IndexEq { column, value } => {
                ScanAccess::Index { column, lo: Some(value), hi: Some(value) }
            }
            AccessPath::IndexRange { column, lo, hi } => {
                ScanAccess::Index { column, lo: lo.as_ref(), hi: hi.as_ref() }
            }
        };
        let mut label = format!("Access[{table} via {}]", path.describe());
        if !residual.is_empty() {
            let preds: Vec<String> = residual.iter().map(Predicate::display).collect();
            label.push_str(&format!(" where {}", preds.join(" AND ")));
        }
        if let Some(pcols) = projection {
            label.push_str(&format!(" -> [{}]", pcols.join(", ")));
        }
        let columns = projection.clone().unwrap_or(cols);
        let rows = Rows::Access { table, scan, residual: tested, label, est_rows: *est_rows };
        Ok(Input { columns, layout, rows })
    }

    /// Where column `name` sits: `(in a handed-over row, in an output
    /// row)`.
    fn column(&self, name: &str) -> Result<(usize, usize), QueryError> {
        let out = self
            .columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| QueryError::UnknownColumn(name.to_string()))?;
        Ok((self.layout.as_ref().map_or(out, |l| l[out]), out))
    }

    /// Read every row into the result — through [`DbSnapshot::select`],
    /// the materializing sink, for a table access.
    fn collect(self, src: &DbSnapshot) -> Result<(QueryResult, OpTrace), QueryError> {
        let Input { columns, layout, rows } = self;
        let (rows, trace) = match rows {
            Rows::Done(rows, trace) => (rows, trace),
            Rows::Access { table, scan, residual, label, est_rows } => {
                let mut passes = |row: &[Value]| passes(&residual, row);
                let (rows, scanned) = src.select(table, scan, &mut passes, layout.as_deref())?;
                let trace = access_trace(label, est_rows, rows.len(), scanned);
                (rows, trace)
            }
        };
        Ok((QueryResult { columns, rows }, trace))
    }
}

/// Whether a candidate row satisfies every residual predicate.
fn passes(residual: &[(&Predicate, usize)], row: &[Value]) -> bool {
    residual.iter().all(|(pr, i)| pr.eval(&row[*i]))
}

/// An access's trace: `rows=` counts the rows it fed its consumer.
fn access_trace(label: String, est_rows: Option<usize>, rows: usize, scanned: usize) -> OpTrace {
    OpTrace { label, est_rows, actual_rows: rows, scanned: Some(scanned), children: Vec::new() }
}

/// A handed-over row as an output row: the lent columns cloned, an owned
/// row moved.
fn output(layout: &Option<Vec<usize>>, row: Cow<'_, [Value]>) -> Row {
    match layout {
        Some(cols) => cols.iter().map(|&i| row[i].clone()).collect(),
        None => row.into_owned(),
    }
}

impl Rows<'_> {
    /// Hand every row to `f` in order — lent by a table access, moved out
    /// of an executed result — and return the input's trace.
    fn for_each(
        self,
        src: &DbSnapshot,
        f: &mut dyn FnMut(Cow<'_, [Value]>),
    ) -> Result<OpTrace, QueryError> {
        match self {
            Rows::Done(rows, trace) => {
                rows.into_iter().for_each(|row| f(Cow::Owned(row)));
                Ok(trace)
            }
            Rows::Access { table, scan, residual, label, est_rows } => {
                let mut passed = 0usize;
                let scanned = src.for_each_row(table, scan, &mut |row| {
                    if passes(&residual, row) {
                        passed += 1;
                        f(Cow::Borrowed(row));
                    }
                    Ok(())
                })?;
                Ok(access_trace(label, est_rows, passed, scanned))
            }
        }
    }
}

/// One group's aggregate, folded from its values in arrival order.
struct Fold {
    /// Non-NULL values seen.
    count: usize,
    /// Their running sum (`SUM`/`AVG`).
    sum: f64,
    /// The `MIN` or `MAX` so far.
    best: Option<Value>,
    /// A non-NULL value that is not a number reached a `SUM`/`AVG`.
    not_numeric: bool,
}

impl Fold {
    fn new() -> Fold {
        // `Iterator::sum`'s own start value, so that the sum of an all
        // `-0.0` group keeps its sign exactly as summing a list would.
        let sum = std::iter::empty::<f64>().sum();
        Fold { count: 0, sum, best: None, not_numeric: false }
    }

    /// Fold one value in. NULLs are skipped; `MIN` keeps the first of
    /// equal minima and `MAX` the last of equal maxima, as
    /// `Iterator::min` / `max` do.
    fn add(&mut self, agg: AggFn, v: &Value) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        match agg {
            AggFn::Count => {}
            AggFn::Sum | AggFn::Avg => match v.as_f64() {
                Some(x) => self.sum += x,
                None => self.not_numeric = true,
            },
            AggFn::Min => {
                if self.best.as_ref().is_none_or(|b| v < b) {
                    self.best = Some(v.clone());
                }
            }
            AggFn::Max => {
                if self.best.as_ref().is_none_or(|b| v >= b) {
                    self.best = Some(v.clone());
                }
            }
        }
    }

    fn finish(self, agg: AggFn, over: &str) -> Result<Value, QueryError> {
        Ok(match agg {
            AggFn::Count => Value::Int(self.count as i64),
            AggFn::Min | AggFn::Max => self.best.unwrap_or(Value::Null),
            AggFn::Sum | AggFn::Avg if self.not_numeric => {
                return Err(QueryError::NotNumeric(over.to_string()))
            }
            AggFn::Sum | AggFn::Avg if self.count == 0 => Value::Null,
            AggFn::Sum => Value::Float(self.sum),
            AggFn::Avg => Value::Float(self.sum / self.count as f64),
        })
    }
}

fn exec_plan(src: &DbSnapshot, p: &PhysPlan) -> Result<(QueryResult, OpTrace), QueryError> {
    match p {
        PhysPlan::Access { .. } => Input::open(src, p)?.collect(src),
        PhysPlan::Filter { input, predicates } => {
            let (mut r, child) = exec_plan(src, input)?;
            let idx: Vec<usize> = predicates
                .iter()
                .map(|pr| {
                    r.column_index(pr.column())
                        .ok_or_else(|| QueryError::UnknownColumn(pr.column().to_string()))
                })
                .collect::<Result<_, _>>()?;
            r.rows.retain(|row| predicates.iter().zip(&idx).all(|(pr, &i)| pr.eval(&row[i])));
            let preds: Vec<String> = predicates.iter().map(Predicate::display).collect();
            let trace = OpTrace {
                label: format!("Filter[{}]", preds.join(" AND ")),
                est_rows: None,
                actual_rows: r.rows.len(),
                scanned: None,
                children: vec![child],
            };
            Ok((r, trace))
        }
        PhysPlan::Project { input, columns } => {
            let (r, child) = exec_plan(src, input)?;
            let idx: Vec<usize> = columns
                .iter()
                .map(|c| r.column_index(c).ok_or_else(|| QueryError::UnknownColumn(c.clone())))
                .collect::<Result<_, _>>()?;
            let rows: Vec<Row> =
                r.rows.iter().map(|row| idx.iter().map(|&i| row[i].clone()).collect()).collect();
            let trace = OpTrace {
                label: format!("Project[{}]", columns.join(", ")),
                est_rows: None,
                actual_rows: rows.len(),
                scanned: None,
                children: vec![child],
            };
            Ok((QueryResult { columns: columns.clone(), rows }, trace))
        }
        PhysPlan::HashJoin { left, right, left_col, right_col, select_build_side } => {
            let (l, ltrace) = exec_plan(src, left)?;
            let (r, rtrace) = exec_plan(src, right)?;
            let li = l
                .column_index(left_col)
                .ok_or_else(|| QueryError::UnknownColumn(left_col.clone()))?;
            let ri = r
                .column_index(right_col)
                .ok_or_else(|| QueryError::UnknownColumn(right_col.clone()))?;
            let build_left = *select_build_side && l.rows.len() < r.rows.len();
            let mut rows = Vec::new();
            if build_left {
                // Build on the (smaller) left, probe with the right —
                // but still emit left-major, right-minor order, exactly
                // like the fixed-side join below.
                let mut table: HashMap<&Value, Vec<usize>> = HashMap::new();
                for (i, lrow) in l.rows.iter().enumerate() {
                    table.entry(&lrow[li]).or_default().push(i);
                }
                let mut matches_per_left: Vec<Vec<usize>> = vec![Vec::new(); l.rows.len()];
                for (j, rrow) in r.rows.iter().enumerate() {
                    if let Some(lids) = table.get(&rrow[ri]) {
                        for &i in lids {
                            matches_per_left[i].push(j);
                        }
                    }
                }
                for (lrow, matches) in l.rows.iter().zip(&matches_per_left) {
                    for &j in matches {
                        let mut joined = lrow.clone();
                        joined.extend(r.rows[j].iter().cloned());
                        rows.push(joined);
                    }
                }
            } else {
                let mut table: HashMap<&Value, Vec<&Row>> = HashMap::new();
                for rrow in &r.rows {
                    table.entry(&rrow[ri]).or_default().push(rrow);
                }
                for lrow in &l.rows {
                    if let Some(matches) = table.get(&lrow[li]) {
                        for rrow in matches {
                            let mut joined = lrow.clone();
                            joined.extend(rrow.iter().cloned());
                            rows.push(joined);
                        }
                    }
                }
            }
            let mut columns = l.columns.clone();
            // Disambiguate collision by prefixing the right side.
            for c in &r.columns {
                if l.columns.contains(c) {
                    columns.push(format!("right.{c}"));
                } else {
                    columns.push(c.clone());
                }
            }
            let trace = OpTrace {
                label: format!(
                    "HashJoin[{left_col} = {right_col}, build={}]",
                    if build_left { "left" } else { "right" }
                ),
                est_rows: None,
                actual_rows: rows.len(),
                scanned: None,
                children: vec![ltrace, rtrace],
            };
            Ok((QueryResult { columns, rows }, trace))
        }
        PhysPlan::Aggregate { input, group_by, agg, over } => {
            let input = Input::open(src, input)?;
            let (oi, _) = input.column(over)?;
            let gi = match group_by {
                Some(g) => Some(input.column(g)?.0),
                None => None,
            };
            // A group's key is the first of its equal keys to arrive, and
            // is cloned only then.
            let mut groups: HashMap<Value, Fold> = HashMap::new();
            let mut all = Fold::new();
            let child = input.rows.for_each(src, &mut |row| match gi {
                None => all.add(*agg, &row[oi]),
                Some(gi) => match groups.get_mut(&row[gi]) {
                    Some(fold) => fold.add(*agg, &row[oi]),
                    None => {
                        let mut fold = Fold::new();
                        fold.add(*agg, &row[oi]);
                        groups.insert(row[gi].clone(), fold);
                    }
                },
            })?;
            let rows = match gi {
                None => vec![vec![all.finish(*agg, over)?]],
                Some(_) => {
                    let mut groups: Vec<(Value, Fold)> = groups.into_iter().collect();
                    // Distinct keys: the unstable sort is the key order.
                    groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                    groups
                        .into_iter()
                        .map(|(key, fold)| Ok(vec![key, fold.finish(*agg, over)?]))
                        .collect::<Result<_, QueryError>>()?
                }
            };
            let out_col = format!("{}({over})", agg.name());
            let columns = match group_by {
                Some(g) => vec![g.clone(), out_col],
                None => vec![out_col],
            };
            let g = group_by.as_ref().map(|g| format!(" group by {g}")).unwrap_or_default();
            let trace = OpTrace {
                label: format!("Aggregate[{}({over}){g}]", agg.name()),
                est_rows: None,
                actual_rows: rows.len(),
                scanned: None,
                children: vec![child],
            };
            Ok((QueryResult { columns, rows }, trace))
        }
        PhysPlan::Sort { input, by, desc, limit } => {
            let input = Input::open(src, input)?;
            let (key, out_key) = input.column(by)?;
            let Input { columns, layout, rows } = input;
            let rank = |a: &Value, b: &Value| if *desc { b.cmp(a) } else { a.cmp(b) };
            // The k best rows ranked by (key, arrival): a stable sort
            // truncated to k, ties included. `kept` takes every row that
            // can still make it — cloned from an access, moved from an
            // executed input — in arrival order, so a stable sort of it
            // ranks ties by arrival too; at 2k rows it is cut back to the
            // k best, whose last is the bar. A later row that does not
            // rank strictly before the bar has k rows ahead of it already
            // and is never cloned. That is O(n log k) whatever order rows
            // arrive in; without a limit every row is kept and sorted once.
            let k = limit.unwrap_or(usize::MAX);
            let cut = |kept: &mut Vec<Row>| {
                kept.sort_by(|a, b| rank(&a[out_key], &b[out_key]));
                kept.truncate(k);
            };
            let mut kept: Vec<Row> = Vec::new();
            let mut barred = false;
            let child = rows.for_each(src, &mut |row| {
                if k == 0 || (barred && rank(&row[key], &kept[k - 1][out_key]).is_ge()) {
                    return;
                }
                kept.push(output(&layout, row));
                if kept.len() == k.saturating_mul(2) {
                    cut(&mut kept);
                    barred = true;
                }
            })?;
            cut(&mut kept);
            let dir = if *desc { " desc" } else { "" };
            let lim = limit.map(|l| format!(" limit {l}")).unwrap_or_default();
            let trace = OpTrace {
                label: format!("Sort[{by}{dir}{lim}]"),
                est_rows: None,
                actual_rows: kept.len(),
                scanned: None,
                children: vec![child],
            };
            Ok((QueryResult { columns, rows: kept }, trace))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{execute, AggFn};
    use quarry_storage::{Column, DataType, TableSchema};

    fn db_with_index() -> Database {
        let db = Database::in_memory();
        db.create_table(
            TableSchema::new(
                "facts",
                vec![
                    Column::new("id", DataType::Int),
                    Column::new("cat", DataType::Text),
                    Column::new("num", DataType::Int),
                ],
                &["id"],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        let tx = db.begin();
        for i in 0..100i64 {
            db.insert(
                tx,
                "facts",
                vec![Value::Int(i), Value::Text(format!("c{}", i % 10)), Value::Int(i * 3 % 17)],
            )
            .unwrap();
        }
        db.commit(tx).unwrap();
        db.create_index("facts", "cat").unwrap();
        db
    }

    #[test]
    fn eq_predicate_routes_through_index() {
        let db = db_with_index();
        let q = Query::scan("facts").filter(vec![Predicate::Eq("cat".into(), "c3".into())]);
        let p = plan(&db.snapshot(), &q, &PlannerConfig::default());
        match &p {
            PhysPlan::Access { path: AccessPath::IndexEq { column, .. }, residual, .. } => {
                assert_eq!(column, "cat");
                assert_eq!(residual.len(), 1, "residual keeps the full conjunction");
            }
            other => panic!("expected index-eq access, got {other:?}"),
        }
        let (r, trace) = execute_with(&db, &q, &PlannerConfig::default()).unwrap();
        assert_eq!(r.rows.len(), 10);
        assert_eq!(trace.total_scanned(), 10, "index pre-filter, not a 100-row scan");
        assert_eq!(trace.est_rows, Some(10), "uniform estimate: 100 entries / 10 distinct");
    }

    #[test]
    fn whole_key_equality_routes_through_the_primary_key() {
        let db = db_with_index();
        let cfg = PlannerConfig::default();
        // Preferred over the index probe on `cat`, which estimates 10 rows.
        let q = Query::scan("facts").filter(vec![
            Predicate::Eq("cat".into(), "c2".into()),
            Predicate::Eq("id".into(), Value::Int(42)),
        ]);
        match plan(&db.snapshot(), &q, &cfg) {
            PhysPlan::Access { path: AccessPath::PkEq { key }, residual, est_rows, .. } => {
                assert_eq!(key, vec![Value::Int(42)]);
                assert_eq!(residual.len(), 2, "residual keeps the full conjunction");
                assert_eq!(est_rows, Some(1));
            }
            other => panic!("expected a primary-key lookup, got {other:?}"),
        }
        let (r, trace) = execute_with(&db, &q, &cfg).unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(42), "c2".into(), Value::Int(42 * 3 % 17)]]);
        assert_eq!(trace.total_scanned(), 1, "one row fetched, not a 100-row scan");
        assert!(trace.render().contains("Access[facts via pk eq(42)]"), "{}", trace.render());
        // A key nobody holds, and a key whose row the residual rejects.
        let miss = Query::scan("facts").filter(vec![Predicate::Eq("id".into(), Value::Int(999))]);
        assert_eq!(execute_with(&db, &miss, &cfg).unwrap().1.total_scanned(), 0);
        let rejected = Query::scan("facts").filter(vec![
            Predicate::Eq("id".into(), Value::Int(42)),
            Predicate::Eq("cat".into(), "c3".into()),
        ]);
        assert!(execute_with(&db, &rejected, &cfg).unwrap().0.rows.is_empty());
        // Anything short of equality on every key column is not a lookup.
        let range = Query::scan("facts").filter(vec![Predicate::Ge("id".into(), Value::Int(42))]);
        assert!(matches!(
            plan(&db.snapshot(), &range, &cfg),
            PhysPlan::Access { path: AccessPath::FullScan, .. }
        ));
    }

    #[test]
    fn range_predicate_routes_through_index_with_strict_bound_in_residual() {
        let db = db_with_index();
        db.create_index("facts", "num").unwrap();
        let q = Query::scan("facts").filter(vec![
            Predicate::Gt("num".into(), Value::Int(5)),
            Predicate::Le("num".into(), Value::Int(9)),
        ]);
        let p = plan(&db.snapshot(), &q, &PlannerConfig::default());
        match &p {
            PhysPlan::Access { path: AccessPath::IndexRange { column, lo, hi }, .. } => {
                assert_eq!(column, "num");
                assert_eq!(lo.as_ref(), Some(&Value::Int(5)), "strict Gt keeps inclusive bound");
                assert_eq!(hi.as_ref(), Some(&Value::Int(9)));
            }
            other => panic!("expected index-range access, got {other:?}"),
        }
        let (routed, _) = execute_with(&db, &q, &PlannerConfig::default()).unwrap();
        let (full, _) = execute_with(&db, &q, &PlannerConfig::full_scan()).unwrap();
        assert_eq!(routed, full, "strict bound must be enforced by the residual");
        assert!(routed.rows.iter().all(|r| {
            let n = r[2].as_f64().unwrap() as i64;
            n > 5 && n <= 9
        }));
    }

    #[test]
    fn projection_and_predicates_push_into_access() {
        let db = db_with_index();
        let q = Query::scan("facts")
            .filter(vec![Predicate::Eq("cat".into(), "c1".into())])
            .project(&["id"]);
        match plan(&db.snapshot(), &q, &PlannerConfig::default()) {
            PhysPlan::Access { projection, residual, .. } => {
                assert_eq!(projection, Some(vec!["id".to_string()]));
                assert_eq!(residual.len(), 1);
            }
            other => panic!("expected a single fused access, got {other:?}"),
        }
    }

    #[test]
    fn filter_above_projection_is_not_pushed_into_access() {
        let db = db_with_index();
        // `cat` is projected away, so the outer filter must still error —
        // now as a pre-execution diagnostic rather than a runtime
        // `UnknownColumn` from inside the operator.
        let q = Query::scan("facts")
            .project(&["id"])
            .filter(vec![Predicate::Eq("cat".into(), "c1".into())]);
        match execute(&db, &q) {
            Err(QueryError::Invalid(report)) => {
                assert_eq!(report.error_count(), 1);
                assert_eq!(report.diagnostics[0].code, crate::lint::codes::UNKNOWN_COLUMN);
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn full_scan_config_is_pre_planner_shape() {
        let db = db_with_index();
        let q = Query::scan("facts").filter(vec![Predicate::Eq("cat".into(), "c3".into())]);
        let p = plan(&db.snapshot(), &q, &PlannerConfig::full_scan());
        match &p {
            PhysPlan::Filter { input, .. } => match input.as_ref() {
                PhysPlan::Access { path: AccessPath::FullScan, residual, projection, .. } => {
                    assert!(residual.is_empty());
                    assert!(projection.is_none());
                }
                other => panic!("expected bare full-scan access, got {other:?}"),
            },
            other => panic!("expected filter over access, got {other:?}"),
        }
        let (r, trace) = execute_with(&db, &q, &PlannerConfig::full_scan()).unwrap();
        assert_eq!(r.rows.len(), 10);
        assert_eq!(trace.total_scanned(), 100, "reference path scans everything");
    }

    #[test]
    fn join_builds_on_smaller_side_with_identical_output() {
        let db = db_with_index();
        let small = Query::scan("facts").filter(vec![Predicate::Eq("cat".into(), "c2".into())]);
        let q_small_left = small.clone().join(Query::scan("facts"), "cat", "cat");
        let q_small_right = Query::scan("facts").join(small, "cat", "cat");
        for q in [&q_small_left, &q_small_right] {
            let (selected, trace) = execute_with(&db, q, &PlannerConfig::default()).unwrap();
            let (fixed, _) = execute_with(&db, q, &PlannerConfig::full_scan()).unwrap();
            assert_eq!(selected, fixed, "build-side swap must not change output");
            assert!(trace.label.starts_with("HashJoin["));
        }
        let (_, trace) = execute_with(&db, &q_small_left, &PlannerConfig::default()).unwrap();
        assert!(trace.label.contains("build=left"), "smaller left side: {}", trace.label);
        let (_, trace) = execute_with(&db, &q_small_right, &PlannerConfig::default()).unwrap();
        assert!(trace.label.contains("build=right"), "smaller right side: {}", trace.label);
    }

    #[test]
    fn trace_reports_estimated_and_actual_rows_per_operator() {
        let db = db_with_index();
        let q = Query::scan("facts")
            .filter(vec![Predicate::Eq("cat".into(), "c7".into())])
            .aggregate(None, AggFn::Count, "num");
        let (r, trace) = execute_with(&db, &q, &PlannerConfig::default()).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(10)));
        assert_eq!(trace.actual_rows, 1);
        let access = &trace.children[0];
        assert_eq!(access.est_rows, Some(10));
        assert_eq!(access.actual_rows, 10);
        assert_eq!(access.scanned, Some(10));
        let text = trace.render();
        assert!(text.contains("Aggregate[COUNT(num)]"), "{text}");
        assert!(text.contains("index eq(cat = c7)"), "{text}");
        assert!(text.contains("est=10"), "{text}");
    }

    #[test]
    fn unindexed_and_unindexable_predicates_stay_on_full_scan() {
        let db = db_with_index();
        // `num` has no index here; Contains can never use one.
        for preds in [
            vec![Predicate::Ge("num".into(), Value::Int(3))],
            vec![Predicate::Contains("cat".into(), "c".into())],
            vec![Predicate::Ne("cat".into(), "c1".into())],
            vec![Predicate::In("cat".into(), vec!["c1".into(), "c2".into()])],
        ] {
            let q = Query::scan("facts").filter(preds);
            match plan(&db.snapshot(), &q, &PlannerConfig::default()) {
                PhysPlan::Access { path: AccessPath::FullScan, .. } => {}
                other => panic!("expected full scan, got {other:?}"),
            }
        }
    }

    #[test]
    fn eq_beats_range_and_lowest_estimate_wins() {
        let db = db_with_index();
        db.create_index("facts", "num").unwrap();
        // `id` is unique-ish via primary key but unindexed as a secondary;
        // cat (10 distinct) vs num (17 distinct): num estimates fewer rows
        // per value, so the planner probes num.
        let q = Query::scan("facts").filter(vec![
            Predicate::Eq("cat".into(), "c1".into()),
            Predicate::Eq("num".into(), Value::Int(4)),
            Predicate::Ge("id".into(), Value::Int(0)),
        ]);
        match plan(&db.snapshot(), &q, &PlannerConfig::default()) {
            PhysPlan::Access { path: AccessPath::IndexEq { column, .. }, residual, .. } => {
                assert_eq!(column, "num");
                assert_eq!(residual.len(), 3, "every predicate re-checked");
            }
            other => panic!("expected eq probe, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_execution_reports_storage_and_lint_errors_and_stays_pinned() {
        let db = db_with_index();
        let snap = db.snapshot();
        let ghost = Query::scan("ghost");
        assert!(matches!(
            execute_snapshot_with(&snap, &ghost, &PlannerConfig::default()),
            Err(QueryError::Storage(_))
        ));
        let bad_col = Query::scan("facts").filter(vec![Predicate::Eq("nope".into(), Value::Null)]);
        assert!(matches!(
            execute_snapshot_with(&snap, &bad_col, &PlannerConfig::default()),
            Err(QueryError::Invalid(_))
        ));
        // The snapshot stays pinned: a post-snapshot write is invisible.
        let tx = db.begin();
        db.insert(tx, "facts", vec![Value::Int(999), "c1".into(), Value::Int(1)]).unwrap();
        db.commit(tx).unwrap();
        let count = Query::scan("facts").aggregate(None, AggFn::Count, "id");
        let live = execute(&db, &count).unwrap();
        let pinned = crate::engine::execute_snapshot(&snap, &count).unwrap();
        assert_eq!(pinned.scalar(), Some(&Value::Int(100)));
        assert_eq!(live.scalar(), Some(&Value::Int(101)));
        // So does its catalog: an index built after the pin is not one the
        // old view has, so a plan made from it cannot name it.
        db.create_index("facts", "num").unwrap();
        let cfg = PlannerConfig::default();
        let by_num = Query::scan("facts").filter(vec![Predicate::Eq("num".into(), Value::Int(1))]);
        assert!(matches!(
            plan(&snap, &by_num, &cfg),
            PhysPlan::Access { path: AccessPath::FullScan, .. }
        ));
        let (old, old_trace) = execute_snapshot_with(&snap, &by_num, &cfg).unwrap();
        assert_eq!(old_trace.total_scanned(), 100, "full scan of the pre-DDL rows");
        assert!(old.rows.iter().all(|r| r[0] != Value::Int(999)));
        let fresh = db.snapshot();
        assert!(matches!(
            plan(&fresh, &by_num, &cfg),
            PhysPlan::Access { path: AccessPath::IndexEq { .. }, .. }
        ));
        let (new, new_trace) = execute_snapshot_with(&fresh, &by_num, &cfg).unwrap();
        assert_eq!(new.rows.len(), old.rows.len() + 1, "row 999 has num = 1");
        assert_eq!(new_trace.total_scanned(), new.rows.len());
    }
}
