//! Binding and index-aware physical query planning.
//!
//! [`crate::engine`] defines *what* a query means; this module decides *how*
//! to run it. [`plan`] lowers a `Query` tree to a [`PhysPlan`] in one walk,
//! and that walk is the query's binder: at each table and column name it
//! asks [`crate::lint`], which borrows the scanned table from the snapshot
//! and turns the name into its position in the rows its operator reads —
//! or into a QQ001–QQ003 diagnostic. A query whose diagnostics gate
//! execution is refused with `QueryError::Invalid` before any row is read;
//! otherwise the plan carries the positions, and the executor indexes rows
//! by them and looks no name up. [`crate::lint::check_query`] runs the same
//! walk and reports what it found.
//!
//! The walk makes the three classic optimizations the paper's
//! "database-grade query processing" story needs:
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
//!    walks [`TableView::for_each_row`] and checks the residual while
//!    each row is still borrowed from the snapshot. A non-matching row is
//!    never cloned. What a matching row costs depends on its consumer:
//!    an `Aggregate` directly above the access folds the borrowed row,
//!    cloning a group key when it opens a group; a `Sort` on the column
//!    the access probes an index on has the access walk that index in
//!    key order instead ([`TableView::for_each_in_key_order`], see
//!    [`ScanOrder::Key`]), so the rows arrive ranked and the walk stops
//!    once the limit's k rows have passed; any other `Sort` with a limit
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
//! probe-order output. The one access that returns rows in another order,
//! a key-order walk under a `Sort` on its index column, returns them in
//! the order a stable sort of the row-id order would — by the indexed
//! value, equal values in row-id order — so the sorted result is the
//! same, ties included. Streaming rows into their consumer, and walking
//! in key order, are not toggles: with pushdown off, a query's
//! predicates stay in a `Filter` between the access and the operator,
//! which then folds that filter's materialized rows through the same
//! code.
//!
//! [`execute_with`] returns the result *plus* an [`OpTrace`]: per-operator
//! estimated vs. actual row counts and scan counters, rendered through the
//! shared [`PlanNode`] tree renderer by `Query::explain`.
//!

use crate::engine::{write_conjunction, AggFn, Predicate, Query, QueryError, QueryResult};
use crate::lint::{Binder, Col, Cols};
use quarry_exec::PlanNode;
use quarry_storage::{
    DataType, Database, DbSnapshot, Row, ScanAccess, StorageError, TableView, Value,
};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::ControlFlow;

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
    /// The column whose secondary index the path probes, if it does.
    fn index_column(&self) -> Option<&str> {
        match self {
            AccessPath::IndexEq { column, .. } | AccessPath::IndexRange { column, .. } => {
                Some(column)
            }
            AccessPath::FullScan | AccessPath::PkEq { .. } => None,
        }
    }

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

/// The order a table access hands its rows over in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanOrder {
    /// Row-id (insertion) order, a full scan's: every access's, except
    /// one a `Sort` on its index column sits directly above.
    RowId,
    /// The probed index's key order — ascending, or from the highest value
    /// down with `desc` — with equal values in row-id order: a stable sort
    /// of the row-id order by the index column, so the `Sort` above has
    /// nothing left to do. The walk stops once `limit` rows have passed
    /// the residual.
    Key {
        /// Highest value first.
        desc: bool,
        /// Rows to hand over at most.
        limit: Option<usize>,
    },
}

/// A bound column reference: its name, and its position in the rows its
/// operator reads.
pub type Bound<'a> = (&'a str, usize);

/// A bound predicate, with the position of the value it tests.
pub type Test<'a> = (&'a Predicate, usize);

/// A physical operator tree over one snapshot, every column reference
/// bound.
#[derive(Debug, Clone)]
pub enum PhysPlan<'a> {
    /// Table access: path choice plus pushed-down residual filter and
    /// projection. The residual always carries the *complete* predicate
    /// conjunction — the access path only narrows which rows get checked.
    Access {
        /// Table name.
        table: &'a str,
        /// The table as the snapshot holds it; `None` when it holds none,
        /// which fails the access when it runs.
        view: Option<&'a TableView>,
        /// Chosen access path.
        path: AccessPath,
        /// Pushed-down predicates over table rows, re-checked per fetched
        /// row.
        residual: Vec<Test<'a>>,
        /// Pushed-down projection (column names), if any.
        projection: Option<Vec<String>>,
        /// Where each projected column sits in a table row.
        layout: Option<Vec<usize>>,
        /// The order rows are handed over in.
        order: ScanOrder,
        /// Planner's row estimate for this access, if stats were available.
        est_rows: Option<usize>,
    },
    /// Residual filter that could not be pushed into an access.
    Filter {
        /// Input plan.
        input: Box<PhysPlan<'a>>,
        /// Conjunctive predicates.
        predicates: Vec<Test<'a>>,
    },
    /// Projection that could not be pushed into an access.
    Project {
        /// Input plan.
        input: Box<PhysPlan<'a>>,
        /// Columns to keep, in order.
        columns: Vec<Bound<'a>>,
    },
    /// Hash equi-join.
    HashJoin {
        /// Left input.
        left: Box<PhysPlan<'a>>,
        /// Right input.
        right: Box<PhysPlan<'a>>,
        /// Join column on the left.
        left_col: Bound<'a>,
        /// Join column on the right.
        right_col: Bound<'a>,
        /// Pick the build side by materialized size (else always build
        /// on the right, the historical fixed side).
        select_build_side: bool,
    },
    /// Group + aggregate.
    Aggregate {
        /// Input plan.
        input: Box<PhysPlan<'a>>,
        /// Optional grouping column.
        group_by: Option<Bound<'a>>,
        /// Aggregate function.
        agg: AggFn,
        /// Aggregated column.
        over: Bound<'a>,
    },
    /// Order by + optional limit.
    Sort {
        /// Input plan.
        input: Box<PhysPlan<'a>>,
        /// Ordering column.
        by: Bound<'a>,
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

/// Bind `q` against the snapshot it will run on and lower it to a
/// physical plan. Planning reads no row. A query the binder's diagnostics
/// gate (QQ002) is refused with `QueryError::Invalid`; an unknown table
/// (QQ001) is not, and fails the access that reads it with the storage
/// error the unplanned engine raised.
///
/// Schema, index list and statistics all come from the [`DbSnapshot`] the
/// plan will run on, frozen at its LSN: a plan can only name an index the
/// pinned view has.
pub fn plan<'a>(
    snap: &'a DbSnapshot,
    q: &'a Query,
    cfg: &PlannerConfig,
) -> Result<PhysPlan<'a>, QueryError> {
    bound(snap, q, cfg).map(|(plan, _)| plan)
}

/// [`plan`], with the columns the plan outputs.
fn bound<'a>(
    snap: &'a DbSnapshot,
    q: &'a Query,
    cfg: &PlannerConfig,
) -> Result<(PhysPlan<'a>, Cols<'a>), QueryError> {
    let mut binder = Binder::new(snap);
    let bound = bind(&mut binder, q, cfg);
    if binder.gates() {
        return Err(QueryError::Invalid(binder.report(q)));
    }
    Ok(bound)
}

/// The binding walk: lower `q` under `cfg`, binding each name through `b`.
/// Returns the plan and the columns it outputs, `None` when a table it
/// scans does not exist.
pub(crate) fn bind<'a>(
    b: &mut Binder<'a>,
    q: &'a Query,
    cfg: &PlannerConfig,
) -> (PhysPlan<'a>, Cols<'a>) {
    let n = b.node();
    match q {
        Query::Scan { table } => {
            let view = b.table((n, 0), table);
            let cols = view.map(|v| {
                let columns = &v.schema().columns;
                columns.iter().map(|c| Col { name: Cow::Borrowed(&c.name), dtype: Some(c.dtype) })
            });
            let est_rows = view.map(TableView::row_count);
            let (path, order) = (AccessPath::FullScan, ScanOrder::RowId);
            let (residual, projection, layout) = (Vec::new(), None, None);
            let plan = PhysPlan::Access {
                table,
                view,
                path,
                residual,
                projection,
                layout,
                order,
                est_rows,
            };
            (plan, cols.map(Iterator::collect))
        }
        Query::Filter { input, predicates } => {
            let (mut input, cols) = bind(b, input, cfg);
            let tests: Vec<Test> = predicates
                .iter()
                .enumerate()
                .map(|(slot, p)| (p, b.column((n, slot), p.column(), &cols).0))
                .collect();
            // Only an access with no projection yet: the predicates are
            // bound against the table's columns, not a projected set.
            if let PhysPlan::Access { view, path, residual, projection: None, est_rows, .. } =
                &mut input
            {
                // Pushdown: merge into the access and (re)pick its path
                // from the full conjunction.
                if cfg.pushdown {
                    residual.extend(tests);
                    (*path, *est_rows) = choose_access(*view, residual, cfg);
                    return (input, cols);
                }
                // No pushdown, but access-path selection may still apply:
                // the filter stays above and re-checks everything.
                if cfg.use_index && residual.is_empty() {
                    (*path, *est_rows) = choose_access(*view, &tests, cfg);
                }
            }
            (PhysPlan::Filter { input: Box::new(input), predicates: tests }, cols)
        }
        Query::Project { input, columns } => {
            let (mut input, cols) = bind(b, input, cfg);
            let (mut out, mut at) = (Vec::new(), Vec::new());
            for (slot, c) in columns.iter().enumerate() {
                let (i, dtype) = b.column((n, slot), c, &cols);
                out.push(Col { name: Cow::Borrowed(c), dtype });
                at.push(i);
            }
            // The projection's names are the output whether or not its
            // input could be bound; unknown ones were reported above, so
            // nothing downstream cascades.
            let out = Some(out);
            if let PhysPlan::Access { projection: projection @ None, layout, .. } = &mut input {
                if cfg.pushdown {
                    (*projection, *layout) = (Some(columns.clone()), Some(at));
                    return (input, out);
                }
            }
            let columns = columns.iter().map(String::as_str).zip(at).collect();
            (PhysPlan::Project { input: Box::new(input), columns }, out)
        }
        Query::Join { left, right, left_col, right_col } => {
            let (left, lcols) = bind(b, left, cfg);
            let (right, rcols) = bind(b, right, cfg);
            let left_col = (left_col.as_str(), b.column((n, 0), left_col, &lcols).0);
            let right_col = (right_col.as_str(), b.column((n, 1), right_col, &rcols).0);
            // Left columns, then right ones, prefixed `right.` where a left
            // column has the same name.
            let cols = lcols.zip(rcols).map(|(mut cols, rcols)| {
                let left = cols.len();
                for c in rcols {
                    let clash = cols[..left].iter().any(|l| l.name == c.name);
                    let name = if clash { Cow::Owned(format!("right.{}", c.name)) } else { c.name };
                    cols.push(Col { name, ..c });
                }
                cols
            });
            let (left, right) = (Box::new(left), Box::new(right));
            let select_build_side = cfg.join_side_selection;
            (PhysPlan::HashJoin { left, right, left_col, right_col, select_build_side }, cols)
        }
        Query::Aggregate { input, group_by, agg, over } => {
            let (input, cols) = bind(b, input, cfg);
            let (at, dtype) = b.column((n, 0), over, &cols);
            b.aggregate((n, 0), *agg, over, dtype);
            let group = group_by.as_deref().map(|g| (g, b.column((n, 1), g, &cols)));
            let agg_dtype = match agg {
                AggFn::Count => Some(DataType::Int),
                AggFn::Sum | AggFn::Avg => Some(DataType::Float),
                // MIN/MAX carry the input column's type through.
                AggFn::Min | AggFn::Max => dtype,
            };
            let out = group
                .map(|(g, (_, dtype))| Col { name: Cow::Borrowed(g), dtype })
                .into_iter()
                .chain([Col { name: Cow::Owned(agg.column(over)), dtype: agg_dtype }])
                .collect();
            let group_by = group.map(|(g, (at, _))| (g, at));
            let plan = PhysPlan::Aggregate {
                input: Box::new(input),
                group_by,
                agg: *agg,
                over: (over, at),
            };
            (plan, Some(out))
        }
        Query::Sort { input, by, desc, limit } => {
            let (mut input, cols) = bind(b, input, cfg);
            let by = (by.as_str(), b.column((n, 0), by, &cols).0);
            // Sorting on the column the access probes an index on: the
            // access walks that index in key order instead, so its rows
            // arrive ranked and it stops at the limit. The access's output
            // names are table column names, so the name decides.
            if let PhysPlan::Access { path, order, .. } = &mut input {
                if path.index_column() == Some(by.0) {
                    *order = ScanOrder::Key { desc: *desc, limit: *limit };
                }
            }
            (PhysPlan::Sort { input: Box::new(input), by, desc: *desc, limit: *limit }, cols)
        }
    }
}

/// Pick an access path for the table `view` given the full residual
/// conjunction.
///
/// Preference order: a primary-key lookup when equalities bind every key
/// column (at most one row), then the indexed equality predicate with the
/// lowest estimated match count (from index stats), then the first
/// range-constrained indexed column with all its bounds intersected, then
/// a full scan.
fn choose_access<'a>(
    view: Option<&'a TableView>,
    residual: &[Test<'a>],
    cfg: &PlannerConfig,
) -> (AccessPath, Option<usize>) {
    let full = (AccessPath::FullScan, view.map(TableView::row_count));
    let Some(view) = view.filter(|_| cfg.use_index) else { return full };
    let schema = view.schema();
    // The value the first equality on the table column at `i` binds it to.
    let eq_value = |i: usize| {
        residual.iter().find_map(|&(p, at)| match p {
            Predicate::Eq(_, v) if at == i => Some(v.clone()),
            _ => None,
        })
    };
    if let Some(key) = schema.key.iter().map(|&i| eq_value(i)).collect() {
        return (AccessPath::PkEq { key }, Some(1));
    }
    let is_indexed = |c: &str| schema.indexes.iter().any(|ic| ic == c);

    // Equality probes first: cheapest estimate wins, first wins ties.
    let mut best_eq: Option<(&str, &Value, usize)> = None;
    for &(p, _) in residual {
        if let Predicate::Eq(c, v) = p {
            if is_indexed(c) {
                let est = view.index_stats(c).map(|s| s.eq_estimate()).unwrap_or(usize::MAX);
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
    let range_col = residual.iter().find_map(|&(p, _)| match p {
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
            .filter_map(|(p, _)| match p {
                Predicate::Ge(c, v) | Predicate::Gt(c, v) if c == col => Some(v),
                _ => None,
            })
            .max();
        let hi = residual
            .iter()
            .filter_map(|(p, _)| match p {
                Predicate::Le(c, v) | Predicate::Lt(c, v) if c == col => Some(v),
                _ => None,
            })
            .min();
        let est = view.index_stats(col).map(|s| s.entries);
        let (column, lo, hi) = (col.to_string(), lo.cloned(), hi.cloned());
        return (AccessPath::IndexRange { column, lo, hi }, est);
    }
    full
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
    let (plan, columns) = bound(snap, q, cfg)?;
    let (rows, trace) = exec_plan(&plan)?;
    // Columns are unknown only over a missing table, whose access failed.
    let columns = columns.into_iter().flatten().map(|c| c.name.into_owned()).collect();
    Ok((QueryResult { columns, rows }, trace))
}

/// An operator's input rows, not yet read.
enum Rows<'p> {
    /// A table access, run when read: each candidate row is checked
    /// against the residual while it is borrowed from the snapshot, and
    /// only the rows that pass reach the consumer.
    Access {
        view: &'p TableView,
        scan: ScanAccess<'p>,
        order: ScanOrder,
        residual: &'p [Test<'p>],
        /// Where each output column sits in a table row, when the access
        /// projects.
        layout: Option<&'p [usize]>,
        label: String,
        est_rows: Option<usize>,
    },
    /// Any other operator, already executed.
    Done(Vec<Row>, OpTrace),
}

impl<'p> Rows<'p> {
    /// The rows of `p`: a table access is set up to run when read, any
    /// other plan is executed.
    fn of(p: &'p PhysPlan<'p>) -> Result<Rows<'p>, QueryError> {
        let PhysPlan::Access { table, view, path, residual, projection, layout, order, est_rows } =
            p
        else {
            let (rows, trace) = exec_plan(p)?;
            return Ok(Rows::Done(rows, trace));
        };
        let view = view.ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
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
        let mut label = format!("Access[{table} via {}", path.describe());
        if let ScanOrder::Key { desc, limit } = order {
            label.push_str(" in key order");
            if *desc {
                label.push_str(" desc");
            }
            if let Some(k) = limit {
                label.push_str(&format!(", first {k}"));
            }
        }
        label.push(']');
        if !residual.is_empty() {
            label.push_str(" where ");
            write_conjunction(&mut label, residual.iter().map(|&(p, _)| p), &mut |_, _| {});
        }
        if let Some(pcols) = projection {
            label.push_str(&format!(" -> [{}]", pcols.join(", ")));
        }
        let (layout, order, est_rows) = (layout.as_deref(), *order, *est_rows);
        Ok(Rows::Access { view, scan, order, residual, layout, label, est_rows })
    }

    /// Whether the rows arrive ranked by a `Sort` above, and already cut
    /// at its limit: a table access walking its index in key order.
    fn ranked(&self) -> bool {
        matches!(self, Rows::Access { order: ScanOrder::Key { .. }, .. })
    }

    /// Where each output column sits in a handed-over row; `None` when
    /// handed-over rows are laid out as the output already.
    fn layout(&self) -> Option<&'p [usize]> {
        match self {
            Rows::Access { layout, .. } => *layout,
            Rows::Done(..) => None,
        }
    }

    /// Where output column `at` sits in a handed-over row.
    fn lent(&self, at: usize) -> usize {
        self.layout().map_or(at, |layout| layout[at])
    }

    /// Read every row: a table access's output columns are cloned out of
    /// each row that passes.
    fn collect(self) -> Result<(Vec<Row>, OpTrace), QueryError> {
        if let Rows::Done(rows, trace) = self {
            return Ok((rows, trace));
        }
        let layout = self.layout();
        let mut rows = Vec::new();
        let trace = self.for_each(&mut |row| rows.push(output(layout, row)))?;
        Ok((rows, trace))
    }

    /// Hand every row to `f` in order — lent by a table access, moved out
    /// of an executed result — and return the input's trace.
    fn for_each(self, f: &mut dyn FnMut(Cow<'_, [Value]>)) -> Result<OpTrace, QueryError> {
        match self {
            Rows::Done(rows, trace) => {
                rows.into_iter().for_each(|row| f(Cow::Owned(row)));
                Ok(trace)
            }
            Rows::Access { view, scan, order, residual, label, est_rows, .. } => {
                let mut passed = 0usize;
                let mut visit = |row: &Row| {
                    if passes(residual, row) {
                        passed += 1;
                        f(Cow::Borrowed(row));
                    }
                    passed
                };
                let scanned = match (order, scan) {
                    // Nothing to hand over, so nothing to fetch.
                    (ScanOrder::Key { limit: Some(0), .. }, _) => 0,
                    (ScanOrder::Key { desc, limit }, ScanAccess::Index { column, lo, hi }) => {
                        let limit = limit.unwrap_or(usize::MAX);
                        view.for_each_in_key_order(column, (lo, hi), desc, &mut |row| {
                            let done = visit(row) == limit;
                            Ok(if done {
                                ControlFlow::Break(())
                            } else {
                                ControlFlow::Continue(())
                            })
                        })?
                    }
                    _ => view.for_each_row(scan, &mut |row| {
                        visit(row);
                        Ok(())
                    })?,
                };
                Ok(access_trace(label, est_rows, passed, scanned))
            }
        }
    }
}

/// Whether a row satisfies every predicate.
fn passes(predicates: &[Test<'_>], row: &[Value]) -> bool {
    predicates.iter().all(|(p, i)| p.eval(&row[*i]))
}

/// An access's trace: `rows=` counts the rows it fed its consumer.
fn access_trace(label: String, est_rows: Option<usize>, rows: usize, scanned: usize) -> OpTrace {
    OpTrace { label, est_rows, actual_rows: rows, scanned: Some(scanned), children: Vec::new() }
}

/// A handed-over row as an output row: the lent columns cloned, an owned
/// row moved.
fn output(layout: Option<&[usize]>, row: Cow<'_, [Value]>) -> Row {
    match layout {
        Some(cols) => cols.iter().map(|&i| row[i].clone()).collect(),
        None => row.into_owned(),
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

/// The `limit` best rows of `input` ranked by the value at output
/// position `out_key` — a stable sort truncated to the limit, ties
/// included — and the input's trace.
///
/// `kept` takes every row that can still make it — cloned from an access,
/// moved from an executed input — in arrival order, so a stable sort of it
/// ranks ties by arrival too; at 2k rows it is cut back to the k best,
/// whose last is the bar. A later row that does not rank strictly before
/// the bar has k rows ahead of it already and is never cloned. That is
/// O(n log k) whatever order rows arrive in; without a limit every row is
/// kept and sorted once.
fn top_k(
    input: Rows<'_>,
    out_key: usize,
    desc: bool,
    limit: Option<usize>,
) -> Result<(Vec<Row>, OpTrace), QueryError> {
    let (key, layout) = (input.lent(out_key), input.layout());
    let rank = |a: &Value, b: &Value| if desc { b.cmp(a) } else { a.cmp(b) };
    let k = limit.unwrap_or(usize::MAX);
    let cut = |kept: &mut Vec<Row>| {
        kept.sort_by(|a, b| rank(&a[out_key], &b[out_key]));
        kept.truncate(k);
    };
    let mut kept: Vec<Row> = Vec::new();
    let mut barred = false;
    let child = input.for_each(&mut |row| {
        if k == 0 || (barred && rank(&row[key], &kept[k - 1][out_key]).is_ge()) {
            return;
        }
        kept.push(output(layout, row));
        if kept.len() == k.saturating_mul(2) {
            cut(&mut kept);
            barred = true;
        }
    })?;
    cut(&mut kept);
    Ok((kept, child))
}

/// Run a bound plan: its rows, and its trace.
fn exec_plan(p: &PhysPlan<'_>) -> Result<(Vec<Row>, OpTrace), QueryError> {
    let (rows, label, children) = match p {
        PhysPlan::Access { .. } => return Rows::of(p)?.collect(),
        PhysPlan::Filter { input, predicates } => {
            let (mut rows, child) = exec_plan(input)?;
            rows.retain(|row| passes(predicates, row));
            let mut label = String::from("Filter[");
            write_conjunction(&mut label, predicates.iter().map(|&(p, _)| p), &mut |_, _| {});
            label.push(']');
            (rows, label, vec![child])
        }
        PhysPlan::Project { input, columns } => {
            let (rows, child) = exec_plan(input)?;
            let rows =
                rows.iter().map(|row| columns.iter().map(|&(_, i)| row[i].clone()).collect());
            let names: Vec<&str> = columns.iter().map(|&(c, _)| c).collect();
            (rows.collect(), format!("Project[{}]", names.join(", ")), vec![child])
        }
        PhysPlan::HashJoin { left, right, left_col, right_col, select_build_side } => {
            let (l, ltrace) = exec_plan(left)?;
            let (r, rtrace) = exec_plan(right)?;
            let (li, ri) = (left_col.1, right_col.1);
            let build_left = *select_build_side && l.len() < r.len();
            let mut rows = Vec::new();
            if build_left {
                // Build on the (smaller) left, probe with the right —
                // but still emit left-major, right-minor order, exactly
                // like the fixed-side join below.
                let mut table: HashMap<&Value, Vec<usize>> = HashMap::new();
                for (i, lrow) in l.iter().enumerate() {
                    table.entry(&lrow[li]).or_default().push(i);
                }
                let mut matches_per_left: Vec<Vec<usize>> = vec![Vec::new(); l.len()];
                for (j, rrow) in r.iter().enumerate() {
                    if let Some(lids) = table.get(&rrow[ri]) {
                        for &i in lids {
                            matches_per_left[i].push(j);
                        }
                    }
                }
                for (lrow, matches) in l.iter().zip(&matches_per_left) {
                    for &j in matches {
                        let mut joined = lrow.clone();
                        joined.extend(r[j].iter().cloned());
                        rows.push(joined);
                    }
                }
            } else {
                let mut table: HashMap<&Value, Vec<&Row>> = HashMap::new();
                for rrow in &r {
                    table.entry(&rrow[ri]).or_default().push(rrow);
                }
                for lrow in &l {
                    if let Some(matches) = table.get(&lrow[li]) {
                        for rrow in matches {
                            let mut joined = lrow.clone();
                            joined.extend(rrow.iter().cloned());
                            rows.push(joined);
                        }
                    }
                }
            }
            let build = if build_left { "left" } else { "right" };
            let label = format!("HashJoin[{} = {}, build={build}]", left_col.0, right_col.0);
            (rows, label, vec![ltrace, rtrace])
        }
        PhysPlan::Aggregate { input, group_by, agg, over: (over, at) } => {
            let input = Rows::of(input)?;
            let oi = input.lent(*at);
            let gi = group_by.map(|(_, at)| input.lent(at));
            // A group's key is the first of its equal keys to arrive, and
            // is cloned only then.
            let mut groups: HashMap<Value, Fold> = HashMap::new();
            let mut all = Fold::new();
            let child = input.for_each(&mut |row| match gi {
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
            let g = group_by.map(|(g, _)| format!(" group by {g}")).unwrap_or_default();
            (rows, format!("Aggregate[{}{g}]", agg.column(over)), vec![child])
        }
        PhysPlan::Sort { input, by: (by, out_key), desc, limit } => {
            let input = Rows::of(input)?;
            // An access walking its index in key order hands over exactly
            // the rows a stable sort truncated to the limit keeps, in order.
            let (kept, child) = if input.ranked() {
                input.collect()?
            } else {
                top_k(input, *out_key, *desc, *limit)?
            };
            let dir = if *desc { " desc" } else { "" };
            let lim = limit.map(|l| format!(" limit {l}")).unwrap_or_default();
            (kept, format!("Sort[{by}{dir}{lim}]"), vec![child])
        }
    };
    let actual_rows = rows.len();
    Ok((rows, OpTrace { label, est_rows: None, actual_rows, scanned: None, children }))
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
        let snap = db.snapshot();
        let p = plan(&snap, &q, &PlannerConfig::default()).unwrap();
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
        match plan(&db.snapshot(), &q, &cfg).unwrap() {
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
            plan(&db.snapshot(), &range, &cfg).unwrap(),
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
        let snap = db.snapshot();
        let p = plan(&snap, &q, &PlannerConfig::default()).unwrap();
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
    fn a_sort_on_the_probed_column_walks_the_index_in_key_order() {
        let db = db_with_index();
        db.create_index("facts", "num").unwrap();
        let snap = db.snapshot();
        let window = || Query::scan("facts").filter(vec![Predicate::Ge("num".into(), 4.into())]);
        let order_of = |q: &Query, cfg: &PlannerConfig| match plan(&snap, q, cfg).unwrap() {
            PhysPlan::Sort { input, .. } => match *input {
                PhysPlan::Access { order, .. } => Some(order),
                _ => None,
            },
            other => panic!("expected a sort, got {other:?}"),
        };
        let cfg = PlannerConfig::default();
        let key = |desc, limit| Some(ScanOrder::Key { desc, limit });
        assert_eq!(order_of(&window().sort("num", true, Some(3)), &cfg), key(true, Some(3)));
        assert_eq!(order_of(&window().sort("num", false, None), &cfg), key(false, None));
        let probe = Query::scan("facts").filter(vec![Predicate::Eq("cat".into(), "c1".into())]);
        assert_eq!(order_of(&probe.sort("cat", true, Some(2)), &cfg), key(true, Some(2)));
        let projected = window().project(&["id", "num"]).sort("num", true, Some(3));
        assert_eq!(order_of(&projected, &cfg), key(true, Some(3)));
        // Another sort column, no index path, or no pushdown: row-id order.
        assert_eq!(order_of(&window().sort("id", true, Some(3)), &cfg), Some(ScanOrder::RowId));
        let full = Query::scan("facts").sort("num", true, Some(3));
        assert_eq!(order_of(&full, &cfg), Some(ScanOrder::RowId));
        let unpushed = PlannerConfig { pushdown: false, ..cfg };
        assert_eq!(order_of(&window().sort("num", true, Some(3)), &unpushed), None);
        let q = window().sort("num", true, Some(3));
        assert_eq!(order_of(&q, &PlannerConfig::full_scan()), None);
    }

    #[test]
    fn projection_and_predicates_push_into_access() {
        let db = db_with_index();
        let q = Query::scan("facts")
            .filter(vec![Predicate::Eq("cat".into(), "c1".into())])
            .project(&["id"]);
        match plan(&db.snapshot(), &q, &PlannerConfig::default()).unwrap() {
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
        // as a diagnostic of the binding walk, before any row is read.
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
        let snap = db.snapshot();
        let p = plan(&snap, &q, &PlannerConfig::full_scan()).unwrap();
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
            match plan(&db.snapshot(), &q, &PlannerConfig::default()).unwrap() {
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
        match plan(&db.snapshot(), &q, &PlannerConfig::default()).unwrap() {
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
            plan(&snap, &by_num, &cfg).unwrap(),
            PhysPlan::Access { path: AccessPath::FullScan, .. }
        ));
        let (old, old_trace) = execute_snapshot_with(&snap, &by_num, &cfg).unwrap();
        assert_eq!(old_trace.total_scanned(), 100, "full scan of the pre-DDL rows");
        assert!(old.rows.iter().all(|r| r[0] != Value::Int(999)));
        let fresh = db.snapshot();
        assert!(matches!(
            plan(&fresh, &by_num, &cfg).unwrap(),
            PhysPlan::Access { path: AccessPath::IndexEq { .. }, .. }
        ));
        let (new, new_trace) = execute_snapshot_with(&fresh, &by_num, &cfg).unwrap();
        assert_eq!(new.rows.len(), old.rows.len() + 1, "row 999 has num = 1");
        assert_eq!(new_trace.total_scanned(), new.rows.len());
    }
}
