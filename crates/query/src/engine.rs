//! A compositional structured query engine over the structured store.
//!
//! Queries are algebraic trees — scan, filter, project, join, aggregate —
//! executed against one MVCC snapshot of a [`Database`]. This is the
//! "structured querying" exploitation mode, the one the paper's motivating
//! example ("find the average March–September temperature in Madison")
//! needs and keyword search cannot express.

use quarry_exec::diag::{LintReport, Span};
use quarry_storage::{Database, DbSnapshot, Row, StorageError, Value};
use serde::{Deserialize, Serialize};
use std::fmt::{self, Write as _};

/// Query-evaluation error.
#[derive(Debug)]
pub enum QueryError {
    /// Underlying storage failure.
    Storage(StorageError),
    /// Aggregation over a non-numeric column.
    NotNumeric(String),
    /// The query failed static validation before execution — the report
    /// carries span-anchored [`crate::lint`] diagnostics over the query's
    /// SQL-flavored rendering.
    Invalid(LintReport),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Storage(e) => write!(f, "storage: {e}"),
            QueryError::NotNumeric(c) => write!(f, "column {c} is not numeric"),
            QueryError::Invalid(report) => write!(
                f,
                "query rejected by static validation ({} error(s)):\n{}",
                report.error_count(),
                report.render()
            ),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<StorageError> for QueryError {
    fn from(e: StorageError) -> Self {
        QueryError::Storage(e)
    }
}

/// A row predicate over named columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// `column = value`.
    Eq(String, Value),
    /// `column != value`.
    Ne(String, Value),
    /// `column < value`.
    Lt(String, Value),
    /// `column <= value`.
    Le(String, Value),
    /// `column > value`.
    Gt(String, Value),
    /// `column >= value`.
    Ge(String, Value),
    /// Case-insensitive substring match on a text column.
    Contains(String, String),
    /// Membership in a value set (`column IN (...)`).
    In(String, Vec<Value>),
}

impl Predicate {
    /// The column the predicate constrains.
    pub fn column(&self) -> &str {
        match self {
            Predicate::Eq(c, _)
            | Predicate::Ne(c, _)
            | Predicate::Lt(c, _)
            | Predicate::Le(c, _)
            | Predicate::Gt(c, _)
            | Predicate::Ge(c, _)
            | Predicate::Contains(c, _)
            | Predicate::In(c, _) => c,
        }
    }

    pub(crate) fn eval(&self, v: &Value) -> bool {
        match self {
            Predicate::Eq(_, x) => v == x,
            Predicate::Ne(_, x) => v != x,
            Predicate::Lt(_, x) => v < x,
            Predicate::Le(_, x) => v <= x,
            Predicate::Gt(_, x) => v > x,
            Predicate::Ge(_, x) => v >= x,
            Predicate::Contains(_, needle) => {
                v.as_text().is_some_and(|t| t.to_lowercase().contains(&needle.to_lowercase()))
            }
            Predicate::In(_, set) => set.contains(v),
        }
    }

    /// Render for forms/explanations.
    pub fn display(&self) -> String {
        match self {
            Predicate::Eq(c, v) => format!("{c} = {v}"),
            Predicate::Ne(c, v) => format!("{c} != {v}"),
            Predicate::Lt(c, v) => format!("{c} < {v}"),
            Predicate::Le(c, v) => format!("{c} <= {v}"),
            Predicate::Gt(c, v) => format!("{c} > {v}"),
            Predicate::Ge(c, v) => format!("{c} >= {v}"),
            Predicate::Contains(c, s) => format!("{c} CONTAINS '{s}'"),
            Predicate::In(c, vs) => {
                let items: Vec<String> = vs.iter().map(Value::to_string).collect();
                format!("{c} IN ({})", items.join(", "))
            }
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggFn {
    /// Row count (column ignored for counting, still named for display).
    Count,
    /// Numeric sum.
    Sum,
    /// Numeric mean.
    Avg,
    /// Minimum (any type, total order).
    Min,
    /// Maximum (any type, total order).
    Max,
}

impl AggFn {
    /// SQL-ish name.
    pub fn name(&self) -> &'static str {
        match self {
            AggFn::Count => "COUNT",
            AggFn::Sum => "SUM",
            AggFn::Avg => "AVG",
            AggFn::Min => "MIN",
            AggFn::Max => "MAX",
        }
    }

    /// The column an aggregate over `over` outputs, `AVG(temp)`: how a
    /// result names it and how a query renders it.
    pub fn column(&self, over: &str) -> String {
        format!("{}({over})", self.name())
    }
}

/// A query tree.
///
/// ```
/// use quarry_query::engine::{AggFn, Predicate, Query};
/// use quarry_storage::Value;
///
/// // "find the average March–September temperature in Madison"
/// let q = Query::scan("temps")
///     .filter(vec![
///         Predicate::Eq("city".into(), "Madison".into()),
///         Predicate::Ge("month".into(), Value::Int(3)),
///         Predicate::Le("month".into(), Value::Int(9)),
///     ])
///     .aggregate(None, AggFn::Avg, "temp");
/// assert!(q.display().starts_with("SELECT AVG(temp)"));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Query {
    /// Read a whole table.
    Scan {
        /// Table name.
        table: String,
    },
    /// Keep rows satisfying every predicate.
    Filter {
        /// Input query.
        input: Box<Query>,
        /// Conjunctive predicates.
        predicates: Vec<Predicate>,
    },
    /// Keep only the named columns, in order.
    Project {
        /// Input query.
        input: Box<Query>,
        /// Columns to keep.
        columns: Vec<String>,
    },
    /// Equi-join two inputs on named columns.
    Join {
        /// Left input.
        left: Box<Query>,
        /// Right input.
        right: Box<Query>,
        /// Join column on the left.
        left_col: String,
        /// Join column on the right.
        right_col: String,
    },
    /// Group by an optional column and aggregate another.
    Aggregate {
        /// Input query.
        input: Box<Query>,
        /// Optional grouping column (`None` = one global group).
        group_by: Option<String>,
        /// Aggregate function.
        agg: AggFn,
        /// Aggregated column.
        over: String,
    },
    /// Order by a column and optionally keep the first `limit` rows
    /// (top-k: the "ranking" exploitation mode).
    Sort {
        /// Input query.
        input: Box<Query>,
        /// Ordering column.
        by: String,
        /// Descending when true.
        desc: bool,
        /// Optional row cap after sorting.
        limit: Option<usize>,
    },
}

impl Query {
    /// Convenience: scan a table.
    pub fn scan(table: &str) -> Query {
        Query::Scan { table: table.to_string() }
    }

    /// Convenience: filter this query.
    pub fn filter(self, predicates: Vec<Predicate>) -> Query {
        Query::Filter { input: Box::new(self), predicates }
    }

    /// Convenience: project this query.
    pub fn project(self, columns: &[&str]) -> Query {
        Query::Project {
            input: Box::new(self),
            columns: columns.iter().map(|c| c.to_string()).collect(),
        }
    }

    /// Convenience: aggregate this query.
    pub fn aggregate(self, group_by: Option<&str>, agg: AggFn, over: &str) -> Query {
        Query::Aggregate {
            input: Box::new(self),
            group_by: group_by.map(str::to_string),
            agg,
            over: over.to_string(),
        }
    }

    /// Convenience: sort (and optionally limit) this query.
    pub fn sort(self, by: &str, desc: bool, limit: Option<usize>) -> Query {
        Query::Sort { input: Box::new(self), by: by.to_string(), desc, limit }
    }

    /// Convenience: join with another query.
    pub fn join(self, right: Query, left_col: &str, right_col: &str) -> Query {
        Query::Join {
            left: Box::new(self),
            right: Box::new(right),
            left_col: left_col.to_string(),
            right_col: right_col.to_string(),
        }
    }

    /// A stable text fingerprint of the query tree: two structurally
    /// identical queries always fingerprint identically. The cluster router
    /// dedupes and orders keyword candidates by it.
    pub fn fingerprint(&self) -> String {
        format!("{self:?}")
    }

    /// Plan, execute, and render the physical operator tree with the
    /// chosen access paths, pushed predicates, and estimated vs. actual
    /// per-operator row counts.
    pub fn explain(&self, db: &Database) -> Result<String, QueryError> {
        self.explain_snapshot(&db.snapshot())
    }

    /// [`Query::explain`] against a snapshot the caller already holds.
    pub fn explain_snapshot(&self, snap: &DbSnapshot) -> Result<String, QueryError> {
        let cfg = crate::planner::PlannerConfig::default();
        let (_, trace) = crate::planner::execute_snapshot_with(snap, self, &cfg)?;
        Ok(format!("PHYSICAL PLAN: {}\n{}", self.display(), trace.render()))
    }

    /// Render as an SQL-flavored one-liner (forms, explanations, logs).
    pub fn display(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, &mut 0, &mut |_, _| {});
        out
    }

    /// The one SQL writer: write the rendering into `out`, handing `name`
    /// the [`Site`] and span of each table and column name as it is
    /// written; `node` is the number the next node takes.
    /// [`Query::display`] drops the spans, and a [`crate::lint`] report
    /// anchors its diagnostics on them.
    pub(crate) fn render(
        &self,
        out: &mut String,
        node: &mut usize,
        name: &mut dyn FnMut(Site, Span),
    ) {
        let at = *node;
        *node += 1;
        match self {
            Query::Scan { table } => {
                write_select(out, |out| out.push('*'));
                write_name(out, name, (at, 0), table);
            }
            Query::Filter { input, predicates } => {
                input.render(out, node, name);
                out.push_str(" WHERE ");
                write_conjunction(out, predicates, &mut |slot, span| name((at, slot), span));
            }
            Query::Project { input, columns } => {
                write_select(out, |out| {
                    for (slot, column) in columns.iter().enumerate() {
                        if slot > 0 {
                            out.push_str(", ");
                        }
                        write_name(out, name, (at, slot), column);
                    }
                });
                input.render_nested(out, node, name);
            }
            Query::Join { left, right, left_col, right_col } => {
                left.render_nested(out, node, name);
                out.push_str(" JOIN ");
                right.render_nested(out, node, name);
                out.push_str(" ON ");
                write_name(out, name, (at, 0), left_col);
                out.push_str(" = ");
                write_name(out, name, (at, 1), right_col);
            }
            Query::Aggregate { input, group_by, agg, over } => {
                write_select(out, |out| {
                    // The aggregated column sits inside `AGG(...)`.
                    let start = out.len() + agg.name().len() + 1;
                    name((at, 0), Span::new(start, start + over.len()));
                    out.push_str(&agg.column(over));
                });
                input.render_nested(out, node, name);
                if let Some(g) = group_by {
                    out.push_str(" GROUP BY ");
                    write_name(out, name, (at, 1), g);
                }
            }
            Query::Sort { input, by, desc, limit } => {
                input.render(out, node, name);
                out.push_str(" ORDER BY ");
                write_name(out, name, (at, 0), by);
                if *desc {
                    out.push_str(" DESC");
                }
                if let Some(l) = limit {
                    let _ = write!(out, " LIMIT {l}");
                }
            }
        }
    }

    /// [`Query::render`] in parentheses: a subquery.
    fn render_nested(&self, out: &mut String, node: &mut usize, name: &mut dyn FnMut(Site, Span)) {
        out.push('(');
        self.render(out, node, name);
        out.push(')');
    }
}

/// Where a table or column name sits in a query tree: its node, numbered
/// in pre-order from 0, and its slot there — a predicate's or a projected
/// column's index; 0 for a table, an aggregated column or a join's left
/// key; 1 for a join's right key or a grouping column.
pub(crate) type Site = (usize, usize);

/// Write `text`, the name at `site`, handing its span to `name`.
fn write_name(out: &mut String, name: &mut dyn FnMut(Site, Span), site: Site, text: &str) {
    name(site, Span::new(out.len(), out.len() + text.len()));
    out.push_str(text);
}

/// `SELECT <list> FROM `: the head of a scan, a projection and an
/// aggregate.
fn write_select(out: &mut String, list: impl FnOnce(&mut String)) {
    out.push_str("SELECT ");
    list(out);
    out.push_str(" FROM ");
}

/// Write `predicates` joined by `AND` — a rendering's `WHERE` clause, an
/// `EXPLAIN` line's predicate list — handing `name` each one's index and
/// the span of its column.
pub(crate) fn write_conjunction<'p>(
    out: &mut String,
    predicates: impl IntoIterator<Item = &'p Predicate>,
    name: &mut dyn FnMut(usize, Span),
) {
    for (slot, p) in predicates.into_iter().enumerate() {
        if slot > 0 {
            out.push_str(" AND ");
        }
        // Every predicate's rendering starts with its column name.
        name(slot, Span::new(out.len(), out.len() + p.column().len()));
        out.push_str(&p.display());
    }
}

/// A materialized result: named columns and rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// The single scalar of a 1×1 result, if it is one.
    pub fn scalar(&self) -> Option<&Value> {
        match (&self.rows[..], self.columns.len()) {
            ([row], 1) => row.first(),
            _ => None,
        }
    }
}

/// Execute a query tree against a database, through the physical planner
/// under its default configuration (index routing, pushdown, and join-side
/// selection all on). See [`crate::planner`] for the toggles and
/// [`crate::planner::execute_with`] for the traced variant.
pub fn execute(db: &Database, q: &Query) -> Result<QueryResult, QueryError> {
    crate::planner::execute_with(db, q, &crate::planner::PlannerConfig::default())
        .map(|(result, _)| result)
}

/// [`execute`] against a [`DbSnapshot`] the caller already holds, so
/// several queries can read one consistent state.
pub fn execute_snapshot(snap: &DbSnapshot, q: &Query) -> Result<QueryResult, QueryError> {
    crate::planner::execute_snapshot_with(snap, q, &crate::planner::PlannerConfig::default())
        .map(|(result, _)| result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_storage::{Column, DataType, TableSchema};

    fn db() -> Database {
        let db = Database::in_memory();
        db.create_table(
            TableSchema::new(
                "cities",
                vec![
                    Column::new("name", DataType::Text),
                    Column::new("state", DataType::Text),
                    Column::new("population", DataType::Int),
                ],
                &["name"],
                &["population"],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_table(
            TableSchema::new(
                "temps",
                vec![
                    Column::new("city", DataType::Text),
                    Column::new("month", DataType::Int),
                    Column::new("temp", DataType::Int),
                ],
                &["city", "month"],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        for (name, state, pop) in [
            ("Madison", "Wisconsin", 250_000i64),
            ("Oakton", "Iowa", 9_500),
            ("Riverdale", "Wisconsin", 120_000),
        ] {
            db.insert_autocommit("cities", vec![name.into(), state.into(), Value::Int(pop)])
                .unwrap();
        }
        let temps = [20, 24, 35, 47, 58, 68, 72, 70, 62, 50, 37, 25];
        for (m, t) in temps.iter().enumerate() {
            db.insert_autocommit(
                "temps",
                vec!["Madison".into(), Value::Int(m as i64 + 1), Value::Int(*t as i64)],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn scan_filter_project() {
        let db = db();
        let q = Query::scan("cities")
            .filter(vec![Predicate::Eq("state".into(), "Wisconsin".into())])
            .project(&["name"]);
        let r = execute(&db, &q).unwrap();
        assert_eq!(r.columns, vec!["name"]);
        let names: Vec<String> = r.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(names, vec!["Madison", "Riverdale"]);
    }

    #[test]
    fn paper_motivating_query_average_march_september_temperature() {
        let db = db();
        // "find the average March–September temperature in Madison"
        let q = Query::scan("temps")
            .filter(vec![
                Predicate::Eq("city".into(), "Madison".into()),
                Predicate::Ge("month".into(), Value::Int(3)),
                Predicate::Le("month".into(), Value::Int(9)),
            ])
            .aggregate(None, AggFn::Avg, "temp");
        let r = execute(&db, &q).unwrap();
        let expect = (35 + 47 + 58 + 68 + 72 + 70 + 62) as f64 / 7.0;
        assert_eq!(r.scalar(), Some(&Value::Float(expect)));
        assert!(q.display().contains("AVG(temp)"));
    }

    #[test]
    fn range_and_contains_predicates() {
        let db = db();
        let q = Query::scan("cities")
            .filter(vec![Predicate::Gt("population".into(), Value::Int(100_000))]);
        assert_eq!(execute(&db, &q).unwrap().rows.len(), 2);
        let q =
            Query::scan("cities").filter(vec![Predicate::Contains("name".into(), "dale".into())]);
        let r = execute(&db, &q).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Text("Riverdale".into()));
    }

    #[test]
    fn group_by_aggregation() {
        let db = db();
        let q = Query::scan("cities").aggregate(Some("state"), AggFn::Sum, "population");
        let r = execute(&db, &q).unwrap();
        assert_eq!(r.columns, vec!["state", "SUM(population)"]);
        assert_eq!(r.rows.len(), 2);
        let wi = r.rows.iter().find(|row| row[0] == Value::Text("Wisconsin".into())).unwrap();
        assert_eq!(wi[1], Value::Float(370_000.0));
    }

    #[test]
    fn count_min_max() {
        let db = db();
        let q = Query::scan("temps").aggregate(None, AggFn::Count, "temp");
        assert_eq!(execute(&db, &q).unwrap().scalar(), Some(&Value::Int(12)));
        let q = Query::scan("temps").aggregate(None, AggFn::Max, "temp");
        assert_eq!(execute(&db, &q).unwrap().scalar(), Some(&Value::Int(72)));
        let q = Query::scan("temps").aggregate(None, AggFn::Min, "temp");
        assert_eq!(execute(&db, &q).unwrap().scalar(), Some(&Value::Int(20)));
    }

    #[test]
    fn join_cities_with_temps() {
        let db = db();
        let q = Query::scan("cities")
            .filter(vec![Predicate::Eq("state".into(), "Wisconsin".into())])
            .join(Query::scan("temps"), "name", "city")
            .filter(vec![Predicate::Eq("month".into(), Value::Int(7))])
            .project(&["name", "temp"]);
        let r = execute(&db, &q).unwrap();
        assert_eq!(r.rows, vec![vec![Value::Text("Madison".into()), Value::Int(72)]]);
    }

    #[test]
    fn join_column_name_collision_prefixed() {
        let db = db();
        let q = Query::scan("cities").join(Query::scan("cities"), "name", "name");
        let r = execute(&db, &q).unwrap();
        assert!(r.columns.contains(&"right.name".to_string()));
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn errors_on_unknown_things() {
        let db = db();
        let q = Query::scan("ghost");
        assert!(matches!(execute(&db, &q), Err(QueryError::Storage(_))));
        // Unknown columns are caught by static validation before anything
        // is read.
        let q = Query::scan("cities").filter(vec![Predicate::Eq("ghost".into(), Value::Null)]);
        match execute(&db, &q) {
            Err(QueryError::Invalid(report)) => {
                assert_eq!(report.error_count(), 1);
                assert_eq!(report.diagnostics[0].code, crate::lint::codes::UNKNOWN_COLUMN);
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        let q = Query::scan("cities").aggregate(None, AggFn::Avg, "name");
        assert!(matches!(execute(&db, &q), Err(QueryError::NotNumeric(_))));
    }

    #[test]
    fn empty_aggregate_is_null_or_zero() {
        let db = db();
        let q = Query::scan("cities")
            .filter(vec![Predicate::Eq("state".into(), "Atlantis".into())])
            .aggregate(None, AggFn::Avg, "population");
        assert_eq!(execute(&db, &q).unwrap().scalar(), Some(&Value::Null));
        let q = Query::scan("cities")
            .filter(vec![Predicate::Eq("state".into(), "Atlantis".into())])
            .aggregate(None, AggFn::Count, "population");
        assert_eq!(execute(&db, &q).unwrap().scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn sort_and_limit() {
        let db = db();
        let q = Query::scan("cities").sort("population", true, Some(2)).project(&["name"]);
        let r = execute(&db, &q).unwrap();
        let names: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
        assert_eq!(names, vec!["Madison", "Riverdale"]);

        let q = Query::scan("cities").sort("population", false, None);
        let r = execute(&db, &q).unwrap();
        assert_eq!(r.rows[0][0], Value::Text("Oakton".into()));
        assert_eq!(r.rows.len(), 3);

        // Sorting after aggregation: warmest month first.
        let q = Query::scan("temps").aggregate(Some("month"), AggFn::Avg, "temp").sort(
            "AVG(temp)",
            true,
            Some(1),
        );
        let r = execute(&db, &q).unwrap();
        assert_eq!(r.rows[0][0], Value::Int(7), "July is warmest");

        let q = Query::scan("cities").sort("ghost", false, None);
        assert!(matches!(execute(&db, &q), Err(QueryError::Invalid(_))));
    }

    #[test]
    fn sort_display() {
        let q = Query::scan("cities").sort("population", true, Some(3));
        assert!(q.display().ends_with("ORDER BY population DESC LIMIT 3"));
    }

    #[test]
    fn display_renders_sql_flavor() {
        let q = Query::scan("cities")
            .filter(vec![Predicate::Eq("state".into(), "Wisconsin".into())])
            .project(&["name"]);
        let s = q.display();
        assert!(s.contains("SELECT name FROM"));
        assert!(s.contains("WHERE state = Wisconsin"));
    }
}
