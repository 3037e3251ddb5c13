//! Binding: a structured query's names, checked and resolved once against
//! the snapshot it will run on.
//!
//! [`crate::planner::plan`] lowers a [`Query`] tree in one walk that binds
//! it: at each table and column name the walk asks the `Binder` here. A
//! scanned table is borrowed from the snapshot, schema and all, as its
//! [`TableView`]; a column name becomes its position in the rows its
//! operator reads — the position the executor indexes rows by, so
//! execution looks no name up — or a diagnostic. [`check_query`] runs the
//! same walk and reports what it found; the planner refuses a query whose
//! findings gate execution.
//!
//! Binding renders nothing. A finding records where in the tree its name
//! sits, and a report renders the query once, through the writer behind
//! [`Query::display`], which hands over the span of each name as it writes
//! it. The report's `source` is therefore always `q.display()`, and every
//! span indexes into it.
//!
//! Codes:
//!
//! - **QQ001** (error) — unknown table. Reported but *not* an execution
//!   gate: the engine's `StorageError::NoSuchTable` path stays intact for
//!   callers that probe tables dynamically.
//! - **QQ002** (error) — unknown column reference in a filter predicate,
//!   projection list, join key, aggregate, grouping, or sort key. Gates
//!   execution: [`crate::planner::plan`] refuses the query with
//!   `QueryError::Invalid` before any row is read.
//! - **QQ003** (warning) — `SUM`/`AVG` over a column declared `Text`:
//!   statically certain to fail with `NotNumeric` on any non-null value.

use crate::engine::{AggFn, Query, Site};
use crate::planner::{bind, PlannerConfig};
use quarry_exec::diag::{closest, Diagnostic, LintReport, Severity, Span};
use quarry_storage::{DataType, DbSnapshot, TableView};
use std::borrow::Cow;

/// Diagnostic codes for structured-query validation.
pub mod codes {
    /// Unknown table in a scan.
    pub const UNKNOWN_TABLE: &str = "QQ001";
    /// Unknown column reference.
    pub const UNKNOWN_COLUMN: &str = "QQ002";
    /// Numeric aggregate over a column declared `Text`.
    pub const TEXT_AGGREGATE: &str = "QQ003";
}

/// One column flowing out of a subtree.
pub(crate) struct Col<'a> {
    pub(crate) name: Cow<'a, str>,
    /// Declared type, when traceable back to a scanned schema column.
    pub(crate) dtype: Option<DataType>,
}

/// The columns a subtree outputs, in row order; `None` when a table it
/// scans does not exist.
pub(crate) type Cols<'a> = Option<Vec<Col<'a>>>;

/// The state of one binding walk over a query tree.
pub(crate) struct Binder<'a> {
    snap: &'a DbSnapshot,
    /// The number the next node takes: nodes count in the pre-order
    /// [`Query::render`] numbers them in.
    next: usize,
    /// Findings, each with the site of the name its span is to cover.
    diags: Vec<(Site, Diagnostic)>,
}

impl<'a> Binder<'a> {
    pub(crate) fn new(snap: &'a DbSnapshot) -> Binder<'a> {
        Binder { snap, next: 0, diags: Vec::new() }
    }

    /// Enter the next node: its number.
    pub(crate) fn node(&mut self) -> usize {
        self.next += 1;
        self.next - 1
    }

    /// The table a scan names, borrowed from the snapshot; QQ001 when the
    /// snapshot has none.
    pub(crate) fn table(&mut self, site: Site, table: &str) -> Option<&'a TableView> {
        let view = self.snap.table(table).ok();
        if view.is_none() {
            let d = error(codes::UNKNOWN_TABLE, format!("unknown table `{table}`"));
            let tables = self.snap.table_names();
            let d = match closest(table, tables.iter().map(String::as_str)) {
                Some(s) => d.with_help(format!("did you mean `{s}`?")),
                None => d,
            };
            self.diags.push((site, d));
        }
        view
    }

    /// Where column `name` sits in rows laid out as `columns`, with its
    /// declared type; QQ002 when no column has that name. Over unknown
    /// columns a name is not checked — the missing table is reported
    /// already — and binds to 0: a plan over a missing table fails when it
    /// reads that table, before it indexes any row.
    pub(crate) fn column(
        &mut self,
        site: Site,
        name: &str,
        columns: &Cols<'_>,
    ) -> (usize, Option<DataType>) {
        let Some(cols) = columns else { return (0, None) };
        if let Some((at, c)) = cols.iter().enumerate().find(|(_, c)| c.name == name) {
            return (at, c.dtype);
        }
        let names: Vec<&str> = cols.iter().map(|c| c.name.as_ref()).collect();
        let d = error(codes::UNKNOWN_COLUMN, format!("unknown column `{name}`"));
        let d = match closest(name, names.iter().copied()) {
            Some(s) => d.with_help(format!("did you mean `{s}`?")),
            None if names.is_empty() => d,
            None => d.with_help(format!("available columns: {}", names.join(", "))),
        };
        self.diags.push((site, d));
        (0, None)
    }

    /// QQ003 when a `SUM` or `AVG` reads a column declared `Text`.
    pub(crate) fn aggregate(
        &mut self,
        site: Site,
        agg: AggFn,
        over: &str,
        dtype: Option<DataType>,
    ) {
        if matches!(agg, AggFn::Sum | AggFn::Avg) && dtype == Some(DataType::Text) {
            let message = format!("{} over `{over}`, which is declared Text", agg.name());
            let d = Diagnostic::warning(codes::TEXT_AGGREGATE, Span::point(0), message).with_help(
                "SUM/AVG need a numeric column; this fails at runtime on any non-null value",
            );
            self.diags.push((site, d));
        }
    }

    /// Whether a finding stops execution.
    pub(crate) fn gates(&self) -> bool {
        gates_execution(self.diags.iter().map(|(_, d)| d))
    }

    /// The findings as a report over `q`'s rendering, each anchored on the
    /// span of its name (the report orders them by span).
    pub(crate) fn report(self, q: &Query) -> LintReport {
        let mut diags = self.diags;
        let mut source = String::new();
        q.render(&mut source, &mut 0, &mut |site, span| {
            for (_, d) in diags.iter_mut().filter(|(s, _)| *s == site) {
                d.span = span;
            }
        });
        LintReport::new("<query>", source, diags.into_iter().map(|(_, d)| d).collect())
    }
}

/// An error whose span the report fills in.
fn error(code: &'static str, message: String) -> Diagnostic {
    Diagnostic::error(code, Span::point(0), message)
}

/// Validate a query tree against the schemas of the snapshot it will run
/// on: the planner's binding walk, reported.
///
/// The returned report's `source` is the query's [`Query::display`]
/// rendering and every diagnostic's span indexes into it.
pub fn check_query(db: &DbSnapshot, q: &Query) -> LintReport {
    let mut binder = Binder::new(db);
    bind(&mut binder, q, &PlannerConfig::default());
    binder.report(q)
}

/// True when a diagnostic should stop execution: an error other than
/// QQ001, which stays a storage error so dynamic table probing keeps its
/// existing failure mode.
pub(crate) fn gates_execution<'d>(diags: impl IntoIterator<Item = &'d Diagnostic>) -> bool {
    diags.into_iter().any(|d| d.severity == Severity::Error && d.code != codes::UNKNOWN_TABLE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Predicate;
    use quarry_exec::diag::Severity;
    use quarry_storage::{Column, Database, TableSchema, Value};

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
        db
    }

    /// The source text a diagnostic's span covers.
    fn covered<'r>(report: &'r LintReport, d: &Diagnostic) -> &'r str {
        &report.source[d.span.start..d.span.end]
    }

    #[test]
    fn rendering_matches_display_exactly() {
        let db = db();
        let queries = [
            Query::scan("cities"),
            Query::scan("cities")
                .filter(vec![
                    Predicate::Eq("state".into(), "Wisconsin".into()),
                    Predicate::Gt("population".into(), Value::Int(100)),
                ])
                .project(&["name", "population"]),
            Query::scan("cities")
                .join(Query::scan("temps"), "name", "city")
                .filter(vec![Predicate::In("month".into(), vec![Value::Int(3), Value::Int(4)])]),
            Query::scan("temps").aggregate(Some("city"), AggFn::Avg, "temp").sort(
                "AVG(temp)",
                true,
                Some(5),
            ),
            Query::scan("ghost").project(&["x"]),
        ];
        for q in &queries {
            let report = check_query(&db.snapshot(), q);
            assert_eq!(report.source, q.display(), "validator must re-render display() exactly");
        }
    }

    #[test]
    fn valid_queries_are_clean() {
        let db = db();
        let q = Query::scan("cities")
            .filter(vec![Predicate::Eq("state".into(), "Wisconsin".into())])
            .join(Query::scan("temps"), "name", "city")
            .aggregate(Some("state"), AggFn::Avg, "temp")
            .sort("AVG(temp)", true, Some(3));
        let report = check_query(&db.snapshot(), &q);
        assert!(report.is_clean(), "expected clean report, got:\n{report}");
        assert_eq!(report.warning_count(), 0);
    }

    #[test]
    fn unknown_table_is_qq001_with_suggestion() {
        let db = db();
        let report = check_query(&db.snapshot(), &Query::scan("citis"));
        assert_eq!(report.error_count(), 1);
        let d = &report.diagnostics[0];
        assert_eq!(d.code, codes::UNKNOWN_TABLE);
        assert_eq!(covered(&report, d), "citis");
        assert_eq!(d.help.as_deref(), Some("did you mean `cities`?"));
        // QQ001 alone does not gate execution (storage keeps that error).
        assert!(!gates_execution(&report.diagnostics));
    }

    #[test]
    fn unknown_filter_column_is_qq002_with_suggestion() {
        let db = db();
        let q = Query::scan("cities").filter(vec![
            Predicate::Eq("state".into(), "Wisconsin".into()),
            Predicate::Gt("populaton".into(), Value::Int(5)),
        ]);
        let report = check_query(&db.snapshot(), &q);
        assert_eq!(report.error_count(), 1);
        let d = &report.diagnostics[0];
        assert_eq!(d.code, codes::UNKNOWN_COLUMN);
        assert_eq!(covered(&report, d), "populaton");
        assert_eq!(d.help.as_deref(), Some("did you mean `population`?"));
        assert!(gates_execution(&report.diagnostics));
    }

    #[test]
    fn projection_join_group_and_sort_references_are_checked() {
        let db = db();
        // Projection.
        let report =
            check_query(&db.snapshot(), &Query::scan("cities").project(&["name", "ghost"]));
        assert_eq!(report.error_count(), 1);
        assert_eq!(covered(&report, &report.diagnostics[0]), "ghost");
        // Join keys, both sides.
        let q = Query::scan("cities").join(Query::scan("temps"), "nme", "cty");
        let report = check_query(&db.snapshot(), &q);
        assert_eq!(report.error_count(), 2);
        assert_eq!(covered(&report, &report.diagnostics[0]), "nme");
        assert_eq!(covered(&report, &report.diagnostics[1]), "cty");
        // Group-by and sort key.
        let q = Query::scan("temps").aggregate(Some("citty"), AggFn::Avg, "temp");
        let report = check_query(&db.snapshot(), &q);
        assert_eq!(report.error_count(), 1);
        assert_eq!(covered(&report, &report.diagnostics[0]), "citty");
        let q = Query::scan("cities").sort("popluation", true, None);
        let report = check_query(&db.snapshot(), &q);
        assert_eq!(report.error_count(), 1);
        assert_eq!(covered(&report, &report.diagnostics[0]), "popluation");
    }

    #[test]
    fn filtering_a_projected_away_column_is_flagged() {
        let db = db();
        let q = Query::scan("cities")
            .project(&["name"])
            .filter(vec![Predicate::Eq("state".into(), "Wisconsin".into())]);
        let report = check_query(&db.snapshot(), &q);
        assert_eq!(report.error_count(), 1);
        let d = &report.diagnostics[0];
        assert_eq!(d.code, codes::UNKNOWN_COLUMN);
        assert_eq!(covered(&report, d), "state");
    }

    #[test]
    fn join_collision_columns_use_right_prefix() {
        let db = db();
        // `right.name` is addressable downstream; plain second `name`
        // resolves to the left side, matching the executor.
        let q = Query::scan("cities")
            .join(Query::scan("cities"), "name", "name")
            .project(&["name", "right.name"]);
        assert!(check_query(&db.snapshot(), &q).is_clean());
    }

    #[test]
    fn text_aggregate_is_a_warning_not_an_error() {
        let db = db();
        let q = Query::scan("cities").aggregate(None, AggFn::Avg, "name");
        let report = check_query(&db.snapshot(), &q);
        assert_eq!(report.error_count(), 0);
        assert_eq!(report.warning_count(), 1);
        let d = &report.diagnostics[0];
        assert_eq!(d.code, codes::TEXT_AGGREGATE);
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(covered(&report, d), "name");
        assert!(!gates_execution(&report.diagnostics));
        // MIN/MAX over text are fine; COUNT too.
        for agg in [AggFn::Min, AggFn::Max, AggFn::Count] {
            let q = Query::scan("cities").aggregate(None, agg, "name");
            assert!(check_query(&db.snapshot(), &q).is_clean());
        }
    }

    #[test]
    fn unknown_table_does_not_cascade_column_errors() {
        let db = db();
        let q = Query::scan("ghost")
            .filter(vec![Predicate::Eq("anything".into(), Value::Null)])
            .project(&["whatever"]);
        let report = check_query(&db.snapshot(), &q);
        assert_eq!(report.error_count(), 1, "only QQ001, no phantom QQ002s:\n{report}");
        assert_eq!(report.diagnostics[0].code, codes::UNKNOWN_TABLE);
    }

    #[test]
    fn spans_survive_nesting_in_rendered_report() {
        let db = db();
        let q = Query::scan("cities")
            .filter(vec![Predicate::Eq("ghost".into(), Value::Null)])
            .project(&["name"])
            .sort("name", false, Some(1));
        let report = check_query(&db.snapshot(), &q);
        assert_eq!(report.error_count(), 1);
        let d = &report.diagnostics[0];
        assert_eq!(covered(&report, d), "ghost");
        let rendered = report.render();
        assert!(rendered.contains("^^^^^"), "caret run missing:\n{rendered}");
    }
}
