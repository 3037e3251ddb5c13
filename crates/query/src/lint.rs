//! Static validation of structured queries against the database schema.
//!
//! The same diagnostics framework `quarry-lang` applies to QDL programs,
//! applied to the structured side: a [`Query`] tree is checked against the
//! table schemas of the [`DbSnapshot`] it will run on *before* execution,
//! turning what used to be a runtime `UnknownColumn` error deep inside an
//! operator into a span-anchored, caret-rendered diagnostic with a
//! did-you-mean suggestion.
//!
//! Spans index into the query's SQL-flavored rendering — the validator
//! re-renders the tree with exactly the same format strings as
//! [`Query::display`], byte for byte, recording where each table and
//! column reference lands. The report's `source` is therefore always equal
//! to `q.display()` (asserted by test).
//!
//! Codes:
//!
//! - **QQ001** (error) — unknown table. Reported but *not* an execution
//!   gate: the engine's `StorageError::NoSuchTable` path stays intact for
//!   callers that probe tables dynamically.
//! - **QQ002** (error) — unknown column reference in a filter predicate,
//!   projection list, join key, aggregate, grouping, or sort key. Gates
//!   execution in [`crate::planner::execute_with`].
//! - **QQ003** (warning) — `SUM`/`AVG` over a column declared `Text`:
//!   statically certain to fail with `NotNumeric` on any non-null value.

use crate::engine::{AggFn, Query};
use quarry_exec::diag::{closest, Diagnostic, LintReport, Span};
use quarry_storage::{DataType, DbSnapshot};

/// Diagnostic codes for structured-query validation.
pub mod codes {
    /// Unknown table in a scan.
    pub const UNKNOWN_TABLE: &str = "QQ001";
    /// Unknown column reference.
    pub const UNKNOWN_COLUMN: &str = "QQ002";
    /// Numeric aggregate over a column declared `Text`.
    pub const TEXT_AGGREGATE: &str = "QQ003";
}

/// One output column the validator can see flowing out of a subtree.
#[derive(Debug, Clone)]
struct Col {
    name: String,
    /// Declared type, when traceable back to a scanned schema column.
    dtype: Option<DataType>,
}

/// The result of checking one subtree: its rendering (identical to
/// `Query::display()`), the diagnostics found inside it (spans relative to
/// `rendered`), and the columns it outputs (`None` when unknowable because
/// a scanned table does not exist).
struct Checked {
    rendered: String,
    columns: Option<Vec<Col>>,
    diags: Vec<Diagnostic>,
}

/// Validate a query tree against the schemas of the snapshot it will run on.
///
/// The returned report's `source` is the query's [`Query::display`]
/// rendering and every diagnostic's span indexes into it.
pub fn check_query(db: &DbSnapshot, q: &Query) -> LintReport {
    let checked = check(db, q);
    LintReport::new("<query>", checked.rendered, checked.diags)
}

/// True when the report contains an error-severity diagnostic that should
/// stop execution (everything except QQ001, which stays a storage error so
/// dynamic table probing keeps its existing failure mode).
pub(crate) fn gates_execution(report: &LintReport) -> bool {
    report
        .diagnostics
        .iter()
        .any(|d| d.severity == quarry_exec::diag::Severity::Error && d.code != codes::UNKNOWN_TABLE)
}

fn unknown_column(col: &str, span: Span, available: &[Col]) -> Diagnostic {
    let names: Vec<&str> = available.iter().map(|c| c.name.as_str()).collect();
    let d = Diagnostic::error(codes::UNKNOWN_COLUMN, span, format!("unknown column `{col}`"));
    match closest(col, names.iter().copied()) {
        Some(s) => d.with_help(format!("did you mean `{s}`?")),
        None if names.is_empty() => d,
        None => d.with_help(format!("available columns: {}", names.join(", "))),
    }
}

/// Check `col` against the (possibly unknown) column set, pushing a QQ002
/// onto `diags` when it is missing. `span` covers the reference in the
/// rendering being built.
fn check_col(col: &str, span: Span, columns: &Option<Vec<Col>>, diags: &mut Vec<Diagnostic>) {
    if let Some(cols) = columns {
        if !cols.iter().any(|c| c.name == col) {
            diags.push(unknown_column(col, span, cols));
        }
    }
}

fn lookup<'a>(columns: &'a Option<Vec<Col>>, name: &str) -> Option<&'a Col> {
    columns.as_ref()?.iter().find(|c| c.name == name)
}

fn check(db: &DbSnapshot, q: &Query) -> Checked {
    match q {
        Query::Scan { table } => {
            let rendered = format!("SELECT * FROM {table}");
            let span = Span::new("SELECT * FROM ".len(), rendered.len());
            match db.schema(table) {
                Ok(schema) => Checked {
                    rendered,
                    columns: Some(
                        schema
                            .columns
                            .iter()
                            .map(|c| Col { name: c.name.clone(), dtype: Some(c.dtype) })
                            .collect(),
                    ),
                    diags: Vec::new(),
                },
                Err(_) => {
                    let tables = db.table_names();
                    let d = Diagnostic::error(
                        codes::UNKNOWN_TABLE,
                        span,
                        format!("unknown table `{table}`"),
                    );
                    let d = match closest(table, tables.iter().map(String::as_str)) {
                        Some(s) => d.with_help(format!("did you mean `{s}`?")),
                        None => d,
                    };
                    Checked { rendered, columns: None, diags: vec![d] }
                }
            }
        }
        Query::Filter { input, predicates } => {
            let child = check(db, input);
            let mut rendered = child.rendered;
            let mut diags = child.diags;
            rendered.push_str(" WHERE ");
            for (i, p) in predicates.iter().enumerate() {
                if i > 0 {
                    rendered.push_str(" AND ");
                }
                // Every predicate's display starts with its column name.
                let col = p.column();
                let at = Span::new(rendered.len(), rendered.len() + col.len());
                check_col(col, at, &child.columns, &mut diags);
                rendered.push_str(&p.display());
            }
            Checked { rendered, columns: child.columns, diags }
        }
        Query::Project { input, columns } => {
            let child = check(db, input);
            let mut rendered = String::from("SELECT ");
            let mut diags = Vec::new();
            let mut out = Vec::new();
            for (i, col) in columns.iter().enumerate() {
                if i > 0 {
                    rendered.push_str(", ");
                }
                let at = Span::new(rendered.len(), rendered.len() + col.len());
                check_col(col, at, &child.columns, &mut diags);
                out.push(Col {
                    name: col.clone(),
                    dtype: lookup(&child.columns, col).and_then(|c| c.dtype),
                });
                rendered.push_str(col);
            }
            rendered.push_str(" FROM (");
            let shift = rendered.len();
            diags.extend(child.diags.into_iter().map(|d| d.shifted(shift)));
            rendered.push_str(&child.rendered);
            rendered.push(')');
            // The projection's names are the output regardless of whether
            // the input could be resolved; unknown ones were already
            // reported above, so downstream checks don't cascade.
            Checked { rendered, columns: Some(out), diags }
        }
        Query::Join { left, right, left_col, right_col } => {
            let l = check(db, left);
            let r = check(db, right);
            let mut rendered = String::from("(");
            let mut diags: Vec<Diagnostic> = l.diags.iter().map(|d| d.clone().shifted(1)).collect();
            rendered.push_str(&l.rendered);
            rendered.push_str(") JOIN (");
            let rshift = rendered.len();
            diags.extend(r.diags.into_iter().map(|d| d.shifted(rshift)));
            rendered.push_str(&r.rendered);
            rendered.push_str(") ON ");
            let lat = Span::new(rendered.len(), rendered.len() + left_col.len());
            check_col(left_col, lat, &l.columns, &mut diags);
            rendered.push_str(left_col);
            rendered.push_str(" = ");
            let rat = Span::new(rendered.len(), rendered.len() + right_col.len());
            check_col(right_col, rat, &r.columns, &mut diags);
            rendered.push_str(right_col);
            // Output mirrors the executor: left columns, then right ones
            // with a `right.` prefix on name collision.
            let columns = match (l.columns, r.columns) {
                (Some(lc), Some(rc)) => {
                    let mut cols = lc.clone();
                    for c in rc {
                        if lc.iter().any(|l| l.name == c.name) {
                            cols.push(Col { name: format!("right.{}", c.name), dtype: c.dtype });
                        } else {
                            cols.push(c);
                        }
                    }
                    Some(cols)
                }
                _ => None,
            };
            Checked { rendered, columns, diags }
        }
        Query::Aggregate { input, group_by, agg, over } => {
            let child = check(db, input);
            let mut rendered = format!("SELECT {}(", agg.name());
            let mut diags = Vec::new();
            let at = Span::new(rendered.len(), rendered.len() + over.len());
            check_col(over, at, &child.columns, &mut diags);
            if matches!(agg, AggFn::Sum | AggFn::Avg) {
                if let Some(col) = lookup(&child.columns, over) {
                    if col.dtype == Some(DataType::Text) {
                        diags.push(
                            Diagnostic::warning(
                                codes::TEXT_AGGREGATE,
                                at,
                                format!("{} over `{over}`, which is declared Text", agg.name()),
                            )
                            .with_help(
                                "SUM/AVG need a numeric column; this fails at runtime on any \
                                 non-null value",
                            ),
                        );
                    }
                }
            }
            rendered.push_str(over);
            rendered.push_str(") FROM (");
            let shift = rendered.len();
            diags.extend(child.diags.into_iter().map(|d| d.shifted(shift)));
            rendered.push_str(&child.rendered);
            rendered.push(')');
            let mut out = Vec::new();
            if let Some(g) = group_by {
                rendered.push_str(" GROUP BY ");
                let gat = Span::new(rendered.len(), rendered.len() + g.len());
                check_col(g, gat, &child.columns, &mut diags);
                rendered.push_str(g);
                out.push(Col {
                    name: g.clone(),
                    dtype: lookup(&child.columns, g).and_then(|c| c.dtype),
                });
            }
            let agg_dtype = match agg {
                AggFn::Count => Some(DataType::Int),
                AggFn::Sum | AggFn::Avg => Some(DataType::Float),
                // MIN/MAX carry the input column's type through.
                AggFn::Min | AggFn::Max => lookup(&child.columns, over).and_then(|c| c.dtype),
            };
            out.push(Col { name: format!("{}({over})", agg.name()), dtype: agg_dtype });
            Checked { rendered, columns: Some(out), diags }
        }
        Query::Sort { input, by, desc, limit } => {
            let child = check(db, input);
            let mut rendered = child.rendered;
            let mut diags = child.diags;
            rendered.push_str(" ORDER BY ");
            let at = Span::new(rendered.len(), rendered.len() + by.len());
            check_col(by, at, &child.columns, &mut diags);
            rendered.push_str(by);
            if *desc {
                rendered.push_str(" DESC");
            }
            if let Some(l) = limit {
                rendered.push_str(&format!(" LIMIT {l}"));
            }
            Checked { rendered, columns: child.columns, diags }
        }
    }
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
        assert!(!gates_execution(&report));
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
        assert!(gates_execution(&report));
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
        assert!(!gates_execution(&report));
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
