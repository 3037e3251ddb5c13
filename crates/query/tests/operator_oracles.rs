//! The folding `Aggregate` and the bounded top-k `Sort` against the
//! operators they replaced, kept here verbatim as oracles: `compute_agg`
//! over `BTreeMap`-grouped values, and a stable `sort_by` then `truncate`.
//!
//! Rows mix `Int` and `Float` numbers that compare equal, `-0.0` and
//! `0.0`, NULLs and text, so the oracle's choices show: which of equal
//! minima and maxima is returned, which of equal group keys names the
//! group, the sign of a sum, the error of a non-numeric sum, and the order
//! of ties. Results are compared through their `Debug` text, which tells
//! `Int(1)` from `Float(1.0)` where `Value`'s `==` does not.
//!
//! Every query runs under the default planner, where the operator folds
//! rows streamed from the table access, and under the full-scan reference,
//! where it iterates a materialized `Filter` result — over an in-memory
//! overlay and over a checkpoint base whose rows are decoded per read.

use proptest::prelude::*;
use quarry_query::engine::{AggFn, Predicate, Query, QueryError};
use quarry_query::planner::{execute_with, PlannerConfig};
use quarry_storage::{Column, DataType, Database, Row, TableSchema, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The aggregate before rows were folded, verbatim.
fn compute_agg(agg: AggFn, vals: &[&Value], over: &str) -> Result<Value, QueryError> {
    let non_null: Vec<&&Value> = vals.iter().filter(|v| !v.is_null()).collect();
    match agg {
        AggFn::Count => Ok(Value::Int(non_null.len() as i64)),
        AggFn::Min => Ok(non_null.iter().min().map(|v| (**v).clone()).unwrap_or(Value::Null)),
        AggFn::Max => Ok(non_null.iter().max().map(|v| (**v).clone()).unwrap_or(Value::Null)),
        AggFn::Sum | AggFn::Avg => {
            let nums: Vec<f64> = non_null
                .iter()
                .map(|v| v.as_f64().ok_or_else(|| QueryError::NotNumeric(over.to_string())))
                .collect::<Result<_, _>>()?;
            if nums.is_empty() {
                return Ok(Value::Null);
            }
            let sum: f64 = nums.iter().sum();
            Ok(match agg {
                AggFn::Sum => Value::Float(sum),
                _ => Value::Float(sum / nums.len() as f64),
            })
        }
    }
}

/// The grouping around [`compute_agg`], verbatim.
fn oracle_aggregate(
    r: &[Row],
    gi: Option<usize>,
    oi: usize,
    agg: AggFn,
    over: &str,
) -> Result<Vec<Row>, QueryError> {
    // Group rows (BTreeMap gives deterministic output order).
    let mut groups: BTreeMap<Value, Vec<&Value>> = BTreeMap::new();
    for row in r {
        let key = gi.map(|i| row[i].clone()).unwrap_or(Value::Null);
        groups.entry(key).or_default().push(&row[oi]);
    }
    if groups.is_empty() && gi.is_none() {
        groups.insert(Value::Null, Vec::new());
    }
    let mut rows = Vec::new();
    for (key, vals) in groups {
        let agg_val = compute_agg(agg, &vals, over)?;
        match gi {
            Some(_) => rows.push(vec![key, agg_val]),
            None => rows.push(vec![agg_val]),
        }
    }
    Ok(rows)
}

/// The sort before it kept a bounded buffer, verbatim.
fn oracle_sort(mut rows: Vec<Row>, i: usize, desc: bool, limit: Option<usize>) -> Vec<Row> {
    // Stable sort: equal keys keep input order.
    rows.sort_by(|a, b| {
        let ord = a[i].cmp(&b[i]);
        if desc {
            ord.reverse()
        } else {
            ord
        }
    });
    if let Some(l) = limit {
        rows.truncate(l);
    }
    rows
}

const COLUMNS: [&str; 4] = ["id", "g", "x", "t"];

fn schema() -> TableSchema {
    let columns = vec![
        Column::new("id", DataType::Int),
        Column::nullable("g", DataType::Float),
        Column::nullable("x", DataType::Float),
        Column::nullable("t", DataType::Text),
    ];
    TableSchema::new("t", columns, &["id"], &[]).unwrap()
}

/// Group keys: equal `Int`/`Float` pairs, both zeros, NULL.
fn g_value(i: usize) -> Value {
    [
        Value::Null,
        Value::Int(0),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Int(1),
        Value::Float(1.0),
        Value::Int(2),
    ][i % 7]
        .clone()
}

/// Aggregated and sorted values: ties everywhere, both zeros, NULL.
fn x_value(i: usize) -> Value {
    [
        Value::Null,
        Value::Int(1),
        Value::Float(1.0),
        Value::Float(-0.0),
        Value::Float(0.0),
        Value::Int(0),
        Value::Int(-1),
        Value::Float(-1.0),
        Value::Float(0.5),
        Value::Int(2),
        Value::Float(2.0),
    ][i % 11]
        .clone()
}

fn t_value(i: usize) -> Value {
    [Value::Null, "a".into(), "b".into(), "b".into(), "c".into()][i % 5].clone()
}

fn row(id: i64, (g, x, t): (usize, usize, usize)) -> Row {
    vec![Value::Int(id), g_value(g), x_value(x), t_value(t)]
}

/// A table holding `rows`, in insert order, entirely in the overlay.
fn overlay_db(rows: &[Row]) -> Database {
    let db = Database::in_memory();
    db.create_table(schema()).unwrap();
    db.create_index("t", "x").unwrap();
    let tx = db.begin();
    for r in rows {
        db.insert(tx, "t", r.clone()).unwrap();
    }
    db.commit(tx).unwrap();
    db
}

static DIRS: AtomicUsize = AtomicUsize::new(0);

/// A fresh directory for one durable table; removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new() -> TempDir {
        let n = DIRS.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("quarry-operator-oracles-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `rows` checkpointed into a base image, then moved by overlay edits:
/// every third row rewritten with the next row's cells, every fifth
/// deleted, and `more` inserted.
fn base_db(dir: &TempDir, rows: &[Row], more: &[Row]) -> Database {
    let db = Database::open(dir.0.join("t.wal")).unwrap();
    db.create_table(schema()).unwrap();
    db.create_index("t", "x").unwrap();
    let tx = db.begin();
    for r in rows {
        db.insert(tx, "t", r.clone()).unwrap();
    }
    db.commit(tx).unwrap();
    db.checkpoint().unwrap();
    let tx = db.begin();
    for (i, r) in rows.iter().enumerate() {
        if i % 3 == 1 {
            let mut moved = rows[(i + 1) % rows.len()].clone();
            moved[0] = r[0].clone();
            db.update(tx, "t", &r[..1], moved).unwrap();
        } else if i % 5 == 2 {
            db.delete(tx, "t", &r[..1]).unwrap();
        }
    }
    for r in more {
        db.insert(tx, "t", r.clone()).unwrap();
    }
    db.commit(tx).unwrap();
    db
}

/// The window every windowed shape filters on; routed through the index
/// on `x` under the default planner.
fn window() -> Vec<Predicate> {
    vec![Predicate::Ge("x".into(), Value::Int(-1)), Predicate::Le("x".into(), Value::Float(1.0))]
}

fn in_window(row: &Row) -> bool {
    row[2] >= Value::Int(-1) && row[2] <= Value::Float(1.0)
}

fn col(name: &str) -> usize {
    COLUMNS.iter().position(|c| *c == name).unwrap()
}

/// Inputs a sort on `x` walks the index on `x` for in key order, each with
/// the rows it passes: an equality probe (every row a tie, `Int(1)` and
/// `Float(1.0)` alike), strict bounds, and the window with a residual on
/// `id` that rejects the lowest ids — in both directions the head of each
/// run of equal values.
fn key_order_inputs(table: &[Row]) -> Vec<(Query, Vec<Row>)> {
    let passing = |keep: &dyn Fn(&Row) -> bool| table.iter().filter(|r| keep(r)).cloned().collect();
    let (lo, hi) = (Value::Int(-1), Value::Float(1.0));
    vec![
        (
            Query::scan("t").filter(vec![Predicate::Eq("x".into(), Value::Int(1))]),
            passing(&|r| r[2] == Value::Int(1)),
        ),
        (
            Query::scan("t").filter(vec![
                Predicate::Gt("x".into(), lo.clone()),
                Predicate::Lt("x".into(), hi.clone()),
            ]),
            passing(&|r| r[2] > lo && r[2] < hi),
        ),
        (
            Query::scan("t")
                .filter([window(), vec![Predicate::Ge("id".into(), Value::Int(4))]].concat()),
            passing(&|r| in_window(r) && r[0] >= Value::Int(4)),
        ),
    ]
}

/// Every aggregate and sort shape the operators have, each over the whole
/// table and over the window, with what the oracles answer for it given
/// the table's rows in row-id order.
fn shapes(table: &[Row]) -> Vec<(Query, Result<Vec<Row>, QueryError>)> {
    let windowed: Vec<Row> = table.iter().filter(|r| in_window(r)).cloned().collect();
    let mut out = Vec::new();
    let inputs = [(Query::scan("t"), table), (Query::scan("t").filter(window()), &windowed[..])];
    for (input, rows) in inputs {
        for agg in [AggFn::Count, AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max] {
            for over in ["x", "t"] {
                for group_by in [None, Some("g"), Some("t")] {
                    let q = input.clone().aggregate(group_by, agg, over);
                    let expect = oracle_aggregate(rows, group_by.map(col), col(over), agg, over);
                    out.push((q, expect));
                }
            }
        }
        for by in ["x", "g", "t"] {
            for desc in [false, true] {
                for limit in [None, Some(0), Some(1), Some(3), Some(rows.len() + 5)] {
                    let q = input.clone().sort(by, desc, limit);
                    out.push((q, Ok(oracle_sort(rows.to_vec(), col(by), desc, limit))));
                }
            }
        }
    }
    // The key-order walk: over the inputs above, and under a pushed
    // projection that keeps the sort column, first.
    let mut inputs: Vec<(Query, Vec<Row>, usize)> =
        key_order_inputs(table).into_iter().map(|(q, rows)| (q, rows, col("x"))).collect();
    let projected = windowed.iter().map(|r| vec![r[2].clone(), r[0].clone()]).collect();
    inputs.push((Query::scan("t").filter(window()).project(&["x", "id"]), projected, 0));
    for (input, rows, by) in inputs {
        for desc in [false, true] {
            for limit in [None, Some(0), Some(1), Some(3)] {
                let q = input.clone().sort("x", desc, limit);
                out.push((q, Ok(oracle_sort(rows.clone(), by, desc, limit))));
            }
        }
    }
    out
}

/// Both planner configurations answer every shape as the oracles do:
/// the same rows to the `Debug` digit, or the same error message.
fn agrees(db: &Database) -> Result<(), TestCaseError> {
    let table = db.snapshot().scan("t").unwrap();
    for (q, expect) in shapes(&table) {
        for cfg in [PlannerConfig::default(), PlannerConfig::full_scan()] {
            let got = execute_with(db, &q, &cfg).map(|(r, _)| r.rows);
            let (got, expect) = match (&got, &expect) {
                (Ok(g), Ok(e)) => (format!("{g:?}"), format!("{e:?}")),
                (Err(g), Err(e)) => (g.to_string(), e.to_string()),
                _ => (format!("{got:?}"), format!("{expect:?}")),
            };
            prop_assert_eq!(got, expect, "{} under {:?}", q.display(), cfg);
        }
    }
    Ok(())
}

fn table_cells() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    proptest::collection::vec((0usize..7, 0usize..11, 0usize..5), 0..40)
}

fn numbered(cells: &[(usize, usize, usize)], from: i64) -> Vec<Row> {
    cells.iter().enumerate().map(|(i, &c)| row(from + i as i64, c)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn folded_operators_equal_the_oracles_over_overlay_rows(cells in table_cells()) {
        agrees(&overlay_db(&numbered(&cells, 0)))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn folded_operators_equal_the_oracles_over_a_checkpoint_base(
        cells in table_cells(),
        more in table_cells(),
    ) {
        let dir = TempDir::new();
        agrees(&base_db(&dir, &numbered(&cells, 0), &numbered(&more, 1_000)))?;
    }
}

fn run(db: &Database, q: &Query) -> Result<String, String> {
    let rows = execute_with(db, q, &PlannerConfig::default()).map_err(|e| e.to_string())?.0.rows;
    Ok(format!("{rows:?}"))
}

/// The oracles' choices, pinned by name; each case also goes through
/// [`agrees`], over an overlay and over a base.
#[test]
fn the_oracles_choices_are_kept() {
    // g, x, t as indexes into the value tables above.
    let (g0, g1i, g1f, g2, gnull) = (1, 4, 5, 6, 0);
    let (x1i, x1f, xneg0, xnull) = (1, 2, 3, 0);
    let rows = numbered(
        &[
            // Group Int(1)/Float(1.0): x = 1.0, 1, 1.0, 1.
            (g1f, x1f, 1),
            (g1i, x1i, 2),
            (g1f, x1f, 3),
            (g1i, x1i, 0),
            // Group 2: only -0.0.
            (g2, xneg0, 1),
            (g2, xneg0, 1),
            // Group 0: only NULL.
            (g0, xnull, 0),
            (g0, xnull, 4),
            // Group NULL: a NULL and a 1.
            (gnull, xnull, 2),
            (gnull, x1i, 2),
        ],
        0,
    );
    let dir = TempDir::new();
    for db in [overlay_db(&rows), base_db(&dir, &rows, &[])] {
        agrees(&db).unwrap();
    }
    let db = overlay_db(&rows);
    let by_g = |agg| Query::scan("t").aggregate(Some("g"), agg, "x");

    // MIN is the first of equal minima, MAX the last of equal maxima; a
    // group is named by the first of its equal keys.
    assert_eq!(
        run(&db, &by_g(AggFn::Min)).unwrap(),
        "[[Null, Int(1)], [Int(0), Null], [Float(1.0), Float(1.0)], [Int(2), Float(-0.0)]]"
    );
    assert_eq!(
        run(&db, &by_g(AggFn::Max)).unwrap(),
        "[[Null, Int(1)], [Int(0), Null], [Float(1.0), Int(1)], [Int(2), Float(-0.0)]]"
    );
    // Sums keep the sign `Iterator::sum` gives an all -0.0 group; NULLs
    // are skipped, so an all-NULL group counts 0 and sums to NULL.
    assert_eq!(
        run(&db, &by_g(AggFn::Sum)).unwrap(),
        "[[Null, Float(1.0)], [Int(0), Null], [Float(1.0), Float(4.0)], [Int(2), Float(-0.0)]]"
    );
    assert_eq!(
        run(&db, &by_g(AggFn::Count)).unwrap(),
        "[[Null, Int(1)], [Int(0), Int(0)], [Float(1.0), Int(4)], [Int(2), Int(2)]]"
    );
    // An empty ungrouped input is one row; grouped, it is none.
    let empty = || Query::scan("t").filter(vec![Predicate::Gt("x".into(), Value::Int(5))]);
    for (agg, expect) in [
        (AggFn::Count, "[[Int(0)]]"),
        (AggFn::Sum, "[[Null]]"),
        (AggFn::Avg, "[[Null]]"),
        (AggFn::Min, "[[Null]]"),
    ] {
        assert_eq!(run(&db, &empty().aggregate(None, agg, "x")).unwrap(), expect);
    }
    assert_eq!(run(&db, &empty().aggregate(Some("g"), AggFn::Count, "x")).unwrap(), "[]");
    // A non-numeric sum is refused with the oracle's message.
    assert_eq!(
        run(&db, &Query::scan("t").aggregate(Some("g"), AggFn::Avg, "t")).unwrap_err(),
        "column t is not numeric"
    );
    // Ties keep row order ascending and descending, cut at the limit.
    let ids = |q: &Query| -> Vec<i64> {
        let rows = execute_with(&db, q, &PlannerConfig::default()).unwrap().0.rows;
        rows.iter().map(|r| if let Value::Int(id) = r[0] { id } else { -1 }).collect()
    };
    assert_eq!(ids(&Query::scan("t").sort("g", false, Some(5))), [8, 9, 6, 7, 0]);
    assert_eq!(ids(&Query::scan("t").sort("g", true, Some(5))), [4, 5, 0, 1, 2]);
    assert_eq!(ids(&Query::scan("t").sort("x", true, None)), [0, 1, 2, 3, 9, 4, 5, 6, 7, 8]);
    assert!(ids(&Query::scan("t").sort("x", true, Some(0))).is_empty());
    assert_eq!(ids(&Query::scan("t").sort("t", false, Some(99))).len(), rows.len());
    // A sort on the probed index's column walks the index in key order:
    // equal values (`Int(1)` and `Float(1.0)` alike) in row-id order either
    // way, and no row fetched past the limit.
    let ones = || Query::scan("t").filter(vec![Predicate::Eq("x".into(), Value::Int(1))]);
    for desc in [false, true] {
        let q = ones().sort("x", desc, Some(3));
        assert_eq!(ids(&q), [0, 1, 2]);
        let trace = execute_with(&db, &q, &PlannerConfig::default()).unwrap().1.render();
        assert!(trace.contains("via index eq(x = 1) in key order"), "{trace}");
        assert!(trace.contains("scanned=3, rows=3"), "{trace}");
    }
    let windowed = || Query::scan("t").filter(window());
    assert_eq!(ids(&windowed().sort("x", true, None)), [0, 1, 2, 3, 9, 4, 5]);
    assert_eq!(ids(&windowed().sort("x", false, Some(4))), [4, 5, 0, 1]);
}

/// `ORDER BY id DESC LIMIT k` over rows inserted in ascending `id` — the
/// "latest k" query, where every row ranks first when it arrives — answers
/// as the oracle and costs about what the same sort ascending does, where
/// every row ranks last. A top-k that kept its rows in a sorted vector and
/// inserted each arrival in place moved O(n·min(n, k)) rows here: at
/// 60 000 rows, over a second against about 20 ms in a release build.
#[test]
fn a_limited_sort_costs_the_same_whatever_order_rows_arrive_in() {
    const N: usize = 60_000;
    let rows = numbered(&vec![(0, 0, 0); N], 0);
    let db = overlay_db(&rows);
    let fastest_of_three = |desc: bool, limit: usize| {
        let q = Query::scan("t").sort("id", desc, Some(limit));
        let mut fastest = Duration::MAX;
        for _ in 0..3 {
            let started = Instant::now();
            let got = execute_with(&db, &q, &PlannerConfig::default()).unwrap().0.rows;
            fastest = fastest.min(started.elapsed());
            assert!(got == oracle_sort(rows.clone(), col("id"), desc, Some(limit)));
        }
        fastest
    };
    for limit in [N, N / 2] {
        let (first, last) = (fastest_of_three(true, limit), fastest_of_three(false, limit));
        assert!(
            first <= last * 4 + Duration::from_millis(50),
            "limit {limit}: {first:?} when every row ranks first, {last:?} when it ranks last"
        );
    }
}
