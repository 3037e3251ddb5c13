//! Differential tests for the physical query planner: for every supported
//! predicate shape, index-routed execution must return *bit-identical*
//! rows — including row order — to the forced-full-scan reference
//! configuration, and a query asked of the façade again must get what the
//! planner answers on the same pinned view.

use proptest::prelude::*;
use proptest::{TestRng, TestRunner};
use quarry::core::{Quarry, QuarryConfig};
use quarry::query::engine::{execute_snapshot, AggFn, Predicate, Query, QueryError};
use quarry::query::lint::{check_query, codes as query_codes};
use quarry::query::planner::{execute_snapshot_with, execute_with, PlannerConfig};
use quarry::storage::{Column, DataType, Database, TableSchema, Value};
use quarry::Severity;
use rand::Rng;

/// A deterministic facts table with indexes on `cat` (12 distinct values)
/// and `score` (dense ints), plus an unindexed `note` column.
fn facts_db(rows: usize) -> Database {
    let db = Database::in_memory();
    db.create_table(
        TableSchema::new(
            "facts",
            vec![
                Column::new("id", DataType::Int),
                Column::new("cat", DataType::Text),
                Column::new("score", DataType::Int),
                Column::new("note", DataType::Text),
            ],
            &["id"],
            &[],
        )
        .unwrap(),
    )
    .unwrap();
    let tx = db.begin();
    for i in 0..rows as i64 {
        db.insert(
            tx,
            "facts",
            vec![
                Value::Int(i),
                Value::Text(format!("cat{}", (i * 7) % 12)),
                Value::Int((i * 13) % 97),
                Value::Text(format!("note {}", (i * 3) % 5)),
            ],
        )
        .unwrap();
    }
    db.commit(tx).unwrap();
    db.create_index("facts", "cat").unwrap();
    db.create_index("facts", "score").unwrap();
    db
}

/// Every supported predicate shape plus the operator combinations above
/// them: eq, range (inclusive and strict), conjunction, no-predicate,
/// projections, joins, aggregates, and sorts.
fn query_shapes() -> Vec<Query> {
    let eq = |c: &str, v: Value| Predicate::Eq(c.into(), v);
    let mut shapes = vec![
        // No predicate.
        Query::scan("facts"),
        // Equality on an indexed column.
        Query::scan("facts").filter(vec![eq("cat", "cat3".into())]),
        // Equality on an unindexed column.
        Query::scan("facts").filter(vec![eq("note", "note 2".into())]),
        // Equality on the whole primary key: a hit, a miss, a hit the rest
        // of the conjunction rejects, a float equal to an int key, two
        // contradicting keys, and one under a projection.
        Query::scan("facts").filter(vec![eq("id", Value::Int(123))]),
        Query::scan("facts").filter(vec![eq("id", Value::Int(4000))]),
        Query::scan("facts").filter(vec![eq("id", Value::Int(123)), eq("cat", "catX".into())]),
        Query::scan("facts").filter(vec![eq("id", Value::Float(77.0))]),
        Query::scan("facts").filter(vec![eq("id", Value::Int(5)), eq("id", Value::Int(6))]),
        Query::scan("facts").filter(vec![eq("id", Value::Int(9))]).project(&["score", "id"]),
        // Inclusive range.
        Query::scan("facts").filter(vec![
            Predicate::Ge("score".into(), Value::Int(20)),
            Predicate::Le("score".into(), Value::Int(40)),
        ]),
        // Strict range (boundary rows must be residual-filtered out).
        Query::scan("facts").filter(vec![
            Predicate::Gt("score".into(), Value::Int(20)),
            Predicate::Lt("score".into(), Value::Int(40)),
        ]),
        // Half-open ranges.
        Query::scan("facts").filter(vec![Predicate::Ge("score".into(), Value::Int(90))]),
        Query::scan("facts").filter(vec![Predicate::Lt("score".into(), Value::Int(5))]),
        // Conjunction mixing indexed eq, indexed range, and unindexable.
        Query::scan("facts").filter(vec![
            eq("cat", "cat5".into()),
            Predicate::Ge("score".into(), Value::Int(10)),
            Predicate::Contains("note".into(), "note".into()),
        ]),
        // Empty-result equality.
        Query::scan("facts").filter(vec![eq("cat", "catX".into())]),
        // Inverted (empty) range window.
        Query::scan("facts").filter(vec![
            Predicate::Ge("score".into(), Value::Int(50)),
            Predicate::Le("score".into(), Value::Int(10)),
        ]),
        // Ne / In stay unrouted but must agree too.
        Query::scan("facts").filter(vec![Predicate::Ne("cat".into(), "cat1".into())]),
        Query::scan("facts")
            .filter(vec![Predicate::In("cat".into(), vec!["cat1".into(), "cat9".into()])]),
        // Projection above predicates (pushdown target).
        Query::scan("facts").filter(vec![eq("cat", "cat2".into())]).project(&["id", "score"]),
        // Filter above projection (must NOT be pushed into the access).
        Query::scan("facts")
            .project(&["id", "score"])
            .filter(vec![Predicate::Ge("score".into(), Value::Int(30))]),
        // Join with asymmetric input sizes (build-side selection).
        Query::scan("facts").filter(vec![eq("cat", "cat4".into())]).join(
            Query::scan("facts"),
            "cat",
            "cat",
        ),
        Query::scan("facts").join(
            Query::scan("facts").filter(vec![eq("cat", "cat4".into())]),
            "cat",
            "cat",
        ),
        Query::scan("facts").filter(vec![eq("id", Value::Int(40))]).join(
            Query::scan("facts"),
            "cat",
            "cat",
        ),
        // Aggregates and sorts above index-routed accesses.
        Query::scan("facts").filter(vec![eq("cat", "cat6".into())]).aggregate(
            Some("note"),
            AggFn::Count,
            "id",
        ),
        Query::scan("facts").filter(vec![Predicate::Ge("score".into(), Value::Int(80))]).sort(
            "id",
            true,
            Some(7),
        ),
    ];
    // Every aggregate, with and without a group, over a routed window and
    // over the whole table.
    let window = || {
        Query::scan("facts").filter(vec![
            Predicate::Ge("score".into(), Value::Int(20)),
            Predicate::Le("score".into(), Value::Int(60)),
        ])
    };
    for agg in [AggFn::Count, AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max] {
        for group_by in [None, Some("cat")] {
            shapes.push(window().aggregate(group_by, agg, "score"));
            shapes.push(Query::scan("facts").aggregate(group_by, agg, "id"));
        }
    }
    // Sorts: unlimited on a tied column, limited on the tied `cat` both
    // ways, a limit of 0, a limit past the row count, and one above a
    // pushed projection.
    shapes.extend([
        window().sort("score", false, None),
        window().sort("cat", false, Some(15)),
        window().sort("cat", true, Some(15)),
        Query::scan("facts").sort("cat", false, Some(40)),
        window().sort("score", true, Some(0)),
        window().sort("score", true, Some(100_000)),
        window().project(&["cat", "score"]).sort("cat", true, Some(9)),
    ]);
    // Sorts on the routed index's own column, which walk the index in key
    // order and stop at the limit: limits that cut inside a run of equal
    // scores both ways, an equality probe (every row a tie), strict
    // bounds, a residual on another column that rejects rows at the head
    // of the order, and pushed projections that keep the sort column.
    let strict = || {
        Query::scan("facts").filter(vec![
            Predicate::Gt("score".into(), Value::Int(20)),
            Predicate::Lt("score".into(), Value::Int(40)),
        ])
    };
    let headless = || {
        Query::scan("facts").filter(vec![
            Predicate::Ge("score".into(), Value::Int(20)),
            Predicate::Le("score".into(), Value::Int(60)),
            Predicate::Ge("id".into(), Value::Int(150)),
        ])
    };
    let tied = || Query::scan("facts").filter(vec![eq("score", Value::Int(42))]);
    for desc in [false, true] {
        shapes.extend([
            window().sort("score", desc, Some(10)),
            window().sort("score", desc, Some(6)),
            window().sort("score", desc, None),
            tied().sort("score", desc, Some(2)),
            tied().sort("score", desc, None),
            strict().sort("score", desc, Some(7)),
            strict().sort("score", desc, None),
            headless().sort("score", desc, Some(9)),
            window().project(&["score", "id"]).sort("score", desc, Some(12)),
            window().project(&["cat", "score"]).sort("score", desc, Some(5)),
        ]);
    }
    shapes
}

#[test]
fn index_routed_execution_is_bit_identical_to_full_scan() {
    assert_every_shape_matches_the_reference(&facts_db(400));
}

/// [`query_shapes`] over a table that is a checkpoint image moved by
/// overlay edits: rows arrive from the image, from the overlay, and
/// shadowed or tombstoned, under every access path and operator.
#[test]
fn every_shape_over_a_checkpoint_base_is_bit_identical_to_full_scan() {
    let dir = std::env::temp_dir().join(format!("quarry-base-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = Database::open(dir.join("facts.wal")).unwrap();
    let seed = facts_db(400);
    db.create_table(seed.schema("facts").unwrap()).unwrap();
    let tx = db.begin();
    for row in seed.snapshot().scan("facts").unwrap() {
        db.insert(tx, "facts", row).unwrap();
    }
    db.commit(tx).unwrap();
    db.create_index("facts", "cat").unwrap();
    db.create_index("facts", "score").unwrap();
    db.checkpoint().unwrap();
    let tx = db.begin();
    for i in (0..400i64).step_by(7) {
        let row = vec![Value::Int(i), "cat3".into(), Value::Int((i * 5) % 97), "note 4".into()];
        db.update(tx, "facts", &[Value::Int(i)], row).unwrap();
    }
    for i in (3..400i64).step_by(11) {
        db.delete(tx, "facts", &[Value::Int(i)]).unwrap();
    }
    for i in 400..460i64 {
        let row =
            vec![Value::Int(i), format!("cat{}", i % 12).into(), Value::Int(i % 97), "n".into()];
        db.insert(tx, "facts", row).unwrap();
    }
    db.commit(tx).unwrap();
    assert_every_shape_matches_the_reference(&db);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn assert_every_shape_matches_the_reference(db: &Database) {
    let reference = PlannerConfig::full_scan();
    // Each toggle alone, and everything on: all must match the reference.
    let configs = [
        PlannerConfig::default(),
        PlannerConfig { use_index: true, ..PlannerConfig::full_scan() },
        PlannerConfig { pushdown: true, ..PlannerConfig::full_scan() },
        PlannerConfig { join_side_selection: true, ..PlannerConfig::full_scan() },
    ];
    for (qi, q) in query_shapes().iter().enumerate() {
        let (expect, _) = execute_with(db, q, &reference).unwrap();
        for cfg in &configs {
            let (got, _) = execute_with(db, q, cfg).unwrap();
            assert_eq!(got.columns, expect.columns, "columns diverged: query {qi} cfg {cfg:?}");
            assert_eq!(
                got.rows,
                expect.rows,
                "rows (or row order) diverged: query {qi} ({}) cfg {cfg:?}",
                q.display()
            );
        }
    }
}

#[test]
fn planner_errors_match_reference_errors() {
    let db = facts_db(50);
    let bad = [
        Query::scan("ghost"),
        Query::scan("facts").filter(vec![Predicate::Eq("ghost".into(), Value::Null)]),
        Query::scan("facts").project(&["ghost"]),
        Query::scan("facts")
            .project(&["id"])
            .filter(vec![Predicate::Eq("cat".into(), "cat1".into())]),
        Query::scan("facts").aggregate(None, AggFn::Avg, "note"),
        Query::scan("facts").sort("ghost", false, None),
    ];
    for q in &bad {
        let planned = execute_with(&db, q, &PlannerConfig::default());
        let reference = execute_with(&db, q, &PlannerConfig::full_scan());
        let (Err(p), Err(r)) = (planned, reference) else {
            panic!("both configs must fail: {}", q.display());
        };
        assert_eq!(
            std::mem::discriminant(&p),
            std::mem::discriminant(&r),
            "error kind diverged for {}: {p:?} vs {r:?}",
            q.display()
        );
    }
}

#[test]
fn cached_results_are_bit_identical_to_fresh_execution() {
    let q = Quarry::new(QuarryConfig::default()).unwrap();
    q.db.create_table(
        TableSchema::new(
            "facts",
            vec![Column::new("id", DataType::Int), Column::new("cat", DataType::Text)],
            &["id"],
            &[],
        )
        .unwrap(),
    )
    .unwrap();
    for i in 0..60i64 {
        q.db.insert_autocommit("facts", vec![Value::Int(i), format!("cat{}", i % 6).into()])
            .unwrap();
    }
    q.create_index("facts", "cat").unwrap();

    let query = Query::scan("facts").filter(vec![Predicate::Eq("cat".into(), "cat2".into())]);
    let fresh = q.snapshot().query(&query).unwrap();
    let repeated = q.snapshot().query(&query).unwrap();
    assert_eq!(repeated, fresh, "a repeated query must get identical bytes");

    // A post-write snapshot pins the commit's new LSN, so its result
    // reflects the write.
    q.db.insert_autocommit("facts", vec![Value::Int(1000), "cat2".into()]).unwrap();
    let after_write = q.snapshot().query(&query).unwrap();
    assert_eq!(after_write.rows.len(), fresh.rows.len() + 1);
    let again = q.snapshot().query(&query).unwrap();
    assert_eq!(again, after_write);
}

/// The traffic the façade's result cache used to serve: every shape (and
/// two the planner refuses) asked three times in a row of a durable
/// façade, and again after inserts, deletes and a checkpoint have moved
/// the table, must each time get exactly what the planner answers on the
/// same pinned view.
#[test]
fn repeated_facade_queries_equal_the_planner_on_the_same_snapshot() {
    let dir = std::env::temp_dir().join(format!("quarry-repeat-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let q = Quarry::new(QuarryConfig::builder().wal_path(dir.join("facts.wal")).build()).unwrap();
    let seed = facts_db(300);
    q.db.create_table(seed.schema("facts").unwrap()).unwrap();
    let tx = q.db.begin();
    for row in seed.snapshot().scan("facts").unwrap() {
        q.db.insert(tx, "facts", row).unwrap();
    }
    q.db.commit(tx).unwrap();
    q.create_index("facts", "cat").unwrap();
    q.create_index("facts", "score").unwrap();

    let mut queries = query_shapes();
    queries.push(Query::scan("ghost"));
    queries.push(Query::scan("facts").project(&["ghost"]));
    let mut next = 0i64;
    for pass in 0..2 {
        for (qi, qy) in queries.iter().enumerate() {
            for asking in 0..3 {
                let at = format!("pass {pass} query {qi} asking {asking}: {}", qy.display());
                let snap = q.snapshot();
                match (snap.query(qy), execute_snapshot(snap.db(), qy)) {
                    (Ok(got), Ok(expect)) => {
                        assert_eq!(got.columns, expect.columns, "{at}");
                        assert_eq!(got.rows, expect.rows, "{at}");
                    }
                    (Err(quarry::QuarryError::Query(got)), Err(expect)) => assert_eq!(
                        std::mem::discriminant(&got),
                        std::mem::discriminant(&expect),
                        "{at}: {got:?} vs {expect:?}"
                    ),
                    (got, expect) => panic!("{at}: {got:?} vs {expect:?}"),
                }
            }
            // Move the table before the next query: a new row in, an old one out.
            let id = 1000 + next;
            let row = vec![Value::Int(id), "cat3".into(), Value::Int(id % 97), "note 2".into()];
            q.db.insert_autocommit("facts", row).unwrap();
            let tx = q.db.begin();
            q.db.delete(tx, "facts", &[Value::Int(next)]).unwrap();
            q.db.commit(tx).unwrap();
            next += 1;
        }
        if pass == 0 {
            q.checkpoint().unwrap();
        }
    }
    drop(q);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn explain_names_the_primary_key_path_and_it_fetches_one_row() {
    let db = facts_db(400);
    let q = Query::scan("facts")
        .filter(vec![Predicate::Eq("id".into(), Value::Int(123))])
        .project(&["cat"]);
    let text = q.explain(&db).unwrap();
    assert!(text.contains("Access[facts via pk eq(123)]"), "{text}");
    assert!(text.contains("est=1") && text.contains("scanned=1"), "{text}");
    // The reference configuration still names the scan it is.
    let (_, trace) = execute_with(&db, &q, &PlannerConfig::full_scan()).unwrap();
    assert_eq!(trace.total_scanned(), 400);
    assert!(trace.render().contains("via full scan"), "{}", trace.render());
}

/// The sort the benchmark's shards run — a window on an indexed column,
/// ordered by that column, descending, limited — walks the index in key
/// order and fetches exactly the rows it returns; the ascending one too.
/// Without this pin the differentials above would pass as well if the
/// planner never took the key-order walk.
#[test]
fn a_top_k_on_the_routed_index_column_fetches_only_its_k_rows() {
    let db = facts_db(400);
    let top = |desc: bool| {
        Query::scan("facts")
            .filter(vec![
                Predicate::Ge("score".into(), Value::Int(20)),
                Predicate::Le("score".into(), Value::Int(60)),
            ])
            .sort("score", desc, Some(20))
    };
    for (desc, order) in [(true, "in key order desc, first 20"), (false, "in key order, first 20")]
    {
        let q = top(desc);
        let text = q.explain(&db).unwrap();
        let access = format!("Access[facts via index range(score in [20, 60]) {order}]");
        assert!(text.contains(&access), "{text}");
        assert!(text.contains("scanned=20, rows=20"), "{text}");
        let (routed, trace) = execute_with(&db, &q, &PlannerConfig::default()).unwrap();
        let (full, full_trace) = execute_with(&db, &q, &PlannerConfig::full_scan()).unwrap();
        assert_eq!(routed, full);
        assert_eq!((trace.total_scanned(), full_trace.total_scanned()), (20, 400));
    }
}

/// A sort on any other column than the routed index's keeps the row-id
/// walk: it fetches the whole window and ranks it itself.
#[test]
fn a_sort_on_another_column_keeps_the_row_id_walk() {
    let db = facts_db(400);
    let cfg = PlannerConfig::default();
    let window =
        || Query::scan("facts").filter(vec![Predicate::Ge("score".into(), Value::Int(80))]);
    let q = window().sort("id", true, Some(7));
    let text = q.explain(&db).unwrap();
    assert!(text.contains("Access[facts via index range(score in [80, +inf])]"), "{text}");
    assert!(!text.contains("key order"), "{text}");
    let (routed, trace) = execute_with(&db, &q, &cfg).unwrap();
    let in_window = execute_with(&db, &window(), &cfg).unwrap().0.rows.len();
    assert_eq!(trace.total_scanned(), in_window);
    assert_eq!(routed, execute_with(&db, &q, &PlannerConfig::full_scan()).unwrap().0);
}

/// The limits of the key-order shapes above do cut inside runs of equal
/// scores, where only the row-id order of a stable sort decides which
/// rows make it: ascending and descending alike.
#[test]
fn key_order_limits_cut_inside_runs_of_equal_values() {
    let db = facts_db(400);
    let window = || {
        Query::scan("facts").filter(vec![
            Predicate::Ge("score".into(), Value::Int(20)),
            Predicate::Le("score".into(), Value::Int(60)),
        ])
    };
    for desc in [false, true] {
        let all =
            execute_with(&db, &window().sort("score", desc, None), &PlannerConfig::full_scan())
                .unwrap()
                .0
                .rows;
        for k in [6, 10] {
            assert_eq!(all[k - 1][2], all[k][2], "limit {k} desc={desc} falls between runs");
            let cut = execute_with(
                &db,
                &window().sort("score", desc, Some(k)),
                &PlannerConfig::default(),
            )
            .unwrap()
            .0
            .rows;
            assert_eq!(cut, all[..k], "limit {k} desc={desc}");
        }
    }
}

/// The same differential over a table that is half checkpoint image, half
/// overlay: a key can live in the image, in the overlay, in both (the
/// overlay shadows), or be tombstoned, and the key-routed answer must
/// equal the full scan's for each.
#[test]
fn primary_key_routing_over_a_checkpoint_base_is_bit_identical_to_full_scan() {
    let dir = std::env::temp_dir().join(format!("quarry-pk-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("facts.wal");
    let db = Database::open(&wal).unwrap();
    let schema = facts_db(0).schema("facts").unwrap();
    db.create_table(schema).unwrap();
    let row = |i: i64, score: i64| {
        vec![Value::Int(i), format!("cat{}", i % 12).into(), Value::Int(score), "note".into()]
    };
    let tx = db.begin();
    for i in 0..200 {
        db.insert(tx, "facts", row(i, i % 97)).unwrap();
    }
    db.commit(tx).unwrap();
    db.checkpoint().unwrap();
    let tx = db.begin();
    for i in 200..260 {
        db.insert(tx, "facts", row(i, i % 97)).unwrap(); // overlay only
    }
    for i in (0..200).step_by(7) {
        db.update(tx, "facts", &[Value::Int(i)], row(i, 1000 + i)).unwrap(); // shadowed
    }
    for i in (3..200).step_by(11) {
        db.delete(tx, "facts", &[Value::Int(i)]).unwrap(); // tombstoned
    }
    db.update(tx, "facts", &[Value::Int(5)], row(5000, 5)).unwrap(); // re-keyed
    db.commit(tx).unwrap();

    for id in (0..270).chain([5000, 9999]) {
        let q = Query::scan("facts").filter(vec![Predicate::Eq("id".into(), Value::Int(id))]);
        let (routed, trace) = execute_with(&db, &q, &PlannerConfig::default()).unwrap();
        let (full, _) = execute_with(&db, &q, &PlannerConfig::full_scan()).unwrap();
        assert_eq!(routed, full, "id {id}");
        assert!(trace.total_scanned() <= 1, "id {id}: {}", trace.render());
    }
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `facts`' columns, which a random query mostly names.
const COLUMNS: [&str; 4] = ["id", "cat", "score", "note"];

/// The other names a random query draws from: those joins and aggregates
/// output, and misspellings.
const OTHER_NAMES: [&str; 8] =
    ["right.cat", "right.id", "COUNT(id)", "MAX(score)", "scroe", "cta", "right.nte", "SUM(note)"];

fn name(rng: &mut TestRng) -> String {
    let names: &[&str] = if rng.gen_range(0..10) < 8 { &COLUMNS } else { &OTHER_NAMES };
    names[rng.gen_range(0..names.len())].to_string()
}

fn value(rng: &mut TestRng) -> Value {
    match rng.gen_range(0..4) {
        0 => Value::Int(rng.gen_range(0..100)),
        1 => Value::Float(rng.gen_range(0..100) as f64),
        2 => format!("cat{}", rng.gen_range(0..12)).into(),
        _ => Value::Null,
    }
}

fn predicate(rng: &mut TestRng) -> Predicate {
    let (c, v) = (name(rng), value(rng));
    match rng.gen_range(0..8) {
        0 => Predicate::Eq(c, v),
        1 => Predicate::Ne(c, v),
        2 => Predicate::Lt(c, v),
        3 => Predicate::Le(c, v),
        4 => Predicate::Gt(c, v),
        5 => Predicate::Ge(c, v),
        6 => Predicate::Contains(c, "cat1".into()),
        _ => Predicate::In(c, vec![v, value(rng)]),
    }
}

/// A query tree of at most `depth` operators above its scans, over
/// `facts` and, now and then, a table that does not exist.
fn random_query(rng: &mut TestRng, depth: usize) -> Query {
    let op = if depth == 0 { 0 } else { rng.gen_range(0..7) };
    let input = |rng: &mut TestRng| random_query(rng, depth.saturating_sub(1));
    match op {
        0 => Query::scan(if rng.gen_range(0..10) == 0 { "fatcs" } else { "facts" }),
        1 | 2 => {
            let predicates = (0..rng.gen_range(1..3)).map(|_| predicate(rng)).collect();
            input(rng).filter(predicates)
        }
        3 => {
            let columns: Vec<String> = (0..rng.gen_range(1..4)).map(|_| name(rng)).collect();
            let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
            input(rng).project(&columns)
        }
        4 => {
            let (left, right) = (input(rng), input(rng));
            left.join(right, &name(rng), &name(rng))
        }
        5 => {
            let aggs = [AggFn::Count, AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max];
            let agg = aggs[rng.gen_range(0..aggs.len())];
            let group = (rng.gen_range(0..2) == 0).then(|| name(rng));
            input(rng).aggregate(group.as_deref(), agg, &name(rng))
        }
        _ => {
            let limit = (rng.gen_range(0..2) == 0).then(|| rng.gen_range(0..30));
            input(rng).sort(&name(rng), rng.gen_range(0..2) == 0, limit)
        }
    }
}

/// The binder over generated trees: whatever the names, nothing panics;
/// the planner refuses a query exactly when `check_query` finds an error
/// that gates (anything but QQ001); the report is over `q.display()`; and
/// the default and full-scan configurations agree on rows, or on the
/// error's kind and message.
#[test]
fn binding_decides_like_the_check_and_both_configurations_agree() {
    let db = facts_db(60);
    let snap = db.snapshot();
    let mut runner = TestRunner::new(ProptestConfig::with_cases(400));
    runner.run(|rng| {
        let q = random_query(rng, 3);
        let report = check_query(&snap, &q);
        prop_assert_eq!(&report.source, &q.display());
        let gates = report
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error && d.code != query_codes::UNKNOWN_TABLE);
        let planned = execute_snapshot_with(&snap, &q, &PlannerConfig::default());
        let reference = execute_snapshot_with(&snap, &q, &PlannerConfig::full_scan());
        let refused = matches!(planned, Err(QueryError::Invalid(_)));
        prop_assert_eq!(refused, gates, "{}\n{report}", q.display());
        match (planned, reference) {
            (Ok((got, _)), Ok((expect, _))) => prop_assert_eq!(got, expect, "{}", q.display()),
            (Err(got), Err(expect)) => {
                let kinds = (std::mem::discriminant(&got), std::mem::discriminant(&expect));
                prop_assert_eq!(kinds.0, kinds.1, "{}", q.display());
                prop_assert_eq!(got.to_string(), expect.to_string(), "{}", q.display());
            }
            (got, expect) => {
                let (got, expect) = (got.map(|r| r.0), expect.map(|r| r.0));
                return Err(TestCaseError::fail(format!("{}: {got:?} vs {expect:?}", q.display())));
            }
        }
        Ok(())
    });
}
