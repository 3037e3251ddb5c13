//! Property test: the structured query engine agrees with a naive
//! in-memory reference implementation on randomized tables and queries.

use proptest::prelude::*;
use quarry::query::engine::{execute, AggFn, Predicate, Query};
use quarry::storage::{Column, DataType, Database, ScanAccess, TableSchema, Value};

#[derive(Debug, Clone)]
struct TestRow {
    k: i64,
    cat: String,
    num: i64,
}

fn make_db(rows: &[TestRow]) -> Database {
    let db = Database::in_memory();
    db.create_table(
        TableSchema::new(
            "t",
            vec![
                Column::new("k", DataType::Int),
                Column::new("cat", DataType::Text),
                Column::new("num", DataType::Int),
            ],
            &["k"],
            &["num"],
        )
        .unwrap(),
    )
    .unwrap();
    let tx = db.begin();
    for r in rows {
        db.insert(tx, "t", vec![Value::Int(r.k), r.cat.as_str().into(), Value::Int(r.num)])
            .unwrap();
    }
    db.commit(tx).unwrap();
    db
}

fn row_strategy() -> impl Strategy<Value = Vec<TestRow>> {
    proptest::collection::vec((0i64..500, "[abc]", -50i64..50), 0..40).prop_map(|rows| {
        let mut seen = std::collections::HashSet::new();
        rows.into_iter()
            .filter(|(k, _, _)| seen.insert(*k))
            .map(|(k, cat, num)| TestRow { k, cat, num })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn filter_agrees_with_reference(rows in row_strategy(), threshold in -50i64..50) {
        let db = make_db(&rows);
        let q = Query::scan("t").filter(vec![Predicate::Ge("num".into(), Value::Int(threshold))]);
        let got = execute(&db, &q).unwrap();
        let expect: Vec<i64> = rows.iter().filter(|r| r.num >= threshold).map(|r| r.k).collect();
        let mut got_keys: Vec<i64> = got
            .rows
            .iter()
            .map(|r| r[0].as_f64().unwrap() as i64)
            .collect();
        let mut expect = expect;
        got_keys.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got_keys, expect);
    }

    #[test]
    fn aggregates_agree_with_reference(rows in row_strategy()) {
        let db = make_db(&rows);
        // COUNT
        let q = Query::scan("t").aggregate(None, AggFn::Count, "num");
        let count = execute(&db, &q).unwrap().scalar().cloned().unwrap();
        prop_assert_eq!(count, Value::Int(rows.len() as i64));
        // SUM / AVG / MIN / MAX over non-empty tables.
        if !rows.is_empty() {
            let sum: i64 = rows.iter().map(|r| r.num).sum();
            let q = Query::scan("t").aggregate(None, AggFn::Sum, "num");
            prop_assert_eq!(
                execute(&db, &q).unwrap().scalar().cloned().unwrap(),
                Value::Float(sum as f64)
            );
            let q = Query::scan("t").aggregate(None, AggFn::Avg, "num");
            let avg = execute(&db, &q).unwrap().scalar().and_then(Value::as_f64).unwrap();
            prop_assert!((avg - sum as f64 / rows.len() as f64).abs() < 1e-9);
            let q = Query::scan("t").aggregate(None, AggFn::Min, "num");
            let min = rows.iter().map(|r| r.num).min().unwrap();
            prop_assert_eq!(execute(&db, &q).unwrap().scalar().cloned().unwrap(), Value::Int(min));
            let q = Query::scan("t").aggregate(None, AggFn::Max, "num");
            let max = rows.iter().map(|r| r.num).max().unwrap();
            prop_assert_eq!(execute(&db, &q).unwrap().scalar().cloned().unwrap(), Value::Int(max));
        }
    }

    #[test]
    fn group_by_agrees_with_reference(rows in row_strategy()) {
        let db = make_db(&rows);
        let q = Query::scan("t").aggregate(Some("cat"), AggFn::Count, "num");
        let got = execute(&db, &q).unwrap();
        let mut expect: std::collections::BTreeMap<String, i64> = Default::default();
        for r in &rows {
            *expect.entry(r.cat.clone()).or_insert(0) += 1;
        }
        prop_assert_eq!(got.rows.len(), expect.len());
        for row in &got.rows {
            let cat = row[0].to_string();
            prop_assert_eq!(row[1].clone(), Value::Int(expect[&cat]), "group {}", cat);
        }
    }

    #[test]
    fn sort_limit_agrees_with_reference(rows in row_strategy(), limit in 0usize..10) {
        let db = make_db(&rows);
        let q = Query::scan("t").sort("num", true, Some(limit)).project(&["num"]);
        let got: Vec<i64> = execute(&db, &q)
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].as_f64().unwrap() as i64)
            .collect();
        let mut expect: Vec<i64> = rows.iter().map(|r| r.num).collect();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        expect.truncate(limit);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn index_probe_agrees_with_scan_filter(rows in row_strategy(), needle in -50i64..50) {
        let db = make_db(&rows);
        let needle_value = Value::Int(needle);
        let access = ScanAccess::Index { column: "num", lo: Some(&needle_value), hi: Some(&needle_value) };
        let (via_index, _) = db.snapshot().select("t", access, &mut |_| true, None).unwrap();
        let q = Query::scan("t").filter(vec![Predicate::Eq("num".into(), Value::Int(needle))]);
        let via_filter = execute(&db, &q).unwrap();
        let norm = |mut v: Vec<Vec<Value>>| {
            v.sort();
            v
        };
        prop_assert_eq!(norm(via_index), norm(via_filter.rows));
    }

    #[test]
    fn primary_key_lookup_agrees_with_reference(rows in row_strategy(), needle in 0i64..500) {
        let db = make_db(&rows);
        // Half the cases probe a key that exists.
        let needle = rows.get(needle as usize % rows.len().max(1)).map_or(needle, |r| r.k);
        let by_key = Predicate::Eq("k".into(), Value::Int(needle));
        let expect: Vec<Vec<Value>> = rows
            .iter()
            .filter(|r| r.k == needle)
            .map(|r| vec![Value::Int(r.k), r.cat.as_str().into(), Value::Int(r.num)])
            .collect();
        let got = execute(&db, &Query::scan("t").filter(vec![by_key.clone()])).unwrap();
        prop_assert_eq!(&got.rows, &expect);
        // The rest of the conjunction still applies to the row found.
        let and_cat = Query::scan("t").filter(vec![by_key, Predicate::Eq("cat".into(), "a".into())]);
        let expect: Vec<Vec<Value>> =
            expect.into_iter().filter(|r| r[1] == Value::from("a")).collect();
        prop_assert_eq!(execute(&db, &and_cat).unwrap().rows, expect);
    }

    #[test]
    fn join_agrees_with_nested_loop_reference(rows in row_strategy()) {
        let db = make_db(&rows);
        let q = Query::scan("t").join(Query::scan("t"), "cat", "cat");
        let got = execute(&db, &q).unwrap();
        let expect_len: usize = {
            let mut by_cat: std::collections::HashMap<&str, usize> = Default::default();
            for r in &rows {
                *by_cat.entry(r.cat.as_str()).or_insert(0) += 1;
            }
            by_cat.values().map(|n| n * n).sum()
        };
        prop_assert_eq!(got.rows.len(), expect_len);
    }
}
