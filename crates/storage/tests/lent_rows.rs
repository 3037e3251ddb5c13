//! Base rows are lent from one scratch row that every fetch decodes into
//! (`codec::read_row_into`), so a row must never carry a byte of the row
//! decoded before it. Over a checkpointed table with an overlay of
//! inserts, updates and deletes on top, with text cells of random lengths
//! — empty, a long one followed by a short one, `Null` after text and text
//! after `Null` — every access path hands over exactly the rows a model of
//! the table holds, in order: a full walk, index equality and range probes
//! on an `Int` and a nullable `Text` column, primary-key reads, and the
//! index walk in key order, ascending and descending, with limits.

use proptest::prelude::*;
use quarry_storage::{Column, DataType, Database, Row, ScanAccess, TableSchema, TableView, Value};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

/// `t(id Int PK, a Text NULL indexed, b Text NULL, v Int indexed)`.
fn schema() -> TableSchema {
    let columns = vec![
        Column::new("id", DataType::Int),
        Column::nullable("a", DataType::Text),
        Column::nullable("b", DataType::Text),
        Column::new("v", DataType::Int),
    ];
    TableSchema::new("t", columns, &["id"], &["a", "v"]).unwrap()
}

/// A text cell: `None` is `Null`, else that many copies of a letter.
fn text(cell: Option<(u8, usize)>) -> Value {
    match cell {
        Some((letter, len)) => Value::Text(char::from(b'a' + letter % 6).to_string().repeat(len)),
        None => Value::Null,
    }
}

type Cells = (Option<(u8, usize)>, Option<(u8, usize)>, i64);

fn row(id: i64, (a, b, v): Cells) -> Row {
    vec![Value::Int(id), text(a), text(b), Value::Int(v)]
}

/// Text cells whose neighbours differ in every way that could leave
/// bytes behind: long then short, empty, `Null` then text and back.
fn cell() -> impl Strategy<Value = Option<(u8, usize)>> {
    (0u8..6, any::<u8>(), 0usize..40).prop_map(|(kind, letter, len)| match kind {
        0 => None,
        1 => Some((letter, 0)),
        _ => Some((letter, len)),
    })
}

fn cells() -> impl Strategy<Value = Cells> {
    (cell(), cell(), 0i64..12)
}

/// What a change after the checkpoint does to row `n % rows`.
#[derive(Debug, Clone)]
enum Change {
    Insert(Cells),
    Update(usize, Cells),
    Delete(usize),
}

fn change() -> impl Strategy<Value = Change> {
    (0u8..3, any::<usize>(), cells()).prop_map(|(kind, n, cells)| match kind {
        0 => Change::Insert(cells),
        1 => Change::Update(n, cells),
        _ => Change::Delete(n),
    })
}

/// Every row `access` hands over, cloned.
fn rows(view: &TableView, access: ScanAccess<'_>) -> Vec<Row> {
    let mut out = Vec::new();
    let handed = view
        .for_each_row(access, &mut |row| {
            out.push(row.clone());
            Ok(())
        })
        .unwrap();
    assert_eq!(handed, out.len());
    out
}

/// The first `limit` rows of the key-order walk over `column` in
/// `[lo, hi]`.
fn in_key_order(
    view: &TableView,
    column: &str,
    (lo, hi): (Option<&Value>, Option<&Value>),
    desc: bool,
    limit: usize,
) -> Vec<Row> {
    let mut out = Vec::new();
    view.for_each_in_key_order(column, (lo, hi), desc, &mut |row| {
        out.push(row.clone());
        Ok(if out.len() == limit { ControlFlow::Break(()) } else { ControlFlow::Continue(()) })
    })
    .unwrap();
    out
}

/// Check every access path of `view` against `model`, in row-id order.
fn check(view: &TableView, model: &[Row]) -> Result<(), TestCaseError> {
    prop_assert_eq!(&view.scan().unwrap(), model);
    prop_assert_eq!(&rows(view, ScanAccess::Full), model);
    let filtered = |keep: &dyn Fn(&Row) -> bool| -> Vec<Row> {
        model.iter().filter(|row| keep(row)).cloned().collect()
    };

    for v in 0..12 {
        let value = Value::Int(v);
        let eq = ScanAccess::Index { column: "v", lo: Some(&value), hi: Some(&value) };
        prop_assert_eq!(rows(view, eq), filtered(&|row| row[3] == value));
        let hi = Value::Int(v + 3);
        let range = ScanAccess::Index { column: "v", lo: Some(&value), hi: Some(&hi) };
        prop_assert_eq!(rows(view, range), filtered(&|row| row[3] >= value && row[3] <= hi));
    }
    let (lo, hi) = (Value::Text("b".into()), Value::Text("d".into()));
    let range = ScanAccess::Index { column: "a", lo: Some(&lo), hi: Some(&hi) };
    prop_assert_eq!(rows(view, range), filtered(&|row| row[1] >= lo && row[1] <= hi));
    let eq = ScanAccess::Index { column: "a", lo: Some(&Value::Null), hi: Some(&Value::Null) };
    prop_assert_eq!(rows(view, eq), filtered(&|row| row[1] == Value::Null));

    for row in model {
        let key = [row[0].clone()];
        prop_assert_eq!(rows(view, ScanAccess::Pk { key: &key }), vec![row.clone()]);
    }
    let absent = [Value::Int(-1)];
    prop_assert_eq!(rows(view, ScanAccess::Pk { key: &absent }), Vec::<Row>::new());

    // Key order: a stable sort of the row-id walk by the column, equal
    // values kept in row-id order in both directions.
    for (lo, hi) in [(None, None), (Some(Value::Int(2)), Some(Value::Int(8)))] {
        let window = filtered(&|row| {
            lo.as_ref().is_none_or(|lo| &row[3] >= lo) && hi.as_ref().is_none_or(|hi| &row[3] <= hi)
        });
        for desc in [false, true] {
            let mut want = window.clone();
            if desc {
                want.sort_by(|x, y| y[3].cmp(&x[3]));
            } else {
                want.sort_by(|x, y| x[3].cmp(&y[3]));
            }
            for limit in [1, 7, usize::MAX] {
                let got = in_key_order(view, "v", (lo.as_ref(), hi.as_ref()), desc, limit);
                let want: Vec<Row> = want.iter().take(limit).cloned().collect();
                prop_assert_eq!(got, want, "desc {} limit {}", desc, limit);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_access_path_lends_exactly_the_rows_of_a_model(
        base in proptest::collection::vec(cells(), 1..120),
        changes in proptest::collection::vec(change(), 0..60),
    ) {
        let dir = std::env::temp_dir().join("quarry-lent-rows");
        std::fs::create_dir_all(&dir).unwrap();
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let wal = dir.join(format!("{case}-{}.wal", std::process::id()));
        let image = wal.with_extension("ckpt");
        let _ = (std::fs::remove_file(&wal), std::fs::remove_file(&image));

        let db = Database::open(&wal).unwrap();
        db.create_table(schema()).unwrap();
        // Rows that put each kind of neighbour next to each other first.
        let long = Some((0, 30));
        let lead = [
            (long, long, 1),
            (Some((1, 2)), Some((1, 0)), 1),
            (None, long, 2),
            (long, None, 2),
            (Some((2, 0)), None, 3),
            (None, None, 3),
            (long, Some((3, 1)), 4),
        ];
        let mut model: Vec<Row> = Vec::new();
        for cells in lead.into_iter().chain(base) {
            model.push(row(model.len() as i64, cells));
        }
        let rows_in = model.clone();
        db.in_tx(|tx| db.insert_rows(tx, "t", rows_in).map(drop)).unwrap();
        db.checkpoint().unwrap();
        check(db.snapshot().table("t").unwrap(), &model)?;

        let mut next_id = model.len() as i64;
        for change in changes {
            match change {
                Change::Insert(cells) => {
                    let new = row(next_id, cells);
                    next_id += 1;
                    db.insert_autocommit("t", new.clone()).unwrap();
                    model.push(new);
                }
                Change::Update(n, cells) if !model.is_empty() => {
                    let at = n % model.len();
                    let key = [model[at][0].clone()];
                    let Value::Int(id) = key[0] else { unreachable!() };
                    let new = row(id, cells);
                    db.in_tx(|tx| db.update(tx, "t", &key, new.clone())).unwrap();
                    model[at] = new;
                }
                Change::Delete(n) if !model.is_empty() => {
                    let at = n % model.len();
                    let key = [model[at][0].clone()];
                    db.in_tx(|tx| db.delete(tx, "t", &key)).unwrap();
                    model.remove(at);
                }
                _ => {}
            }
        }
        check(db.snapshot().table("t").unwrap(), &model)?;

        drop(db);
        let _ = (std::fs::remove_file(&wal), std::fs::remove_file(&image));
    }
}
