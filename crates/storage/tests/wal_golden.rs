//! The log's bytes, pinned. A fixed workload — two tables, two indexes, a
//! multi-row insert transaction, an update that changes a key, a delete,
//! refused rows, an aborted transaction and text-keyed rows — is run
//! against a fresh WAL-backed database, and the log file it leaves must
//! equal `testdata/wal_golden.bin` byte for byte. A second workload logs
//! insert batches (`Database::insert_rows`: `InsertRun` records, a batch
//! of one as an `Insert`, a batch refused mid-way logging nothing) and is
//! pinned the same way by `testdata/wal_golden_runs.bin`. Every frame must
//! also decode to a `LogRecord` whose `encode()` gives the payload back,
//! so the engine's record writers and the owned-record encoder are one
//! format.
//!
//! Regenerate only on purpose, and only from code whose log format you
//! mean to be the reference:
//! `GOLDEN_REGEN=1 cargo test -p quarry-storage --test wal_golden`.

use quarry_storage::structured::LogRecord;
use quarry_storage::wal::{decode_frame, FRAME_HEADER};
use quarry_storage::{Column, DataType, Database, StorageError, TableSchema, Value};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/wal_golden.bin");
const GOLDEN_RUNS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/wal_golden_runs.bin");

fn tmpwal(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("quarry-wal-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{name}-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn reading(id: i64, site: &str, value: i64) -> Vec<Value> {
    vec![Value::Int(id), site.into(), Value::Int(value)]
}

/// The workload; returns the rows each table holds at its end.
fn workload(db: &Database) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let readings = TableSchema::new(
        "readings",
        vec![
            Column::new("id", DataType::Int),
            Column::new("site", DataType::Text),
            Column::new("value", DataType::Int),
        ],
        &["id"],
        &["value"],
    )
    .unwrap();
    let sites = TableSchema::new(
        "sites",
        vec![Column::new("name", DataType::Text), Column::nullable("elevation", DataType::Float)],
        &["name"],
        &[],
    )
    .unwrap();
    db.create_table(readings).unwrap();
    db.create_table(sites).unwrap();
    db.create_index("readings", "site").unwrap();

    // One transaction, many rows, both tables.
    let tx = db.begin();
    for (id, site, value) in [(1, "north", 12), (2, "south", -3), (3, "north", 12), (4, "east", 7)]
    {
        db.insert(tx, "readings", reading(id, site, value)).unwrap();
    }
    db.insert(tx, "readings", reading(5, "Zürich", 1 << 40)).unwrap();
    db.insert(tx, "sites", vec!["north".into(), Value::Float(1250.5)]).unwrap();
    db.insert(tx, "sites", vec!["south".into(), Value::Null]).unwrap();
    db.commit(tx).unwrap();

    // Refused rows append nothing, and the transaction goes on.
    let tx = db.begin();
    let dup = db.insert(tx, "readings", reading(5, "west", 0)).unwrap_err();
    assert_eq!(dup.to_string(), "duplicate key: readings key [Int(5)] already exists");
    let bad = db.insert(tx, "readings", vec![Value::Int(5), Value::Int(0)]).unwrap_err();
    assert!(matches!(bad, StorageError::SchemaViolation(_)), "{bad}");
    // An update that changes the key, a plain update, a delete.
    db.update(tx, "readings", &[Value::Int(3)], reading(30, "north", 13)).unwrap();
    db.update(tx, "sites", &["south".into()], vec!["south".into(), Value::Float(-4.0)]).unwrap();
    db.delete(tx, "readings", &[Value::Int(4)]).unwrap();
    db.commit(tx).unwrap();

    // Aborted: logged, never redone.
    let tx = db.begin();
    db.insert(tx, "readings", reading(6, "north", 99)).unwrap();
    db.update(tx, "readings", &[Value::Int(1)], reading(1, "north", 100)).unwrap();
    db.delete(tx, "sites", &["north".into()]).unwrap();
    db.abort(tx).unwrap();

    // A text-keyed row on its own.
    db.insert_autocommit("sites", vec!["east: \"quoted\"".into(), Value::Float(0.25)]).unwrap();

    let rows = |table| db.snapshot().scan(table).unwrap();
    (rows("readings"), rows("sites"))
}

/// The batch workload: text keys, a batch of many rows, a batch of one, a
/// batch refused at a row in its middle; returns the rows it leaves.
fn batch_workload(db: &Database) -> Vec<Vec<Value>> {
    let stations = TableSchema::new(
        "stations",
        vec![
            Column::new("name", DataType::Text),
            Column::new("height", DataType::Int),
            Column::nullable("note", DataType::Text),
        ],
        &["name"],
        &["height"],
    )
    .unwrap();
    db.create_table(stations).unwrap();
    let station = |name: &str, height: i64, note: Option<&str>| {
        vec![name.into(), Value::Int(height), note.map_or(Value::Null, Value::from)]
    };

    let tx = db.begin();
    let batch = vec![
        station("Zürich", 408, Some("Fluntern")),
        station("east: \"quoted\"", -3, None),
        station("Säntis", 2502, Some("summit")),
        station("", 0, Some("an empty key")),
    ];
    assert_eq!(db.insert_rows(tx, "stations", batch).unwrap().0, 0);
    // Refused at its second row: nothing of it is logged, and the
    // transaction goes on.
    let logged = db.wal_len();
    let refused =
        vec![station("Bern", 540, None), station("Säntis", 1, None), station("x", 2, None)];
    let dup = db.insert_rows(tx, "stations", refused).unwrap_err();
    assert_eq!(dup.to_string(), "duplicate key: stations key [Text(\"Säntis\")] already exists");
    assert_eq!(db.wal_len(), logged, "a refused batch logged something");
    assert_eq!(db.insert_rows(tx, "stations", [station("Bern", 540, None)]).unwrap().0, 4);
    db.commit(tx).unwrap();

    let tx = db.begin();
    db.delete(tx, "stations", &["".into()]).unwrap();
    let batch = (0..3).map(|i| station(&format!("Ort {i}"), 100 * i, Some("ß")));
    assert_eq!(db.insert_rows(tx, "stations", batch).unwrap().0, 5);
    db.commit(tx).unwrap();
    db.snapshot().scan("stations").unwrap()
}

/// Check the log at `bytes` frame by frame — each frame is one record, and
/// the owned encoder writes its bytes — and against the file `golden`;
/// returns the records it holds.
fn check_log(bytes: &[u8], golden: &str) -> Vec<LogRecord> {
    let (mut pos, mut records) = (0, Vec::new());
    while pos < bytes.len() {
        let (payload, used) = decode_frame(&bytes[pos..], usize::MAX).unwrap().unwrap();
        let rec = LogRecord::decode(payload).unwrap();
        assert_eq!(rec.encode().unwrap(), payload, "record {}: {rec:?}", records.len());
        assert!(used > FRAME_HEADER);
        pos += used;
        records.push(rec);
    }
    if std::env::var_os("GOLDEN_REGEN").is_some_and(|v| v == "1") {
        std::fs::write(golden, bytes).unwrap();
        return records;
    }
    let recorded = std::fs::read(golden).unwrap();
    if bytes != recorded {
        let at = bytes.iter().zip(&recorded).position(|(a, b)| a != b);
        panic!(
            "the log changed: {} bytes against {} recorded in {golden}, first difference at {at:?}",
            bytes.len(),
            recorded.len()
        );
    }
    records
}

#[test]
fn insert_batches_log_byte_identical_runs() {
    let p = tmpwal("golden-runs");
    let expected = batch_workload(&Database::open(&p).unwrap());
    let bytes = std::fs::read(&p).unwrap();
    let db = Database::open(&p).unwrap();
    assert_eq!(db.snapshot().scan("stations").unwrap(), expected);
    drop(db);
    std::fs::remove_file(&p).unwrap();

    let records = check_log(&bytes, GOLDEN_RUNS);
    let kinds: Vec<String> = records
        .iter()
        .map(|rec| match rec {
            LogRecord::InsertRun { first_row_id, rows, .. } => {
                format!("InsertRun {}+{}", first_row_id.0, rows.len())
            }
            LogRecord::Insert { row_id, .. } => format!("Insert {}", row_id.0),
            other => format!("{other:?}").split([' ', '{']).next().unwrap().to_string(),
        })
        .collect();
    let want = [
        "CreateTable",
        "Begin",
        "InsertRun 0+4",
        "Insert 4",
        "Commit",
        "Begin",
        "Delete",
        "InsertRun 5+3",
        "Commit",
    ];
    assert_eq!(kinds, want);
}

#[test]
fn the_log_is_byte_identical_to_the_recorded_one() {
    let p = tmpwal("golden");
    let expected = {
        let db = Database::open(&p).unwrap();
        workload(&db)
    };
    let bytes = std::fs::read(&p).unwrap();

    // Recovery reads back what the workload left.
    let db = Database::open(&p).unwrap();
    assert_eq!(
        (db.snapshot().scan("readings").unwrap(), db.snapshot().scan("sites").unwrap()),
        expected
    );
    drop(db);
    std::fs::remove_file(&p).unwrap();

    assert_eq!(check_log(&bytes, GOLDEN).len(), 25);
}
