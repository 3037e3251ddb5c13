//! The log's bytes, pinned. A fixed workload — two tables, two indexes, a
//! multi-row insert transaction, an update that changes a key, a delete,
//! refused rows, an aborted transaction and text-keyed rows — is run
//! against a fresh WAL-backed database, and the log file it leaves must
//! equal `testdata/wal_golden.bin` byte for byte. Every frame must also
//! decode to a `LogRecord` whose `encode()` gives the payload back, so the
//! engine's record writers and the owned-record encoder are one format.
//!
//! Regenerate only on purpose, and only from code whose log format you
//! mean to be the reference:
//! `GOLDEN_REGEN=1 cargo test -p quarry-storage --test wal_golden`.

use quarry_storage::structured::LogRecord;
use quarry_storage::wal::{decode_frame, FRAME_HEADER};
use quarry_storage::{Column, DataType, Database, StorageError, TableSchema, Value};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/wal_golden.bin");

fn tmpwal() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("quarry-wal-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("golden-{}.wal", std::process::id()));
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

#[test]
fn the_log_is_byte_identical_to_the_recorded_one() {
    let p = tmpwal();
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

    // Each frame is one record, and the owned encoder writes its bytes.
    let (mut pos, mut records) = (0, 0);
    while pos < bytes.len() {
        let (payload, used) = decode_frame(&bytes[pos..], usize::MAX).unwrap().unwrap();
        let rec = LogRecord::decode(payload).unwrap();
        assert_eq!(rec.encode().unwrap(), payload, "record {records}: {rec:?}");
        assert!(used > FRAME_HEADER);
        pos += used;
        records += 1;
    }
    assert_eq!(records, 25);

    if std::env::var_os("GOLDEN_REGEN").is_some_and(|v| v == "1") {
        std::fs::write(GOLDEN, &bytes).unwrap();
        return;
    }
    let golden = std::fs::read(GOLDEN).unwrap();
    if bytes != golden {
        let at = bytes.iter().zip(&golden).position(|(a, b)| a != b);
        panic!(
            "the log changed: {} bytes against {} recorded, first difference at {at:?}",
            bytes.len(),
            golden.len()
        );
    }
}
