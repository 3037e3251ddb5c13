//! Fixtures shared by the engine's and the checkpoint layer's unit tests.

use crate::value::{DataType, Value};
use std::path::PathBuf;

use super::checkpoint::{image_path, tmp_path};
use super::engine::Database;
use super::table::{Column, Row, TableSchema};
use super::view::ScanAccess;

/// `people(name PK, age indexed, city nullable)`.
pub(super) fn people_schema() -> TableSchema {
    TableSchema::new(
        "people",
        vec![
            Column::new("name", DataType::Text),
            Column::new("age", DataType::Int),
            Column::nullable("city", DataType::Text),
        ],
        &["name"],
        &["age"],
    )
    .unwrap()
}

pub(super) fn person(name: &str, age: i64, city: &str) -> Row {
    vec![name.into(), Value::Int(age), city.into()]
}

/// The committed rows of `table` whose indexed `column` equals `value`,
/// read through the index of a fresh snapshot.
pub(super) fn index_rows(db: &Database, table: &str, column: &str, value: &Value) -> Vec<Row> {
    let access = ScanAccess::Index { column, lo: Some(value), hi: Some(value) };
    db.snapshot().select(table, access, &mut |_| true, None).unwrap().0
}

/// A fresh WAL path unique to `name` and this process, with any files a
/// previous run left around it removed.
pub(super) fn tmpwal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("quarry-db-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{name}-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_file(image_path(&p));
    let _ = std::fs::remove_file(tmp_path(&p));
    p
}
