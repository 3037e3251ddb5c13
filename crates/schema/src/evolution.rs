//! Evolution operations: schema transforms with row migration, and
//! [`migrate_table`], which applies them to a live table.

use quarry_storage::{Column, DataType, Database, Row, TableSchema, Value};
use std::fmt;

/// Why an evolution operation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvolutionError(pub String);

impl fmt::Display for EvolutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evolution error: {}", self.0)
    }
}

impl std::error::Error for EvolutionError {}

/// A declarative schema-evolution operation.
#[derive(Debug, Clone, PartialEq)]
pub enum EvolutionOp {
    /// Add a column; existing rows get `default`.
    AddColumn {
        /// The new column.
        column: Column,
        /// Value assigned to existing rows.
        default: Value,
    },
    /// Drop a (non-key) column.
    DropColumn {
        /// Column to drop.
        name: String,
    },
    /// Rename a column.
    RenameColumn {
        /// Existing name.
        from: String,
        /// New name.
        to: String,
    },
    /// Widen a column's type (Int→Float, anything→Text).
    RetypeColumn {
        /// Column to retype.
        name: String,
        /// Target type.
        to: DataType,
    },
    /// Split a text column on the first occurrence of a delimiter into two
    /// text columns (e.g. `location` = "Madison, Wisconsin" → `city`,
    /// `state`). The source column is removed.
    SplitColumn {
        /// Source text column.
        from: String,
        /// Delimiter to split on.
        delimiter: String,
        /// Names of the two result columns.
        into: (String, String),
    },
    /// Merge two text columns into one, joined by a delimiter. Sources are
    /// removed.
    MergeColumns {
        /// The two source columns.
        from: (String, String),
        /// Join delimiter.
        delimiter: String,
        /// Result column name.
        into: String,
    },
}

impl EvolutionOp {
    /// Short operation name (telemetry / history rendering).
    pub fn name(&self) -> &'static str {
        match self {
            EvolutionOp::AddColumn { .. } => "add",
            EvolutionOp::DropColumn { .. } => "drop",
            EvolutionOp::RenameColumn { .. } => "rename",
            EvolutionOp::RetypeColumn { .. } => "retype",
            EvolutionOp::SplitColumn { .. } => "split",
            EvolutionOp::MergeColumns { .. } => "merge",
        }
    }

    /// Apply the operation to a schema and its rows, producing the evolved
    /// schema and migrated rows.
    pub fn apply(
        &self,
        schema: &TableSchema,
        rows: &[Row],
    ) -> Result<(TableSchema, Vec<Row>), EvolutionError> {
        let col_pos = |name: &str| {
            schema
                .column_index(name)
                .ok_or_else(|| EvolutionError(format!("no column {name} in {}", schema.name)))
        };
        let is_key = |pos: usize| schema.key.contains(&pos);
        match self {
            EvolutionOp::AddColumn { column, default } => {
                if schema.column_index(&column.name).is_some() {
                    return Err(EvolutionError(format!("column {} already exists", column.name)));
                }
                if default.is_null() && !column.nullable {
                    return Err(EvolutionError(format!(
                        "column {} is NOT NULL but default is NULL",
                        column.name
                    )));
                }
                if !default.fits(column.dtype) {
                    return Err(EvolutionError(format!(
                        "default {default} does not fit {}",
                        column.dtype
                    )));
                }
                let mut columns = schema.columns.clone();
                columns.push(column.clone());
                let new = rebuild(schema, columns, None)?;
                let rows = rows
                    .iter()
                    .map(|r| {
                        let mut r = r.clone();
                        r.push(default.clone());
                        r
                    })
                    .collect();
                Ok((new, rows))
            }
            EvolutionOp::DropColumn { name } => {
                let pos = col_pos(name)?;
                if is_key(pos) {
                    return Err(EvolutionError(format!("cannot drop key column {name}")));
                }
                let mut columns = schema.columns.clone();
                columns.remove(pos);
                let new = rebuild(schema, columns, Some(&[pos]))?;
                let rows = rows
                    .iter()
                    .map(|r| {
                        let mut r = r.clone();
                        r.remove(pos);
                        r
                    })
                    .collect();
                Ok((new, rows))
            }
            EvolutionOp::RenameColumn { from, to } => {
                let pos = col_pos(from)?;
                if schema.column_index(to).is_some() {
                    return Err(EvolutionError(format!("column {to} already exists")));
                }
                let mut columns = schema.columns.clone();
                columns[pos].name = to.clone();
                // Keep a secondary index on the renamed column alive under
                // its new name.
                let mut old = schema.clone();
                for ix in &mut old.indexes {
                    if ix == from {
                        *ix = to.clone();
                    }
                }
                let new = rebuild(&old, columns, None)?;
                Ok((new, rows.to_vec()))
            }
            EvolutionOp::RetypeColumn { name, to } => {
                let pos = col_pos(name)?;
                let from_type = schema.columns[pos].dtype;
                if !to.widens_from(from_type) {
                    return Err(EvolutionError(format!(
                        "cannot narrow {name} from {from_type} to {to}"
                    )));
                }
                let mut columns = schema.columns.clone();
                columns[pos].dtype = *to;
                let new = rebuild(schema, columns, None)?;
                let rows = rows
                    .iter()
                    .map(|r| {
                        let mut r = r.clone();
                        r[pos] = widen(&r[pos], *to);
                        r
                    })
                    .collect();
                Ok((new, rows))
            }
            EvolutionOp::SplitColumn { from, delimiter, into } => {
                let pos = col_pos(from)?;
                if is_key(pos) {
                    return Err(EvolutionError(format!("cannot split key column {from}")));
                }
                if schema.columns[pos].dtype != DataType::Text {
                    return Err(EvolutionError(format!(
                        "split requires TEXT column, {from} is not"
                    )));
                }
                for n in [&into.0, &into.1] {
                    if schema.column_index(n).is_some() {
                        return Err(EvolutionError(format!("column {n} already exists")));
                    }
                }
                let nullable = schema.columns[pos].nullable;
                let mut columns = schema.columns.clone();
                columns.remove(pos);
                columns.push(Column { name: into.0.clone(), dtype: DataType::Text, nullable });
                columns.push(Column {
                    name: into.1.clone(),
                    dtype: DataType::Text,
                    nullable: true,
                });
                let new = rebuild(schema, columns, Some(&[pos]))?;
                let rows = rows
                    .iter()
                    .map(|r| {
                        let mut r = r.clone();
                        let v = r.remove(pos);
                        let (a, b) =
                            match v.as_text().and_then(|t| t.split_once(delimiter.as_str())) {
                                Some((a, b)) => (
                                    Value::Text(a.trim().to_string()),
                                    Value::Text(b.trim().to_string()),
                                ),
                                None => (v.clone(), Value::Null),
                            };
                        r.push(a);
                        r.push(b);
                        r
                    })
                    .collect();
                Ok((new, rows))
            }
            EvolutionOp::MergeColumns { from, delimiter, into } => {
                let pa = col_pos(&from.0)?;
                let pb = col_pos(&from.1)?;
                if is_key(pa) || is_key(pb) {
                    return Err(EvolutionError("cannot merge key columns".into()));
                }
                if schema.column_index(into).is_some() {
                    return Err(EvolutionError(format!("column {into} already exists")));
                }
                let nullable = schema.columns[pa].nullable || schema.columns[pb].nullable;
                let (lo, hi) = if pa < pb { (pa, pb) } else { (pb, pa) };
                let mut columns = schema.columns.clone();
                columns.remove(hi);
                columns.remove(lo);
                columns.push(Column { name: into.clone(), dtype: DataType::Text, nullable });
                let new = rebuild(schema, columns, Some(&[pa, pb]))?;
                let rows = rows
                    .iter()
                    .map(|r| {
                        let mut r = r.clone();
                        let vb = r.remove(hi);
                        let va = r.remove(lo);
                        // Keep (a, b) order regardless of column positions.
                        let (va, vb) = if pa < pb { (va, vb) } else { (vb, va) };
                        let merged = match (va.is_null(), vb.is_null()) {
                            (true, true) => Value::Null,
                            (false, true) => Value::Text(va.to_string()),
                            (true, false) => Value::Text(vb.to_string()),
                            (false, false) => Value::Text(format!("{va}{delimiter}{vb}")),
                        };
                        r.push(merged);
                        r
                    })
                    .collect();
                Ok((new, rows))
            }
        }
    }
}

/// Rebuild a schema with new columns, remapping key and index references by
/// *name* (dropping references to removed columns).
fn rebuild(
    old: &TableSchema,
    columns: Vec<Column>,
    removed_positions: Option<&[usize]>,
) -> Result<TableSchema, EvolutionError> {
    let removed: Vec<&str> =
        removed_positions.unwrap_or(&[]).iter().map(|&p| old.columns[p].name.as_str()).collect();
    // Key columns by old name → same-position new name (renames keep
    // position; drops were rejected for keys).
    let key_names: Vec<String> = old
        .key
        .iter()
        .map(|&p| {
            // A rename changes the name at position p; find it in the new
            // column list by position when possible, else by name.
            let old_name = &old.columns[p].name;
            columns.iter().find(|c| &c.name == old_name).map(|c| c.name.clone()).unwrap_or_else(
                || {
                    // Renamed: position p still exists in `columns` if no
                    // column before it was removed. Evolution ops that
                    // remove columns reject key columns, so index p is safe.
                    columns[p].name.clone()
                },
            )
        })
        .collect();
    let index_names: Vec<String> =
        old.indexes.iter().filter(|n| !removed.contains(&n.as_str())).cloned().collect();
    let key_refs: Vec<&str> = key_names.iter().map(String::as_str).collect();
    let index_refs: Vec<&str> = index_names
        .iter()
        .map(String::as_str)
        .filter(|n| columns.iter().any(|c| &c.name == n))
        .collect();
    TableSchema::new(&old.name, columns, &key_refs, &index_refs)
        .map_err(|e| EvolutionError(e.to_string()))
}

/// Widen a value to a target type (assumes `widens_from` already checked).
fn widen(v: &Value, to: DataType) -> Value {
    match (v, to) {
        (Value::Null, _) => Value::Null,
        (Value::Int(i), DataType::Float) => Value::Float(*i as f64),
        (other, DataType::Text) => Value::Text(other.to_string()),
        (other, _) => other.clone(),
    }
}

/// Apply a sequence of operations.
pub fn apply_all(
    schema: &TableSchema,
    rows: &[Row],
    ops: &[EvolutionOp],
) -> Result<(TableSchema, Vec<Row>), EvolutionError> {
    let mut schema = schema.clone();
    let mut rows = rows.to_vec();
    for op in ops {
        let (s, r) = op.apply(&schema, &rows)?;
        schema = s;
        rows = r;
    }
    Ok((schema, rows))
}

/// Evolve a live table: read its schema and rows from one snapshot of
/// `db`, run `ops` over them with [`apply_all`], and swap the result in
/// with [`Database::replace_table`]. The starting schema is the one the
/// database holds, so there is no version for a caller to get wrong. An
/// op the table refuses leaves the table, its rows and the LSN as they
/// were.
pub fn migrate_table(
    db: &Database,
    table: &str,
    ops: &[EvolutionOp],
) -> Result<(), EvolutionError> {
    let storage = |e: quarry_storage::StorageError| EvolutionError(e.to_string());
    let snap = db.snapshot();
    let view = snap.table(table).map_err(storage)?;
    let (schema, rows) = apply_all(view.schema(), &view.scan().map_err(storage)?, ops)?;
    db.replace_table(schema, rows).map_err(storage)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> (TableSchema, Vec<Row>) {
        let schema = TableSchema::new(
            "cities",
            vec![
                Column::new("name", DataType::Text),
                Column::new("population", DataType::Int),
                Column::nullable("location", DataType::Text),
            ],
            &["name"],
            &["population"],
        )
        .unwrap();
        let rows = vec![
            vec!["Madison".into(), Value::Int(250_000), Value::Text("Madison, Wisconsin".into())],
            vec!["Oakton".into(), Value::Int(9_500), Value::Null],
        ];
        (schema, rows)
    }

    #[test]
    fn add_column_backfills_default() {
        let (s, r) = base();
        let op = EvolutionOp::AddColumn {
            column: Column::new("founded", DataType::Int),
            default: Value::Int(1850),
        };
        let (s2, r2) = op.apply(&s, &r).unwrap();
        assert_eq!(s2.columns.len(), 4);
        assert_eq!(r2[0][3], Value::Int(1850));
        s2.validate(&r2[0]).unwrap();
    }

    #[test]
    fn add_rejects_dup_and_bad_default() {
        let (s, r) = base();
        let dup = EvolutionOp::AddColumn {
            column: Column::new("name", DataType::Text),
            default: "x".into(),
        };
        assert!(dup.apply(&s, &r).is_err());
        let bad = EvolutionOp::AddColumn {
            column: Column::new("founded", DataType::Int),
            default: Value::Null,
        };
        assert!(bad.apply(&s, &r).is_err());
    }

    #[test]
    fn drop_column_removes_values_and_index() {
        let (s, r) = base();
        let op = EvolutionOp::DropColumn { name: "population".into() };
        let (s2, r2) = op.apply(&s, &r).unwrap();
        assert_eq!(s2.columns.len(), 2);
        assert!(s2.indexes.is_empty());
        assert_eq!(r2[0].len(), 2);
        assert_eq!(r2[0][1], Value::Text("Madison, Wisconsin".into()));
    }

    #[test]
    fn drop_key_column_rejected() {
        let (s, r) = base();
        let op = EvolutionOp::DropColumn { name: "name".into() };
        assert!(op.apply(&s, &r).is_err());
    }

    #[test]
    fn rename_preserves_rows_and_key() {
        let (s, r) = base();
        let op = EvolutionOp::RenameColumn { from: "name".into(), to: "city_name".into() };
        let (s2, r2) = op.apply(&s, &r).unwrap();
        assert_eq!(s2.columns[0].name, "city_name");
        assert_eq!(s2.key, vec![0]);
        assert_eq!(r2, r);
        // Renaming onto an existing name fails.
        let op = EvolutionOp::RenameColumn { from: "city_name".into(), to: "population".into() };
        assert!(op.apply(&s2, &r2).is_err());
    }

    #[test]
    fn retype_widens_and_rejects_narrowing() {
        let (s, r) = base();
        let op = EvolutionOp::RetypeColumn { name: "population".into(), to: DataType::Float };
        let (s2, r2) = op.apply(&s, &r).unwrap();
        assert_eq!(s2.columns[1].dtype, DataType::Float);
        assert_eq!(r2[0][1], Value::Float(250_000.0));
        let narrow = EvolutionOp::RetypeColumn { name: "population".into(), to: DataType::Int };
        assert!(narrow.apply(&s2, &r2).is_err());
        // To text always works.
        let to_text = EvolutionOp::RetypeColumn { name: "population".into(), to: DataType::Text };
        let (_, r3) = to_text.apply(&s2, &r2).unwrap();
        assert_eq!(r3[0][1], Value::Text("250000".into()));
    }

    #[test]
    fn split_column_divides_text() {
        let (s, r) = base();
        let op = EvolutionOp::SplitColumn {
            from: "location".into(),
            delimiter: ",".into(),
            into: ("city".into(), "state".into()),
        };
        let (s2, r2) = op.apply(&s, &r).unwrap();
        assert!(s2.column_index("location").is_none());
        let ci = s2.column_index("city").unwrap();
        let si = s2.column_index("state").unwrap();
        assert_eq!(r2[0][ci], Value::Text("Madison".into()));
        assert_eq!(r2[0][si], Value::Text("Wisconsin".into()));
        // Row with NULL: passes through with NULL second part.
        assert_eq!(r2[1][ci], Value::Null);
        assert_eq!(r2[1][si], Value::Null);
        for row in &r2 {
            s2.validate(row).unwrap();
        }
    }

    #[test]
    fn merge_columns_joins_text() {
        let (s, r) = base();
        // First split, then merge back.
        let split = EvolutionOp::SplitColumn {
            from: "location".into(),
            delimiter: ",".into(),
            into: ("city".into(), "state".into()),
        };
        let (s2, r2) = split.apply(&s, &r).unwrap();
        let merge = EvolutionOp::MergeColumns {
            from: ("city".into(), "state".into()),
            delimiter: ", ".into(),
            into: "location".into(),
        };
        let (s3, r3) = merge.apply(&s2, &r2).unwrap();
        let li = s3.column_index("location").unwrap();
        assert_eq!(r3[0][li], Value::Text("Madison, Wisconsin".into()));
        assert_eq!(r3[1][li], Value::Null);
    }

    #[test]
    fn apply_all_sequences() {
        let (s, r) = base();
        let ops = vec![
            EvolutionOp::AddColumn {
                column: Column::new("founded", DataType::Int),
                default: Value::Int(1900),
            },
            EvolutionOp::RenameColumn { from: "population".into(), to: "residents".into() },
            EvolutionOp::RetypeColumn { name: "residents".into(), to: DataType::Float },
        ];
        let (s2, r2) = apply_all(&s, &r, &ops).unwrap();
        assert!(s2.column_index("residents").is_some());
        assert_eq!(r2[0][1], Value::Float(250_000.0));
        assert_eq!(r2[0][3], Value::Int(1900));
        for row in &r2 {
            s2.validate(row).unwrap();
        }
    }

    #[test]
    fn unknown_column_errors() {
        let (s, r) = base();
        for op in [
            EvolutionOp::DropColumn { name: "ghost".into() },
            EvolutionOp::RenameColumn { from: "ghost".into(), to: "x".into() },
            EvolutionOp::RetypeColumn { name: "ghost".into(), to: DataType::Text },
        ] {
            assert!(op.apply(&s, &r).is_err(), "{op:?}");
        }
    }

    #[test]
    fn migrate_table_replays_onto_a_live_table() {
        let (s, r) = base();
        let db = Database::in_memory();
        db.create_table(s).unwrap();
        for row in r {
            db.insert_autocommit("cities", row).unwrap();
        }
        let founded = EvolutionOp::AddColumn {
            column: Column::new("founded", DataType::Int),
            default: Value::Int(1846),
        };
        migrate_table(&db, "cities", &[founded]).unwrap();
        let snap = db.snapshot();
        assert_eq!(snap.schema("cities").unwrap().column_index("founded"), Some(3));
        let rows = snap.scan("cities").unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|row| row[3] == Value::Int(1846)));
        // The population index came through the replacement.
        assert_eq!(snap.indexed_columns("cities").unwrap(), vec!["population".to_string()]);
    }

    #[test]
    fn an_invalid_migration_leaves_the_table_rows_and_lsn_alone() {
        let (s, r) = base();
        let db = Database::in_memory();
        db.create_table(s.clone()).unwrap();
        for row in r.clone() {
            db.insert_autocommit("cities", row).unwrap();
        }
        let lsn = db.snapshot().lsn();
        // The second op is refused: the first must not land either.
        let ops = [
            EvolutionOp::RenameColumn { from: "population".into(), to: "residents".into() },
            EvolutionOp::DropColumn { name: "name".into() },
        ];
        assert!(migrate_table(&db, "cities", &ops).is_err());
        assert!(migrate_table(&db, "ghost", &ops[..1]).is_err(), "no such table");
        let snap = db.snapshot();
        assert_eq!(snap.schema("cities").unwrap(), s);
        assert_eq!(snap.scan("cities").unwrap(), r);
        assert_eq!(snap.lsn(), lsn);
    }
}
