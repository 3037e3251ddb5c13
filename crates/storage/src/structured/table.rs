//! Table schemas, rows, and schema validation.

use crate::error::StorageError;
use crate::value::{DataType, Value};
use crate::Result;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Internal identifier of a stored row, unique within its table forever
/// (never reused after deletion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub u64);

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row:{}", self.0)
    }
}

/// One stored row: values positionally aligned with the schema's columns.
pub type Row = Vec<Value>;

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    /// Column name, unique within the table.
    pub name: String,
    /// Declared type.
    pub dtype: DataType,
    /// Whether NULL is allowed.
    pub nullable: bool,
}

impl Column {
    /// Shorthand constructor for a NOT NULL column.
    pub fn new(name: &str, dtype: DataType) -> Column {
        Column { name: name.to_string(), dtype, nullable: false }
    }

    /// Shorthand constructor for a nullable column.
    pub fn nullable(name: &str, dtype: DataType) -> Column {
        Column { name: name.to_string(), dtype, nullable: true }
    }
}

/// Is `name` a system table's? Names beginning with `_` are reserved for
/// the tables the system keeps about the data (such as cell provenance):
/// they are stored, logged and replicated like any other, but not offered
/// to users as data.
pub fn is_system_table(name: &str) -> bool {
    name.starts_with('_')
}

/// A table schema: named, typed columns plus a primary key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableSchema {
    /// Table name, unique within a database.
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<Column>,
    /// Indexes (into `columns`) of the primary-key columns, in key order.
    pub key: Vec<usize>,
    /// Names of columns carrying a secondary index.
    pub indexes: Vec<String>,
}

impl TableSchema {
    /// Build a schema; `key` and `indexes` are column names.
    ///
    /// Errors if names are duplicated or a key/index column is unknown, or a
    /// key column is nullable.
    pub fn new(
        name: &str,
        columns: Vec<Column>,
        key: &[&str],
        indexes: &[&str],
    ) -> Result<TableSchema> {
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name.as_str()) {
                return Err(StorageError::SchemaViolation(format!(
                    "duplicate column {} in table {name}",
                    c.name
                )));
            }
        }
        let resolve = |n: &str| {
            columns.iter().position(|c| c.name == n).ok_or_else(|| {
                StorageError::SchemaViolation(format!("unknown column {n} in table {name}"))
            })
        };
        let key_idx: Vec<usize> = key.iter().map(|n| resolve(n)).collect::<Result<_>>()?;
        if key_idx.is_empty() {
            return Err(StorageError::SchemaViolation(format!(
                "table {name} needs at least one key column"
            )));
        }
        for &k in &key_idx {
            if columns[k].nullable {
                return Err(StorageError::SchemaViolation(format!(
                    "key column {} of {name} must be NOT NULL",
                    columns[k].name
                )));
            }
        }
        let mut index_names = Vec::with_capacity(indexes.len());
        for n in indexes {
            resolve(n)?;
            index_names.push(n.to_string());
        }
        Ok(TableSchema { name: name.to_string(), columns, key: key_idx, indexes: index_names })
    }

    /// Position of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Extract the primary-key values of a row.
    pub fn key_of(&self, row: &Row) -> Vec<Value> {
        self.key.iter().map(|&i| row[i].clone()).collect()
    }

    /// Validate a row against this schema (arity, types, nullability).
    pub fn validate(&self, row: &Row) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(StorageError::SchemaViolation(format!(
                "table {}: expected {} values, got {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        for (v, c) in row.iter().zip(&self.columns) {
            if v.is_null() {
                if !c.nullable {
                    return Err(StorageError::SchemaViolation(format!(
                        "table {}: column {} is NOT NULL",
                        self.name, c.name
                    )));
                }
            } else if !v.fits(c.dtype) {
                return Err(StorageError::SchemaViolation(format!(
                    "table {}: column {} expects {}, got {v}",
                    self.name, c.name, c.dtype
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new(
            "cities",
            vec![
                Column::new("name", DataType::Text),
                Column::new("population", DataType::Int),
                Column::nullable("area", DataType::Float),
            ],
            &["name"],
            &["population"],
        )
        .unwrap()
    }

    #[test]
    fn valid_row_passes() {
        let s = schema();
        s.validate(&vec!["Madison".into(), Value::Int(250_000), Value::Float(77.0)]).unwrap();
        // Int widens into Float column; NULL allowed in nullable column.
        s.validate(&vec!["X".into(), Value::Int(1), Value::Int(3)]).unwrap();
        s.validate(&vec!["X".into(), Value::Int(1), Value::Null]).unwrap();
    }

    #[test]
    fn arity_type_and_null_violations() {
        let s = schema();
        assert!(s.validate(&vec!["Madison".into()]).is_err());
        assert!(s.validate(&vec!["M".into(), "not a number".into(), Value::Null]).is_err());
        assert!(s.validate(&vec![Value::Null, Value::Int(1), Value::Null]).is_err());
    }

    #[test]
    fn key_extraction() {
        let s = schema();
        let row: Row = vec!["Madison".into(), Value::Int(1), Value::Null];
        assert_eq!(s.key_of(&row), vec![Value::Text("Madison".into())]);
    }

    #[test]
    fn schema_construction_errors() {
        let cols = vec![Column::new("a", DataType::Int), Column::new("a", DataType::Int)];
        assert!(TableSchema::new("t", cols, &["a"], &[]).is_err());

        let cols = vec![Column::new("a", DataType::Int)];
        assert!(TableSchema::new("t", cols.clone(), &["b"], &[]).is_err());
        assert!(TableSchema::new("t", cols.clone(), &[], &[]).is_err());
        assert!(TableSchema::new("t", cols, &["a"], &["zz"]).is_err());

        let cols = vec![Column::nullable("a", DataType::Int)];
        assert!(TableSchema::new("t", cols, &["a"], &[]).is_err());
    }

    #[test]
    fn column_position_by_name() {
        let s = schema();
        assert_eq!(s.column_index("area"), Some(2));
        assert_eq!(s.column_index("nope"), None);
    }
}
