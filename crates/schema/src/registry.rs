//! The versioned schema registry.
//!
//! Tracks every table's evolution history, migrates rows across version
//! gaps, and answers compatibility questions. Wired to the structured store
//! via [`SchemaRegistry::migrate_database`], which replays pending
//! operations over a live table.

use crate::evolution::{apply_all, EvolutionError, EvolutionOp};
use quarry_storage::{Database, Row, TableSchema};
use std::collections::HashMap;

/// A schema version number (0 = as registered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VersionId(pub u32);

#[derive(Debug, Clone)]
struct History {
    /// Version v's schema is `schemas[v]`.
    schemas: Vec<TableSchema>,
    /// Op `ops[v]` transforms version v into v+1.
    ops: Vec<EvolutionOp>,
}

/// Versioned schemas for many tables.
#[derive(Debug, Clone, Default)]
pub struct SchemaRegistry {
    tables: HashMap<String, History>,
}

impl SchemaRegistry {
    /// Empty registry.
    pub fn new() -> SchemaRegistry {
        SchemaRegistry::default()
    }

    /// Register a table's base schema as version 0.
    pub fn register(&mut self, schema: TableSchema) -> Result<VersionId, EvolutionError> {
        if self.tables.contains_key(&schema.name) {
            return Err(EvolutionError(format!("table {} already registered", schema.name)));
        }
        self.tables.insert(schema.name.clone(), History { schemas: vec![schema], ops: Vec::new() });
        Ok(VersionId(0))
    }

    /// Evolve a table by one operation; returns the new version id.
    pub fn evolve(&mut self, table: &str, op: EvolutionOp) -> Result<VersionId, EvolutionError> {
        let h = self
            .tables
            .get_mut(table)
            .ok_or_else(|| EvolutionError(format!("table {table} not registered")))?;
        let current = h.schemas.last().expect("≥1 version").clone();
        // Validate against an empty row set; row migration happens at
        // migrate() time.
        let (next, _) = op.apply(&current, &[])?;
        h.schemas.push(next);
        h.ops.push(op);
        Ok(VersionId((h.schemas.len() - 1) as u32))
    }

    /// The latest version id of a table.
    pub fn latest(&self, table: &str) -> Option<VersionId> {
        self.tables.get(table).map(|h| VersionId((h.schemas.len() - 1) as u32))
    }

    /// A specific schema version.
    pub fn schema(&self, table: &str, v: VersionId) -> Option<&TableSchema> {
        self.tables.get(table).and_then(|h| h.schemas.get(v.0 as usize))
    }

    /// The operations between two versions.
    pub fn ops_between(
        &self,
        table: &str,
        from: VersionId,
        to: VersionId,
    ) -> Option<&[EvolutionOp]> {
        let h = self.tables.get(table)?;
        if from > to || (to.0 as usize) >= h.schemas.len() {
            return None;
        }
        Some(&h.ops[from.0 as usize..to.0 as usize])
    }

    /// Migrate rows written under version `from` to version `to`.
    pub fn migrate(
        &self,
        table: &str,
        from: VersionId,
        to: VersionId,
        rows: &[Row],
    ) -> Result<Vec<Row>, EvolutionError> {
        let ops = self
            .ops_between(table, from, to)
            .ok_or_else(|| EvolutionError(format!("no path {from:?} → {to:?} for {table}")))?;
        let schema = self
            .schema(table, from)
            .ok_or_else(|| EvolutionError(format!("unknown version {from:?}")))?;
        let (_, migrated) = apply_all(schema, rows, ops)?;
        Ok(migrated)
    }

    /// Can rows written under `from` be read at `to` without migration?
    /// True only when no operation separates the versions.
    pub fn compatible(&self, table: &str, from: VersionId, to: VersionId) -> bool {
        self.ops_between(table, from, to).is_some_and(<[EvolutionOp]>::is_empty)
    }

    /// Bring a live database table up to this registry's latest version:
    /// reads current rows (assumed at `current` version), migrates them,
    /// and replaces the table.
    pub fn migrate_database(
        &self,
        db: &Database,
        table: &str,
        current: VersionId,
    ) -> Result<VersionId, EvolutionError> {
        let latest = self
            .latest(table)
            .ok_or_else(|| EvolutionError(format!("table {table} not registered")))?;
        if latest == current {
            return Ok(latest);
        }
        let rows = db.snapshot().scan(table).map_err(|e| EvolutionError(e.to_string()))?;
        let migrated = self.migrate(table, current, latest, &rows)?;
        let target = self.schema(table, latest).expect("latest exists").clone();
        db.replace_table(target, migrated).map_err(|e| EvolutionError(e.to_string()))?;
        Ok(latest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_storage::{Column, DataType, Value};

    fn base_schema() -> TableSchema {
        TableSchema::new(
            "cities",
            vec![Column::new("name", DataType::Text), Column::new("population", DataType::Int)],
            &["name"],
            &[],
        )
        .unwrap()
    }

    #[test]
    fn register_and_evolve_versions() {
        let mut reg = SchemaRegistry::new();
        assert_eq!(reg.register(base_schema()).unwrap(), VersionId(0));
        assert!(reg.register(base_schema()).is_err(), "double register");
        let v1 = reg
            .evolve(
                "cities",
                EvolutionOp::AddColumn {
                    column: Column::new("founded", DataType::Int),
                    default: Value::Int(1900),
                },
            )
            .unwrap();
        assert_eq!(v1, VersionId(1));
        assert_eq!(reg.latest("cities"), Some(VersionId(1)));
        assert_eq!(reg.schema("cities", VersionId(1)).unwrap().columns.len(), 3);
        assert_eq!(reg.schema("cities", VersionId(0)).unwrap().columns.len(), 2);
    }

    #[test]
    fn invalid_evolution_rejected_and_history_unchanged() {
        let mut reg = SchemaRegistry::new();
        reg.register(base_schema()).unwrap();
        let err = reg.evolve("cities", EvolutionOp::DropColumn { name: "name".into() });
        assert!(err.is_err());
        assert_eq!(reg.latest("cities"), Some(VersionId(0)));
    }

    #[test]
    fn migrate_rows_across_versions() {
        let mut reg = SchemaRegistry::new();
        reg.register(base_schema()).unwrap();
        reg.evolve(
            "cities",
            EvolutionOp::AddColumn {
                column: Column::new("founded", DataType::Int),
                default: Value::Int(1900),
            },
        )
        .unwrap();
        reg.evolve(
            "cities",
            EvolutionOp::RenameColumn { from: "population".into(), to: "residents".into() },
        )
        .unwrap();

        let old_rows = vec![vec![Value::Text("Madison".into()), Value::Int(250_000)]];
        let migrated = reg.migrate("cities", VersionId(0), VersionId(2), &old_rows).unwrap();
        assert_eq!(
            migrated[0],
            vec![Value::Text("Madison".into()), Value::Int(250_000), Value::Int(1900),]
        );
        let latest = reg.schema("cities", VersionId(2)).unwrap();
        latest.validate(&migrated[0]).unwrap();
        assert_eq!(latest.column_index("residents"), Some(1));
    }

    #[test]
    fn compatibility_is_same_version_only() {
        let mut reg = SchemaRegistry::new();
        reg.register(base_schema()).unwrap();
        assert!(reg.compatible("cities", VersionId(0), VersionId(0)));
        reg.evolve(
            "cities",
            EvolutionOp::RenameColumn { from: "population".into(), to: "p".into() },
        )
        .unwrap();
        assert!(!reg.compatible("cities", VersionId(0), VersionId(1)));
        assert!(!reg.compatible("cities", VersionId(1), VersionId(0)));
    }

    #[test]
    fn migrate_database_replays_onto_live_table() {
        let db = Database::in_memory();
        db.create_table(base_schema()).unwrap();
        db.insert_autocommit("cities", vec![Value::Text("Madison".into()), Value::Int(250_000)])
            .unwrap();

        let mut reg = SchemaRegistry::new();
        reg.register(base_schema()).unwrap();
        reg.evolve(
            "cities",
            EvolutionOp::AddColumn {
                column: Column::new("founded", DataType::Int),
                default: Value::Int(1846),
            },
        )
        .unwrap();

        let v = reg.migrate_database(&db, "cities", VersionId(0)).unwrap();
        assert_eq!(v, VersionId(1));
        let rows = db.snapshot().scan("cities").unwrap();
        assert_eq!(rows[0].len(), 3);
        assert_eq!(rows[0][2], Value::Int(1846));
        // Idempotent when already current.
        assert_eq!(reg.migrate_database(&db, "cities", v).unwrap(), v);
    }

    #[test]
    fn unknown_table_and_bad_ranges() {
        let reg = SchemaRegistry::new();
        assert!(reg.latest("ghost").is_none());
        assert!(reg.migrate("ghost", VersionId(0), VersionId(1), &[]).is_err());
        let mut reg = SchemaRegistry::new();
        reg.register(base_schema()).unwrap();
        assert!(reg.ops_between("cities", VersionId(1), VersionId(0)).is_none());
        assert!(reg.ops_between("cities", VersionId(0), VersionId(5)).is_none());
    }
}
