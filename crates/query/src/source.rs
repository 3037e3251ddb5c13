//! Catalog abstraction: one planner and linter over two metadata sources.
//!
//! Planning and linting only need schema lookup and cardinality
//! estimates. [`Catalog`] captures that, so the same code plans against
//! either the live [`Database`] (what `plan` and `check_query` callers
//! holding a database pass) or an immutable [`DbSnapshot`] pinned to one
//! write-clock LSN. Rows are only ever read from a [`DbSnapshot`]: every
//! query executes against one, so it never opens a transaction and never
//! waits behind the writer.

use quarry_storage::{Database, DbSnapshot, IndexStats};

/// Schema and statistics metadata the planner and linter read.
///
/// Implemented by the live [`Database`] (locking reads of the catalog)
/// and by [`DbSnapshot`] (lock-free reads of the captured views).
pub trait Catalog {
    /// The schema of a table.
    fn schema(&self, table: &str) -> quarry_storage::Result<quarry_storage::TableSchema>;
    /// Names of all tables, sorted.
    fn table_names(&self) -> Vec<String>;
    /// Number of rows in a table.
    fn row_count(&self, table: &str) -> quarry_storage::Result<usize>;
    /// Names of the indexed columns of a table, sorted.
    fn indexed_columns(&self, table: &str) -> quarry_storage::Result<Vec<String>>;
    /// Cardinality statistics of one secondary index.
    fn index_stats(&self, table: &str, column: &str) -> quarry_storage::Result<Option<IndexStats>>;
}

impl Catalog for Database {
    fn schema(&self, table: &str) -> quarry_storage::Result<quarry_storage::TableSchema> {
        Database::schema(self, table)
    }
    fn table_names(&self) -> Vec<String> {
        Database::table_names(self)
    }
    fn row_count(&self, table: &str) -> quarry_storage::Result<usize> {
        Database::row_count(self, table)
    }
    fn indexed_columns(&self, table: &str) -> quarry_storage::Result<Vec<String>> {
        Database::indexed_columns(self, table)
    }
    fn index_stats(&self, table: &str, column: &str) -> quarry_storage::Result<Option<IndexStats>> {
        Database::index_stats(self, table, column)
    }
}

impl Catalog for DbSnapshot {
    fn schema(&self, table: &str) -> quarry_storage::Result<quarry_storage::TableSchema> {
        DbSnapshot::schema(self, table)
    }
    fn table_names(&self) -> Vec<String> {
        DbSnapshot::table_names(self)
    }
    fn row_count(&self, table: &str) -> quarry_storage::Result<usize> {
        DbSnapshot::row_count(self, table)
    }
    fn indexed_columns(&self, table: &str) -> quarry_storage::Result<Vec<String>> {
        DbSnapshot::indexed_columns(self, table)
    }
    fn index_stats(&self, table: &str, column: &str) -> quarry_storage::Result<Option<IndexStats>> {
        DbSnapshot::index_stats(self, table, column)
    }
}
