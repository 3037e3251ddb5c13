//! Immutable point-in-time views: [`TableView`] and [`DbSnapshot`].
//!
//! A [`DbSnapshot`] is the MVCC read half of the engine: an O(1)-to-clone
//! bundle of `Arc`-shared per-table views pinned to one LSN of the global
//! write clock. Snapshot reads take **no locks** — they never block
//! the writer, the writer never blocks them, and two snapshots of the same
//! version share their table views structurally. Writes go one
//! transaction at a time through [`super::engine::Database`]; see
//! `docs/concurrency.md`.
//!
//! Since the B-tree checkpoint engine, a view captures a table the same
//! way the live engine holds it: a copy of the small in-memory overlay
//! (rows written since the last checkpoint, plus tombstones) stacked on an
//! `Arc`-shared [`TableBase`] slice of the checkpoint image. Capturing is
//! still O(overlay); base rows stay on disk and fault in through the
//! image's buffer pool on read. The image file is immutable once
//! published — a later checkpoint renames a *new* file over it while this
//! view keeps the old one alive (and readable) through its handle — so
//! snapshot reads stay repeatable without copying the corpus.

use crate::error::StorageError;
use crate::value::Value;
use crate::Result;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use super::index::SecondaryIndex;
use super::overlay::IndexStats;
use super::paged::{self, TableBase};
use super::table::{Row, RowId, TableSchema};

/// How [`DbSnapshot::select`] reaches a table's rows.
#[derive(Debug, Clone, Copy)]
pub enum ScanAccess<'a> {
    /// Walk the whole table in row-id order.
    Full,
    /// Probe the secondary index on `column` for values in `[lo, hi]`
    /// (inclusive, either bound optional), then fetch the matching rows in
    /// row-id order. Errors when the column carries no index.
    Index {
        /// Indexed column.
        column: &'a str,
        /// Inclusive lower bound (`None` = unbounded).
        lo: Option<&'a Value>,
        /// Inclusive upper bound (`None` = unbounded).
        hi: Option<&'a Value>,
    },
}

/// An immutable copy of one table's committed state at a point in time.
///
/// Overlay rows are held sorted by row id and the base row tree is keyed
/// by row id, so both access paths of [`TableView::select`] produce rows
/// in exactly the same order as the live engine: row-id (insertion)
/// order.
#[derive(Debug)]
pub struct TableView {
    schema: TableSchema,
    /// Overlay rows sorted ascending by row id.
    overlay: Vec<(RowId, Row)>,
    /// Column name → overlay secondary index, cloned from the live table.
    indexes: HashMap<String, SecondaryIndex>,
    /// The checkpoint image slice under the overlay, if any.
    base: Option<TableBase>,
    /// Base row ids deleted or superseded since the checkpoint.
    tombstones: HashSet<RowId>,
    /// Exact live rows across base + overlay.
    live_rows: u64,
    /// The table's write version at capture time; equal versions imply
    /// identical contents (see `Table::version` in the engine).
    version: u64,
}

impl TableView {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn capture(
        schema: TableSchema,
        heap: &HashMap<RowId, Row>,
        indexes: &HashMap<String, SecondaryIndex>,
        base: Option<TableBase>,
        tombstones: &HashSet<RowId>,
        live_rows: u64,
        version: u64,
    ) -> TableView {
        let mut overlay: Vec<(RowId, Row)> =
            heap.iter().map(|(id, row)| (*id, row.clone())).collect();
        overlay.sort_unstable_by_key(|(id, _)| *id);
        TableView {
            schema,
            overlay,
            indexes: indexes.clone(),
            base,
            tombstones: tombstones.clone(),
            live_rows,
            version,
        }
    }

    /// The captured write version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The captured schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.live_rows as usize
    }

    fn overlay_row(&self, id: RowId) -> Option<&Row> {
        self.overlay.binary_search_by_key(&id, |(rid, _)| *rid).ok().map(|i| &self.overlay[i].1)
    }

    /// The overlay as the borrowed slice the merge helpers consume.
    fn overlay_refs(&self) -> Vec<(RowId, &Row)> {
        self.overlay.iter().map(|(id, row)| (*id, row)).collect()
    }

    /// Names of the indexed columns, sorted (mirrors
    /// `Database::indexed_columns`).
    pub fn indexed_columns(&self) -> Vec<String> {
        let mut names: Vec<String> = self.indexes.keys().cloned().collect();
        names.sort();
        names
    }

    /// Cardinality statistics of one secondary index (`None` when the
    /// column carries no index). Matches `Database::index_stats`: exact
    /// for in-memory tables, estimated (base + overlay distinct, capped
    /// at the row count) over a checkpoint base.
    pub fn index_stats(&self, column: &str) -> Option<IndexStats> {
        let ix = self.indexes.get(column)?;
        let distinct = match self.base.as_ref().and_then(|b| b.meta.indexes.get(column)) {
            Some(m) => (m.distinct as usize + ix.distinct_values()).min(self.live_rows as usize),
            None => ix.distinct_values(),
        };
        Some(IndexStats { entries: self.live_rows as usize, distinct })
    }

    /// Filtered, projected read — the query planner's table-access
    /// primitive, with predicate and projection *pushdown*: `filter` is
    /// evaluated against each candidate row while it is still borrowed
    /// from the view, and only the `projection` columns of accepted rows
    /// are cloned out. Non-matching rows are never copied at all.
    ///
    /// Rows come back in row-id (insertion) order for **both** access
    /// paths, so an index-routed read is bit-identical — including order —
    /// to a full scan with the same filter. Returns `(rows, scanned)` where
    /// `scanned` counts the candidate rows the filter examined.
    pub fn select(
        &self,
        access: ScanAccess<'_>,
        filter: &mut dyn FnMut(&[Value]) -> bool,
        projection: Option<&[usize]>,
    ) -> Result<(Vec<Row>, usize)> {
        let materialize = |row: &Row| -> Row {
            match projection {
                Some(cols) => cols.iter().map(|&i| row[i].clone()).collect(),
                None => row.clone(),
            }
        };
        match access {
            ScanAccess::Full => {
                let mut out = Vec::new();
                let mut scanned = 0usize;
                let overlay = self.overlay_refs();
                paged::for_each_live_row(
                    self.base.as_ref(),
                    &overlay,
                    &self.tombstones,
                    &mut |_, row| {
                        scanned += 1;
                        if filter(row) {
                            out.push(materialize(row));
                        }
                        Ok(())
                    },
                )?;
                Ok((out, scanned))
            }
            ScanAccess::Index { column, lo, hi } => {
                let ix = self.indexes.get(column).ok_or_else(|| {
                    StorageError::SchemaViolation(format!(
                        "no index on {}.{column}",
                        self.schema.name
                    ))
                })?;
                let shadowed = |id: RowId| {
                    self.overlay.binary_search_by_key(&id, |(rid, _)| *rid).is_ok()
                        || self.tombstones.contains(&id)
                };
                let mut row_ids =
                    paged::merged_index_ids(self.base.as_ref(), column, ix, &shadowed, lo, hi)?;
                // Row-id order = full-scan order.
                row_ids.sort_unstable();
                let mut out = Vec::new();
                let mut scanned = 0usize;
                for row_id in row_ids {
                    if let Some(row) = self.overlay_row(row_id) {
                        scanned += 1;
                        if filter(row) {
                            out.push(materialize(row));
                        }
                    } else if !self.tombstones.contains(&row_id) {
                        if let Some(b) = &self.base {
                            if row_id.0 < b.meta.next_row {
                                if let Some(row) = b.get_row(row_id)? {
                                    scanned += 1;
                                    if filter(&row) {
                                        out.push(materialize(&row));
                                    }
                                }
                            }
                        }
                    }
                }
                Ok((out, scanned))
            }
        }
    }

    /// All rows in row-id order (mirrors `Database::scan`).
    pub fn scan(&self) -> Result<Vec<Row>> {
        let overlay = self.overlay_refs();
        let mut out = Vec::with_capacity(self.live_rows as usize);
        paged::for_each_live_row(self.base.as_ref(), &overlay, &self.tombstones, &mut |_, row| {
            out.push(row.clone());
            Ok(())
        })?;
        Ok(out)
    }
}

/// A consistent, immutable snapshot of every table's **committed** state,
/// pinned to one LSN of the database's write clock.
///
/// Cloning is O(tables): only `Arc` roots are copied. Every read method
/// mirrors its `Database` counterpart — same results, same ordering, same
/// error kinds — so query plans execute identically over either.
#[derive(Debug, Clone)]
pub struct DbSnapshot {
    lsn: u64,
    tables: HashMap<String, Arc<TableView>>,
}

impl DbSnapshot {
    pub(crate) fn new(lsn: u64, tables: HashMap<String, Arc<TableView>>) -> DbSnapshot {
        DbSnapshot { lsn, tables }
    }

    /// The write-clock value this snapshot is pinned to: the snapshot
    /// holds every write stamped `<= lsn` that had committed at capture
    /// time, and no write stamped later.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// The captured view of one table.
    pub fn table(&self, table: &str) -> Result<&Arc<TableView>> {
        self.tables.get(table).ok_or_else(|| StorageError::NoSuchTable(table.to_string()))
    }

    /// The schema of a table (mirrors `Database::schema`).
    pub fn schema(&self, table: &str) -> Result<TableSchema> {
        Ok(self.table(table)?.schema().clone())
    }

    /// Names of all tables, sorted (mirrors `Database::table_names`).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// The captured write version of a table; keys the query cache.
    pub fn table_version(&self, table: &str) -> Result<u64> {
        Ok(self.table(table)?.version())
    }

    /// Names of the indexed columns of a table, sorted.
    pub fn indexed_columns(&self, table: &str) -> Result<Vec<String>> {
        Ok(self.table(table)?.indexed_columns())
    }

    /// Index cardinality statistics (mirrors `Database::index_stats`).
    pub fn index_stats(&self, table: &str, column: &str) -> Result<Option<IndexStats>> {
        Ok(self.table(table)?.index_stats(column))
    }

    /// Number of rows in a table (mirrors `Database::row_count`).
    pub fn row_count(&self, table: &str) -> Result<usize> {
        Ok(self.table(table)?.row_count())
    }

    /// Filtered, projected, lock-free read of one table; see
    /// [`TableView::select`].
    pub fn select(
        &self,
        table: &str,
        access: ScanAccess<'_>,
        filter: &mut dyn FnMut(&[Value]) -> bool,
        projection: Option<&[usize]>,
    ) -> Result<(Vec<Row>, usize)> {
        self.table(table)?.select(access, filter, projection)
    }

    /// All rows of a table in row-id order (mirrors `Database::scan`).
    pub fn scan(&self, table: &str) -> Result<Vec<Row>> {
        self.table(table)?.scan()
    }
}
