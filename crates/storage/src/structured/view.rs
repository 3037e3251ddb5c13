//! Immutable point-in-time views: [`TableView`] and [`DbSnapshot`].
//!
//! A [`DbSnapshot`] is the MVCC read half of the engine: a bundle of
//! per-table views pinned to one LSN of the database's write clock, which
//! counts committed units, so one LSN names one committed state and the
//! views carry no version of their own. Snapshot reads take **no locks**
//! — they never block the writer, the writer never blocks them. Writes go
//! one transaction at a time through [`super::engine::Database`]; see
//! `docs/concurrency.md`.
//!
//! A view holds a table exactly the way the live engine holds it, because
//! it *is* a clone of the engine's table: the in-memory overlay (rows
//! written since the last checkpoint, their primary-key and index
//! entries, tombstones) in structurally shared maps (`pmap`), stacked on
//! an `Arc`-shared `TableBase` slice of the checkpoint image. Capturing
//! copies no rows: it is a handful of `Arc` clones however large the
//! overlay, and a later write moves the *engine* onto fresh copies of the
//! few tree nodes it touches while the view keeps the old ones. Base rows
//! stay on disk and fault in through the image's buffer pool on read. The
//! image file is immutable once published — a later checkpoint renames a
//! *new* file over it while this view keeps the old one alive (and
//! readable) through its handle — so snapshot reads stay repeatable
//! without copying the corpus.

use crate::error::StorageError;
use crate::value::Value;
use crate::Result;
use std::collections::HashMap;
use std::ops::ControlFlow;

use super::overlay::{IndexStats, Table};
use super::table::{Row, TableSchema};

/// How [`DbSnapshot::for_each_row`] and [`DbSnapshot::select`] reach a
/// table's rows.
#[derive(Debug, Clone, Copy)]
pub enum ScanAccess<'a> {
    /// Walk the whole table in row-id order.
    Full,
    /// Probe the secondary index on `column` for values in `[lo, hi]`
    /// (inclusive, either bound optional), then fetch the matching rows in
    /// row-id order. Errors when the column carries no index. The same
    /// window fetched in the index's own key order, and stopped early, is
    /// [`TableView::for_each_in_key_order`].
    Index {
        /// Indexed column.
        column: &'a str,
        /// Inclusive lower bound (`None` = unbounded).
        lo: Option<&'a Value>,
        /// Inclusive upper bound (`None` = unbounded).
        hi: Option<&'a Value>,
    },
    /// Look the one row with primary key `key` up through the primary-key
    /// map (overlay, then the image's primary-key tree).
    Pk {
        /// A value for every primary-key column, in key order.
        key: &'a [Value],
    },
}

/// One table's committed state at a point in time, immutable.
///
/// The overlay row map and the base row tree are both keyed by row id, so
/// every access path of [`TableView::for_each_row`] produces rows in exactly the
/// same order as the live engine: row-id (insertion) order. The one walk in
/// another order is [`TableView::for_each_in_key_order`], which hands an
/// index window over ranked by the indexed value.
#[derive(Debug, Clone)]
pub struct TableView(Table);

impl TableView {
    /// Freeze `table`, which holds committed contents only.
    pub(super) fn new(table: Table) -> TableView {
        TableView(table)
    }

    /// The captured schema.
    pub fn schema(&self) -> &TableSchema {
        &self.0.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.0.live_rows as usize
    }

    /// Names of the indexed columns, sorted.
    pub fn indexed_columns(&self) -> Vec<String> {
        self.0.indexed_columns()
    }

    /// Cardinality statistics of one secondary index (`None` when the
    /// column carries no index). Feeds the planner's selectivity
    /// estimates: exact for in-memory tables, estimated (base + overlay
    /// distinct, capped at the row count) over a checkpoint base.
    pub fn index_stats(&self, column: &str) -> Option<IndexStats> {
        self.0.index_stats(column)
    }

    /// Hand every candidate row `access` reaches to `f`, borrowed, and
    /// return how many there were — the query planner's table-access
    /// primitive. Nothing is copied for the caller: an overlay row is lent
    /// from the view, and a base row from one scratch row the walk decodes
    /// every base row into, straight from the leaf that holds it — so `f`
    /// must clone whatever it keeps, and a base row costs no allocation
    /// once the scratch row has grown to fit.
    ///
    /// Rows arrive in row-id (insertion) order for every access path, so
    /// an index- or key-routed read is bit-identical — including order —
    /// to a full scan (a walk that wants the index's key order instead is
    /// [`TableView::for_each_in_key_order`]). The first error, from the
    /// read or from `f`, stops the walk and is returned.
    pub fn for_each_row(
        &self,
        access: ScanAccess<'_>,
        f: &mut dyn FnMut(&Row) -> Result<()>,
    ) -> Result<usize> {
        let mut visited = 0usize;
        let mut visit = |row: &Row| {
            visited += 1;
            f(row)
        };
        match access {
            ScanAccess::Full => self.0.for_each_live_row(&mut |_, row| visit(row))?,
            ScanAccess::Index { column, lo, hi } => {
                let mut row_ids = Vec::new();
                self.0.for_each_index_entry(column, (lo, hi), &mut |_, id| {
                    row_ids.push(id);
                    Ok(())
                })?;
                // Row-id order = full-scan order.
                row_ids.sort_unstable();
                let mut scratch = Row::new();
                for row_id in row_ids {
                    if let Some(row) = self.0.effective_row(row_id, &mut scratch)? {
                        visit(row)?;
                    }
                }
            }
            ScanAccess::Pk { key } => {
                if let Some(row_id) = self.0.lookup_pk(key)? {
                    if let Some(row) = self.0.effective_row(row_id, &mut Row::new())? {
                        visit(row)?;
                    }
                }
            }
        }
        Ok(visited)
    }

    /// Hand the rows whose `column` value lies in `[lo, hi]` (inclusive,
    /// either bound optional) to `f`, borrowed as by
    /// [`TableView::for_each_row`], in the index's **key order**: ascending,
    /// or with `desc` from the highest value down. Rows with equal values
    /// arrive in row-id order either way, so the sequence is exactly a
    /// stable sort of the row-id walk by that column — the first `k` rows
    /// are its top `k`, ties included. `f` returns
    /// [`ControlFlow::Break`] to stop the walk: rows past it are never
    /// fetched. Returns how many rows were fetched. Errors when the column
    /// carries no index.
    ///
    /// The window's entries come off the one base-plus-overlay index merge
    /// in (value, row-id) order, and their row ids are collected and
    /// put in walking order before the first row is fetched.
    pub fn for_each_in_key_order(
        &self,
        column: &str,
        (lo, hi): (Option<&Value>, Option<&Value>),
        desc: bool,
        f: &mut dyn FnMut(&Row) -> Result<ControlFlow<()>>,
    ) -> Result<usize> {
        let mut row_ids = Vec::new();
        // Descending, each run of equal values is reversed once it is
        // complete, so that reversing the whole window at the end puts the
        // runs highest first with each still in row-id order.
        let mut run_start = 0;
        let mut last: Option<Value> = None;
        self.0.for_each_index_entry(column, (lo, hi), &mut |value, id| {
            if desc && last.as_ref() != Some(value) {
                row_ids[run_start..].reverse();
                run_start = row_ids.len();
                last = Some(value.clone());
            }
            row_ids.push(id);
            Ok(())
        })?;
        if desc {
            row_ids[run_start..].reverse();
            row_ids.reverse();
        }
        let (mut fetched, mut scratch) = (0usize, Row::new());
        for row_id in row_ids {
            if let Some(row) = self.0.effective_row(row_id, &mut scratch)? {
                fetched += 1;
                if f(row)?.is_break() {
                    break;
                }
            }
        }
        Ok(fetched)
    }

    /// Filtered, projected, materialized read: [`TableView::for_each_row`]
    /// with a sink that evaluates `filter` against each borrowed candidate
    /// and clones only the `projection` columns of the rows it accepts.
    /// Returns `(rows, scanned)` where `scanned` counts the candidate rows
    /// the filter examined; rows come in row-id order for every access
    /// path.
    pub fn select(
        &self,
        access: ScanAccess<'_>,
        filter: &mut dyn FnMut(&[Value]) -> bool,
        projection: Option<&[usize]>,
    ) -> Result<(Vec<Row>, usize)> {
        let mut out = Vec::new();
        let scanned = self.for_each_row(access, &mut |row| {
            if filter(row) {
                out.push(match projection {
                    Some(cols) => cols.iter().map(|&i| row[i].clone()).collect(),
                    None => row.clone(),
                });
            }
            Ok(())
        })?;
        Ok((out, scanned))
    }

    /// All rows in row-id order.
    pub fn scan(&self) -> Result<Vec<Row>> {
        self.0.scan()
    }
}

/// A consistent, immutable snapshot of every table's **committed** state,
/// pinned to one LSN of the database's write clock.
///
/// Cloning is O(tables): only tree roots are copied. Every row read
/// outside a transaction is read through one.
#[derive(Debug, Clone)]
pub struct DbSnapshot {
    lsn: u64,
    tables: HashMap<String, TableView>,
}

impl DbSnapshot {
    pub(crate) fn new(lsn: u64, tables: HashMap<String, TableView>) -> DbSnapshot {
        DbSnapshot { lsn, tables }
    }

    /// The write-clock value this snapshot is pinned to: the number of
    /// units (transactions that changed something, DDL statements) the
    /// database had committed since it was opened, whose result is
    /// exactly what the snapshot holds. 0 is the state the database
    /// opened with, and two snapshots of one database with the same LSN
    /// hold the same contents.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// The captured view of one table.
    pub fn table(&self, table: &str) -> Result<&TableView> {
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

    /// Names of the indexed columns of a table, sorted.
    pub fn indexed_columns(&self, table: &str) -> Result<Vec<String>> {
        Ok(self.table(table)?.indexed_columns())
    }

    /// Cardinality statistics of one secondary index of a table.
    pub fn index_stats(&self, table: &str, column: &str) -> Result<Option<IndexStats>> {
        Ok(self.table(table)?.index_stats(column))
    }

    /// Number of rows in a table (mirrors `Database::row_count`).
    pub fn row_count(&self, table: &str) -> Result<usize> {
        Ok(self.table(table)?.row_count())
    }

    /// Lock-free walk over one table's rows, handed over borrowed; see
    /// [`TableView::for_each_row`].
    pub fn for_each_row(
        &self,
        table: &str,
        access: ScanAccess<'_>,
        f: &mut dyn FnMut(&Row) -> Result<()>,
    ) -> Result<usize> {
        self.table(table)?.for_each_row(access, f)
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

    /// All rows of a table in row-id order.
    pub fn scan(&self, table: &str) -> Result<Vec<Row>> {
        self.table(table)?.scan()
    }
}

#[cfg(test)]
impl TableView {
    /// Do the two views hold the very same overlay trees?
    pub(crate) fn shares_overlay_with(&self, other: &TableView) -> bool {
        self.unshared_overlay_nodes(other).0 == 0
    }

    /// `(overlay tree nodes of self that other does not hold, overlay
    /// tree nodes of self)`.
    pub(crate) fn unshared_overlay_nodes(&self, other: &TableView) -> (usize, usize) {
        self.0.unshared_nodes(&other.0)
    }
}
