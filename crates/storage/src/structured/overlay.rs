//! In-memory table state: the **overlay** every table keeps over its
//! checkpoint-image base, and how logged changes apply to it in both
//! directions — [`redo`] forward (recovery and replicas), [`Undo`]
//! backward (abort and snapshot rollback).
//!
//! Bottom of the engine's module stack: everything here works on plain
//! `&mut` table state handed in by the caller. The writer gate, the WAL
//! and transaction ids belong to the layers above (`checkpoint` and
//! `replication`, then `engine`).

use crate::error::StorageError;
use crate::value::Value;
use crate::Result;
use std::collections::{HashMap, HashSet};

use super::index::SecondaryIndex;
use super::paged::{self, TableBase};
use super::recovery::LogRecord;
use super::table::{Row, RowId, TableSchema};

/// The engine's table map, keyed by table name.
pub(super) type Tables = HashMap<String, Table>;

/// Cardinality statistics of one secondary index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Total (value, row) pairs indexed (= indexed rows).
    pub entries: usize,
    /// Number of distinct indexed values.
    pub distinct: usize,
}

impl IndexStats {
    /// Expected rows matched by an equality probe under a uniform
    /// assumption (at least 1 when the index is non-empty).
    pub fn eq_estimate(&self) -> usize {
        self.entries.checked_div(self.distinct).map_or(0, |e| e.max(1))
    }
}

/// One table: a checkpoint-image **base** (immutable, on disk, faulted in
/// through a bounded buffer pool) plus an in-memory **overlay** of
/// everything written since that checkpoint. A table with no base (fresh
/// or in-memory) is fully resident: `base = None` and the overlay is the
/// table.
#[derive(Clone)]
pub(super) struct Table {
    pub(super) schema: TableSchema,
    /// Overlay rows: written (or rewritten) since the last checkpoint.
    pub(super) heap: HashMap<RowId, Row>,
    /// Primary-key values → row id, overlay rows only.
    pub(super) pk: HashMap<Vec<Value>, RowId>,
    /// Column name → secondary index over the overlay rows (plus, for an
    /// index created after the checkpoint, a backfill of the base rows
    /// until the next checkpoint folds it into a tree).
    pub(super) indexes: HashMap<String, SecondaryIndex>,
    /// The checkpoint image slice this overlay stacks on, if any.
    pub(super) base: Option<TableBase>,
    /// Base row ids deleted or superseded since the checkpoint. A base row
    /// is live iff its id is neither here nor in `heap`.
    pub(super) tombstones: HashSet<RowId>,
    /// Exact number of live rows across base + overlay.
    pub(super) live_rows: u64,
    pub(super) next_row: u64,
    /// Write version: stamped from the database-wide write clock on every
    /// change to this table's rows (including undo and redo), so two
    /// observations of the same version imply identical table contents.
    /// Creation takes a fresh stamp too, so a dropped-and-recreated table
    /// never aliases versions with its predecessor.
    pub(super) version: u64,
    /// Version of the last change that is *committed*. Strictly trails
    /// `version` exactly while the open transaction holds uncommitted
    /// changes to this table — `version != stable_version` is the dirty
    /// test that routes [`Database::snapshot`] onto its rollback path.
    /// Commit and abort restamp both fields together (with a fresh clock
    /// tick), so a stable version, like `version`, never aliases two
    /// different committed contents.
    pub(super) stable_version: u64,
}

impl Table {
    pub(super) fn new(schema: TableSchema, stamp: u64) -> Table {
        let indexes = schema.indexes.iter().map(|n| (n.clone(), SecondaryIndex::new())).collect();
        Table {
            schema,
            heap: HashMap::new(),
            pk: HashMap::new(),
            indexes,
            base: None,
            tombstones: HashSet::new(),
            live_rows: 0,
            next_row: 0,
            version: stamp,
            stable_version: stamp,
        }
    }

    /// A lazily-loaded table: empty overlay over a checkpoint base.
    pub(super) fn from_base(schema: TableSchema, base: TableBase, stamp: u64) -> Table {
        let mut t = Table::new(schema, stamp);
        t.live_rows = base.meta.nrows;
        t.next_row = base.meta.next_row;
        t.base = Some(base);
        t
    }

    /// Drop the overlay onto a freshly-published checkpoint base (which
    /// holds identical contents, so versions are untouched).
    pub(super) fn reset_to_base(&mut self, base: TableBase) {
        self.heap = HashMap::new();
        self.pk = HashMap::new();
        self.tombstones = HashSet::new();
        self.indexes =
            self.schema.indexes.iter().map(|n| (n.clone(), SecondaryIndex::new())).collect();
        self.live_rows = base.meta.nrows;
        self.next_row = self.next_row.max(base.meta.next_row);
        self.base = Some(base);
    }

    /// The overlay sorted by row id, borrowed — the shape the merge
    /// helpers in [`paged`] consume.
    pub(super) fn sorted_overlay(heap: &HashMap<RowId, Row>) -> Vec<(RowId, &Row)> {
        let mut v: Vec<(RowId, &Row)> = heap.iter().map(|(id, r)| (*id, r)).collect();
        v.sort_unstable_by_key(|(id, _)| *id);
        v
    }

    fn index_row(&mut self, row_id: RowId, row: &Row) {
        for (name, ix) in &mut self.indexes {
            let ci = self.schema.column_index(name).expect("index column exists");
            ix.insert(row[ci].clone(), row_id);
        }
    }

    fn unindex_row(&mut self, row_id: RowId, row: &Row) {
        for (name, ix) in &mut self.indexes {
            let ci = self.schema.column_index(name).expect("index column exists");
            ix.remove(&row[ci], row_id);
        }
    }

    /// True when `row_id` could have a row in the base image.
    fn in_base_range(&self, row_id: RowId) -> bool {
        self.base.as_ref().is_some_and(|b| row_id.0 < b.meta.next_row)
    }

    /// The base image's row for `row_id`, ignoring the overlay and
    /// tombstones.
    fn base_row(&self, row_id: RowId) -> Result<Option<Row>> {
        match &self.base {
            Some(b) if row_id.0 < b.meta.next_row => b.get_row(row_id),
            _ => Ok(None),
        }
    }

    /// Remove `row_id` from the overlay maps; `None` if not overlaid.
    fn overlay_unhook(&mut self, row_id: RowId) -> Option<Row> {
        let row = self.heap.remove(&row_id)?;
        self.pk.remove(&self.schema.key_of(&row));
        self.unindex_row(row_id, &row);
        Some(row)
    }

    /// Install `row` into the overlay maps.
    fn overlay_hook(&mut self, row_id: RowId, row: Row) {
        self.pk.insert(self.schema.key_of(&row), row_id);
        self.index_row(row_id, &row);
        self.heap.insert(row_id, row);
        self.next_row = self.next_row.max(row_id.0 + 1);
    }

    /// The live row under `row_id`: overlay first, then (unless
    /// tombstoned) the base image.
    pub(super) fn effective_row(&self, row_id: RowId) -> Result<Option<Row>> {
        if let Some(r) = self.heap.get(&row_id) {
            return Ok(Some(r.clone()));
        }
        if self.tombstones.contains(&row_id) {
            return Ok(None);
        }
        self.base_row(row_id)
    }

    /// The row id holding primary key `key`, if live: overlay pk first;
    /// a base pk hit counts only if that base row isn't shadowed.
    pub(super) fn lookup_pk(&self, key: &[Value]) -> Result<Option<RowId>> {
        if let Some(id) = self.pk.get(key) {
            return Ok(Some(*id));
        }
        let Some(b) = &self.base else { return Ok(None) };
        match b.lookup_pk(key)? {
            Some(id) if !self.heap.contains_key(&id) && !self.tombstones.contains(&id) => {
                Ok(Some(id))
            }
            _ => Ok(None),
        }
    }

    /// Remove the live row under `row_id` from wherever it lives and
    /// return it: overlay rows are unhooked (tombstoning the id if the
    /// base may also hold it); base rows are tombstoned.
    fn unhook_effective(&mut self, row_id: RowId) -> Result<Option<Row>> {
        if let Some(row) = self.overlay_unhook(row_id) {
            if self.in_base_range(row_id) {
                self.tombstones.insert(row_id);
            }
            return Ok(Some(row));
        }
        if self.tombstones.contains(&row_id) {
            return Ok(None);
        }
        match self.base_row(row_id)? {
            Some(row) => {
                // A post-checkpoint CREATE INDEX backfills base rows into
                // the overlay index; those entries die with the row.
                self.unindex_row(row_id, &row);
                self.tombstones.insert(row_id);
                Ok(Some(row))
            }
            None => Ok(None),
        }
    }

    /// Candidate row ids for an index probe, merged from the base index
    /// tree and the overlay index, in (value, row-id) order.
    pub(super) fn index_candidates(
        &self,
        column: &str,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Result<Vec<RowId>> {
        let ix = self.indexes.get(column).ok_or_else(|| {
            StorageError::SchemaViolation(format!("no index on {}.{column}", self.schema.name))
        })?;
        let shadowed = |id: RowId| self.heap.contains_key(&id) || self.tombstones.contains(&id);
        paged::merged_index_ids(self.base.as_ref(), column, ix, &shadowed, lo, hi)
    }

    /// Cardinality statistics for the index on `column`, if any. With a
    /// base tree the distinct count is estimated (base distinct + overlay
    /// distinct, capped at the row count); without one it is exact.
    pub(super) fn index_stats(&self, column: &str) -> Option<IndexStats> {
        let ix = self.indexes.get(column)?;
        let distinct = match self.base.as_ref().and_then(|b| b.meta.indexes.get(column)) {
            Some(m) => (m.distinct as usize + ix.distinct_values()).min(self.live_rows as usize),
            None => ix.distinct_values(),
        };
        Some(IndexStats { entries: self.live_rows as usize, distinct })
    }

    /// Add a secondary index on `column`, backfilled from every live row
    /// (base included — the backfill lives in the overlay index until the
    /// next checkpoint folds it into a tree). No-op when the index already
    /// exists; `Ok(false)` if the column is unknown.
    pub(super) fn build_index(&mut self, column: &str) -> Result<bool> {
        let Some(ci) = self.schema.column_index(column) else { return Ok(false) };
        if self.indexes.contains_key(column) {
            return Ok(true);
        }
        let mut ix = SecondaryIndex::new();
        let overlay = Self::sorted_overlay(&self.heap);
        paged::for_each_live_row(
            self.base.as_ref(),
            &overlay,
            &self.tombstones,
            &mut |id, row| {
                ix.insert(row[ci].clone(), id);
                Ok(())
            },
        )?;
        self.schema.indexes.push(column.to_string());
        self.indexes.insert(column.to_string(), ix);
        Ok(true)
    }

    /// Apply an insert with a predetermined row id (redo path & normal
    /// path). Convergent under replay: re-inserting a row the base
    /// already holds keeps `live_rows` exact.
    pub(super) fn apply_insert(&mut self, stamp: u64, row_id: RowId, row: Row) -> Result<()> {
        let prev = self.overlay_unhook(row_id);
        let was_tombstoned = self.tombstones.remove(&row_id);
        let was_live = prev.is_some() || (!was_tombstoned && self.base_row(row_id)?.is_some());
        self.overlay_hook(row_id, row);
        if !was_live {
            self.live_rows += 1;
        }
        self.version = stamp;
        Ok(())
    }

    pub(super) fn apply_update(
        &mut self,
        stamp: u64,
        row_id: RowId,
        row: Row,
    ) -> Result<Option<Row>> {
        let Some(old) = self.unhook_effective(row_id)? else { return Ok(None) };
        self.overlay_hook(row_id, row);
        self.version = stamp;
        Ok(Some(old))
    }

    pub(super) fn apply_delete(&mut self, stamp: u64, row_id: RowId) -> Result<Option<Row>> {
        let old = self.unhook_effective(row_id)?;
        if old.is_some() {
            self.live_rows -= 1;
            self.version = stamp;
        }
        Ok(old)
    }
}

/// How to undo one change of the open transaction.
pub(super) enum Undo {
    Insert { table: String, row_id: RowId },
    Update { table: String, row_id: RowId, old: Row },
    Delete { table: String, row_id: RowId, old: Row },
}

impl Undo {
    pub(super) fn table(&self) -> &str {
        match self {
            Undo::Insert { table, .. }
            | Undo::Update { table, .. }
            | Undo::Delete { table, .. } => table,
        }
    }

    /// Apply the inverse of the logged change to `t`. Used by both abort
    /// (the caller restamps versions) and the snapshot rollback path
    /// (where `t` is a private clone).
    ///
    /// Works purely on the overlay, which makes it infallible: every row
    /// the open transaction wrote sits in the overlay (no checkpoint can
    /// fold it away meanwhile, since checkpoints require quiescence), so
    /// undo never needs to read the base image.
    pub(super) fn apply_to(&self, t: &mut Table) {
        match self {
            Undo::Insert { row_id, .. } => {
                if t.overlay_unhook(*row_id).is_some() {
                    t.live_rows -= 1;
                }
            }
            Undo::Update { row_id, old, .. } => {
                if t.overlay_unhook(*row_id).is_some() {
                    // If the updated row was a base row its id stays
                    // tombstoned; the restored overlay copy shadows it.
                    t.overlay_hook(*row_id, old.clone());
                }
            }
            Undo::Delete { row_id, old, .. } => {
                let prev = t.overlay_unhook(*row_id);
                t.tombstones.remove(row_id);
                t.overlay_hook(*row_id, old.clone());
                if prev.is_none() {
                    t.live_rows += 1;
                }
            }
        }
    }
}

/// The committed contents of a dirty table: a private clone of `t` with
/// the open transaction's changes (`uncommitted`, oldest first) rolled
/// back.
pub(super) fn committed_clone(name: &str, t: &Table, uncommitted: &[Undo]) -> Table {
    let mut tmp = t.clone();
    for undo in uncommitted.iter().rev().filter(|u| u.table() == name) {
        undo.apply_to(&mut tmp);
    }
    tmp
}

/// Redo `records` into `tables` in log order: the one forward-apply path,
/// shared by crash recovery (checkpoint image + WAL suffix) and replicas
/// (shipped frames), so a replica is bit-identical to a local replay of
/// the same records. Callers pass DDL and the DML of **committed**
/// transactions only; transaction-control records are ignored. Every
/// apply is convergent, so replaying history the tables already contain
/// is harmless. `stamp` draws from the database write clock.
pub(super) fn redo(
    tables: &mut Tables,
    records: impl IntoIterator<Item = LogRecord>,
    stamp: &dyn Fn() -> u64,
) -> Result<()> {
    for rec in records {
        match rec {
            LogRecord::CreateTable { schema } => {
                let stamp = stamp();
                tables.insert(schema.name.clone(), Table::new(schema, stamp));
            }
            LogRecord::DropTable { table } => {
                tables.remove(&table);
            }
            LogRecord::CreateIndex { table, column } => {
                if let Some(t) = tables.get_mut(&table) {
                    t.build_index(&column)?;
                    // A new version, so views cached before the index
                    // existed are not reused.
                    t.version = stamp();
                }
            }
            LogRecord::Insert { table, row_id, row, .. } => {
                let stamp = stamp();
                if let Some(t) = tables.get_mut(&table) {
                    t.apply_insert(stamp, row_id, row)?;
                }
            }
            LogRecord::Update { table, row_id, row, .. } => {
                let stamp = stamp();
                if let Some(t) = tables.get_mut(&table) {
                    t.apply_update(stamp, row_id, row)?;
                }
            }
            LogRecord::Delete { table, row_id, .. } => {
                let stamp = stamp();
                if let Some(t) = tables.get_mut(&table) {
                    t.apply_delete(stamp, row_id)?;
                }
            }
            LogRecord::Begin { .. } | LogRecord::Commit { .. } | LogRecord::Abort { .. } => {}
        }
    }
    // Everything redone is committed history.
    for t in tables.values_mut() {
        t.stable_version = t.version;
    }
    Ok(())
}
