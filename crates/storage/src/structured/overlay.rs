//! In-memory table state: the **overlay** every table keeps over its
//! checkpoint-image base, and how logged changes apply to it in both
//! directions — [`redo`] forward (recovery and replicas), [`Undo`]
//! backward (abort and snapshot rollback).
//!
//! Bottom of the engine's module stack: everything here works on plain
//! `&mut` table state handed in by the caller. The writer gate, the WAL,
//! transaction ids and the write clock belong to the layers above
//! (`checkpoint` and `replication`, then `engine`). A table carries no
//! version: which committed state it holds is named by the engine's LSN,
//! which counts committed units, not the changes applied here.

use crate::btree;
use crate::error::StorageError;
use crate::value::Value;
use crate::Result;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

use super::index::SecondaryIndex;
use super::paged::{self, TableBase};
use super::pmap::PMap;
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
///
/// The overlay is four [`PMap`]s, so `clone` is a handful of `Arc` clones
/// whatever the table holds, and the clone is a frozen copy: it shares
/// every node with the live table until a write moves the live table off
/// the nodes it touches. A snapshot view *is* such a clone.
#[derive(Debug, Clone)]
pub(super) struct Table {
    pub(super) schema: Arc<TableSchema>,
    /// Overlay rows: written (or rewritten) since the last checkpoint.
    pub(super) heap: PMap<RowId, Row>,
    /// Primary keys of the overlay rows, as `(hash of the key values, row
    /// id)`: a lookup seeks the hash and confirms against the row, so no
    /// key is stored twice and comparing entries never leaves the node.
    pub(super) pk: PMap<(u64, RowId), ()>,
    /// Hashes `pk`'s keys; cloned with the table, so a view looks keys up
    /// the way the table filed them.
    key_hasher: RandomState,
    /// Secondary indexes over the overlay rows (plus, for an index
    /// created after the checkpoint, a backfill of the base rows until
    /// the next checkpoint folds it into a tree): one per name in
    /// `schema.indexes`, in that order.
    pub(super) indexes: Vec<SecondaryIndex>,
    /// The checkpoint image slice this overlay stacks on, if any.
    pub(super) base: Option<TableBase>,
    /// Base row ids deleted or superseded since the checkpoint. A base row
    /// is live iff its id is neither here nor in `heap`.
    pub(super) tombstones: PMap<RowId, ()>,
    /// Exact number of live rows across base + overlay.
    pub(super) live_rows: u64,
    pub(super) next_row: u64,
}

impl Table {
    pub(super) fn new(schema: TableSchema) -> Table {
        Table {
            indexes: vec![SecondaryIndex::new(); schema.indexes.len()],
            schema: Arc::new(schema),
            heap: PMap::new(),
            pk: PMap::new(),
            key_hasher: RandomState::new(),
            base: None,
            tombstones: PMap::new(),
            live_rows: 0,
            next_row: 0,
        }
    }

    /// A lazily-loaded table: empty overlay over a checkpoint base.
    pub(super) fn from_base(schema: TableSchema, base: TableBase) -> Table {
        let mut t = Table::new(schema);
        t.live_rows = base.meta.nrows;
        t.next_row = base.meta.next_row;
        t.base = Some(base);
        t
    }

    /// Drop the overlay onto a freshly-published checkpoint base, which
    /// holds identical contents.
    pub(super) fn reset_to_base(&mut self, base: TableBase) {
        self.heap = PMap::new();
        self.pk = PMap::new();
        self.tombstones = PMap::new();
        self.indexes = vec![SecondaryIndex::new(); self.schema.indexes.len()];
        self.live_rows = base.meta.nrows;
        self.next_row = self.next_row.max(base.meta.next_row);
        self.base = Some(base);
    }

    /// The overlay index on `column`.
    pub(super) fn index(&self, column: &str) -> Option<&SecondaryIndex> {
        let at = self.schema.indexes.iter().position(|name| name == column)?;
        self.indexes.get(at)
    }

    /// Names of the indexed columns, sorted.
    pub(super) fn indexed_columns(&self) -> Vec<String> {
        let mut names = self.schema.indexes.clone();
        names.sort();
        names
    }

    /// Each index paired with `row`'s value in its column.
    fn indexed_values<'a>(
        &'a mut self,
        row: &'a Row,
    ) -> impl Iterator<Item = (&'a mut SecondaryIndex, &'a Value)> {
        let schema = &self.schema;
        self.indexes.iter_mut().zip(&schema.indexes).filter_map(move |(ix, name)| {
            let value = schema.column_index(name).and_then(|ci| row.get(ci))?;
            Some((ix, value))
        })
    }

    fn index_row(&mut self, row_id: RowId, row: &Row) {
        self.indexed_values(row).for_each(|(ix, value)| ix.insert(value, row_id));
    }

    fn unindex_row(&mut self, row_id: RowId, row: &Row) {
        self.indexed_values(row).for_each(|(ix, value)| ix.remove(value, row_id));
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

    /// `pk`'s hash of a primary key given as its values in key order.
    fn key_hash<'a>(&self, key: impl Iterator<Item = &'a Value>) -> u64 {
        let mut hasher = self.key_hasher.build_hasher();
        key.for_each(|value| value.hash(&mut hasher));
        hasher.finish()
    }

    /// `pk`'s hash of `row`'s primary key: computed once a write, for the
    /// duplicate probe and the `pk` entry alike.
    pub(super) fn pk_hash(&self, row: &Row) -> u64 {
        self.key_hash(self.key_values(row))
    }

    /// The primary-key values of `row`, in key order, borrowed.
    fn key_values<'a>(&'a self, row: &'a Row) -> impl Iterator<Item = &'a Value> + Clone {
        self.schema.key.iter().filter_map(|&i| row.get(i))
    }

    /// Remove `row_id` from the overlay maps; `None` if not overlaid.
    fn overlay_unhook(&mut self, row_id: RowId) -> Option<Row> {
        let row = self.heap.remove(&row_id)?;
        self.pk.remove(&(self.pk_hash(&row), row_id));
        self.unindex_row(row_id, &row);
        Some(row)
    }

    /// Install `row`, whose key's [`Table::pk_hash`] is `hash`, into the
    /// overlay maps.
    fn overlay_hook(&mut self, row_id: RowId, hash: u64, row: Row) {
        self.pk.insert((hash, row_id), ());
        self.index_row(row_id, &row);
        self.heap.insert(row_id, row);
        self.next_row = self.next_row.max(row_id.0 + 1);
    }

    /// The live row under `row_id`, lent: an overlay row from the overlay,
    /// else (unless tombstoned) the base image's, decoded into `scratch`
    /// (see [`TableBase::get_row_into`]). A reader that fetches many rows
    /// passes the same `scratch` each time.
    pub(super) fn effective_row<'a>(
        &'a self,
        row_id: RowId,
        scratch: &'a mut Row,
    ) -> Result<Option<&'a Row>> {
        if let Some(r) = self.heap.get(&row_id) {
            return Ok(Some(r));
        }
        if self.tombstones.contains_key(&row_id) {
            return Ok(None);
        }
        match &self.base {
            Some(b) if row_id.0 < b.meta.next_row => {
                Ok(b.get_row_into(row_id, scratch)?.then_some(&*scratch))
            }
            _ => Ok(None),
        }
    }

    /// Is base row `id` hidden by the overlay — rewritten or deleted since
    /// the checkpoint?
    fn shadowed(&self, id: RowId) -> bool {
        self.heap.contains_key(&id) || self.tombstones.contains_key(&id)
    }

    /// The row id holding primary key `key`, if live.
    pub(super) fn lookup_pk(&self, key: &[Value]) -> Result<Option<RowId>> {
        self.key_holder(self.key_hash(key.iter()), key.iter(), || btree::pk_key(key))
    }

    /// The row id already holding `row`'s primary key, if live; `hash` is
    /// the key's [`Table::pk_hash`]. The key is compared as the row's own
    /// values: nothing is copied to probe with.
    pub(super) fn key_holder_of(&self, hash: u64, row: &Row) -> Result<Option<RowId>> {
        self.key_holder(hash, self.key_values(row), || {
            let mut key = Vec::new();
            btree::write_pk_key(&mut key, row, &self.schema.key)?;
            Ok(key)
        })
    }

    /// The row id holding the primary key whose values `key` yields, in
    /// key order, and whose `pk` hash is `hash`, if live: overlay pk
    /// first; a base pk hit counts only if that base row isn't shadowed.
    /// `encoded` is the key as the base's tree files it, built only when
    /// the base is asked.
    fn key_holder<'k>(
        &self,
        hash: u64,
        key: impl Iterator<Item = &'k Value> + Clone,
        encoded: impl FnOnce() -> Result<Vec<u8>>,
    ) -> Result<Option<RowId>> {
        let mut same_hash =
            self.pk.seek(|(h, _)| *h < hash).map_while(|((h, id), ())| (*h == hash).then_some(*id));
        let holds_key =
            |id: &RowId| self.heap.get(id).is_some_and(|row| self.key_values(row).eq(key.clone()));
        if let Some(id) = same_hash.find(holds_key) {
            return Ok(Some(id));
        }
        let Some(b) = &self.base else { return Ok(None) };
        Ok(b.lookup_pk(&encoded()?)?.filter(|id| !self.shadowed(*id)))
    }

    /// Remove the live row under `row_id` from wherever it lives and
    /// return it: overlay rows are unhooked (tombstoning the id if the
    /// base may also hold it); base rows are tombstoned.
    fn unhook_effective(&mut self, row_id: RowId) -> Result<Option<Row>> {
        if let Some(row) = self.overlay_unhook(row_id) {
            if self.in_base_range(row_id) {
                self.tombstones.insert(row_id, ());
            }
            return Ok(Some(row));
        }
        if self.tombstones.contains_key(&row_id) {
            return Ok(None);
        }
        match self.base_row(row_id)? {
            Some(row) => {
                // A post-checkpoint CREATE INDEX backfills base rows into
                // the overlay index; those entries die with the row.
                self.unindex_row(row_id, &row);
                self.tombstones.insert(row_id, ());
                Ok(Some(row))
            }
            None => Ok(None),
        }
    }

    /// Every live row in row-id order, overlay merged over base.
    pub(super) fn for_each_live_row(
        &self,
        f: &mut dyn FnMut(RowId, &Row) -> Result<()>,
    ) -> Result<()> {
        paged::for_each_live_row(self.base.as_ref(), &self.heap, &self.tombstones, f)
    }

    /// All rows in row-id order.
    pub(super) fn scan(&self) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(self.live_rows as usize);
        self.for_each_live_row(&mut |_, row| {
            out.push(row.clone());
            Ok(())
        })?;
        Ok(out)
    }

    /// Hand the `(value, row id)` entries of the index on `column` whose
    /// value lies in `[lo, hi]` to `f`, merged from the base index tree and
    /// the overlay index in (value, row-id) order; see
    /// [`paged::for_each_index_entry`].
    pub(super) fn for_each_index_entry(
        &self,
        column: &str,
        (lo, hi): (Option<&Value>, Option<&Value>),
        f: &mut dyn FnMut(&Value, RowId) -> Result<()>,
    ) -> Result<()> {
        let ix = self.index(column).ok_or_else(|| {
            StorageError::SchemaViolation(format!("no index on {}.{column}", self.schema.name))
        })?;
        let shadowed = |id| self.shadowed(id);
        paged::for_each_index_entry(self.base.as_ref(), column, ix, &shadowed, (lo, hi), f)
    }

    /// Cardinality statistics for the index on `column`, if any. With a
    /// base tree the distinct count is estimated (base distinct + overlay
    /// distinct, capped at the row count); without one it is exact.
    pub(super) fn index_stats(&self, column: &str) -> Option<IndexStats> {
        let ix = self.index(column)?;
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
        if self.index(column).is_some() {
            return Ok(true);
        }
        let mut ix = SecondaryIndex::new();
        self.for_each_live_row(&mut |id, row| {
            if let Some(value) = row.get(ci) {
                ix.insert(value, id);
            }
            Ok(())
        })?;
        Arc::make_mut(&mut self.schema).indexes.push(column.to_string());
        self.indexes.push(ix);
        Ok(true)
    }

    /// Apply an insert with a predetermined row id (redo path & normal
    /// path); `hash` is the row key's [`Table::pk_hash`]. Convergent under
    /// replay: re-inserting a row the base already holds keeps `live_rows`
    /// exact. An id at or past `next_row` — every id a writer assigns, and
    /// redo past the high-water mark — is in none of the overlay, the
    /// tombstones and the base, so it skips the probes for one.
    pub(super) fn apply_insert(&mut self, row_id: RowId, hash: u64, row: Row) -> Result<()> {
        let was_live = row_id.0 < self.next_row && {
            let prev = self.overlay_unhook(row_id);
            let was_tombstoned = self.tombstones.remove(&row_id).is_some();
            prev.is_some() || (!was_tombstoned && self.base_row(row_id)?.is_some())
        };
        self.overlay_hook(row_id, hash, row);
        if !was_live {
            self.live_rows += 1;
        }
        Ok(())
    }

    pub(super) fn apply_update(&mut self, row_id: RowId, row: Row) -> Result<Option<Row>> {
        let Some(old) = self.unhook_effective(row_id)? else { return Ok(None) };
        self.overlay_hook(row_id, self.pk_hash(&row), row);
        Ok(Some(old))
    }

    pub(super) fn apply_delete(&mut self, row_id: RowId) -> Result<Option<Row>> {
        let old = self.unhook_effective(row_id)?;
        if old.is_some() {
            self.live_rows -= 1;
        }
        Ok(old)
    }
}

/// How to undo one change of the open transaction. An entry names its
/// table by the schema the table holds — one more reference to it, not a
/// copy of the name.
pub(super) enum Undo {
    Insert { table: Arc<TableSchema>, row_id: RowId },
    Update { table: Arc<TableSchema>, row_id: RowId, old: Row },
    Delete { table: Arc<TableSchema>, row_id: RowId, old: Row },
}

impl Undo {
    pub(super) fn table(&self) -> &str {
        match self {
            Undo::Insert { table, .. }
            | Undo::Update { table, .. }
            | Undo::Delete { table, .. } => &table.name,
        }
    }

    /// Apply the inverse of the logged change to `t`, through
    /// [`roll_back`].
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
                    t.overlay_hook(*row_id, t.pk_hash(old), old.clone());
                }
            }
            Undo::Delete { row_id, old, .. } => {
                let prev = t.overlay_unhook(*row_id);
                t.tombstones.remove(row_id);
                t.overlay_hook(*row_id, t.pk_hash(old), old.clone());
                if prev.is_none() {
                    t.live_rows += 1;
                }
            }
        }
    }
}

/// Undo the changes `undo` lists (oldest first) on `tables`, newest
/// first: an abort does it to the live tables, a snapshot to its clone of
/// them. On a clone it copies the paths those changes touched and shares
/// the rest with the live tables.
pub(super) fn roll_back(tables: &mut Tables, undo: &[Undo]) {
    for u in undo.iter().rev() {
        if let Some(t) = tables.get_mut(u.table()) {
            u.apply_to(t);
        }
    }
}

/// Redo `records` into `tables` in log order: the one forward-apply path,
/// shared by crash recovery (checkpoint image + WAL suffix) and replicas
/// (shipped frames), so a replica is bit-identical to a local replay of
/// the same records. Callers pass DDL and the DML of **committed**
/// transactions only; transaction-control records are ignored. Every
/// apply is convergent, so replaying history the tables already contain
/// is harmless.
pub(super) fn redo(
    tables: &mut Tables,
    records: impl IntoIterator<Item = LogRecord>,
) -> Result<()> {
    for rec in records {
        match rec {
            LogRecord::CreateTable { schema } => {
                tables.insert(schema.name.clone(), Table::new(schema));
            }
            LogRecord::DropTable { table } => {
                tables.remove(&table);
            }
            LogRecord::CreateIndex { table, column } => {
                if let Some(t) = tables.get_mut(&table) {
                    t.build_index(&column)?;
                }
            }
            LogRecord::Insert { table, row_id, row, .. } => {
                if let Some(t) = tables.get_mut(&table) {
                    t.apply_insert(row_id, t.pk_hash(&row), row)?;
                }
            }
            LogRecord::InsertRun { table, first_row_id, rows, .. } => {
                if let Some(t) = tables.get_mut(&table) {
                    for (row_id, row) in (first_row_id.0..).map(RowId).zip(rows) {
                        t.apply_insert(row_id, t.pk_hash(&row), row)?;
                    }
                }
            }
            LogRecord::Update { table, row_id, row, .. } => {
                if let Some(t) = tables.get_mut(&table) {
                    t.apply_update(row_id, row)?;
                }
            }
            LogRecord::Delete { table, row_id, .. } => {
                if let Some(t) = tables.get_mut(&table) {
                    t.apply_delete(row_id)?;
                }
            }
            LogRecord::Begin { .. } | LogRecord::Commit { .. } | LogRecord::Abort { .. } => {}
        }
    }
    Ok(())
}

#[cfg(test)]
impl Table {
    /// `(overlay tree nodes of self that other does not hold, overlay
    /// tree nodes of self)`, over all four kinds of map.
    pub(super) fn unshared_nodes(&self, other: &Table) -> (usize, usize) {
        let mut counts = vec![
            self.heap.unshared_nodes(&other.heap),
            self.pk.unshared_nodes(&other.pk),
            self.tombstones.unshared_nodes(&other.tombstones),
        ];
        for (mine, theirs) in self.indexes.iter().zip(&other.indexes) {
            counts.push(mine.unshared_nodes(theirs));
        }
        counts.into_iter().fold((0, 0), |(u, t), (du, dt)| (u + du, t + dt))
    }
}
