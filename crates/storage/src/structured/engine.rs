//! The [`Database`] engine: tables + locks + WAL, behind a thread-safe API.
//!
//! Concurrency model: callers `begin()` a transaction, perform operations
//! (each taking strict-2PL locks that are held to transaction end), then
//! `commit()` (WAL commit record + fsync) or `abort()` (in-memory undo).
//! Auto-commit wrappers exist for one-shot operations. Any operation may
//! fail with [`StorageError::TxAborted`] (wait-die victim); the caller is
//! expected to `abort()` and retry with a fresh transaction.

use crate::error::StorageError;
use crate::faultfs::{RealBackend, StorageBackend};
use crate::pager::PoolStats;
use crate::value::Value;
use crate::wal::{CommitQueue, DurabilityMode, Wal};
use crate::Result;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::checkpoint::{self, Recovered};
use super::lock::{LockManager, LockMode, LockTarget};
use super::overlay::{committed_clone, redo, IndexStats, Table, Tables, TxState, Undo};
use super::paged::{self, CheckpointImage};
use super::recovery::LogRecord;
use super::replication::{self, ReplicationSeed};
use super::table::{Row, RowId, TableSchema};
use super::view::{DbSnapshot, TableView};

/// Transaction identifier; doubles as the wait-die age (smaller = older).
pub type TxId = u64;

/// How [`Database::select`] reaches a table's rows.
#[derive(Debug, Clone, Copy)]
pub enum ScanAccess<'a> {
    /// Walk the whole heap in row-id order (table-level shared lock).
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

/// A transactional, WAL-backed, multi-table store.
///
/// All methods take `&self`; the engine is internally synchronized and is
/// meant to be shared across threads via `Arc`.
///
/// ```
/// use quarry_storage::{Column, Database, DataType, TableSchema, Value};
///
/// let db = Database::in_memory();
/// db.create_table(TableSchema::new(
///     "cities",
///     vec![Column::new("name", DataType::Text), Column::new("population", DataType::Int)],
///     &["name"],
///     &[],
/// )?)?;
///
/// let tx = db.begin();
/// db.insert(tx, "cities", vec!["Madison".into(), Value::Int(250_000)])?;
/// db.commit(tx)?;
///
/// let rows = db.scan_autocommit("cities")?;
/// assert_eq!(rows[0][1], Value::Int(250_000));
/// # Ok::<(), quarry_storage::StorageError>(())
/// ```
pub struct Database {
    tables: Mutex<Tables>,
    locks: LockManager,
    wal: Mutex<Option<Wal>>,
    /// Storage backend shared by the WAL and the checkpoint files.
    backend: Arc<dyn StorageBackend>,
    active: Mutex<HashMap<TxId, TxState>>,
    next_tx: AtomicU64,
    /// Monotone clock stamping every table mutation; see [`Table::version`].
    write_clock: AtomicU64,
    /// Last published per-table views, keyed by table name: the snapshot
    /// cache. A table whose version is unchanged since the last
    /// [`Database::snapshot`] reuses its `Arc` instead of re-copying rows.
    views: Mutex<HashMap<String, Arc<TableView>>>,
    /// What a commit waits for before returning (see [`DurabilityMode`]).
    durability: DurabilityMode,
    /// Group-commit queue batching concurrent commit fsyncs (Full mode).
    commit_queue: CommitQueue,
    /// The open checkpoint image backing the tables' bases (`None` until
    /// an image is loaded or published). Held here so diagnostics
    /// can reach the shared buffer pool; the per-table handles live in
    /// each [`Table::base`].
    image: Mutex<Option<Arc<CheckpointImage>>>,
    /// Checkpoint epoch: bumped every time the WAL is truncated (a
    /// checkpoint publishing, or a replica reseed). A WAL byte offset is
    /// only meaningful *within* one epoch, so replication handshakes carry
    /// `(epoch, offset)` pairs and any epoch mismatch forces a reseed.
    /// Process-lifetime only — it restarts at zero on open, which is
    /// always safe because a replica whose remembered epoch cannot be
    /// matched simply reseeds (see `structured::replication`).
    epoch: AtomicU64,
}

impl Database {
    /// An ephemeral in-memory database (no WAL, no durability).
    pub fn in_memory() -> Database {
        Database {
            tables: Mutex::new(HashMap::new()),
            locks: LockManager::new(),
            wal: Mutex::new(None),
            backend: Arc::new(RealBackend),
            active: Mutex::new(HashMap::new()),
            next_tx: AtomicU64::new(1),
            write_clock: AtomicU64::new(0),
            views: Mutex::new(HashMap::new()),
            durability: DurabilityMode::Full,
            commit_queue: CommitQueue::new(),
            image: Mutex::new(None),
            epoch: AtomicU64::new(0),
        }
    }

    /// Next write-clock stamp.
    fn stamp(&self) -> u64 {
        self.write_clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Open (or recover) a durable database whose WAL lives at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Database> {
        Self::open_with(Arc::new(RealBackend), path)
    }

    /// [`Database::open`] against an explicit storage backend.
    ///
    /// Recovery loads the durable checkpoint image first (if one was
    /// published by [`Database::checkpoint`]), then replays the WAL over
    /// it; see `structured::checkpoint` for the order's crash-safety
    /// argument. Files in a retired format are refused, never guessed at.
    pub fn open_with(backend: Arc<dyn StorageBackend>, path: impl AsRef<Path>) -> Result<Database> {
        let path = path.as_ref();
        let db = Database::in_memory();
        let Recovered { tables, image, max_tx } =
            checkpoint::recover(&*backend, path, &|| db.stamp())?;
        Ok(Database {
            tables: Mutex::new(tables),
            image: Mutex::new(image),
            next_tx: AtomicU64::new(max_tx + 1),
            wal: Mutex::new(Some(Wal::open_with(Arc::clone(&backend), path)?)),
            backend,
            ..db
        })
    }

    /// Set what a commit waits for before returning. Defaults to
    /// [`DurabilityMode::Full`]. Takes `&mut self`, so the mode is fixed
    /// before the database is shared.
    pub fn set_durability(&mut self, mode: DurabilityMode) {
        self.durability = mode;
    }

    /// The configured durability mode.
    pub fn durability(&self) -> DurabilityMode {
        self.durability
    }

    /// Rows resident in a table's in-memory overlay (diagnostics: after a
    /// checkpoint or open this is 0 until writes arrive, however large the
    /// table).
    pub fn overlay_row_count(&self, table: &str) -> Result<usize> {
        let tables = self.tables.lock();
        tables
            .get(table)
            .map(|t| t.heap.len())
            .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))
    }

    /// Buffer-pool counters of the open checkpoint image, if any.
    pub fn image_pool_stats(&self) -> Option<PoolStats> {
        let image = self.image.lock().clone()?;
        Some(image.pool_stats())
    }

    /// Pages currently cached by the open checkpoint image's pool.
    pub fn image_cached_pages(&self) -> Option<usize> {
        let image = self.image.lock().clone()?;
        Some(image.cached_pages())
    }

    /// Flush and fsync the WAL now, regardless of durability mode. The
    /// explicit durability point for `Normal`/`Deferred` users (e.g. a
    /// serve-loop drain or a bulk load's final barrier).
    pub fn sync_wal(&self) -> Result<()> {
        if let Some(wal) = self.wal.lock().as_mut() {
            wal.sync()?;
        }
        Ok(())
    }

    fn log(&self, rec: &LogRecord) -> Result<()> {
        if let Some(wal) = self.wal.lock().as_mut() {
            wal.append(&rec.encode()?)?;
        }
        Ok(())
    }

    /// Append `rec` and make it as durable as the configured mode demands.
    /// In `Full` mode the fsync goes through the group-commit queue:
    /// concurrent committers that appended before the queue's leader takes
    /// the WAL lock are covered by the leader's single fsync.
    fn log_durable(&self, rec: &LogRecord) -> Result<()> {
        let target = {
            let mut guard = self.wal.lock();
            let Some(wal) = guard.as_mut() else { return Ok(()) };
            wal.append(&rec.encode()?)?;
            match self.durability {
                DurabilityMode::Full => wal.len(),
                DurabilityMode::Normal => {
                    wal.flush()?;
                    return Ok(());
                }
                DurabilityMode::Deferred => return Ok(()),
            }
        };
        self.commit_queue.sync_through(&self.wal, target)
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Create a table (auto-committed DDL).
    pub fn create_table(&self, schema: TableSchema) -> Result<()> {
        let mut tables = self.tables.lock();
        if tables.contains_key(&schema.name) {
            return Err(StorageError::SchemaViolation(format!(
                "table {} already exists",
                schema.name
            )));
        }
        self.log_durable(&LogRecord::CreateTable { schema: schema.clone() })?;
        let stamp = self.stamp();
        tables.insert(schema.name.clone(), Table::new(schema, stamp));
        Ok(())
    }

    /// Create a secondary index on `table.column`, backfilled from the
    /// existing rows (auto-committed DDL, `CREATE INDEX`-style). Idempotent:
    /// indexing an already-indexed column is a no-op. The index is
    /// WAL-logged, so it survives recovery, and from this call on it is
    /// maintained by every write and eligible for access-path selection by
    /// the query planner.
    pub fn create_index(&self, table: &str, column: &str) -> Result<()> {
        let mut tables = self.tables.lock();
        let t =
            tables.get_mut(table).ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        if t.indexes.contains_key(column) {
            return Ok(());
        }
        if t.schema.column_index(column).is_none() {
            return Err(StorageError::SchemaViolation(format!(
                "unknown column {column} in table {table}"
            )));
        }
        self.log_durable(&LogRecord::CreateIndex {
            table: table.to_string(),
            column: column.to_string(),
        })?;
        t.build_index(column)?;
        t.version = self.stamp();
        if !Self::touched_by_active(&self.active.lock(), table) {
            t.stable_version = t.version;
        }
        Ok(())
    }

    /// The write version of a table: any change to the table's rows (or a
    /// drop-and-recreate) yields a new version, so equal versions imply
    /// equal contents. This is what keys the result cache upstairs.
    pub fn table_version(&self, table: &str) -> Result<u64> {
        let tables = self.tables.lock();
        tables
            .get(table)
            .map(|t| t.version)
            .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))
    }

    /// Names of the indexed columns of a table, sorted.
    pub fn indexed_columns(&self, table: &str) -> Result<Vec<String>> {
        let tables = self.tables.lock();
        let t = tables.get(table).ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        let mut names: Vec<String> = t.indexes.keys().cloned().collect();
        names.sort();
        Ok(names)
    }

    /// Cardinality statistics of one secondary index (`None` when the
    /// column carries no index). Feeds the planner's selectivity estimates.
    pub fn index_stats(&self, table: &str, column: &str) -> Result<Option<IndexStats>> {
        let tables = self.tables.lock();
        let t = tables.get(table).ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        Ok(t.index_stats(column))
    }

    /// Drop a table (auto-committed DDL).
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let mut tables = self.tables.lock();
        if tables.remove(name).is_none() {
            return Err(StorageError::NoSuchTable(name.to_string()));
        }
        self.log_durable(&LogRecord::DropTable { table: name.to_string() })?;
        Ok(())
    }

    /// Checkpoint: publish a snapshot of current committed state and reset
    /// the WAL, bounding recovery time by live data size instead of history
    /// length. Requires quiescence (no active transactions) and is a no-op
    /// for in-memory databases.
    ///
    /// The image (layout in `docs/storage.md`) is built and atomically
    /// published by `structured::checkpoint`; only after that commit point
    /// is the log truncated. A crash before it leaves the previous
    /// checkpoint + full WAL; a crash between it and the truncation leaves
    /// the new checkpoint + a WAL whose replay over it is convergent.
    /// After publication every table's in-memory overlay is dropped onto
    /// the fresh image: reads fault base pages in on demand from then on.
    pub fn checkpoint(&self) -> Result<()> {
        {
            let active = self.active.lock();
            if !active.is_empty() {
                return Err(StorageError::TxAborted(format!(
                    "checkpoint requires quiescence; {} transactions active",
                    active.len()
                )));
            }
        }
        // `tables` before `wal`: the commit path acquires them in that
        // order (see audit/lock-order.toml), so taking `wal` first here
        // would be an ABBA inversion. Holding `tables` across the image
        // build also pins exactly the state the checkpoint captures.
        let mut tables = self.tables.lock();
        let mut wal_guard = self.wal.lock();
        let Some(wal) = wal_guard.as_mut() else {
            return Ok(()); // ephemeral database: nothing to compact
        };
        let path = wal.path().to_path_buf();
        let metas = checkpoint::publish(&*self.backend, &path, &tables)?;
        wal.reset()?;
        // Invalidate the group-commit watermark (log offsets restarted at
        // zero). Safe to do only now: the image just published already
        // covers everything pre-reset waiters were waiting for.
        self.commit_queue.reset();
        // New epoch: replication offsets into the pre-truncation log are
        // now meaningless, and any tailing replica must renegotiate.
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let image = checkpoint::rebase(&*self.backend, &path, &mut tables, metas)?;
        *self.image.lock() = Some(image);
        Ok(())
    }

    /// The schema of a table.
    pub fn schema(&self, table: &str) -> Result<TableSchema> {
        let tables = self.tables.lock();
        tables
            .get(table)
            .map(|t| t.schema.clone())
            .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Replace a table's schema and rows wholesale (schema-evolution
    /// migration path; auto-committed, logged as drop + create + inserts).
    pub fn replace_table(&self, schema: TableSchema, rows: Vec<Row>) -> Result<()> {
        for row in &rows {
            schema.validate(row)?;
        }
        let name = schema.name.clone();
        {
            let tables = self.tables.lock();
            if !tables.contains_key(&name) {
                return Err(StorageError::NoSuchTable(name));
            }
        }
        self.drop_table(&name)?;
        self.create_table(schema)?;
        let tx = self.begin();
        for row in rows {
            self.insert(tx, &name, row)?;
        }
        self.commit(tx)
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Start a transaction.
    pub fn begin(&self) -> TxId {
        let tx = self.next_tx.fetch_add(1, Ordering::SeqCst);
        // quarry-audit: allow(QA102, reason = "HashMap::insert on the guarded map, not Database::insert; the name-based call graph over-approximates")
        self.active.lock().insert(tx, TxState::default());
        // Begin records make logs self-describing; recovery doesn't need them.
        let _ = self.log(&LogRecord::Begin { tx });
        tx
    }

    /// True when any active transaction in `active` holds uncommitted
    /// changes to `table`. Callers hold the `tables` lock (lock order is
    /// always tables → active).
    fn touched_by_active(active: &HashMap<TxId, TxState>, table: &str) -> bool {
        active.values().any(|st| st.undo.iter().any(|u| u.table() == table))
    }

    /// Tables touched by `state`, deduplicated.
    fn touched_tables(state: &TxState) -> Vec<String> {
        let mut names: Vec<String> = state.undo.iter().map(|u| u.table().to_string()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Commit: durable once this returns.
    ///
    /// Every touched table takes a fresh *post-commit* stamp on both its
    /// version fields, so the committed-content version only changes at
    /// commit boundaries — a [`Database::snapshot`] taken mid-transaction
    /// sorts strictly before the commit in version order.
    pub fn commit(&self, tx: TxId) -> Result<()> {
        {
            let mut tables = self.tables.lock();
            let mut active = self.active.lock();
            let state = active.remove(&tx).ok_or(StorageError::NoSuchTx(tx))?;
            for name in Self::touched_tables(&state) {
                if let Some(t) = tables.get_mut(&name) {
                    t.version = self.stamp();
                    // Another in-flight writer on the same table keeps it
                    // dirty; its commit/abort will publish a stable stamp.
                    if !Self::touched_by_active(&active, &name) {
                        t.stable_version = t.version;
                    }
                }
            }
        }
        self.log_durable(&LogRecord::Commit { tx })?;
        self.locks.release_all(tx);
        Ok(())
    }

    /// Abort: rolls back every in-memory change of `tx`.
    pub fn abort(&self, tx: TxId) -> Result<()> {
        {
            // Take the tables lock *before* removing the transaction from
            // the active set: a concurrent snapshot must never observe the
            // not-yet-rolled-back changes as committed state.
            let mut tables = self.tables.lock();
            let mut active = self.active.lock();
            let state = active.remove(&tx).ok_or(StorageError::NoSuchTx(tx))?;
            for undo in state.undo.iter().rev() {
                if let Some(t) = tables.get_mut(undo.table()) {
                    undo.apply_to(t);
                    t.version = self.stamp();
                }
            }
            for name in Self::touched_tables(&state) {
                if let Some(t) = tables.get_mut(&name) {
                    if !Self::touched_by_active(&active, &name) {
                        t.stable_version = t.version;
                    }
                }
            }
        }
        self.log(&LogRecord::Abort { tx })?;
        self.locks.release_all(tx);
        Ok(())
    }

    fn check_active(&self, tx: TxId) -> Result<()> {
        if self.active.lock().contains_key(&tx) {
            Ok(())
        } else {
            Err(StorageError::NoSuchTx(tx))
        }
    }

    fn push_undo(&self, tx: TxId, undo: Undo) {
        if let Some(st) = self.active.lock().get_mut(&tx) {
            st.undo.push(undo);
        }
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    /// Insert a row. Fails on duplicate primary key.
    pub fn insert(&self, tx: TxId, table: &str, row: Row) -> Result<RowId> {
        self.check_active(tx)?;
        self.locks.acquire(
            tx,
            LockTarget::Table(table.to_string()),
            LockMode::IntentionExclusive,
        )?;
        let mut tables = self.tables.lock();
        let t =
            tables.get_mut(table).ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        t.schema.validate(&row)?;
        let key = t.schema.key_of(&row);
        if t.lookup_pk(&key)?.is_some() {
            return Err(StorageError::DuplicateKey(format!("{table} key {key:?} already exists")));
        }
        let row_id = RowId(t.next_row);
        // Lock the new row before publishing it.
        self.locks.acquire(tx, LockTarget::Row(table.to_string(), row_id), LockMode::Exclusive)?;
        self.log(&LogRecord::Insert { tx, table: table.to_string(), row_id, row: row.clone() })?;
        let stamp = self.stamp();
        t.apply_insert(stamp, row_id, row)?;
        // Register the undo entry while still holding the tables lock: a
        // snapshot taken in between must see the table as dirty.
        self.push_undo(tx, Undo::Insert { table: table.to_string(), row_id });
        drop(tables);
        Ok(row_id)
    }

    fn row_id_for_key(&self, table: &str, key: &[Value]) -> Result<RowId> {
        let tables = self.tables.lock();
        let t = tables.get(table).ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        t.lookup_pk(key)?.ok_or_else(|| StorageError::NotFound(format!("{table} key {key:?}")))
    }

    /// Read one row by primary key (shared-locked until transaction end).
    pub fn get(&self, tx: TxId, table: &str, key: &[Value]) -> Result<Row> {
        self.check_active(tx)?;
        self.locks.acquire(tx, LockTarget::Table(table.to_string()), LockMode::IntentionShared)?;
        let row_id = self.row_id_for_key(table, key)?;
        self.locks.acquire(tx, LockTarget::Row(table.to_string(), row_id), LockMode::Shared)?;
        let tables = self.tables.lock();
        let t = tables.get(table).ok_or_else(|| StorageError::NoSuchTable(table.into()))?;
        t.effective_row(row_id)?
            .ok_or_else(|| StorageError::NotFound(format!("{table} key {key:?}")))
    }

    /// Replace the row at `key` with `row` (which may change the key).
    pub fn update(&self, tx: TxId, table: &str, key: &[Value], row: Row) -> Result<()> {
        self.check_active(tx)?;
        self.locks.acquire(
            tx,
            LockTarget::Table(table.to_string()),
            LockMode::IntentionExclusive,
        )?;
        let row_id = self.row_id_for_key(table, key)?;
        self.locks.acquire(tx, LockTarget::Row(table.to_string(), row_id), LockMode::Exclusive)?;
        let mut tables = self.tables.lock();
        let t =
            tables.get_mut(table).ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        t.schema.validate(&row)?;
        let new_key = t.schema.key_of(&row);
        if new_key != key && t.pk.contains_key(&new_key) {
            return Err(StorageError::DuplicateKey(format!(
                "{table} key {new_key:?} already exists"
            )));
        }
        self.log(&LogRecord::Update { tx, table: table.to_string(), row_id, row: row.clone() })?;
        let stamp = self.stamp();
        let old = t
            .apply_update(stamp, row_id, row)?
            .ok_or_else(|| StorageError::NotFound(format!("{table} row {row_id}")))?;
        self.push_undo(tx, Undo::Update { table: table.to_string(), row_id, old });
        drop(tables);
        Ok(())
    }

    /// Delete the row at `key`.
    pub fn delete(&self, tx: TxId, table: &str, key: &[Value]) -> Result<()> {
        self.check_active(tx)?;
        self.locks.acquire(
            tx,
            LockTarget::Table(table.to_string()),
            LockMode::IntentionExclusive,
        )?;
        let row_id = self.row_id_for_key(table, key)?;
        self.locks.acquire(tx, LockTarget::Row(table.to_string(), row_id), LockMode::Exclusive)?;
        let mut tables = self.tables.lock();
        let t =
            tables.get_mut(table).ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        self.log(&LogRecord::Delete { tx, table: table.to_string(), row_id })?;
        let stamp = self.stamp();
        let old = t
            .apply_delete(stamp, row_id)?
            .ok_or_else(|| StorageError::NotFound(format!("{table} row {row_id}")))?;
        self.push_undo(tx, Undo::Delete { table: table.to_string(), row_id, old });
        drop(tables);
        Ok(())
    }

    /// Scan a whole table (table-level shared lock; serializes against
    /// writers, including inserts — no phantoms).
    pub fn scan(&self, tx: TxId, table: &str) -> Result<Vec<Row>> {
        self.check_active(tx)?;
        self.locks.acquire(tx, LockTarget::Table(table.to_string()), LockMode::Shared)?;
        let tables = self.tables.lock();
        let t = tables.get(table).ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
        let overlay = Table::sorted_overlay(&t.heap);
        let mut out = Vec::with_capacity(t.live_rows as usize);
        paged::for_each_live_row(t.base.as_ref(), &overlay, &t.tombstones, &mut |_, row| {
            out.push(row.clone());
            Ok(())
        })?;
        Ok(out)
    }

    /// Equality probe on a secondary index.
    pub fn index_lookup(
        &self,
        tx: TxId,
        table: &str,
        column: &str,
        value: &Value,
    ) -> Result<Vec<Row>> {
        self.index_range(tx, table, column, Some(value), Some(value))
    }

    /// Range probe (inclusive bounds) on a secondary index.
    pub fn index_range(
        &self,
        tx: TxId,
        table: &str,
        column: &str,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Result<Vec<Row>> {
        self.check_active(tx)?;
        self.locks.acquire(tx, LockTarget::Table(table.to_string()), LockMode::IntentionShared)?;
        // Collect candidate row ids under the table mutex, then shared-lock them.
        let row_ids: Vec<RowId> = {
            let tables = self.tables.lock();
            let t =
                tables.get(table).ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
            t.index_candidates(column, lo, hi)?
        };
        let mut rows = Vec::with_capacity(row_ids.len());
        for row_id in row_ids {
            self.locks.acquire(tx, LockTarget::Row(table.to_string(), row_id), LockMode::Shared)?;
            let tables = self.tables.lock();
            let t = tables.get(table).ok_or_else(|| StorageError::NoSuchTable(table.into()))?;
            if let Some(r) = t.effective_row(row_id)? {
                rows.push(r);
            }
        }
        Ok(rows)
    }

    /// Filtered, projected read — the query planner's table-access
    /// primitive, with predicate and projection *pushdown*: `filter` is
    /// evaluated against each candidate row while it is still borrowed from
    /// the heap, and only the `projection` columns of accepted rows are
    /// cloned out. Non-matching rows are never copied at all.
    ///
    /// Rows come back in row-id (insertion) order for **both** access
    /// paths, so an index-routed read is bit-identical — including order —
    /// to a full scan with the same filter. Returns `(rows, scanned)` where
    /// `scanned` counts the candidate rows the filter examined.
    ///
    /// Locking matches the underlying path: `Full` takes a table-level
    /// shared lock (serializes against writers, no phantoms);
    /// `Index` takes intention-shared + per-row shared locks, like
    /// [`Database::index_range`].
    pub fn select(
        &self,
        tx: TxId,
        table: &str,
        access: ScanAccess<'_>,
        filter: &mut dyn FnMut(&[Value]) -> bool,
        projection: Option<&[usize]>,
    ) -> Result<(Vec<Row>, usize)> {
        self.check_active(tx)?;
        let materialize = |row: &Row| -> Row {
            match projection {
                Some(cols) => cols.iter().map(|&i| row[i].clone()).collect(),
                None => row.clone(),
            }
        };
        match access {
            ScanAccess::Full => {
                self.locks.acquire(tx, LockTarget::Table(table.to_string()), LockMode::Shared)?;
                let tables = self.tables.lock();
                let t = tables
                    .get(table)
                    .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
                let overlay = Table::sorted_overlay(&t.heap);
                let mut out = Vec::new();
                let mut scanned = 0usize;
                paged::for_each_live_row(
                    t.base.as_ref(),
                    &overlay,
                    &t.tombstones,
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
                self.locks.acquire(
                    tx,
                    LockTarget::Table(table.to_string()),
                    LockMode::IntentionShared,
                )?;
                let mut row_ids: Vec<RowId> = {
                    let tables = self.tables.lock();
                    let t = tables
                        .get(table)
                        .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
                    t.index_candidates(column, lo, hi)?
                };
                // Row-id order = full-scan order; also canonicalizes the
                // lock-acquisition order.
                row_ids.sort_unstable();
                for row_id in &row_ids {
                    self.locks.acquire(
                        tx,
                        LockTarget::Row(table.to_string(), *row_id),
                        LockMode::Shared,
                    )?;
                }
                let tables = self.tables.lock();
                let t = tables
                    .get(table)
                    .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))?;
                let mut out = Vec::new();
                let mut scanned = 0usize;
                for row_id in &row_ids {
                    if let Some(row) = t.effective_row(*row_id)? {
                        scanned += 1;
                        if filter(&row) {
                            out.push(materialize(&row));
                        }
                    }
                }
                Ok((out, scanned))
            }
        }
    }

    // ------------------------------------------------------------------
    // MVCC snapshots
    // ------------------------------------------------------------------

    /// Capture a consistent, immutable snapshot of all **committed**
    /// state, pinned to the current write-clock LSN.
    ///
    /// Reads against the returned [`DbSnapshot`] take no locks and never
    /// block (or are blocked by) writers. The snapshot is cheap when the
    /// database is quiet: per-table views are cached in the engine and
    /// re-used by `Arc` as long as a table's version is unchanged, so the
    /// steady-state cost is one `Arc` clone per table. Only tables that
    /// changed since the last snapshot are re-copied; tables with
    /// uncommitted in-flight changes are rolled back to their committed
    /// contents via the owning transactions' undo logs (strict 2PL makes
    /// undo entries of concurrent transactions row-disjoint, so the
    /// rollback order across transactions is immaterial).
    pub fn snapshot(&self) -> DbSnapshot {
        let tables = self.tables.lock();
        let active = self.active.lock();
        let mut cache = self.views.lock();
        cache.retain(|name, _| tables.contains_key(name));
        let mut out = HashMap::with_capacity(tables.len());
        for (name, t) in tables.iter() {
            let clean = t.version == t.stable_version;
            let view = if clean {
                // quarry-audit: allow(QA102, reason = "HashMap::get on the view cache, not Database::get; the name-based call graph over-approximates")
                let hit = cache.get(name).filter(|v| v.version() == t.version).cloned();
                match hit {
                    Some(v) => v,
                    None => {
                        let v = Arc::new(TableView::capture(
                            t.schema.clone(),
                            &t.heap,
                            &t.indexes,
                            t.base.clone(),
                            &t.tombstones,
                            t.live_rows,
                            t.version,
                        ));
                        // quarry-audit: allow(QA102, reason = "HashMap::insert on the view cache, not Database::insert")
                        cache.insert(name.clone(), Arc::clone(&v));
                        v
                    }
                }
            } else {
                // Dirty: subtract every active transaction's
                // uncommitted changes from a private clone. The view
                // is stamped with a fresh clock tick (never cached):
                // a fresh stamp can't alias any other content, and the
                // table will publish a real stable version at the next
                // commit or abort.
                let tmp = committed_clone(name, t, &active);
                Arc::new(TableView::capture(
                    tmp.schema,
                    &tmp.heap,
                    &tmp.indexes,
                    tmp.base,
                    &tmp.tombstones,
                    tmp.live_rows,
                    self.stamp(),
                ))
            };
            // quarry-audit: allow(QA102, reason = "HashMap::insert on the result map, not Database::insert")
            out.insert(name.clone(), view);
        }
        let lsn = self.write_clock.load(Ordering::SeqCst);
        DbSnapshot::new(lsn, out)
    }

    /// Number of rows in a table (unlocked, diagnostics only).
    pub fn row_count(&self, table: &str) -> Result<usize> {
        let tables = self.tables.lock();
        tables
            .get(table)
            .map(|t| t.live_rows as usize)
            .ok_or_else(|| StorageError::NoSuchTable(table.to_string()))
    }

    // ------------------------------------------------------------------
    // Replication support (see `structured::replication`)
    // ------------------------------------------------------------------

    /// The current checkpoint epoch (see the `epoch` field docs): a WAL
    /// byte offset identifies a stream position only together with the
    /// epoch it was read under.
    pub fn checkpoint_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Current WAL append offset in bytes (0 for in-memory databases).
    /// At a transaction boundary under `Full`/`Normal` durability this
    /// equals the flushed file length, which makes it the primary-side
    /// target of the replication ack barrier (`docs/replication.md`).
    pub fn wal_len(&self) -> u64 {
        self.wal.lock().as_ref().map(Wal::len).unwrap_or(0)
    }

    /// Path of the WAL file (`None` for in-memory databases).
    pub fn wal_path(&self) -> Option<PathBuf> {
        self.wal.lock().as_ref().map(|w| w.path().to_path_buf())
    }

    /// The storage backend the WAL and checkpoints go through. A WAL
    /// tail reader must read through this backend so fault injection
    /// observes one consistent world: backend reads are not crash
    /// points, but they do die with an injected crash — exactly the
    /// "primary death" a replica must survive.
    pub fn storage_backend(&self) -> Arc<dyn StorageBackend> {
        Arc::clone(&self.backend)
    }

    /// The current write-clock value — the LSN a snapshot taken *now*
    /// would pin to.
    pub fn current_lsn(&self) -> u64 {
        self.write_clock.load(Ordering::SeqCst)
    }

    /// Capture a reseed payload: the current epoch, the WAL offset
    /// streaming resumes from, and a synthetic committed record stream
    /// that recreates every table when replayed into an empty database.
    /// Uncommitted changes of in-flight transactions are rolled back out
    /// of the capture exactly like [`Database::snapshot`] does. The
    /// offset is read under the same `tables` lock as the records, so
    /// frames at `>= start_offset` may double-cover the seed's tail —
    /// which is safe, because replaying committed records over state
    /// that already contains them is convergent (the checkpoint-recovery
    /// argument; see docs/durability.md).
    pub fn seed_state(&self) -> Result<ReplicationSeed> {
        let tables = self.tables.lock();
        let active = self.active.lock();
        let epoch = self.epoch.load(Ordering::SeqCst);
        let start_offset = self.wal.lock().as_ref().map(Wal::len).unwrap_or(0);
        let tx = self.next_tx.fetch_add(1, Ordering::SeqCst);
        let records = replication::seed_records(&tables, &active, tx)?;
        Ok(ReplicationSeed { epoch, start_offset, records })
    }

    /// Replication (replica side): append one already-encoded WAL frame
    /// payload verbatim to this database's own log and flush it, so the
    /// replica's log is a real recovery source for its applied history.
    pub fn replicate_append(&self, payload: &[u8]) -> Result<()> {
        let mut guard = self.wal.lock();
        if let Some(wal) = guard.as_mut() {
            wal.append(payload)?;
            wal.flush()?;
        }
        Ok(())
    }

    /// Replication (replica side): apply the DML records of one
    /// *committed* transaction in log order, through the same redo path
    /// recovery uses.
    pub fn replicate_apply_commit(&self, records: &[LogRecord]) -> Result<()> {
        redo(&mut self.tables.lock(), records.iter().cloned(), &|| self.stamp())
    }

    /// Replication (replica side): apply one auto-committed DDL record.
    pub fn replicate_apply_ddl(&self, rec: &LogRecord) -> Result<()> {
        redo(&mut self.tables.lock(), [rec.clone()], &|| self.stamp())
    }

    /// Replication (replica side): discard every table, cached view, and
    /// log byte ahead of a reseed. Any on-disk checkpoint image of *this*
    /// database is removed too — after a reseed the local log is the only
    /// recovery source until the next local checkpoint.
    pub fn replicate_reset(&self) -> Result<()> {
        let mut tables = self.tables.lock();
        let mut wal = self.wal.lock();
        tables.clear();
        self.views.lock().clear();
        if let Some(w) = wal.as_mut() {
            let ckpt = checkpoint::image_path(w.path());
            w.reset()?;
            let _ = self.backend.remove_file(&ckpt);
        }
        *self.image.lock() = None;
        self.commit_queue.reset();
        self.epoch.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Replication (replica side): raise the transaction-id floor past
    /// every id seen in shipped history. Called at promotion so the new
    /// primary never reissues a transaction id that already appears in
    /// its log.
    pub fn adopt_tx_floor(&self, max_tx: u64) {
        self.next_tx.fetch_max(max_tx + 1, Ordering::SeqCst);
    }

    // ------------------------------------------------------------------
    // Auto-commit conveniences
    // ------------------------------------------------------------------

    /// Insert under a fresh single-operation transaction.
    pub fn insert_autocommit(&self, table: &str, row: Row) -> Result<RowId> {
        let tx = self.begin();
        match self.insert(tx, table, row) {
            Ok(id) => {
                self.commit(tx)?;
                Ok(id)
            }
            Err(e) => {
                let _ = self.abort(tx);
                Err(e)
            }
        }
    }

    /// Scan under a fresh single-operation transaction.
    pub fn scan_autocommit(&self, table: &str) -> Result<Vec<Row>> {
        let tx = self.begin();
        let out = self.scan(tx, table);
        match out {
            Ok(rows) => {
                self.commit(tx)?;
                Ok(rows)
            }
            Err(e) => {
                let _ = self.abort(tx);
                Err(e)
            }
        }
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database").field("tables", &self.table_names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structured::fixtures::{people_schema, person, tmpwal};
    use crate::structured::table::Column;
    use crate::value::DataType;
    use std::sync::Arc;

    #[test]
    fn insert_get_update_delete_cycle() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        let tx = db.begin();
        db.insert(tx, "people", person("ada", 36, "london")).unwrap();
        db.insert(tx, "people", person("alan", 41, "cambridge")).unwrap();
        assert_eq!(db.get(tx, "people", &["ada".into()]).unwrap()[1], Value::Int(36));
        db.update(tx, "people", &["ada".into()], person("ada", 37, "london")).unwrap();
        db.delete(tx, "people", &["alan".into()]).unwrap();
        db.commit(tx).unwrap();
        assert_eq!(db.row_count("people").unwrap(), 1);
    }

    #[test]
    fn duplicate_key_rejected() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        db.insert_autocommit("people", person("x", 1, "a")).unwrap();
        let err = db.insert_autocommit("people", person("x", 2, "b")).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKey(_)));
    }

    #[test]
    fn abort_rolls_back_everything() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        db.insert_autocommit("people", person("keep", 1, "a")).unwrap();

        let tx = db.begin();
        db.insert(tx, "people", person("new", 2, "b")).unwrap();
        db.update(tx, "people", &["keep".into()], person("keep", 99, "z")).unwrap();
        db.delete(tx, "people", &["keep".into()]).unwrap();
        db.abort(tx).unwrap();

        let rows = db.scan_autocommit("people").unwrap();
        assert_eq!(rows, vec![person("keep", 1, "a")]);
        // Index state rolled back too.
        let tx = db.begin();
        let by_age = db.index_lookup(tx, "people", "age", &Value::Int(1)).unwrap();
        assert_eq!(by_age.len(), 1);
        let by_age99 = db.index_lookup(tx, "people", "age", &Value::Int(99)).unwrap();
        assert!(by_age99.is_empty());
        db.commit(tx).unwrap();
    }

    #[test]
    fn index_range_probe() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        for i in 0..20 {
            db.insert_autocommit("people", person(&format!("p{i}"), i, "c")).unwrap();
        }
        let tx = db.begin();
        let rows = db
            .index_range(tx, "people", "age", Some(&Value::Int(5)), Some(&Value::Int(8)))
            .unwrap();
        assert_eq!(rows.len(), 4);
        db.commit(tx).unwrap();
    }

    #[test]
    fn scan_is_key_ordered_by_rowid_and_stable() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        for name in ["c", "a", "b"] {
            db.insert_autocommit("people", person(name, 1, "x")).unwrap();
        }
        let rows = db.scan_autocommit("people").unwrap();
        let names: Vec<_> = rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(names, vec!["c", "a", "b"], "scan returns insertion order");
    }

    #[test]
    fn operations_on_unknown_entities_fail() {
        let db = Database::in_memory();
        assert!(matches!(db.insert_autocommit("ghost", vec![]), Err(StorageError::NoSuchTable(_))));
        db.create_table(people_schema()).unwrap();
        let tx = db.begin();
        assert!(matches!(db.get(tx, "people", &["ghost".into()]), Err(StorageError::NotFound(_))));
        db.commit(tx).unwrap();
        assert!(matches!(db.commit(999), Err(StorageError::NoSuchTx(999))));
    }

    #[test]
    fn two_phase_locking_isolates_writers() {
        let db = Arc::new(Database::in_memory());
        db.create_table(people_schema()).unwrap();
        db.insert_autocommit("people", person("shared", 0, "x")).unwrap();

        // Older tx writes the row; younger tx must fail (wait-die) on read.
        let t_old = db.begin();
        let t_young = db.begin();
        db.update(t_old, "people", &["shared".into()], person("shared", 1, "x")).unwrap();
        let err = db.get(t_young, "people", &["shared".into()]).unwrap_err();
        assert!(matches!(err, StorageError::TxAborted(_)));
        db.abort(t_young).unwrap();
        db.commit(t_old).unwrap();
    }

    #[test]
    fn concurrent_counter_has_no_lost_updates() {
        let db = Arc::new(Database::in_memory());
        db.create_table(people_schema()).unwrap();
        db.insert_autocommit("people", person("ctr", 0, "x")).unwrap();
        let threads = 4;
        let per_thread = 25;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                let mut done = 0;
                while done < per_thread {
                    let tx = db.begin();
                    let res = db.get(tx, "people", &["ctr".into()]).and_then(|row| {
                        let n = row[1].as_f64().unwrap() as i64;
                        db.update(tx, "people", &["ctr".into()], person("ctr", n + 1, "x"))
                    });
                    match res {
                        Ok(()) => {
                            db.commit(tx).unwrap();
                            done += 1;
                        }
                        Err(_) => {
                            let _ = db.abort(tx);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let rows = db.scan_autocommit("people").unwrap();
        assert_eq!(rows[0][1], Value::Int((threads * per_thread) as i64));
    }

    #[test]
    fn durability_modes_contract() {
        use crate::faultfs::{CrashPlan, FaultBackend, Op};

        // Full: one fsync boundary per commit/DDL.
        let p = tmpwal("dur-full");
        {
            let fb = FaultBackend::recording(RealBackend);
            let db = Database::open_with(Arc::new(fb.clone()), &p).unwrap();
            db.create_table(people_schema()).unwrap();
            db.insert_autocommit("people", person("a", 1, "x")).unwrap();
            let syncs = fb.ops().iter().filter(|o| matches!(o, Op::Sync { .. })).count();
            assert_eq!(syncs, 2, "create_table + autocommit insert");
        }
        let _ = std::fs::remove_file(&p);

        // Normal: commits flush to the OS (durable in the fault model's
        // flushed-is-durable terms) but never fsync.
        let p = tmpwal("dur-normal");
        {
            let fb = FaultBackend::recording(RealBackend);
            let mut db = Database::open_with(Arc::new(fb.clone()), &p).unwrap();
            db.set_durability(DurabilityMode::Normal);
            db.create_table(people_schema()).unwrap();
            db.insert_autocommit("people", person("a", 1, "x")).unwrap();
            assert!(!fb.ops().iter().any(|o| matches!(o, Op::Sync { .. })));
            // Power loss: everything already flushed survives.
            fb.arm(CrashPlan::kill_at(fb.op_count() + 1));
            drop(db);
        }
        {
            let db = Database::open(&p).unwrap();
            assert_eq!(db.row_count("people").unwrap(), 1);
        }
        let _ = std::fs::remove_file(&p);

        // Deferred: commits only buffer; a crash loses them...
        let p = tmpwal("dur-deferred");
        {
            let fb = FaultBackend::recording(RealBackend);
            let mut db = Database::open_with(Arc::new(fb.clone()), &p).unwrap();
            db.set_durability(DurabilityMode::Deferred);
            db.create_table(people_schema()).unwrap();
            db.insert_autocommit("people", person("a", 1, "x")).unwrap();
            fb.arm(CrashPlan::kill_at(fb.op_count() + 1));
            drop(db); // buffered frames die with the process-model
        }
        {
            let db = Database::open(&p).unwrap();
            assert!(db.row_count("people").is_err(), "deferred work was lost");
        }
        let _ = std::fs::remove_file(&p);

        // ...unless an explicit sync_wal() intervenes.
        let p = tmpwal("dur-deferred-sync");
        {
            let fb = FaultBackend::recording(RealBackend);
            let mut db = Database::open_with(Arc::new(fb.clone()), &p).unwrap();
            db.set_durability(DurabilityMode::Deferred);
            db.create_table(people_schema()).unwrap();
            db.insert_autocommit("people", person("a", 1, "x")).unwrap();
            db.sync_wal().unwrap();
            fb.arm(CrashPlan::kill_at(fb.op_count() + 1));
            drop(db);
        }
        {
            let db = Database::open(&p).unwrap();
            assert_eq!(db.row_count("people").unwrap(), 1);
        }
        let _ = std::fs::remove_file(&p);
    }

    fn snap_rows(db: &Database) -> Vec<Row> {
        db.snapshot().scan("people").unwrap()
    }

    #[test]
    fn snapshot_sees_committed_state_only() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        db.insert_autocommit("people", person("base", 1, "a")).unwrap();

        let tx = db.begin();
        db.insert(tx, "people", person("pending", 2, "b")).unwrap();
        db.update(tx, "people", &["base".into()], person("base", 99, "z")).unwrap();

        // Mid-transaction snapshot: the uncommitted insert and update are
        // both invisible.
        assert_eq!(snap_rows(&db), vec![person("base", 1, "a")]);
        // The index state of the view is rolled back too.
        let snap = db.snapshot();
        let (rows, _) = snap
            .select(
                "people",
                ScanAccess::Index { column: "age", lo: Some(&Value::Int(99)), hi: None },
                &mut |_| true,
                None,
            )
            .unwrap();
        assert!(rows.is_empty(), "uncommitted index entries must not leak");

        db.commit(tx).unwrap();
        let mut after = snap_rows(&db);
        after.sort_by_key(|r| r[0].to_string());
        assert_eq!(after, vec![person("base", 99, "z"), person("pending", 2, "b")]);
        // The pre-commit snapshot is immutable: it still shows old state.
        assert_eq!(snap.scan("people").unwrap(), vec![person("base", 1, "a")]);
    }

    #[test]
    fn snapshot_is_stable_while_writers_proceed() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        db.insert_autocommit("people", person("p0", 0, "x")).unwrap();
        let snap = db.snapshot();
        let lsn = snap.lsn();
        for i in 1..10 {
            db.insert_autocommit("people", person(&format!("p{i}"), i, "x")).unwrap();
        }
        assert_eq!(snap.row_count("people").unwrap(), 1);
        assert_eq!(snap.lsn(), lsn);
        let later = db.snapshot();
        assert!(later.lsn() > lsn, "LSN advances with committed writes");
        assert_eq!(later.row_count("people").unwrap(), 10);
    }

    #[test]
    fn snapshot_views_are_shared_until_tables_change() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        db.insert_autocommit("people", person("a", 1, "x")).unwrap();
        let s1 = db.snapshot();
        let s2 = db.snapshot();
        assert!(
            Arc::ptr_eq(s1.table("people").unwrap(), s2.table("people").unwrap()),
            "unchanged table views are Arc-shared"
        );
        db.insert_autocommit("people", person("b", 2, "x")).unwrap();
        let s3 = db.snapshot();
        assert!(!Arc::ptr_eq(s1.table("people").unwrap(), s3.table("people").unwrap()));
        assert_ne!(
            s1.table_version("people").unwrap(),
            s3.table_version("people").unwrap(),
            "changed contents imply a new version"
        );
    }

    #[test]
    fn snapshot_excludes_aborted_work_and_matches_select_semantics() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        for i in 0..8 {
            db.insert_autocommit("people", person(&format!("p{i}"), i, "x")).unwrap();
        }
        let tx = db.begin();
        db.delete(tx, "people", &["p3".into()]).unwrap();
        db.abort(tx).unwrap();

        let snap = db.snapshot();
        // Full-path and index-path reads agree with the live engine.
        let tx = db.begin();
        for access in [
            ScanAccess::Full,
            ScanAccess::Index { column: "age", lo: Some(&Value::Int(2)), hi: Some(&Value::Int(6)) },
        ] {
            let mut live_filter = |row: &[Value]| row[1].as_f64().unwrap() as i64 % 2 == 0;
            let live =
                db.select(tx, "people", access, &mut live_filter, Some(&[0, 1][..])).unwrap();
            let mut snap_filter = |row: &[Value]| row[1].as_f64().unwrap() as i64 % 2 == 0;
            let snapped = snap.select("people", access, &mut snap_filter, Some(&[0, 1])).unwrap();
            assert_eq!(live, snapped, "access {access:?}");
        }
        db.commit(tx).unwrap();

        // Unknown table / unindexed column give the live error kinds.
        assert!(matches!(snap.scan("ghost"), Err(StorageError::NoSuchTable(_))));
        let err = snap
            .select(
                "people",
                ScanAccess::Index { column: "city", lo: None, hi: None },
                &mut |_| true,
                None,
            )
            .unwrap_err();
        assert!(matches!(err, StorageError::SchemaViolation(_)));
    }

    #[test]
    fn concurrent_snapshots_see_consistent_prefixes() {
        let db = Arc::new(Database::in_memory());
        db.create_table(people_schema()).unwrap();
        let writer = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..200i64 {
                    db.insert_autocommit("people", person(&format!("p{i:04}"), i, "x")).unwrap();
                }
            })
        };
        let mut last_lsn = 0;
        let mut last_len = 0;
        for _ in 0..300 {
            let snap = db.snapshot();
            let rows = snap.scan("people").unwrap();
            // Row-id order = insertion order, so a consistent cut is a
            // strict prefix of the writer's sequence.
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(row[1], Value::Int(i as i64), "snapshot must be a prefix");
            }
            assert!(rows.len() >= last_len, "later snapshots never lose writes");
            assert!(snap.lsn() >= last_lsn, "LSN is monotone");
            last_len = rows.len();
            last_lsn = snap.lsn();
            // Re-reading the same snapshot is repeatable.
            assert_eq!(snap.scan("people").unwrap().len(), rows.len());
        }
        writer.join().unwrap();
        assert_eq!(db.snapshot().row_count("people").unwrap(), 200);
    }

    #[test]
    fn replace_table_migrates_rows() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        db.insert_autocommit("people", person("a", 1, "x")).unwrap();
        let new_schema = TableSchema::new(
            "people",
            vec![Column::new("name", DataType::Text), Column::new("age", DataType::Int)],
            &["name"],
            &[],
        )
        .unwrap();
        db.replace_table(new_schema, vec![vec!["a".into(), Value::Int(1)]]).unwrap();
        let rows = db.scan_autocommit("people").unwrap();
        assert_eq!(rows, vec![vec![Value::Text("a".into()), Value::Int(1)]]);
    }
}
