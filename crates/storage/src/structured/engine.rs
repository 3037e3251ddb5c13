//! The [`Database`] engine: tables + the writer gate + WAL, behind a
//! thread-safe API.
//!
//! Concurrency model: **one transaction is open at a time**. `begin()`
//! waits until no transaction is open; the caller then performs
//! operations and `commit()`s (WAL commit record + fsync) or `abort()`s
//! (in-memory undo), which lets the next writer through: DDL,
//! `checkpoint()` and replication wait at the same gate as `begin()`.
//! Transactions are therefore serial, and no operation ever fails for
//! concurrency-control reasons. Writes pass the gate; reads pin a
//! [`Database::snapshot`] and never wait at it (inside a transaction,
//! [`Database::get`] reads its own changes). The rule that follows: a
//! thread must not start a write, DDL or a checkpoint on the same
//! database while it still holds an open transaction — that call would
//! wait forever. See `docs/concurrency.md` ("Writers").

use crate::error::StorageError;
use crate::faultfs::{RealBackend, StorageBackend};
use crate::pager::PoolStats;
use crate::value::Value;
use crate::wal::Wal;
use crate::Result;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::borrow::Cow;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use super::checkpoint::{self, Recovered};
use super::overlay::{redo, roll_back, Table, Tables, Undo};
use super::paged::CheckpointImage;
use super::recovery::{self, LogRecord};
use super::replication::{self, ReplicationSeed};
use super::table::{Row, RowId, TableSchema};
use super::view::{DbSnapshot, TableView};

/// Transaction identifier.
pub type TxId = u64;

/// What the `tables` mutex guards: the table map, the one open
/// transaction and the write clock. Keeping them under one mutex is what
/// makes "is a transaction open, and what has it changed" a plain field
/// read for every operation, snapshot and seed capture, and pairs every
/// LSN a snapshot reads with exactly one committed state.
#[derive(Default)]
struct State {
    tables: Tables,
    /// The open transaction. `Some` from `begin()` until its commit or
    /// abort has finished logging: this is the writer gate.
    open: Option<OpenTx>,
    /// The write clock: units committed since open (see
    /// [`State::commit_unit`]). It is the LSN a snapshot pins.
    write_clock: u64,
}

struct OpenTx {
    id: TxId,
    /// How to undo each change of the transaction, newest last. Empty for
    /// a transaction that has only read, which therefore logs nothing.
    undo: Vec<Undo>,
}

impl State {
    /// The table map and the undo list of the open transaction, which
    /// must be `tx`.
    fn open_tx(&mut self, tx: TxId) -> Result<(&mut Tables, &mut Vec<Undo>)> {
        match &mut self.open {
            Some(open) if open.id == tx => Ok((&mut self.tables, &mut open.undo)),
            _ => Err(StorageError::NoSuchTx(tx)),
        }
    }

    /// The open transaction's uncommitted changes, oldest first.
    fn uncommitted(&self) -> &[Undo] {
        self.open.as_ref().map_or(&[], |open| &open.undo)
    }

    fn table(&self, name: &str) -> Result<&Table> {
        self.tables.get(name).ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    /// Advance the write clock by one unit, at the moment committed
    /// content changed: a transaction that changed something committing,
    /// a DDL statement, a unit a replica redoes, a reseed's reset. Never
    /// per row, nor for an abort, a read, a checkpoint's rebase (the
    /// content is the same) or open-time recovery (the recovered state is
    /// LSN 0). The one place the clock moves, and always under the
    /// `tables` mutex, like the snapshot that reads it: equal LSNs name
    /// equal committed states.
    fn commit_unit(&mut self) {
        self.write_clock += 1;
    }
}

/// `tables[name]`, mutably.
fn table_mut<'a>(tables: &'a mut Tables, name: &str) -> Result<&'a mut Table> {
    tables.get_mut(name).ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
}

fn not_found(table: &str, key: &[Value]) -> StorageError {
    StorageError::NotFound(format!("{table} key {key:?}"))
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
/// let rows = db.snapshot().scan("cities")?;
/// assert_eq!(rows[0][1], Value::Int(250_000));
/// # Ok::<(), quarry_storage::StorageError>(())
/// ```
pub struct Database {
    tables: Mutex<State>,
    /// Signalled when the open transaction closes; the gate waits on it.
    tx_closed: Condvar,
    wal: Mutex<Option<Wal>>,
    /// Storage backend shared by the WAL and the checkpoint files.
    backend: Arc<dyn StorageBackend>,
    next_tx: AtomicU64,
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
            tables: Mutex::new(State::default()),
            tx_closed: Condvar::new(),
            wal: Mutex::new(None),
            backend: Arc::new(RealBackend),
            next_tx: AtomicU64::new(1),
            image: Mutex::new(None),
            epoch: AtomicU64::new(0),
        }
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
        let Recovered { tables, image, max_tx, wal_end } = checkpoint::recover(&*backend, path)?;
        Ok(Database {
            tables: Mutex::new(State { tables, ..State::default() }),
            image: Mutex::new(image),
            next_tx: AtomicU64::new(max_tx + 1),
            // Recovery has scanned the log: open it where that scan ended.
            wal: Mutex::new(Some(Wal::open_at(Arc::clone(&backend), path, wal_end)?)),
            backend,
            ..Database::in_memory()
        })
    }

    /// Rows resident in a table's in-memory overlay (diagnostics: after a
    /// checkpoint or open this is 0 until writes arrive, however large the
    /// table).
    pub fn overlay_row_count(&self, table: &str) -> Result<usize> {
        Ok(self.tables.lock().table(table)?.heap.len())
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

    /// Flush and fsync the WAL now. A commit already syncs its own
    /// records; what this reaches is a replica's log, whose shipped frames
    /// [`Database::replicate_append`] flushes but does not fsync. Promotion
    /// and a server's drain call it.
    pub fn sync_wal(&self) -> Result<()> {
        if let Some(wal) = self.wal.lock().as_mut() {
            wal.sync()?;
        }
        Ok(())
    }

    /// The writer gate: the `tables` guard, once no transaction is open.
    /// Everything that writes enters through this one wait and holds the
    /// guard until it is done (a transaction: until it is the open one),
    /// so the log is a sequence of whole, non-interleaved units — which
    /// is what `recovery::UnitReader` reads. Closing a transaction wakes
    /// every waiter: one that is not a transaction passes without closing
    /// anything that would wake the next.
    fn gate(&self) -> MutexGuard<'_, State> {
        let mut st = self.tables.lock();
        while st.open.is_some() {
            self.tx_closed.wait(&mut st);
        }
        st
    }

    /// Append (buffered, not flushed) one record of transaction `tx`,
    /// which `record` writes straight into the log's frame buffer,
    /// preceded by the transaction's `Begin` record when `first` — when
    /// the record is its first change, i.e. its undo list is still empty.
    /// Logging `Begin` here rather than in `begin()` is what keeps a
    /// transaction that only reads out of the log. An in-memory database
    /// writes nothing.
    fn log_tx(
        &self,
        tx: TxId,
        first: bool,
        record: impl FnOnce(&mut Vec<u8>) -> Result<()>,
    ) -> Result<()> {
        if let Some(wal) = self.wal.lock().as_mut() {
            if first {
                wal.append_with(|w| LogRecord::Begin { tx }.encode_into(w))?;
            }
            wal.append_with(record)?;
        }
        Ok(())
    }

    /// Append `rec`, then flush and fsync the log: a commit or DDL record
    /// is on stable storage, with everything before it, once this returns.
    fn log_durable(&self, rec: &LogRecord) -> Result<()> {
        let mut guard = self.wal.lock();
        let Some(wal) = guard.as_mut() else { return Ok(()) };
        wal.append_with(|w| rec.encode_into(w))?;
        wal.sync()
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Create a table (auto-committed DDL).
    pub fn create_table(&self, schema: TableSchema) -> Result<()> {
        let mut st = self.gate();
        if st.tables.contains_key(&schema.name) {
            return Err(StorageError::SchemaViolation(format!(
                "table {} already exists",
                schema.name
            )));
        }
        self.log_durable(&LogRecord::CreateTable { schema: schema.clone() })?;
        st.tables.insert(schema.name.clone(), Table::new(schema));
        st.commit_unit();
        Ok(())
    }

    /// Create a secondary index on `table.column`, backfilled from the
    /// existing rows (auto-committed DDL, `CREATE INDEX`-style). Idempotent:
    /// indexing an already-indexed column is a no-op. The index is
    /// WAL-logged, so it survives recovery, and from this call on it is
    /// maintained by every write and eligible for access-path selection by
    /// the query planner.
    pub fn create_index(&self, table: &str, column: &str) -> Result<()> {
        let mut st = self.gate();
        let t = table_mut(&mut st.tables, table)?;
        if t.index(column).is_some() {
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
        st.commit_unit();
        Ok(())
    }

    /// Drop a table (auto-committed DDL).
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let mut st = self.gate();
        st.table(name)?;
        // Log first, like `create_table`: a failed append leaves the
        // table in place.
        self.log_durable(&LogRecord::DropTable { table: name.to_string() })?;
        st.tables.remove(name);
        st.commit_unit();
        Ok(())
    }

    /// Checkpoint: publish a snapshot of current committed state and reset
    /// the WAL, bounding recovery time by live data size instead of history
    /// length. Waits at the writer gate, so the image is cut at a unit
    /// boundary; a no-op for in-memory databases.
    ///
    /// The image (layout in `docs/storage.md`) is built and atomically
    /// published by `structured::checkpoint`; only after that commit point
    /// is the log truncated. A crash before it leaves the previous
    /// checkpoint + full WAL; a crash between it and the truncation leaves
    /// the new checkpoint + a WAL whose replay over it is convergent.
    /// After publication every table's in-memory overlay is dropped onto
    /// the fresh image: reads fault base pages in on demand from then on.
    ///
    /// It holds the gate the way a transaction that only reads does — as
    /// the open transaction, which logs nothing — so writers wait for the
    /// whole of it, while the `tables` mutex, which every
    /// [`Database::snapshot`] needs, is held only to copy the table map
    /// before the build and to swap the tables onto the image after it.
    pub fn checkpoint(&self) -> Result<()> {
        let tx = self.begin();
        let published = self.publish_image();
        // Closing a transaction that changed nothing cannot fail, and it is
        // what reopens the gate: also after a failed publish.
        let closed = self.commit(tx);
        published.and(closed)
    }

    /// The body of [`Database::checkpoint`], which holds the writer gate.
    fn publish_image(&self) -> Result<()> {
        let Some(path) = self.wal_path() else {
            return Ok(()); // ephemeral database: nothing to compact
        };
        // The gate keeps the tables as they are, so this copy (a few `Arc`s
        // a table) is what they hold until the swap below.
        let frozen = self.tables.lock().tables.clone();
        let metas = checkpoint::publish(&*self.backend, &path, &frozen)?;
        // `tables` before `wal`: the write path acquires them in that
        // order (see audit/lock-order.toml), so taking `wal` first here
        // would be an ABBA inversion.
        let mut st = self.tables.lock();
        let mut wal_guard = self.wal.lock();
        if let Some(wal) = wal_guard.as_mut() {
            wal.reset()?;
        }
        // New epoch: replication offsets into the pre-truncation log are
        // now meaningless, and any tailing replica must renegotiate.
        self.epoch.fetch_add(1, Ordering::SeqCst);
        let image = checkpoint::rebase(&*self.backend, &path, &mut st.tables, metas)?;
        *self.image.lock() = Some(image);
        Ok(())
    }

    /// The schema of a table.
    pub fn schema(&self, table: &str) -> Result<TableSchema> {
        Ok(TableSchema::clone(&self.tables.lock().table(table)?.schema))
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.lock().tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Replace a table's schema and rows wholesale (schema-evolution
    /// migration path; auto-committed, logged as drop + create + inserts).
    ///
    /// Whatever the inserts would refuse — a row the schema rejects, two
    /// rows with one key — is refused before the drop, leaving the table
    /// and the LSN as they were. The replacement is still three units, so
    /// a crash between them can leave the table dropped or empty.
    pub fn replace_table(&self, schema: TableSchema, rows: Vec<Row>) -> Result<()> {
        let mut keys = HashSet::with_capacity(rows.len());
        for row in &rows {
            schema.validate(row)?;
            if !keys.insert(schema.key.iter().map(|&i| &row[i]).collect::<Vec<_>>()) {
                let (table, key) = (&schema.name, schema.key_of(row));
                return Err(StorageError::DuplicateKey(format!(
                    "{table} key {key:?} already exists"
                )));
            }
        }
        drop(keys);
        let name = schema.name.clone();
        self.drop_table(&name)?;
        self.create_table(schema)?;
        self.in_tx(|tx| rows.into_iter().try_for_each(|row| self.insert(tx, &name, row).map(drop)))
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Start a transaction, waiting while another one is open.
    pub fn begin(&self) -> TxId {
        let mut st = self.gate();
        let id = self.next_tx.fetch_add(1, Ordering::SeqCst);
        st.open = Some(OpenTx { id, undo: Vec::new() });
        id
    }

    /// Commit: durable once this returns.
    ///
    /// A transaction that changed something moves the write clock by one,
    /// at the moment its changes become the committed state (before the
    /// fsync, under the `tables` mutex); one that only read moves it not
    /// at all. A [`Database::snapshot`] taken while the transaction was
    /// open pins the LSN of the last commit before it.
    pub fn commit(&self, tx: TxId) -> Result<()> {
        self.close_tx(tx, false)
    }

    /// Abort: rolls back every in-memory change of `tx`.
    pub fn abort(&self, tx: TxId) -> Result<()> {
        self.close_tx(tx, true)
    }

    /// End transaction `tx`, keeping its changes or rolling them back.
    fn close_tx(&self, tx: TxId, rollback: bool) -> Result<()> {
        {
            let mut st = self.tables.lock();
            let (tables, undo) = st.open_tx(tx)?;
            let undo = std::mem::take(undo);
            if undo.is_empty() {
                // Changed nothing, so logged no `Begin` either: nothing to
                // count, undo or log.
                st.open = None;
                self.tx_closed.notify_all();
                return Ok(());
            }
            if rollback {
                roll_back(tables, &undo);
            } else {
                st.commit_unit();
            }
        }
        // The transaction stays open, with nothing left to undo, across
        // the log write, so the next unit's records follow this
        // one's `Commit` in the WAL. The `tables` mutex is not held
        // meanwhile: snapshots never wait for the fsync. The gate opens
        // whether or not the write succeeded — a failed commit returns
        // its error, it does not wedge the database.
        let logged = if rollback {
            self.log_tx(tx, false, |w| LogRecord::Abort { tx }.encode_into(w))
        } else {
            self.log_durable(&LogRecord::Commit { tx })
        };
        self.tables.lock().open = None;
        self.tx_closed.notify_all();
        logged
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    /// Insert a row. Fails on duplicate primary key.
    ///
    /// The row is moved, never copied: its log record is written from it
    /// in place, and then it is the overlay's. Its key is hashed once, for
    /// the duplicate probe and the key's entry alike, and probed as the
    /// row's own values. A refused row logs nothing.
    pub fn insert(&self, tx: TxId, table: &str, row: Row) -> Result<RowId> {
        let mut st = self.tables.lock();
        let (tables, undo) = st.open_tx(tx)?;
        let t = table_mut(tables, table)?;
        t.schema.validate(&row)?;
        let hash = t.pk_hash(&row);
        if t.key_holder_of(hash, &row)?.is_some() {
            let key = t.schema.key_of(&row);
            return Err(StorageError::DuplicateKey(format!("{table} key {key:?} already exists")));
        }
        let row_id = RowId(t.next_row);
        self.log_tx(tx, undo.is_empty(), |w| recovery::write_insert(w, tx, table, row_id, &row))?;
        t.apply_insert(row_id, hash, row)?;
        undo.push(Undo::Insert { table: Arc::clone(&t.schema), row_id });
        Ok(row_id)
    }

    /// Read one row by primary key as transaction `tx` sees it: committed
    /// state plus its own changes. The one read inside a transaction, for
    /// read-modify-write; every other read goes through
    /// [`Database::snapshot`].
    pub fn get(&self, tx: TxId, table: &str, key: &[Value]) -> Result<Row> {
        let st = self.tables.lock();
        if st.open.as_ref().is_none_or(|open| open.id != tx) {
            return Err(StorageError::NoSuchTx(tx));
        }
        let t = st.table(table)?;
        let row = match t.lookup_pk(key)? {
            Some(row_id) => t.effective_row(row_id)?,
            None => None,
        };
        row.map(Cow::into_owned).ok_or_else(|| not_found(table, key))
    }

    /// Replace the row at `key` with `row` (which may change the key).
    pub fn update(&self, tx: TxId, table: &str, key: &[Value], row: Row) -> Result<()> {
        let mut st = self.tables.lock();
        let (tables, undo) = st.open_tx(tx)?;
        let t = table_mut(tables, table)?;
        let row_id = t.lookup_pk(key)?.ok_or_else(|| not_found(table, key))?;
        t.schema.validate(&row)?;
        if t.key_holder_of(t.pk_hash(&row), &row)?.is_some_and(|holder| holder != row_id) {
            let new_key = t.schema.key_of(&row);
            return Err(StorageError::DuplicateKey(format!(
                "{table} key {new_key:?} already exists"
            )));
        }
        self.log_tx(tx, undo.is_empty(), |w| recovery::write_update(w, tx, table, row_id, &row))?;
        let old = t
            .apply_update(row_id, row)?
            .ok_or_else(|| StorageError::NotFound(format!("{table} row {row_id}")))?;
        undo.push(Undo::Update { table: Arc::clone(&t.schema), row_id, old });
        Ok(())
    }

    /// Delete the row at `key`.
    pub fn delete(&self, tx: TxId, table: &str, key: &[Value]) -> Result<()> {
        let mut st = self.tables.lock();
        let (tables, undo) = st.open_tx(tx)?;
        let t = table_mut(tables, table)?;
        let row_id = t.lookup_pk(key)?.ok_or_else(|| not_found(table, key))?;
        self.log_tx(tx, undo.is_empty(), |w| recovery::write_delete(w, tx, table, row_id))?;
        let old = t
            .apply_delete(row_id)?
            .ok_or_else(|| StorageError::NotFound(format!("{table} row {row_id}")))?;
        undo.push(Undo::Delete { table: Arc::clone(&t.schema), row_id, old });
        Ok(())
    }

    // ------------------------------------------------------------------
    // MVCC snapshots
    // ------------------------------------------------------------------

    /// Capture a consistent, immutable snapshot of all **committed**
    /// state, pinned to the current write-clock LSN: the number of units
    /// committed since open.
    ///
    /// Reads against the returned [`DbSnapshot`] take no locks and never
    /// block (or are blocked by) the writer. Capturing copies no rows: a
    /// view is a clone of the engine's table, which shares the overlay's
    /// trees, so the cost is a handful of `Arc` clones per table however
    /// much the tables hold or have changed. The tables the open
    /// transaction's undo list names are additionally rolled back to their
    /// committed contents through it — on the clone, at the cost of the
    /// paths the transaction touched. A snapshot taken mid-transaction
    /// therefore holds, and is pinned to, the last commit's state, and a
    /// snapshot never moves the write clock: two of them with no commit in
    /// between carry the same LSN and the same contents.
    pub fn snapshot(&self) -> DbSnapshot {
        let st = self.tables.lock();
        let (lsn, mut tables) = (st.write_clock, st.tables.clone());
        roll_back(&mut tables, st.uncommitted());
        drop(st);
        DbSnapshot::new(
            lsn,
            tables.into_iter().map(|(name, t)| (name, TableView::new(t))).collect(),
        )
    }

    /// Number of rows in a table, an open transaction's writes included;
    /// one short hold of the `tables` mutex (diagnostics only — queries
    /// count on a [`DbSnapshot`]).
    pub fn row_count(&self, table: &str) -> Result<usize> {
        Ok(self.tables.lock().table(table)?.live_rows as usize)
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
    /// Once a commit or DDL statement returns this equals the synced file
    /// length, which makes it the primary-side target of the replication
    /// ack barrier (`docs/replication.md`). An abort's record is only
    /// buffered until the next sync.
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
    /// would pin to: the units committed since open.
    pub fn current_lsn(&self) -> u64 {
        self.tables.lock().write_clock
    }

    /// Capture a reseed payload: the current epoch, the WAL offset
    /// streaming resumes from, and a synthetic committed record stream
    /// that recreates every table when replayed into an empty database.
    /// Waits at the writer gate, so the capture and the offset are both
    /// cut at a unit boundary: the seed holds every unit below the offset
    /// and no part of one above it, and the stream from the offset on is
    /// whole units.
    pub fn seed_state(&self) -> Result<ReplicationSeed> {
        let st = self.gate();
        let epoch = self.epoch.load(Ordering::SeqCst);
        let start_offset = self.wal_len();
        let tx = self.next_tx.fetch_add(1, Ordering::SeqCst);
        let records = replication::seed_records(&st.tables, tx)?;
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

    /// Replication (replica side): apply one shipped unit — the changes
    /// of one *committed* transaction, or one auto-committed DDL record —
    /// through the same redo path recovery uses. The unit moves the write
    /// clock by one, like a commit or a DDL statement on a primary — also
    /// when the redo fails part-way, having changed the tables all the
    /// same.
    pub fn replicate_apply(&self, unit: Vec<LogRecord>) -> Result<()> {
        let mut st = self.gate();
        let redone = redo(&mut st.tables, unit);
        st.commit_unit();
        redone
    }

    /// Replication (replica side): discard every table and log byte ahead
    /// of a reseed. Any on-disk checkpoint image of *this* database is
    /// removed too — after a reseed the local log is the only recovery
    /// source until the next local checkpoint.
    pub fn replicate_reset(&self) -> Result<()> {
        let mut st = self.gate();
        let mut wal = self.wal.lock();
        st.tables.clear();
        st.commit_unit();
        if let Some(w) = wal.as_mut() {
            let ckpt = checkpoint::image_path(w.path());
            w.reset()?;
            let _ = self.backend.remove_file(&ckpt);
        }
        *self.image.lock() = None;
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

    /// Run `body` in a fresh transaction: committed if it succeeds,
    /// aborted if it fails — never left open, since an open transaction
    /// keeps every later `begin()` waiting.
    fn in_tx<T>(&self, body: impl FnOnce(TxId) -> Result<T>) -> Result<T> {
        let tx = self.begin();
        match body(tx) {
            Ok(out) => {
                self.commit(tx)?;
                Ok(out)
            }
            Err(e) => {
                let _ = self.abort(tx);
                Err(e)
            }
        }
    }

    /// Insert under a fresh single-operation transaction.
    pub fn insert_autocommit(&self, table: &str, row: Row) -> Result<RowId> {
        self.in_tx(|tx| self.insert(tx, table, row))
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
    use crate::faultfs::{CrashPlan, FaultBackend, Op};
    use crate::structured::fixtures::{index_rows, people_schema, person, tmpwal};
    use crate::structured::table::Column;
    use crate::structured::view::ScanAccess;
    use crate::value::DataType;
    use std::sync::mpsc;
    use std::time::Duration;

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

        let rows = snap_rows(&db);
        assert_eq!(rows, vec![person("keep", 1, "a")]);
        // Index state rolled back too.
        let by_age = index_rows(&db, "people", "age", &Value::Int(1));
        assert_eq!(by_age.len(), 1);
        let by_age99 = index_rows(&db, "people", "age", &Value::Int(99));
        assert!(by_age99.is_empty());
    }

    #[test]
    fn index_probe_takes_inclusive_bounds() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        for i in 0..20 {
            db.insert_autocommit("people", person(&format!("p{i}"), i, "c")).unwrap();
        }
        let (lo, hi) = (Value::Int(5), Value::Int(8));
        let access = ScanAccess::Index { column: "age", lo: Some(&lo), hi: Some(&hi) };
        let (rows, _) = db.snapshot().select("people", access, &mut |_| true, None).unwrap();
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn scan_is_key_ordered_by_rowid_and_stable() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        for name in ["c", "a", "b"] {
            db.insert_autocommit("people", person(name, 1, "x")).unwrap();
        }
        let rows = snap_rows(&db);
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
    fn second_begin_waits_for_the_open_transaction() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        db.insert_autocommit("people", person("shared", 0, "x")).unwrap();

        let first = db.begin();
        let (began_tx, began) = mpsc::channel();
        std::thread::scope(|s| {
            let second = s.spawn(|| {
                let tx = db.begin();
                began_tx.send(()).unwrap();
                let row = db.get(tx, "people", &["shared".into()]).unwrap();
                db.commit(tx).unwrap();
                row
            });
            db.update(first, "people", &["shared".into()], person("shared", 1, "x")).unwrap();
            // A negative check can only time out: while `first` is open
            // the other thread's `begin()` must not return.
            assert!(began.recv_timeout(Duration::from_millis(100)).is_err());
            db.commit(first).unwrap();
            began.recv().unwrap();
            assert_eq!(second.join().unwrap(), person("shared", 1, "x"));
        });
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
                for _ in 0..per_thread {
                    let tx = db.begin();
                    let row = db.get(tx, "people", &["ctr".into()]).unwrap();
                    let n = row[1].as_f64().unwrap() as i64;
                    db.update(tx, "people", &["ctr".into()], person("ctr", n + 1, "x")).unwrap();
                    db.commit(tx).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let rows = snap_rows(&db);
        assert_eq!(rows[0][1], Value::Int((threads * per_thread) as i64));
    }

    #[test]
    fn durability_contract() {
        // One fsync boundary per commit/DDL.
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
    }

    #[test]
    fn reads_neither_write_nor_fsync() {
        let p = tmpwal("read-only");
        let fb = FaultBackend::recording(RealBackend);
        let db = Database::open_with(Arc::new(fb.clone()), &p).unwrap();
        db.create_table(people_schema()).unwrap();
        db.insert_autocommit("people", person("a", 1, "x")).unwrap();

        let (ops, len) = (fb.op_count(), db.wal_len());
        for _ in 0..10 {
            snap_rows(&db);
            let tx = db.begin();
            db.get(tx, "people", &["a".into()]).unwrap();
            db.commit(tx).unwrap();
        }
        let tx = db.begin();
        db.get(tx, "people", &["a".into()]).unwrap();
        db.commit(tx).unwrap();
        let tx = db.begin();
        db.abort(tx).unwrap();
        assert_eq!(fb.op_count(), ops, "a reader reaches the backend: {:?}", fb.ops());
        assert_eq!(db.wal_len(), len);

        // Writing transactions log as before — Begin, the change, Commit —
        // and the twelve readers between them took ids but left no record.
        db.insert_autocommit("people", person("b", 2, "x")).unwrap();
        let log: Vec<LogRecord> = crate::wal::Wal::replay(&p)
            .unwrap()
            .iter()
            .map(|r| LogRecord::decode(r).unwrap())
            .collect();
        let txs: Vec<Option<TxId>> = log.iter().map(LogRecord::tx).collect();
        assert_eq!(txs, [None, Some(1), Some(1), Some(1), Some(14), Some(14), Some(14)]);
        assert!(
            matches!(log[1], LogRecord::Begin { .. }) && matches!(log[4], LogRecord::Begin { .. })
        );
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn failed_drop_table_keeps_the_table() {
        let p = tmpwal("drop-fails");
        let fb = FaultBackend::recording(RealBackend);
        let db = Database::open_with(Arc::new(fb.clone()), &p).unwrap();
        db.create_table(people_schema()).unwrap();
        // The next backend operation is the write of the DropTable record.
        fb.arm(CrashPlan::kill_at(fb.op_count() + 1));
        assert!(matches!(db.drop_table("people"), Err(StorageError::Io(_))));
        assert!(matches!(fb.ops().last(), Some(Op::Write { .. })));
        assert_eq!(db.table_names(), ["people"]);
        let _ = std::fs::remove_file(&p);
    }

    /// The tree builder refuses a stream out of key order, and a checkpoint
    /// it refuses fails before its commit point: two overlay rows forced
    /// under one primary key (past the write path's duplicate check) make
    /// the pk tree's stream repeat a key, and the checkpoint leaves no
    /// rename, the WAL and the LSN as they were, the previous image in
    /// place, and the writer gate open.
    #[test]
    fn a_checkpoint_fed_a_repeated_key_fails_before_its_commit_point() {
        let p = tmpwal("ckpt-refused");
        let fb = FaultBackend::recording(RealBackend);
        let db = Database::open_with(Arc::new(fb.clone()), &p).unwrap();
        db.create_table(people_schema()).unwrap();
        for i in 0..40 {
            db.insert_autocommit("people", person(&format!("p{i:02}"), i, "x")).unwrap();
        }
        db.checkpoint().unwrap();
        db.insert_autocommit("people", person("twice", 1, "x")).unwrap();
        {
            let mut st = db.tables.lock();
            let t = st.tables.get_mut("people").unwrap();
            let row = person("twice", 2, "y");
            t.apply_insert(RowId(t.next_row), t.pk_hash(&row), row).unwrap();
        }
        let image = checkpoint::image_path(&p);
        let (lsn, log, published) =
            (db.snapshot().lsn(), std::fs::read(&p).unwrap(), std::fs::read(&image).unwrap());
        let ops = fb.op_count() as usize;

        let err = db.checkpoint().unwrap_err();
        assert!(matches!(&err, StorageError::Corrupt(m) if m.contains("sort")), "{err}");
        let after = fb.ops().split_off(ops);
        let moved = after.iter().find(|op| matches!(op, Op::Rename { .. } | Op::Truncate { .. }));
        assert_eq!(moved, None, "the failed checkpoint reached past its build: {after:?}");
        assert_eq!(db.snapshot().lsn(), lsn);
        assert!(std::fs::read(&p).unwrap() == log, "the WAL changed");
        assert!(std::fs::read(&image).unwrap() == published, "the published image changed");
        db.insert_autocommit("people", person("after", 3, "z")).unwrap();
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(&image);
        let _ = std::fs::remove_file(checkpoint::tmp_path(&p));
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
        let (v1, v2) = (s1.table("people").unwrap(), s2.table("people").unwrap());
        assert!(v1.shares_overlay_with(v2), "unchanged tables share their trees");
        assert_eq!((s1.lsn(), s1.scan("people").unwrap()), (s2.lsn(), s2.scan("people").unwrap()));
        db.insert_autocommit("people", person("b", 2, "x")).unwrap();
        let s3 = db.snapshot();
        assert!(!v1.shares_overlay_with(s3.table("people").unwrap()));
        assert_eq!(s3.lsn(), s1.lsn() + 1, "changed contents imply a new LSN");
        assert_eq!(s3.scan("people").unwrap(), [person("a", 1, "x"), person("b", 2, "x")]);
    }

    #[test]
    fn snapshot_of_an_open_transaction_does_not_move_the_write_clock() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        let tx = db.begin();
        for i in 0..2000 {
            db.insert(tx, "people", person(&format!("p{i:04}"), i, "x")).unwrap();
        }
        db.commit(tx).unwrap();
        let committed = db.snapshot();

        let tx = db.begin();
        db.insert(tx, "people", person("pending", 1000, "y")).unwrap();
        db.delete(tx, "people", &["p0007".into()]).unwrap();
        let (clock, s1, s2) = (db.current_lsn(), db.snapshot(), db.snapshot());
        assert_eq!(db.current_lsn(), clock, "a reader ticked the write clock");
        // The rolled-back contents are the last commit's contents, and are
        // pinned to its LSN.
        assert_eq!((s1.lsn(), s2.lsn()), (committed.lsn(), committed.lsn()));
        for s in [&s1, &s2] {
            assert_eq!(s.scan("people").unwrap(), committed.scan("people").unwrap());
            assert!(s
                .select("people", ScanAccess::Pk { key: &["pending".into()] }, &mut |_| true, None)
                .unwrap()
                .0
                .is_empty());
        }
        // Each rollback copied only the paths the transaction touched.
        let (v1, v2) = (s1.table("people").unwrap(), s2.table("people").unwrap());
        let (unshared, total) = v1.unshared_overlay_nodes(v2);
        assert!(total > 50 && unshared <= 16, "{unshared} of {total} nodes not shared");

        db.commit(tx).unwrap();
        let after = db.snapshot();
        assert_eq!(after.lsn(), s1.lsn() + 1, "the commit, not the readers, moved the LSN");
        assert_ne!(after.scan("people").unwrap(), committed.scan("people").unwrap());
        assert_eq!(after.row_count("people").unwrap(), 2000);
    }

    /// The LSN counts committed units: a commit that changed something
    /// moves it by one however many rows it wrote; an abort, a reader, a
    /// checkpoint and a no-op `create_index` leave it; each DDL statement
    /// moves it by one. So equal LSNs name equal committed states.
    #[test]
    fn the_write_clock_counts_committed_units() {
        let p = tmpwal("write-clock");
        let db = Database::open(&p).unwrap();
        assert_eq!(db.current_lsn(), 0, "the opened state is LSN 0");
        db.create_table(people_schema()).unwrap();
        assert_eq!(db.current_lsn(), 1);

        let tx = db.begin();
        for i in 0..100 {
            db.insert(tx, "people", person(&format!("p{i:03}"), i, "x")).unwrap();
        }
        // A snapshot taken mid-transaction pins the last commit's LSN and
        // content; the transaction's own rows move nothing yet.
        let mid = db.snapshot();
        assert_eq!((mid.lsn(), mid.row_count("people").unwrap()), (1, 0));
        assert_eq!(db.current_lsn(), 1);
        db.commit(tx).unwrap();
        assert_eq!(db.current_lsn(), 2, "a 100-row commit adds 1");
        let committed = db.snapshot();

        let tx = db.begin();
        db.insert(tx, "people", person("gone", 1, "y")).unwrap();
        db.delete(tx, "people", &["p000".into()]).unwrap();
        db.abort(tx).unwrap();
        assert_eq!(db.current_lsn(), 2, "an abort adds 0");

        let tx = db.begin();
        db.get(tx, "people", &["p001".into()]).unwrap();
        db.commit(tx).unwrap();
        assert_eq!(db.current_lsn(), 2, "a transaction that only read adds 0");
        let again = db.snapshot();
        assert_eq!(again.lsn(), committed.lsn());
        assert_eq!(again.scan("people").unwrap(), committed.scan("people").unwrap());

        db.create_index("people", "city").unwrap();
        assert_eq!(db.current_lsn(), 3, "create_index adds 1");
        db.create_index("people", "city").unwrap();
        assert_eq!(db.current_lsn(), 3, "a no-op create_index adds 0");
        db.checkpoint().unwrap();
        assert_eq!(db.current_lsn(), 3, "checkpoint adds 0");
        assert_eq!(db.snapshot().scan("people").unwrap(), committed.scan("people").unwrap());
        db.drop_table("people").unwrap();
        assert_eq!(db.current_lsn(), 4, "drop_table adds 1");

        // Recovery rebuilds the state and calls it LSN 0.
        drop(db);
        assert_eq!(Database::open(&p).unwrap().current_lsn(), 0);
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(p.with_extension("ckpt"));
    }

    #[test]
    fn snapshot_excludes_aborted_work_and_matches_transactional_reads() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        for i in 0..8 {
            db.insert_autocommit("people", person(&format!("p{i}"), i, "x")).unwrap();
        }
        let tx = db.begin();
        db.delete(tx, "people", &["p3".into()]).unwrap();
        db.abort(tx).unwrap();

        let snap = db.snapshot();
        // Full-path and index-path reads agree with a transaction's.
        let (lo, hi) = (Value::Int(2), Value::Int(6));
        let tx = db.begin();
        let scanned: Vec<Row> =
            (0..8).map(|i| db.get(tx, "people", &[format!("p{i}").into()]).unwrap()).collect();
        db.commit(tx).unwrap();
        let ranged: Vec<Row> =
            scanned.iter().filter(|row| lo <= row[1] && row[1] <= hi).cloned().collect();
        assert_eq!(scanned.len(), 8, "the aborted delete left no trace");
        assert_eq!(snap.scan("people").unwrap(), scanned);
        let access = ScanAccess::Index { column: "age", lo: Some(&lo), hi: Some(&hi) };
        assert_eq!(snap.select("people", access, &mut |_| true, None).unwrap(), (ranged, 5));

        // An unknown table and an unindexed column are refused by kind.
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
    fn pk_access_follows_the_shadowing_rule_over_a_checkpoint_base() {
        let p = tmpwal("pk-access");
        let db = Database::open(&p).unwrap();
        db.create_table(people_schema()).unwrap();
        for i in 0..40 {
            db.insert_autocommit("people", person(&format!("p{i:02}"), i, "x")).unwrap();
        }
        db.checkpoint().unwrap();
        let tx = db.begin();
        db.update(tx, "people", &["p01".into()], person("p01", 101, "y")).unwrap(); // shadowed
        db.update(tx, "people", &["p02".into()], person("q02", 2, "x")).unwrap(); // re-keyed
        db.delete(tx, "people", &["p03".into()]).unwrap(); // tombstoned
        db.insert(tx, "people", person("p99", 99, "x")).unwrap(); // overlay only
        db.commit(tx).unwrap();

        let snap = db.snapshot();
        for name in ["p00", "p01", "p02", "q02", "p03", "p99", "nobody"] {
            let key = [Value::from(name)];
            let by_key =
                snap.select("people", ScanAccess::Pk { key: &key }, &mut |_| true, None).unwrap();
            let by_scan = snap
                .select("people", ScanAccess::Full, &mut |row| row[0] == key[0], None)
                .unwrap()
                .0;
            assert_eq!(by_key, (by_scan.clone(), by_scan.len()), "key {name}");
        }
        // Filter and projection apply to the row the key finds.
        let key = [Value::from("p01")];
        let access = ScanAccess::Pk { key: &key };
        let ages = snap.select("people", access, &mut |_| true, Some(&[1])).unwrap();
        assert_eq!(ages, (vec![vec![Value::Int(101)]], 1));
        assert_eq!(snap.select("people", access, &mut |_| false, None).unwrap(), (vec![], 1));
        drop(db);
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(p.with_extension("ckpt"));
    }

    /// What a snapshot costs after a commit, at 1 000 and at 100 000
    /// overlay rows: nothing is copied at capture, and what the next
    /// transaction copies depends on what it wrote, not on the table.
    #[test]
    #[ignore = "release-only: cargo test --release -p quarry-storage -- --ignored pmap"]
    fn pmap_snapshot_capture_is_flat_from_1k_to_100k_rows() {
        let copied_by_100_rows = |rows: i64| {
            let db = Database::in_memory();
            db.create_table(people_schema()).unwrap();
            let insert = |range: std::ops::Range<i64>| {
                let tx = db.begin();
                for i in range {
                    // Scrambled keys and ages: writes land all over the
                    // primary-key and index trees.
                    let k = i * 7919 % 1_000_003;
                    db.insert(tx, "people", person(&format!("p{k:07}"), k % 9973, "x")).unwrap();
                }
                db.commit(tx).unwrap();
            };
            insert(0..rows);
            let before = db.snapshot();
            let again = db.snapshot();
            let (v1, v2) = (before.table("people").unwrap(), again.table("people").unwrap());
            assert!(v1.shares_overlay_with(v2), "capture copied something at {rows} rows");
            insert(rows..rows + 100);
            let after = db.snapshot();
            assert_eq!(before.row_count("people").unwrap() as i64, rows);
            assert_eq!(after.scan("people").unwrap().len() as i64, rows + 100);
            // A thousand captures in well under the old cost of one at
            // 100 000 rows (tens of milliseconds).
            let start = std::time::Instant::now();
            for _ in 0..1000 {
                std::hint::black_box(db.snapshot());
            }
            assert!(start.elapsed() < Duration::from_millis(20), "{:?}", start.elapsed());
            after.table("people").unwrap().unshared_overlay_nodes(v1)
        };
        let (small, small_total) = copied_by_100_rows(1_000);
        let (large, large_total) = copied_by_100_rows(100_000);
        assert!(large_total > 50 * small_total, "{small_total} vs {large_total} nodes");
        // At most 100 rows × (row, key, index entry) × one root-to-leaf
        // path each, whatever the table holds: a hundred times the nodes
        // adds a level to a path, not a factor to the copy.
        assert!(small <= small_total && large <= 100 * 3 * 4, "copied {small} then {large}");
        assert!(large * 20 < large_total, "copied {large} of {large_total} nodes");
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
        let rows = snap_rows(&db);
        assert_eq!(rows, vec![vec![Value::Text("a".into()), Value::Int(1)]]);
    }

    #[test]
    fn a_refused_replace_table_leaves_the_table_and_the_lsn_alone() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        db.insert_autocommit("people", person("a", 1, "x")).unwrap();
        assert_eq!(db.snapshot().lsn(), 2);
        let twice = vec![person("b", 2, "y"), person("b", 3, "z")];
        let err = db.replace_table(people_schema(), twice).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKey(_)), "{err}");
        let bad_row = vec![person("c", 4, "w"), vec!["d".into()]];
        let err = db.replace_table(people_schema(), bad_row).unwrap_err();
        assert!(matches!(err, StorageError::SchemaViolation(_)), "{err}");
        assert_eq!(snap_rows(&db), vec![person("a", 1, "x")]);
        assert_eq!(db.snapshot().lsn(), 2);
    }
}
