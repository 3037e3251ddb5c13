//! Replica-side WAL application: the storage half of log shipping.
//!
//! A primary streams its committed WAL frames to replicas (the network
//! legs live in `quarry-serve`); this module owns what a replica *does*
//! with them. The contract mirrors crash recovery exactly — a replica is
//! a database permanently running the redo pass:
//!
//! - **Frames apply at commit boundaries.** DML records buffer per
//!   transaction and apply only when that transaction's `Commit` frame
//!   arrives, through the same redo path recovery uses
//!   (`structured::overlay`).
//!   A primary that dies mid-transaction therefore leaves the replica at
//!   the previous transaction boundary — never a hybrid — which is what
//!   the failover crash sweep asserts bit-for-bit.
//! - **Positions are `(epoch, offset)` pairs.** A WAL byte offset means
//!   nothing across a truncation, so every handshake carries the
//!   primary's checkpoint epoch, and any mismatch forces a **reseed**: a
//!   synthetic committed record stream recreating the primary's current
//!   tables ([`Database::seed_state`]), applied atomically here.
//! - **Reseeds are all-or-nothing.** Seed records buffer in the applier
//!   and install in one step when the seed ends; a promotion that lands
//!   mid-seed sees the pre-reseed state, which is itself a valid
//!   transaction boundary.
//!
//! Everything here is deterministic: no clocks, no randomness — the
//! applied state is a pure function of the frames received.

use crate::Result;
use std::collections::HashMap;
use std::sync::Arc;

use super::engine::Database;
use super::overlay::{committed_clone, Tables, Undo};
use super::recovery::LogRecord;
use super::table::TableSchema;

/// A reseed payload captured on the primary: everything a blank replica
/// needs to reach the primary's committed state and start tailing.
#[derive(Debug, Clone)]
pub struct ReplicationSeed {
    /// The primary's checkpoint epoch at capture time.
    pub epoch: u64,
    /// WAL offset streaming resumes from. Frames at `>= start_offset`
    /// may re-cover the seed's tail; replaying them is convergent.
    pub start_offset: u64,
    /// Synthetic committed record stream recreating every table.
    pub records: Vec<LogRecord>,
}

/// The record stream of a reseed: every table's schema, then one
/// synthetic transaction `tx` inserting every committed row, so replaying
/// it into an empty database recreates `tables`. The open transaction's
/// changes (`uncommitted`) are rolled back out of the capture exactly
/// like a snapshot does.
pub(super) fn seed_records(
    tables: &Tables,
    uncommitted: &[Undo],
    tx: u64,
) -> Result<Vec<LogRecord>> {
    let mut names: Vec<&String> = tables.keys().collect();
    names.sort();
    let mut records = Vec::new();
    for name in &names {
        let schema = TableSchema::clone(&tables[*name].schema);
        records.push(LogRecord::CreateTable { schema });
    }
    records.push(LogRecord::Begin { tx });
    for name in names {
        let t = &tables[name];
        let rolled_back;
        let t = if t.version == t.stable_version {
            t
        } else {
            rolled_back = committed_clone(name, t, uncommitted);
            &rolled_back
        };
        t.for_each_live_row(&mut |id, row| {
            records.push(LogRecord::Insert {
                tx,
                table: name.clone(),
                row_id: id,
                row: row.clone(),
            });
            Ok(())
        })?;
    }
    records.push(LogRecord::Commit { tx });
    Ok(records)
}

/// How far a replica has gotten, as advertised to the primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicaPosition {
    /// The source epoch the offset belongs to.
    pub epoch: u64,
    /// Source-WAL byte offset applied through (the ack LSN).
    pub offset: u64,
}

/// Applies a shipped WAL stream to a local [`Database`].
///
/// Owned by the replication client; all methods are `&mut self`, with the
/// client responsible for locking (promotion must serialize against frame
/// application, so the applier lives behind one mutex — see the
/// `applier` entry in `audit/lock-order.toml`).
pub struct ReplicaApplier {
    db: Arc<Database>,
    /// DML of transactions whose commit frame has not arrived yet.
    pending: HashMap<u64, Vec<LogRecord>>,
    /// Position applied through, in source coordinates.
    position: ReplicaPosition,
    /// Highest transaction id seen in shipped history (promotion floor).
    max_tx: u64,
    /// True once any stream state exists (a fresh applier must always be
    /// seeded or resumed from offset 0 of a matching epoch).
    attached: bool,
    /// Seed records buffered between `begin_reseed` and `finish_reseed`.
    seed: Option<(ReplicaPosition, Vec<LogRecord>)>,
}

impl ReplicaApplier {
    /// An applier over `db`. The database should be otherwise idle: the
    /// applier is its only writer until promotion.
    pub fn new(db: Arc<Database>) -> ReplicaApplier {
        ReplicaApplier {
            db,
            pending: HashMap::new(),
            position: ReplicaPosition::default(),
            max_tx: 0,
            attached: false,
            seed: None,
        }
    }

    /// The database being applied into.
    pub fn database(&self) -> Arc<Database> {
        Arc::clone(&self.db)
    }

    /// Position applied through (the value to ack).
    pub fn position(&self) -> ReplicaPosition {
        self.position
    }

    /// True once the applier has been seeded or resumed at least once.
    pub fn attached(&self) -> bool {
        self.attached
    }

    /// Transactions currently buffered awaiting their commit frame.
    pub fn pending_txs(&self) -> usize {
        self.pending.len()
    }

    /// Adopt a resume position (the primary confirmed our `(epoch,
    /// offset)` is still live).
    pub fn resume(&mut self, epoch: u64, offset: u64) {
        self.position = ReplicaPosition { epoch, offset };
        self.attached = true;
        self.seed = None;
    }

    /// Start buffering a reseed targeted at `(epoch, start_offset)`.
    /// Nothing is applied (and nothing local is discarded) until
    /// [`ReplicaApplier::finish_reseed`] — an interrupted seed leaves the
    /// replica exactly where it was.
    pub fn begin_reseed(&mut self, epoch: u64, start_offset: u64) {
        self.seed = Some((ReplicaPosition { epoch, offset: start_offset }, Vec::new()));
    }

    /// Buffer one seed record (already decoded from its frame payload).
    /// Ignored unless a reseed is open.
    pub fn seed_record(&mut self, payload: &[u8]) -> Result<()> {
        if let Some((_, records)) = self.seed.as_mut() {
            records.push(LogRecord::decode(payload)?);
        }
        Ok(())
    }

    /// Atomically install the buffered seed: clear the local database,
    /// replay the seed records, and adopt the seed's position. No-op if
    /// no reseed is open.
    pub fn finish_reseed(&mut self) -> Result<()> {
        let Some((position, records)) = self.seed.take() else { return Ok(()) };
        self.db.replicate_reset()?;
        self.pending.clear();
        for rec in &records {
            if let Some(tx) = rec.tx() {
                self.max_tx = self.max_tx.max(tx);
            }
            self.db.replicate_append(&rec.encode()?)?;
            self.route(rec)?;
        }
        self.position = position;
        self.attached = true;
        Ok(())
    }

    /// Apply one shipped WAL frame payload. Advances the applied
    /// position by the frame's on-log footprint (`8 + payload.len()`),
    /// mirroring the source log's layout byte for byte.
    pub fn apply_frame(&mut self, payload: &[u8]) -> Result<()> {
        let rec = LogRecord::decode(payload)?;
        if let Some(tx) = rec.tx() {
            self.max_tx = self.max_tx.max(tx);
        }
        self.db.replicate_append(payload)?;
        self.route(&rec)?;
        self.position.offset += 8 + payload.len() as u64;
        Ok(())
    }

    /// Route one decoded record: buffer DML per transaction, apply on
    /// commit, drop on abort, apply DDL immediately (auto-committed at
    /// the source).
    fn route(&mut self, rec: &LogRecord) -> Result<()> {
        match rec {
            LogRecord::Begin { tx } => {
                self.pending.insert(*tx, Vec::new());
            }
            LogRecord::Insert { tx, .. }
            | LogRecord::Update { tx, .. }
            | LogRecord::Delete { tx, .. } => {
                self.pending.entry(*tx).or_default().push(rec.clone());
            }
            LogRecord::Commit { tx } => {
                let records = self.pending.remove(tx).unwrap_or_default();
                self.db.replicate_apply(&records)?;
            }
            LogRecord::Abort { tx } => {
                self.pending.remove(tx);
            }
            LogRecord::CreateTable { .. }
            | LogRecord::DropTable { .. }
            | LogRecord::CreateIndex { .. } => {
                self.db.replicate_apply(std::slice::from_ref(rec))?;
            }
        }
        Ok(())
    }

    /// Promote: the replica becomes a primary. Buffered DML of
    /// unfinished transactions is discarded (their commits never
    /// arrived — exactly what redo recovery does), an open reseed is
    /// abandoned, the transaction-id floor moves past shipped history,
    /// and the local log is forced to stable storage.
    pub fn promote(&mut self) -> Result<()> {
        self.seed = None;
        self.pending.clear();
        self.db.adopt_tx_floor(self.max_tx);
        self.db.sync_wal()
    }
}

impl std::fmt::Debug for ReplicaApplier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaApplier")
            .field("position", &self.position)
            .field("pending_txs", &self.pending.len())
            .field("attached", &self.attached)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structured::table::{Column, TableSchema};
    use crate::value::{DataType, Value};
    use crate::wal::{TailPoll, WalTail};
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("quarry-repl-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn schema(name: &str) -> TableSchema {
        TableSchema::new(
            name,
            vec![Column::new("id", DataType::Int), Column::new("val", DataType::Text)],
            &["id"],
            &[],
        )
        .unwrap()
    }

    /// Canonical comparable rendering of a database (schemas + rows in
    /// row-id order), the same shape the integration harness dumps.
    fn dump(db: &Database) -> String {
        let mut out = String::new();
        for name in db.table_names() {
            out.push_str(&format!("{:?}\n", db.schema(&name).unwrap()));
            for row in db.scan_autocommit(&name).unwrap() {
                out.push_str(&format!("{row:?}\n"));
            }
        }
        out
    }

    fn insert(db: &Database, table: &str, id: i64, val: &str) {
        db.insert_autocommit(table, vec![Value::Int(id), Value::Text(val.into())]).unwrap();
    }

    #[test]
    fn seed_recreates_the_primary_bit_for_bit() {
        let dir = tmpdir("seed");
        let primary = Database::open(dir.join("primary.wal")).unwrap();
        primary.create_table(schema("t")).unwrap();
        primary.create_index("t", "val").unwrap();
        for i in 0..20 {
            insert(&primary, "t", i, &format!("v{i}"));
        }
        let tx = primary.begin();
        primary.delete(tx, "t", &[Value::Int(7)]).unwrap();
        primary.commit(tx).unwrap();

        let seed = primary.seed_state().unwrap();
        let replica = Arc::new(Database::open(dir.join("replica.wal")).unwrap());
        let mut applier = ReplicaApplier::new(Arc::clone(&replica));
        applier.begin_reseed(seed.epoch, seed.start_offset);
        for rec in &seed.records {
            applier.seed_record(&rec.encode().unwrap()).unwrap();
        }
        applier.finish_reseed().unwrap();
        assert_eq!(dump(&primary), dump(&replica));
        // The index arrived through the schema and is live on the replica.
        assert_eq!(replica.indexed_columns("t").unwrap(), vec!["val".to_string()]);
        assert!(applier.attached());

        // Replica's own WAL is a real recovery source: reopen and compare.
        drop(applier);
        drop(replica);
        let reopened = Database::open(dir.join("replica.wal")).unwrap();
        assert_eq!(dump(&primary), dump(&reopened));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seed_excludes_uncommitted_in_flight_changes() {
        let dir = tmpdir("seed-dirty");
        let primary = Database::open(dir.join("primary.wal")).unwrap();
        primary.create_table(schema("t")).unwrap();
        insert(&primary, "t", 1, "committed");
        let open_tx = primary.begin();
        primary.insert(open_tx, "t", vec![Value::Int(2), Value::Text("dirty".into())]).unwrap();

        let seed = primary.seed_state().unwrap();
        let replica = Arc::new(Database::in_memory());
        let mut applier = ReplicaApplier::new(Arc::clone(&replica));
        applier.begin_reseed(seed.epoch, seed.start_offset);
        for rec in &seed.records {
            applier.seed_record(&rec.encode().unwrap()).unwrap();
        }
        applier.finish_reseed().unwrap();
        assert_eq!(replica.row_count("t").unwrap(), 1, "uncommitted row must not ship");
        primary.abort(open_tx).unwrap();
        assert_eq!(dump(&primary), dump(&replica));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tailed_frames_apply_at_commit_boundaries() {
        let dir = tmpdir("tail-apply");
        let primary = Database::open(dir.join("primary.wal")).unwrap();
        let mut tail = WalTail::new(primary.storage_backend(), primary.wal_path().unwrap(), 0);
        let replica = Arc::new(Database::in_memory());
        let mut applier = ReplicaApplier::new(Arc::clone(&replica));
        applier.resume(primary.checkpoint_epoch(), 0);

        let mut pump = |applier: &mut ReplicaApplier| loop {
            match tail.poll().unwrap() {
                TailPoll::Records(recs) => {
                    for r in &recs {
                        applier.apply_frame(&r.payload).unwrap();
                    }
                }
                TailPoll::Idle => break,
                TailPoll::Truncated => panic!("no truncation expected"),
            }
        };

        primary.create_table(schema("t")).unwrap();
        insert(&primary, "t", 1, "a");
        insert(&primary, "t", 2, "b");
        pump(&mut applier);
        // Dumping scans both databases; readers leave nothing in the log
        // for the replica to see.
        assert_eq!(dump(&primary), dump(&replica));
        pump(&mut applier);
        assert_eq!(applier.pending_txs(), 0);
        assert_eq!(applier.position().offset, primary.wal_len());

        // An uncommitted transaction ships but must not apply.
        let open_tx = primary.begin();
        primary.insert(open_tx, "t", vec![Value::Int(3), Value::Text("c".into())]).unwrap();
        primary.sync_wal().unwrap();
        pump(&mut applier);
        assert_eq!(replica.row_count("t").unwrap(), 2);
        assert_eq!(applier.pending_txs(), 1);

        primary.commit(open_tx).unwrap();
        pump(&mut applier);
        assert_eq!(replica.row_count("t").unwrap(), 3);
        assert_eq!(dump(&primary), dump(&replica));

        // Promotion discards nothing here (no pending) and floors tx ids.
        applier.promote().unwrap();
        let tx = replica.begin();
        replica.insert(tx, "t", vec![Value::Int(9), Value::Text("post".into())]).unwrap();
        replica.commit(tx).unwrap();
        assert_eq!(replica.row_count("t").unwrap(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_reseed_leaves_prior_state_intact() {
        let dir = tmpdir("reseed-interrupt");
        let primary = Database::open(dir.join("primary.wal")).unwrap();
        primary.create_table(schema("t")).unwrap();
        insert(&primary, "t", 1, "old");

        let replica = Arc::new(Database::in_memory());
        let mut applier = ReplicaApplier::new(Arc::clone(&replica));
        // First seed completes.
        let seed = primary.seed_state().unwrap();
        applier.begin_reseed(seed.epoch, seed.start_offset);
        for rec in &seed.records {
            applier.seed_record(&rec.encode().unwrap()).unwrap();
        }
        applier.finish_reseed().unwrap();
        let before = dump(&replica);

        // Second seed starts but is interrupted mid-stream by promotion.
        insert(&primary, "t", 2, "new");
        let seed2 = primary.seed_state().unwrap();
        applier.begin_reseed(seed2.epoch, seed2.start_offset);
        applier.seed_record(&seed2.records[0].encode().unwrap()).unwrap();
        applier.promote().unwrap();
        assert_eq!(dump(&replica), before, "partial seed must not leak");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncation_is_visible_to_the_tail() {
        let dir = tmpdir("ckpt-trunc");
        let primary = Database::open(dir.join("primary.wal")).unwrap();
        let epoch0 = primary.checkpoint_epoch();
        let mut tail = WalTail::new(primary.storage_backend(), primary.wal_path().unwrap(), 0);
        primary.create_table(schema("t")).unwrap();
        insert(&primary, "t", 1, "a");
        assert!(matches!(tail.poll().unwrap(), TailPoll::Records(_)));
        primary.checkpoint().unwrap();
        assert_eq!(primary.checkpoint_epoch(), epoch0 + 1);
        assert_eq!(tail.poll().unwrap(), TailPoll::Truncated);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
