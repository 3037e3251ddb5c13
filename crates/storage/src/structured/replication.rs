//! Replica-side WAL application: the storage half of log shipping.
//!
//! A primary streams its committed WAL frames to replicas (the network
//! legs live in `quarry-serve`); this module owns what a replica *does*
//! with them. The contract mirrors crash recovery exactly — a replica is
//! a database permanently running the redo pass:
//!
//! - **Frames apply at commit boundaries.** Every shipped record goes
//!   through the reader recovery uses ([`UnitReader`]): the changes of a
//!   transaction are held until its `Commit` frame arrives and then
//!   applied through the same redo path (`structured::overlay`), a DDL
//!   record is applied at once, and a stream no gated primary can have
//!   written is refused.
//!   A primary that dies mid-transaction therefore leaves the replica at
//!   the previous transaction boundary — never a hybrid — which is what
//!   the failover crash sweep asserts bit-for-bit.
//! - **Positions are `(epoch, offset)` pairs.** A WAL byte offset means
//!   nothing across a truncation, so every handshake carries the
//!   primary's checkpoint epoch, and any mismatch forces a **reseed**: a
//!   synthetic committed record stream recreating the primary's current
//!   tables ([`Database::seed_state`], cut at a unit boundary like
//!   everything that waits at the writer gate), applied atomically here.
//! - **Reseeds are all-or-nothing.** Seed records buffer in the applier
//!   and install in one step when the seed ends; a promotion that lands
//!   mid-seed sees the pre-reseed state, which is itself a valid
//!   transaction boundary.
//!
//! Everything here is deterministic: no clocks, no randomness — the
//! applied state is a pure function of the frames received.

use crate::wal::FRAME_HEADER;
use crate::Result;
use std::sync::Arc;

use super::engine::Database;
use super::overlay::Tables;
use super::recovery::{LogRecord, UnitReader};
use super::table::TableSchema;

/// A reseed payload captured on the primary: everything a blank replica
/// needs to reach the primary's committed state and start tailing.
#[derive(Debug, Clone)]
pub struct ReplicationSeed {
    /// The primary's checkpoint epoch at capture time.
    pub epoch: u64,
    /// WAL offset streaming resumes from: a unit boundary, with every
    /// unit below it in the seed.
    pub start_offset: u64,
    /// Synthetic committed record stream recreating every table.
    pub records: Vec<LogRecord>,
}

/// The record stream of a reseed: every table's schema, then one
/// synthetic transaction `tx` inserting every row, so replaying it into
/// an empty database recreates `tables` — which hold committed rows only:
/// the capture waits at the writer gate.
pub(super) fn seed_records(tables: &Tables, tx: u64) -> Result<Vec<LogRecord>> {
    let mut names: Vec<&String> = tables.keys().collect();
    names.sort();
    let mut records = Vec::new();
    for name in &names {
        let schema = TableSchema::clone(&tables[*name].schema);
        records.push(LogRecord::CreateTable { schema });
    }
    records.push(LogRecord::Begin { tx });
    for name in names {
        tables[name].for_each_live_row(&mut |id, row| {
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
    /// Decides what is committed; holds the changes of the one
    /// transaction whose commit frame has not arrived yet.
    units: UnitReader,
    /// Position applied through, in source coordinates.
    position: ReplicaPosition,
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
            units: UnitReader::default(),
            position: ReplicaPosition::default(),
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

    /// True while a shipped transaction awaits its commit frame.
    pub fn mid_transaction(&self) -> bool {
        self.units.is_open()
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
        self.units.discard();
        for rec in records {
            let payload = rec.encode()?;
            self.apply(rec, &payload)?;
        }
        self.position = position;
        self.attached = true;
        Ok(())
    }

    /// Apply one shipped WAL frame payload. Advances the applied
    /// position by the frame's on-log footprint (`8 + payload.len()`),
    /// mirroring the source log's layout byte for byte.
    pub fn apply_frame(&mut self, payload: &[u8]) -> Result<()> {
        self.apply(LogRecord::decode(payload)?, payload)?;
        self.position.offset += (FRAME_HEADER + payload.len()) as u64;
        Ok(())
    }

    /// Take one record, whose encoding is `payload`: let the reader place
    /// it (or refuse it — before it reaches the local log, which stays a
    /// log recovery accepts), append it to the local log, and apply the
    /// unit it completes, if it completes one.
    fn apply(&mut self, rec: LogRecord, payload: &[u8]) -> Result<()> {
        let unit = self.units.push(rec)?;
        self.db.replicate_append(payload)?;
        unit.map_or(Ok(()), |unit| self.db.replicate_apply(unit))
    }

    /// Promote: the replica becomes a primary. The changes of an
    /// unfinished transaction are discarded (its commit never
    /// arrived — exactly what redo recovery does), an open reseed is
    /// abandoned, the transaction-id floor moves past shipped history,
    /// and the local log is forced to stable storage.
    pub fn promote(&mut self) -> Result<()> {
        self.seed = None;
        self.units.discard();
        self.db.adopt_tx_floor(self.units.max_tx());
        self.db.sync_wal()
    }
}

impl std::fmt::Debug for ReplicaApplier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaApplier")
            .field("position", &self.position)
            .field("mid_transaction", &self.units.is_open())
            .field("attached", &self.attached)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;
    use crate::structured::table::{Column, RowId, TableSchema};
    use crate::structured::view::ScanAccess;
    use crate::value::{DataType, Value};
    use crate::wal::tests::payloads;
    use crate::wal::{TailPoll, Wal, WalTail};
    use std::path::{Path, PathBuf};
    use std::sync::mpsc;
    use std::time::Duration;

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
            for row in db.snapshot().scan(&name).unwrap() {
                out.push_str(&format!("{row:?}\n"));
            }
        }
        out
    }

    fn row(id: i64, val: &str) -> Vec<Value> {
        vec![Value::Int(id), Value::Text(val.into())]
    }

    fn insert(db: &Database, table: &str, id: i64, val: &str) {
        db.insert_autocommit(table, row(id, val)).unwrap();
    }

    /// A tail over `primary`'s log from `start`.
    fn tail_of(primary: &Database, start: u64) -> WalTail {
        WalTail::new(primary.storage_backend(), primary.wal_path().unwrap(), start, 1 << 20)
    }

    /// Apply everything `tail` has to offer.
    fn pump(tail: &mut WalTail, applier: &mut ReplicaApplier) {
        loop {
            match tail.poll().unwrap() {
                TailPoll::Frames(run) => {
                    for payload in payloads(run) {
                        applier.apply_frame(payload).unwrap();
                    }
                }
                TailPoll::Idle => break,
                TailPoll::Truncated => panic!("no truncation expected"),
            }
        }
    }

    /// Install `primary`'s current seed; the offset to tail from.
    fn reseed(applier: &mut ReplicaApplier, primary: &Database) -> u64 {
        let seed = primary.seed_state().unwrap();
        applier.begin_reseed(seed.epoch, seed.start_offset);
        for rec in &seed.records {
            applier.seed_record(&rec.encode().unwrap()).unwrap();
        }
        applier.finish_reseed().unwrap();
        seed.start_offset
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

        let replica = Arc::new(Database::open(dir.join("replica.wal")).unwrap());
        let mut applier = ReplicaApplier::new(Arc::clone(&replica));
        reseed(&mut applier, &primary);
        assert_eq!(dump(&primary), dump(&replica));
        // The index arrived through the schema and is live on the replica.
        assert_eq!(replica.snapshot().indexed_columns("t").unwrap(), vec!["val".to_string()]);
        assert!(applier.attached());

        // Replica's own WAL is a real recovery source: reopen and compare.
        drop(applier);
        drop(replica);
        let reopened = Database::open(dir.join("replica.wal")).unwrap();
        assert_eq!(dump(&primary), dump(&reopened));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A seed is cut at a unit boundary: capturing one waits at the
    /// writer gate for the open transaction, so the seed holds all of it
    /// and the stream from `start_offset` on starts with a whole unit.
    /// (Cut mid-transaction it would leave the transaction's changes so
    /// far out, and the stream would deliver the rest without its head.)
    #[test]
    fn a_seed_waits_for_the_open_transaction_and_resumes_at_a_unit_boundary() {
        let dir = tmpdir("seed-mid-tx");
        let primary = Database::open(dir.join("primary.wal")).unwrap();
        primary.create_table(schema("t")).unwrap();
        insert(&primary, "t", 1, "committed");
        let open_tx = primary.begin();
        primary.insert(open_tx, "t", row(2, "before the seed is asked for")).unwrap();

        let replica = Arc::new(Database::in_memory());
        let mut applier = ReplicaApplier::new(Arc::clone(&replica));
        let (seeded_tx, seeded) = mpsc::channel();
        let start = std::thread::scope(|s| {
            let seeding = s.spawn(|| {
                let start = reseed(&mut applier, &primary);
                seeded_tx.send(()).unwrap();
                start
            });
            assert!(seeded.recv_timeout(Duration::from_millis(100)).is_err(), "seed did not wait");
            primary.insert(open_tx, "t", row(3, "after")).unwrap();
            primary.commit(open_tx).unwrap();
            seeding.join().unwrap()
        });
        assert_eq!(start, primary.wal_len());
        assert_eq!(replica.row_count("t").unwrap(), 3);

        insert(&primary, "t", 4, "streamed");
        pump(&mut tail_of(&primary, start), &mut applier);
        assert_eq!(dump(&primary), dump(&replica));
        assert_eq!(applier.position().offset, primary.wal_len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tailed_frames_apply_at_commit_boundaries() {
        let dir = tmpdir("tail-apply");
        let primary = Database::open(dir.join("primary.wal")).unwrap();
        let mut tail = tail_of(&primary, 0);
        let replica = Arc::new(Database::in_memory());
        let mut applier = ReplicaApplier::new(Arc::clone(&replica));
        applier.resume(primary.checkpoint_epoch(), 0);
        let mut pump = |applier: &mut ReplicaApplier| pump(&mut tail, applier);

        primary.create_table(schema("t")).unwrap();
        insert(&primary, "t", 1, "a");
        insert(&primary, "t", 2, "b");
        pump(&mut applier);
        // Dumping scans both databases; readers leave nothing in the log
        // for the replica to see.
        assert_eq!(dump(&primary), dump(&replica));
        pump(&mut applier);
        assert!(!applier.mid_transaction());
        assert_eq!(applier.position().offset, primary.wal_len());

        // An uncommitted transaction ships but must not apply.
        let open_tx = primary.begin();
        primary.insert(open_tx, "t", vec![Value::Int(3), Value::Text("c".into())]).unwrap();
        primary.sync_wal().unwrap();
        pump(&mut applier);
        assert_eq!(replica.row_count("t").unwrap(), 2);
        assert!(applier.mid_transaction());

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
        reseed(&mut applier, &primary);
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
        let mut tail = tail_of(&primary, 0);
        primary.create_table(schema("t")).unwrap();
        insert(&primary, "t", 1, "a");
        assert!(matches!(tail.poll().unwrap(), TailPoll::Frames(_)));
        primary.checkpoint().unwrap();
        assert_eq!(primary.checkpoint_epoch(), epoch0 + 1);
        assert_eq!(tail.poll().unwrap(), TailPoll::Truncated);
        let _ = std::fs::remove_dir_all(&dir);
    }
    /// DDL waits at the writer gate like any writer, so it cannot land
    /// inside a transaction's unit — where recovery (log order) and a
    /// replica (commit order) used to disagree about what it did. Here a
    /// second thread replaces table `t` while a transaction that wrote to
    /// it is open: the drop waits for the commit, and the primary, its
    /// reopened log and a replica tailing that log end up the same.
    #[test]
    fn ddl_racing_a_transaction_waits_for_it_and_every_copy_agrees() {
        let dir = tmpdir("ddl-race");
        let primary = Database::open(dir.join("primary.wal")).unwrap();
        primary.create_table(schema("t")).unwrap();

        let tx = primary.begin();
        primary.insert(tx, "t", row(1, "a")).unwrap();
        let (dropped_tx, dropped) = mpsc::channel();
        std::thread::scope(|s| {
            // What `replace_table` issues.
            s.spawn(|| {
                primary.drop_table("t").unwrap();
                dropped_tx.send(()).unwrap();
                primary.create_table(schema("t")).unwrap();
            });
            // A negative check can only time out: while `tx` is open the
            // other thread's `drop_table` must not return.
            assert!(dropped.recv_timeout(Duration::from_millis(100)).is_err());
            primary.commit(tx).unwrap();
        });

        let replica = Arc::new(Database::in_memory());
        let mut applier = ReplicaApplier::new(Arc::clone(&replica));
        applier.resume(primary.checkpoint_epoch(), 0);
        pump(&mut tail_of(&primary, 0), &mut applier);
        let live = dump(&primary);
        assert_eq!(primary.row_count("t").unwrap(), 0, "the insert came first, then the drop");
        assert_eq!(dump(&replica), live, "replica against the live primary");
        drop(primary);
        let reopened = Database::open(dir.join("primary.wal")).unwrap();
        assert_eq!(dump(&reopened), live, "recovered primary against the live one");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_index_and_checkpoint_wait_for_the_open_transaction_then_succeed() {
        let dir = tmpdir("gate-ddl");
        let db = Database::open(dir.join("db.wal")).unwrap();
        db.create_table(schema("t")).unwrap();

        let first = db.begin();
        db.insert(first, "t", row(1, "a")).unwrap();
        let (done_tx, done) = mpsc::channel();
        let (go_tx, go) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let db = &db;
            s.spawn(move || {
                db.create_index("t", "val").unwrap();
                done_tx.send("index").unwrap();
                go.recv().unwrap();
                db.checkpoint().unwrap();
                done_tx.send("checkpoint").unwrap();
            });
            assert!(done.recv_timeout(Duration::from_millis(100)).is_err(), "index did not wait");
            db.commit(first).unwrap();
            assert_eq!(done.recv().unwrap(), "index");

            let second = db.begin();
            db.insert(second, "t", row(2, "b")).unwrap();
            go_tx.send(()).unwrap();
            assert!(
                done.recv_timeout(Duration::from_millis(100)).is_err(),
                "checkpoint did not wait"
            );
            assert_eq!(db.checkpoint_epoch(), 0);
            db.commit(second).unwrap();
            assert_eq!(done.recv().unwrap(), "checkpoint");
        });
        // Both saw the transaction they waited for, whole.
        assert_eq!(db.checkpoint_epoch(), 1);
        assert_eq!((db.wal_len(), db.overlay_row_count("t").unwrap()), (0, 0));
        let snap = db.snapshot();
        let a = Value::Text("a".into());
        let access = ScanAccess::Index { column: "val", lo: Some(&a), hi: Some(&a) };
        assert_eq!(snap.select("t", access, &mut |_| true, None).unwrap().0.len(), 1);
        assert_eq!(snap.scan("t").unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One reader decides what is committed, so recovery and a replica
    /// take the same record sequences and refuse the same ones. Every
    /// sequence is given to both: as a hand-written WAL to
    /// `Database::open`, and frame by frame to a `ReplicaApplier`.
    #[test]
    fn recovery_and_replica_accept_and_refuse_the_same_logs() {
        let begin = |tx| LogRecord::Begin { tx };
        let commit = |tx| LogRecord::Commit { tx };
        let abort = |tx| LogRecord::Abort { tx };
        let ins = |tx, id: i64| LogRecord::Insert {
            tx,
            table: "t".into(),
            row_id: RowId(id as u64),
            row: row(id, "v"),
        };
        let index = || LogRecord::CreateIndex { table: "t".into(), column: "val".into() };
        // Every log starts with the table and one whole transaction.
        let whole =
            || vec![LogRecord::CreateTable { schema: schema("t") }, begin(9), ins(9, 9), commit(9)];
        struct Case {
            name: &'static str,
            tail: Vec<LogRecord>,
            /// The ids in `t` afterwards, or the transaction the refusal names.
            expect: std::result::Result<&'static [i64], u64>,
        }
        let cases = [
            Case {
                name: "crash mid-transaction, then Begin",
                tail: vec![begin(1), ins(1, 1), begin(2), ins(2, 2), commit(2)],
                expect: Ok(&[2, 9]),
            },
            Case {
                name: "crash mid-transaction, then DDL",
                tail: vec![begin(1), ins(1, 1), index(), begin(2), ins(2, 2), commit(2)],
                expect: Ok(&[2, 9]),
            },
            Case {
                name: "abort",
                tail: vec![begin(1), ins(1, 1), abort(1), begin(2), ins(2, 2), commit(2)],
                expect: Ok(&[2, 9]),
            },
            Case {
                name: "a transaction that logged nothing at all (2) between two that did",
                tail: vec![begin(1), ins(1, 1), commit(1), begin(3), ins(3, 3), commit(3)],
                expect: Ok(&[1, 3, 9]),
            },
            Case {
                name: "Begin logged with the first change, not when the id was taken",
                tail: vec![
                    begin(4),
                    ins(4, 4),
                    ins(4, 5),
                    commit(4),
                    begin(2),
                    ins(2, 2),
                    commit(2),
                ],
                expect: Ok(&[2, 4, 5, 9]),
            },
            Case {
                name: "crash mid-transaction at the end of the log",
                tail: vec![begin(1), ins(1, 1)],
                expect: Ok(&[9]),
            },
            Case {
                name: "two interleaved transactions",
                tail: vec![
                    begin(1),
                    ins(1, 1),
                    begin(2),
                    ins(2, 2),
                    ins(1, 3),
                    commit(1),
                    commit(2),
                ],
                expect: Err(1),
            },
            Case {
                name: "a change after its unit was discarded",
                tail: vec![begin(1), ins(1, 1), index(), ins(1, 2), commit(1)],
                expect: Err(1),
            },
            Case {
                name: "commit of a discarded unit",
                tail: vec![begin(1), ins(1, 1), begin(2), commit(1)],
                expect: Err(1),
            },
            Case {
                name: "a change with no unit open at all",
                tail: vec![ins(1, 1), commit(1)],
                expect: Err(1),
            },
        ];
        let ids = |db: &Database| -> Vec<i64> {
            let mut ids: Vec<i64> = db
                .snapshot()
                .scan("t")
                .unwrap()
                .iter()
                .map(|r| if let Value::Int(id) = r[0] { id } else { panic!("{r:?}") })
                .collect();
            ids.sort_unstable();
            ids
        };
        let names = |e: &StorageError, tx: u64| matches!(e, StorageError::Corrupt(m) if m.contains(&format!("transaction {tx}")));
        for Case { name, tail, expect } in cases {
            let dir = tmpdir("one-reader");
            let records: Vec<LogRecord> = whole().into_iter().chain(tail).collect();

            // Consumer 1: open-time recovery over a hand-written WAL.
            let written = dir.join("written.wal");
            let mut wal = Wal::open(&written).unwrap();
            for rec in &records {
                wal.append(&rec.encode().unwrap()).unwrap();
            }
            wal.sync().unwrap();
            drop(wal);
            let on_disk =
                |p: &Path| (std::fs::read(p).ok(), std::fs::read(p.with_extension("ckpt")).ok());
            let before = on_disk(&written);
            let opened = Database::open(&written);

            // Consumer 2: a replica, with a log of its own.
            let replica = Arc::new(Database::open(dir.join("replica.wal")).unwrap());
            let mut applier = ReplicaApplier::new(Arc::clone(&replica));
            applier.resume(0, 0);
            let applied =
                records.iter().try_for_each(|rec| applier.apply_frame(&rec.encode().unwrap()));
            applier.promote().unwrap();

            match expect {
                Ok(want) => {
                    let opened = opened.unwrap_or_else(|e| panic!("{name}: open refused: {e}"));
                    applied.unwrap_or_else(|e| panic!("{name}: replica refused: {e}"));
                    assert_eq!(ids(&opened), want, "{name}: recovery");
                    assert_eq!(dump(&replica), dump(&opened), "{name}: replica against recovery");
                }
                Err(tx) => {
                    let e = opened.map(drop).expect_err(name);
                    assert!(names(&e, tx), "{name}: open said: {e}");
                    // Refusal is clean: nothing was repaired, truncated or replaced.
                    assert_eq!(on_disk(&written), before, "{name}");
                    let e = applied.expect_err(name);
                    assert!(names(&e, tx), "{name}: replica said: {e}");
                    // The replica stays at the last whole unit.
                    assert_eq!(ids(&replica), [9], "{name}: replica state");
                }
            }
            // Either way the replica's own log is one recovery accepts,
            // and holds what the replica holds.
            let left = dump(&replica);
            drop(applier);
            drop(replica);
            assert_eq!(dump(&Database::open(dir.join("replica.wal")).unwrap()), left, "{name}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
