//! Snapshot-isolation properties of the façade's MVCC read sessions.
//!
//! The contract under test: a [`Snapshot`](quarry::core::Snapshot)
//! captured at write-clock LSN `L` observes *every* write committed by
//! `L` and *no* write committed after it — forever, no matter what the
//! single writer does next (more commits, a checkpoint, even a full
//! restart of the system from its WAL).

use proptest::prelude::*;
use quarry::core::{Quarry, QuarryConfig};
use quarry::query::engine::{execute_snapshot, Predicate, Query};
use quarry::storage::{
    BackendFile, Column, DataType, Database, DbSnapshot, RealBackend, ScanAccess, StorageBackend,
    TableSchema, Value,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

mod common;
use common::{dump, remove_db_files, tmpwal};

/// Canonical dump of a pinned view, format-compatible with
/// [`common::dump`] so a snapshot can be compared bit-for-bit against a
/// live database's logical state.
fn snap_dump(snap: &DbSnapshot) -> String {
    let mut out = String::new();
    for name in snap.table_names() {
        out.push_str(&format!("== {name} ==\n"));
        out.push_str(&format!("schema: {:?}\n", snap.schema(&name).unwrap()));
        out.push_str(&format!("indexes: {:?}\n", snap.indexed_columns(&name).unwrap()));
        for row in snap.scan(&name).unwrap() {
            out.push_str(&format!("row: {row:?}\n"));
        }
    }
    out
}

fn items_quarry() -> Quarry {
    let q = Quarry::new(QuarryConfig::default()).unwrap();
    q.db.create_table(
        TableSchema::new(
            "items",
            vec![Column::new("id", DataType::Int), Column::new("val", DataType::Int)],
            &["id"],
            &[],
        )
        .unwrap(),
    )
    .unwrap();
    q
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Prefix property: replay a random write history — each step an
    /// insert, update, delete, or snapshot capture, encoded as
    /// `(kind, key, value)` — observing snapshots at random points.
    /// Every snapshot's dump must equal the live dump taken at its
    /// capture instant — i.e. exactly the writes committed by its LSN,
    /// none after — and must still equal it after the whole history has
    /// run.
    #[test]
    fn snapshots_observe_exactly_their_lsn_prefix(
        ops in proptest::collection::vec((0usize..4, 0i64..24, 0i64..1000), 1..40)
    ) {
        let q = items_quarry();
        let mut observed: Vec<(u64, String)> = Vec::new();
        let mut snaps = Vec::new();
        for &(kind, k, v) in &ops {
            match kind {
                0 => {
                    let _ = q.db.insert_autocommit("items", vec![Value::Int(k), Value::Int(0)]);
                }
                1 => {
                    let tx = q.db.begin();
                    let done = q.db.update(tx, "items", &[Value::Int(k)],
                        vec![Value::Int(k), Value::Int(v)]).is_ok();
                    if done { q.db.commit(tx).unwrap() } else { q.db.abort(tx).unwrap() }
                }
                2 => {
                    let tx = q.db.begin();
                    let done = q.db.delete(tx, "items", &[Value::Int(k)]).is_ok();
                    if done { q.db.commit(tx).unwrap() } else { q.db.abort(tx).unwrap() }
                }
                _ => {
                    let snap = q.snapshot();
                    prop_assert_eq!(&snap_dump(snap.db()), &dump(&q.db),
                        "a fresh snapshot must equal the live state");
                    observed.push((snap.lsn(), snap_dump(snap.db())));
                    snaps.push(snap);
                }
            }
        }
        // After the full history: every held snapshot still dumps its
        // own prefix, and LSN order matches capture order.
        for (snap, (lsn, at_capture)) in snaps.iter().zip(&observed) {
            prop_assert_eq!(snap.lsn(), *lsn);
            prop_assert_eq!(&snap_dump(snap.db()), at_capture,
                "snapshot at LSN {} observed a later write", lsn);
        }
        for pair in observed.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "write clock regressed");
        }
    }
}

/// A held snapshot survives a checkpoint *and* a WAL restart of the rest
/// of the system: its dump stays bit-identical to its capture instant
/// while the recovered database equals the writer's final state.
#[test]
fn held_snapshot_survives_checkpoint_and_wal_restart() {
    let wal = tmpwal("snapshot-isolation");
    let q = Quarry::new(QuarryConfig::builder().wal_path(&wal).build()).unwrap();
    q.db.create_table(
        TableSchema::new(
            "items",
            vec![Column::new("id", DataType::Int), Column::new("val", DataType::Int)],
            &["id"],
            &[],
        )
        .unwrap(),
    )
    .unwrap();
    for i in 0..10 {
        q.db.insert_autocommit("items", vec![Value::Int(i), Value::Int(i * 10)]).unwrap();
    }

    let snap = q.snapshot();
    let pinned = snap_dump(snap.db());
    assert_eq!(pinned, dump(&q.db), "snapshot starts equal to the live state");

    // The writer moves on: more rows, then an atomic WAL checkpoint.
    for i in 10..20 {
        q.db.insert_autocommit("items", vec![Value::Int(i), Value::Int(i * 10)]).unwrap();
    }
    q.checkpoint().unwrap();
    assert_eq!(snap_dump(snap.db()), pinned, "checkpoint must not move a held snapshot");
    let final_state = dump(&q.db);
    assert_ne!(final_state, pinned, "the writer really did commit past the snapshot");

    // Restart from the WAL (checkpoint image + suffix). The recovered
    // database equals the writer's final state; the snapshot — still
    // held across the restart — dumps bit-identically to capture time.
    drop(q);
    let recovered = Quarry::new(QuarryConfig::builder().wal_path(&wal).build()).unwrap();
    assert_eq!(dump(&recovered.db), final_state, "restart must recover the final state");
    assert_eq!(snap_dump(snap.db()), pinned, "restart must not move a held snapshot");
    drop(recovered);
    remove_db_files(&wal);
}

/// One snapshot held across 50 commits, an abort, a `create_index` and a
/// `checkpoint()` keeps giving its original answer on every access path —
/// the writer moves off the tree nodes the snapshot holds, never through
/// them — and holding it leaves no trace: once it is dropped the table
/// matches a twin that ran the same history with no snapshot at all.
#[test]
fn held_snapshot_is_frozen_and_leaves_the_table_like_a_never_snapshotted_twin() {
    fn history(db: &Database, mut between: impl FnMut(&str)) {
        let row = |id: i64, val: i64| vec![Value::Int(id), Value::Int(val), Value::Int(id % 5)];
        let id = |i: i64| [Value::Int(i)];
        for c in 0..50i64 {
            let tx = db.begin();
            for j in 0..4 {
                db.insert(tx, "items", row(1000 + c * 4 + j, c)).unwrap();
            }
            // Rewrite, re-key and delete rows the snapshot holds.
            db.update(tx, "items", &id(c), row(c, 7)).unwrap();
            db.update(tx, "items", &id(100 + c), row(5000 + c, c)).unwrap();
            db.delete(tx, "items", &id(200 + c)).unwrap();
            db.commit(tx).unwrap();
        }
        between("50 commits");
        let tx = db.begin();
        db.insert(tx, "items", row(9000, 1)).unwrap();
        db.delete(tx, "items", &id(250)).unwrap();
        db.update(tx, "items", &id(251), row(251, 7)).unwrap();
        between("an open transaction");
        db.abort(tx).unwrap();
        between("an abort");
        db.create_index("items", "tag").unwrap();
        between("a create_index");
        db.checkpoint().unwrap();
        between("a checkpoint");
        // Writes over the fresh base: shadowing and tombstones.
        let tx = db.begin();
        db.update(tx, "items", &id(1), row(1, 8)).unwrap();
        db.delete(tx, "items", &id(2)).unwrap();
        db.insert(tx, "items", row(9001, 7)).unwrap();
        db.commit(tx).unwrap();
        between("writes over the new base");
    }

    let open = |name: &str| {
        let wal = tmpwal(name);
        let db = Database::open(&wal).unwrap();
        let columns = ["id", "val", "tag"].map(|c| Column::new(c, DataType::Int)).to_vec();
        db.create_table(TableSchema::new("items", columns, &["id"], &["val"]).unwrap()).unwrap();
        let tx = db.begin();
        for i in 0..300i64 {
            db.insert(tx, "items", vec![Value::Int(i), Value::Int(i % 10), Value::Int(i % 5)])
                .unwrap();
        }
        db.commit(tx).unwrap();
        (wal, db)
    };
    let (held_wal, held) = open("snapshot-held");
    let (twin_wal, twin) = open("snapshot-twin");

    // Every access path of the pinned view, in one comparable value.
    let answers = |snap: &DbSnapshot| {
        let seven = Value::Int(7);
        let by_val = ScanAccess::Index { column: "val", lo: Some(&seven), hi: Some(&seven) };
        let window = ScanAccess::Index { column: "val", lo: Some(&Value::Int(3)), hi: None };
        let keys: Vec<[Value; 1]> = [0, 100, 200, 250, 1000, 5000].map(|k| [Value::Int(k)]).into();
        let mut out = vec![snap.scan("items").unwrap()];
        for access in
            [by_val, window].into_iter().chain(keys.iter().map(|key| ScanAccess::Pk { key }))
        {
            out.push(snap.select("items", access, &mut |_| true, None).unwrap().0);
        }
        (out, snap.lsn(), snap.indexed_columns("items").unwrap())
    };
    let snap = held.snapshot();
    let pinned = answers(&snap);
    assert_eq!(pinned.0[0].len(), 300);
    assert_eq!(pinned.0[1].len(), 30, "val = 7 through the index");

    history(&held, |after| assert_eq!(answers(&snap), pinned, "snapshot moved after {after}"));
    history(&twin, |_| {});
    assert_ne!(answers(&held.snapshot()).0, pinned.0, "the writer really did move on");
    drop(snap);

    for db in [&held, &twin] {
        db.insert_autocommit("items", vec![Value::Int(9002), Value::Int(7), Value::Int(0)])
            .unwrap();
    }
    assert_eq!(dump(&held), dump(&twin));
    // The same committed history, so the same LSN: holding a snapshot
    // moved neither the clock nor the contents it names.
    assert_eq!(answers(&held.snapshot()), answers(&twin.snapshot()));
    // And so does what each of them recovers to.
    drop((held, twin));
    let (held, twin) = (Database::open(&held_wal).unwrap(), Database::open(&twin_wal).unwrap());
    assert_eq!(dump(&held), dump(&twin));
    drop((held, twin));
    remove_db_files(&held_wal);
    remove_db_files(&twin_wal);
}

/// A reader cannot move the write clock: sessions opened while a
/// transaction is open all pin the LSN of the last commit, see none of
/// the transaction, and answer as the session before it did; the commit
/// moves the LSN by one.
#[test]
fn sessions_during_an_open_transaction_pin_the_last_commits_lsn_and_answers() {
    use quarry::query::engine::{Predicate, Query};
    let q = items_quarry();
    for i in 0..30 {
        q.db.insert_autocommit("items", vec![Value::Int(i), Value::Int(i % 3)]).unwrap();
    }
    let query = Query::scan("items").filter(vec![Predicate::Eq("val".into(), Value::Int(1))]);
    let before = q.snapshot();
    let committed = before.query(&query).unwrap();
    assert_eq!(committed.rows.len(), 10);

    let tx = q.db.begin();
    q.db.insert(tx, "items", vec![Value::Int(100), Value::Int(1)]).unwrap();
    q.db.delete(tx, "items", &[Value::Int(1)]).unwrap();
    let (a, b) = (q.snapshot(), q.snapshot());
    assert_eq!(a.lsn(), before.lsn(), "the open transaction moved the LSN");
    assert_eq!(b.lsn(), before.lsn(), "a snapshot ticked the write clock");
    assert_eq!(a.query(&query).unwrap(), committed);
    assert_eq!(b.query(&query).unwrap(), committed);
    assert_eq!(snap_dump(a.db()), snap_dump(before.db()));

    q.db.commit(tx).unwrap();
    let after = q.snapshot();
    assert_eq!(after.lsn(), a.lsn() + 1, "one commit, one unit");
    assert_ne!(snap_dump(after.db()), snap_dump(a.db()));
    assert_eq!(after.query(&query).unwrap().rows.len(), 10, "one in, one out");
    assert_ne!(after.query(&query).unwrap(), committed);
    assert_eq!(a.query(&query).unwrap(), committed, "a held session keeps its answer");
}

/// A storage backend whose `rename` — a checkpoint's commit point — parks
/// until the test says how it ends: by then the image is built and the
/// checkpoint holds the writer gate.
#[derive(Debug)]
struct ParkedRename {
    /// Told each time a rename arrives.
    arrived: Mutex<mpsc::Sender<()>>,
    /// `Ok` lets the parked rename through, `Err` fails it.
    verdict: Mutex<mpsc::Receiver<io::Result<()>>>,
}

impl StorageBackend for ParkedRename {
    fn open_append(&self, path: &Path, truncate_to: u64) -> io::Result<Box<dyn BackendFile>> {
        RealBackend.open_append(path, truncate_to)
    }
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn BackendFile>> {
        RealBackend.create_new(path)
    }
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn BackendFile>> {
        RealBackend.open_rw(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealBackend.read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.arrived.lock().unwrap().send(()).expect("the test listens for renames");
        self.verdict.lock().unwrap().recv().expect("the test rules on every rename")?;
        RealBackend.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealBackend.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        RealBackend.create_dir_all(path)
    }
    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        RealBackend.list_dir(path)
    }
}

/// A façade over a 300-row `items(id PK, val indexed)` on a
/// [`ParkedRename`] backend, with the two channel ends the test keeps.
fn parked_quarry(
    name: &str,
) -> (PathBuf, Quarry, mpsc::Receiver<()>, mpsc::Sender<io::Result<()>>) {
    let wal = tmpwal(name);
    let (arrived, renames) = mpsc::channel();
    let (rule, verdict) = mpsc::channel();
    let backend = ParkedRename { arrived: Mutex::new(arrived), verdict: Mutex::new(verdict) };
    let config = QuarryConfig::builder().wal_path(&wal).storage_backend(Arc::new(backend));
    let q = Quarry::new(config.build()).unwrap();
    let columns = vec![Column::new("id", DataType::Int), Column::new("val", DataType::Int)];
    q.db.create_table(TableSchema::new("items", columns, &["id"], &["val"]).unwrap()).unwrap();
    let tx = q.db.begin();
    for i in 0..300 {
        q.db.insert(tx, "items", vec![Value::Int(i), Value::Int(i % 17)]).unwrap();
    }
    q.db.commit(tx).unwrap();
    (wal, q, renames, rule)
}

/// While a checkpoint is parked at its rename — image built, gate held —
/// a snapshot is pinned at once and answers from the state the checkpoint
/// captured, while a writer waits; once the rename goes through the
/// database holds the very same state, now on the image.
#[test]
fn a_checkpoint_in_flight_stalls_writers_and_no_reader() {
    let (wal, q, renames, rule) = parked_quarry("parked-checkpoint");
    let db = Arc::clone(&q.db);
    let before = dump(&db);
    let checkpointer = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || db.checkpoint())
    };
    renames.recv().unwrap();

    // Readers: three pins on a thread of their own, so that a pin that
    // does wait for the checkpoint fails this test instead of hanging it;
    // the quickest counts, so that one scheduling hiccup on a shared box is
    // not read as a stall.
    let (pinned_tx, pinned) = mpsc::channel();
    let reader = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            for _ in 0..3 {
                let start = Instant::now();
                let snap = db.snapshot();
                pinned_tx.send((snap, start.elapsed())).unwrap();
            }
        })
    };
    let pins: Vec<_> =
        (0..3).map_while(|_| pinned.recv_timeout(Duration::from_secs(5)).ok()).collect();
    if pins.len() < 3 {
        rule.send(Ok(())).unwrap();
        panic!("snapshot() waits for a checkpoint in flight");
    }
    reader.join().unwrap();
    let (snap, waited) = pins.into_iter().min_by_key(|(_, waited)| *waited).unwrap();
    assert!(waited < Duration::from_millis(10), "snapshot() waited {waited:?} for a checkpoint");
    assert_eq!(snap_dump(&snap), before, "the snapshot sees the state being checkpointed");
    let q = Query::scan("items").filter(vec![Predicate::Eq("val".into(), Value::Int(3))]);
    assert_eq!(execute_snapshot(&snap, &q).unwrap().rows.len(), 18);

    // Writers: `begin()` is still waiting well after the readers are done.
    let (began_tx, began) = mpsc::channel();
    let writer = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            let tx = db.begin();
            began_tx.send(()).unwrap();
            db.commit(tx)
        })
    };
    let waiting = began.recv_timeout(Duration::from_millis(200));
    assert_eq!(waiting, Err(mpsc::RecvTimeoutError::Timeout), "a writer got past a checkpoint");

    rule.send(Ok(())).unwrap();
    checkpointer.join().unwrap().unwrap();
    began.recv_timeout(Duration::from_secs(30)).expect("the gate reopens after the checkpoint");
    writer.join().unwrap().unwrap();
    assert_eq!((db.checkpoint_epoch(), db.overlay_row_count("items").unwrap()), (1, 0));
    assert_eq!(dump(&db), before, "the checkpointed state is the state before it");
    assert_eq!(snap_dump(&snap), before);
    drop((db, q));
    assert_eq!(dump(&Database::open(&wal).unwrap()), before, "and so is the recovered one");
    remove_db_files(&wal);
}

/// A checkpoint whose publication fails gives the gate back — the next
/// writer proceeds — truncates nothing, is counted as a failure, and does
/// not keep a later checkpoint from working.
#[test]
fn a_failed_publish_reopens_the_writer_gate() {
    let (wal, q, renames, rule) = parked_quarry("failed-publish");
    let before = dump(&q.db);
    rule.send(Err(io::Error::other("no space left on device"))).unwrap();
    let err = q.checkpoint().expect_err("the rename failed");
    assert!(err.to_string().contains("no space left"), "{err}");
    renames.recv().unwrap();
    assert_eq!(q.db.checkpoint_epoch(), 0, "nothing was published, so nothing was truncated");

    // On a thread of its own, so that a gate left shut fails the test
    // instead of hanging it.
    let (done_tx, done) = mpsc::channel();
    let writer = {
        let db = Arc::clone(&q.db);
        std::thread::spawn(move || {
            let row = vec![Value::Int(1_000), Value::Int(1)];
            done_tx.send(db.insert_autocommit("items", row)).unwrap();
        })
    };
    done.recv_timeout(Duration::from_secs(30)).expect("the gate reopened").unwrap();
    writer.join().unwrap();
    let after = dump(&q.db);
    assert_eq!(after.lines().count(), before.lines().count() + 1);

    rule.send(Ok(())).unwrap(); // the next rename goes through
    q.checkpoint().unwrap();
    assert_eq!((q.db.checkpoint_epoch(), dump(&q.db)), (1, after.clone()));
    let stats = q.metrics();
    assert_eq!(stats.counter("facade.checkpoints"), 2);
    assert_eq!(stats.counter("facade.checkpoint_errors"), 1);
    assert_eq!(stats.histogram("facade.checkpoint_us").unwrap().count, 2);
    drop(q);
    assert_eq!(dump(&Database::open(&wal).unwrap()), after);
    remove_db_files(&wal);
}

/// A storage backend that parks the first page write to the temp image of
/// the second checkpoint build — the moment that build's pool first fills
/// and evicts — until the test lets it go.
#[derive(Debug)]
struct ParkedBuildWrite {
    /// Checkpoint builds started so far.
    builds: AtomicUsize,
    /// Told when the write arrives, and then waited on; taken by the
    /// second build's file.
    park: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
}

/// The file of a parked build: its first `write_at` reports and waits.
struct ParkedFile {
    inner: Box<dyn BackendFile>,
    park: Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>,
}

impl io::Write for ParkedFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl BackendFile for ParkedFile {
    fn sync_data(&mut self) -> io::Result<()> {
        self.inner.sync_data()
    }
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }
    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        if let Some((arrived, go)) = self.park.take() {
            arrived.send(()).expect("the test listens for the parked write");
            go.recv().expect("the test lets every parked write go");
        }
        self.inner.write_at(offset, buf)
    }
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_at(offset, buf)
    }
    fn file_len(&mut self) -> io::Result<u64> {
        self.inner.file_len()
    }
}

impl StorageBackend for ParkedBuildWrite {
    fn open_append(&self, path: &Path, truncate_to: u64) -> io::Result<Box<dyn BackendFile>> {
        RealBackend.open_append(path, truncate_to)
    }
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn BackendFile>> {
        let inner = RealBackend.create_new(path)?;
        let build = path.extension().is_some_and(|ext| ext == "ckpt-tmp");
        if !build || self.builds.fetch_add(1, Ordering::SeqCst) != 1 {
            return Ok(inner);
        }
        Ok(Box::new(ParkedFile { inner, park: self.park.lock().unwrap().take() }))
    }
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn BackendFile>> {
        RealBackend.open_rw(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealBackend.read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealBackend.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealBackend.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        RealBackend.create_dir_all(path)
    }
    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        RealBackend.list_dir(path)
    }
}

/// A checkpoint build reads its base image a cursor step at a time: while
/// the second checkpoint is parked on a page write — its 64-page pool full
/// of a row tree several times that size, the write issued from inside the
/// merge over the base — a primary-key read of a base row faults that same
/// image's pages and answers at once.
#[test]
fn a_checkpoint_build_parked_on_a_page_write_stalls_no_base_read() {
    let wal = tmpwal("parked-build-write");
    let (arrived_tx, arrived) = mpsc::channel();
    let (go, go_rx) = mpsc::channel();
    let backend = ParkedBuildWrite {
        builds: AtomicUsize::new(0),
        park: Mutex::new(Some((arrived_tx, go_rx))),
    };
    let config = QuarryConfig::builder().wal_path(&wal).storage_backend(Arc::new(backend));
    let q = Quarry::new(config.build()).unwrap();
    let columns = vec![Column::new("id", DataType::Int), Column::new("note", DataType::Text)];
    q.db.create_table(TableSchema::new("items", columns, &["id"], &[]).unwrap()).unwrap();
    let row = |i: i64| vec![Value::Int(i), Value::Text(format!("{i:0>200}"))];
    let tx = q.db.begin();
    for i in 0..3_000 {
        q.db.insert(tx, "items", row(i)).unwrap();
    }
    q.db.commit(tx).unwrap();
    q.checkpoint().unwrap(); // the base: ~150 leaves of rows
    q.db.insert_autocommit("items", row(3_000)).unwrap();
    let before = dump(&q.db);

    let db = Arc::clone(&q.db);
    let checkpointer = std::thread::spawn(move || db.checkpoint());
    arrived.recv_timeout(Duration::from_secs(60)).expect("the second build writes a page");

    // On a thread of its own, so that a read that waits for the build fails
    // this test instead of hanging it.
    let (answered_tx, answered) = mpsc::channel();
    let reader = {
        let snap = q.db.snapshot();
        std::thread::spawn(move || {
            let key = [Value::Int(1_234)];
            let found = snap.select("items", ScanAccess::Pk { key: &key }, &mut |_| true, None);
            answered_tx.send(found.map(|(rows, _)| rows)).unwrap();
        })
    };
    let found = answered.recv_timeout(Duration::from_secs(5));
    go.send(()).unwrap();
    let found = found.expect("a base read waited for a checkpoint build parked on a write");
    assert_eq!(found.unwrap(), vec![row(1_234)]);
    reader.join().unwrap();

    checkpointer.join().unwrap().unwrap();
    assert_eq!((q.db.checkpoint_epoch(), dump(&q.db)), (2, before.clone()));
    drop(q);
    assert_eq!(dump(&Database::open(&wal).unwrap()), before, "and so is the recovered one");
    remove_db_files(&wal);
}
