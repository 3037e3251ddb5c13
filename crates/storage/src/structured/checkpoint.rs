//! Checkpoint images and open-time recovery: how the table map gets to
//! disk and back.
//!
//! **One format.** A checkpoint is a paged file holding three B-trees per
//! table (rows by id, primary keys, one per secondary index) under a v2
//! directory (see `docs/storage.md`), and a WAL record is binary-v1.
//! Files in any older format are refused with [`StorageError::Corrupt`]
//! naming what they look like; nothing here reads them.
//!
//! **Publication** ([`publish`]) builds the image in a `.ckpt-tmp` side
//! file through a bounded buffer pool, fsyncs it, and renames it over the
//! durable `.ckpt` — the rename is the commit point. The trees' page
//! writes add no crash windows: they all happen inside the unpublished
//! build, so a torn write just discards that build, and a build refused
//! part-way (a stream out of key order is `Corrupt`) never reaches the
//! rename. The caller truncates the log only after the rename.
//!
//! **Recovery** ([`recover`]) loads the published image, if any, then
//! replays the WAL over it (redo-only, one pass: each committed unit is
//! reapplied as `structured::recovery`'s reader yields it). A crash
//! between the rename and the log truncation leaves a WAL
//! whose history the image already contains; replaying that suffix is
//! convergent — every record either recreates what the image holds or
//! re-applies a committed change idempotently (see `docs/durability.md`).
//! A `.ckpt` that exists either opens as such an image or fails the open:
//! only a missing file means "no checkpoint yet".
//!
//! Works on the plain table map ([`Tables`]); the engine above owns the
//! locks, the WAL handle and the epoch.

use crate::error::StorageError;
use crate::faultfs::StorageBackend;
use crate::page::{PageType, NO_PAGE};
use crate::pager::{read_chain, ChainWriter, Pager};
use crate::wal::Wal;
use crate::Result;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use super::overlay::{redo, Table, Tables};
use super::paged::{self, BaseMeta, CheckpointImage, DirectoryEntry, TableBase};
use super::recovery::{LogRecord, UnitReader};
use super::table::TableSchema;

/// Buffer-pool frames used while building or reading a checkpoint image:
/// bounds peak checkpoint memory to ~256 KiB of pages regardless of table
/// size.
const CKPT_POOL_PAGES: usize = 64;

/// Path of the durable checkpoint image for a WAL at `wal_path`.
pub(super) fn image_path(wal_path: &Path) -> PathBuf {
    wal_path.with_extension("ckpt")
}

/// Path of the in-progress checkpoint build for a WAL at `wal_path`.
pub(super) fn tmp_path(wal_path: &Path) -> PathBuf {
    wal_path.with_extension("ckpt-tmp")
}

/// What [`recover`] rebuilt from disk.
pub(super) struct Recovered {
    pub(super) tables: Tables,
    /// The open image backing the tables' bases (`None` without a
    /// checkpoint, or for a checkpoint of an empty database).
    pub(super) image: Option<Arc<CheckpointImage>>,
    /// Highest transaction id seen in the log.
    pub(super) max_tx: u64,
    /// Where the log's clean prefix ends: the offset to open it at.
    pub(super) wal_end: u64,
}

/// Rebuild the committed state of the database whose WAL lives at
/// `wal_path`: checkpoint image first, then the WAL suffix over it.
pub(super) fn recover(backend: &dyn StorageBackend, wal_path: &Path) -> Result<Recovered> {
    // A stale checkpoint build means we crashed mid-checkpoint, before
    // the rename: the image is unpublished and must be discarded.
    let _ = backend.remove_file(&tmp_path(wal_path));
    let mut tables = Tables::new();
    let image = load_image(backend, &image_path(wal_path), &mut tables)?;
    // Redo each committed unit as the log's one scan reaches its end. The
    // reader holds at most one open unit, which is sound because no unit
    // spans files either: a checkpoint passes the writer gate, so the log
    // after it starts at a unit boundary.
    let mut units = UnitReader::default();
    let wal_end = Wal::replay_with(backend, wal_path, |payload| {
        match units.push(LogRecord::decode(payload)?)? {
            Some(unit) => redo(&mut tables, unit),
            None => Ok(()),
        }
    })?;
    Ok(Recovered { tables, image, max_tx: units.max_tx(), wal_end })
}

/// Load the checkpoint image at `path` **lazily**: each table becomes an
/// empty overlay over a [`TableBase`], and rows fault in through the
/// image's buffer pool on first touch — open-time resident rows are zero
/// regardless of corpus size.
fn load_image(
    backend: &dyn StorageBackend,
    path: &Path,
    tables: &mut Tables,
) -> Result<Option<Arc<CheckpointImage>>> {
    let image = match CheckpointImage::open(backend, path, CKPT_POOL_PAGES) {
        Ok(image) => Arc::new(image),
        // No checkpoint published yet.
        Err(StorageError::Io(e)) if e.kind() == ErrorKind::NotFound => return Ok(None),
        Err(StorageError::Corrupt(why)) => return Err(refuse_image(backend, path, &why)),
        Err(e) => return Err(e),
    };
    let dir = {
        let mut pager = image.pager.lock();
        let root = pager.root();
        if root == NO_PAGE {
            return Ok(None); // image of an empty database
        }
        read_chain(&mut pager, root, PageType::Directory)?
    };
    for e in paged::decode_directory_v2(&dir)? {
        let base = TableBase { image: Arc::clone(&image), meta: Arc::new(e.meta) };
        let t = Table::from_base(e.schema, base);
        tables.insert(t.schema.name.clone(), t);
    }
    Ok(Some(image))
}

/// The error for a `.ckpt` that is not a paged image. Before the paged
/// engine a checkpoint was a WAL-format file of JSON records; say so when
/// that is what the file holds, because the remedy differs from damage.
fn refuse_image(backend: &dyn StorageBackend, path: &Path, why: &str) -> StorageError {
    let legacy = Wal::replay_with(backend, path, |_| Ok(())).is_ok_and(|end| end > 0);
    let looks_like = if legacy {
        "a legacy WAL-format (JSON) checkpoint, which is no longer readable"
    } else {
        "a damaged or foreign file"
    };
    StorageError::Corrupt(format!(
        "checkpoint {} is not a paged image ({why}); it looks like {looks_like}",
        path.display()
    ))
}

/// Build a checkpoint image of `tables` and publish it as the durable
/// `.ckpt` of the WAL at `wal_path`. Returns each table's tree roots so
/// [`rebase`] can point the live tables at the new image.
pub(super) fn publish(
    backend: &dyn StorageBackend,
    wal_path: &Path,
    tables: &Tables,
) -> Result<Vec<(String, BaseMeta)>> {
    let tmp = tmp_path(wal_path);
    let _ = backend.remove_file(&tmp); // stale build from an earlier crash
    let mut names: Vec<&String> = tables.keys().collect();
    names.sort(); // a deterministic page/op stream for the crash sweeps
    let mut metas = Vec::with_capacity(names.len());
    let mut entries = Vec::with_capacity(names.len());
    let mut pager = Pager::create(backend, &tmp, CKPT_POOL_PAGES)?;
    for name in names {
        let t = &tables[name];
        let meta = paged::build_table_trees(
            &mut pager,
            &t.schema,
            t.base.as_ref(),
            &t.heap,
            &t.tombstones,
            &t.indexes,
            t.next_row,
        )?;
        metas.push((name.clone(), meta.clone()));
        entries.push(DirectoryEntry { schema: TableSchema::clone(&t.schema), meta });
    }
    let directory = paged::encode_directory_v2(&entries)?;
    let mut dir_chain = ChainWriter::new(&mut pager, PageType::Directory)?;
    dir_chain.push_record(&mut pager, &directory)?;
    let (dir_head, _) = dir_chain.finish(&mut pager)?;
    pager.set_root(dir_head);
    pager.flush()?;
    drop(pager);
    backend.rename(&tmp, &image_path(wal_path))?; // commit point
    Ok(metas)
}

/// Swap every table onto the image [`publish`] just wrote and drop the
/// overlays: from here on, reads fault base pages in on demand. Contents
/// are unchanged, so the LSN stays where it is, and snapshot views keep
/// the old overlay and the old image alive via their own `Arc`s. If
/// the open fails the checkpoint is still durable and the tables simply
/// stay resident; the error is surfaced.
pub(super) fn rebase(
    backend: &dyn StorageBackend,
    wal_path: &Path,
    tables: &mut Tables,
    metas: Vec<(String, BaseMeta)>,
) -> Result<Arc<CheckpointImage>> {
    let image = Arc::new(CheckpointImage::open(backend, &image_path(wal_path), CKPT_POOL_PAGES)?);
    for (name, meta) in metas {
        if let Some(t) = tables.get_mut(&name) {
            t.reset_to_base(TableBase { image: Arc::clone(&image), meta: Arc::new(meta) });
        }
    }
    Ok(image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::faultfs::RealBackend;
    use crate::structured::fixtures::{index_rows, people_schema, person, tmpwal};
    use crate::structured::{Database, ScanAccess};
    use crate::value::Value;

    /// A database of 50 committed rows, checkpointed and closed.
    fn checkpointed_people(p: &Path) {
        let db = Database::open(p).unwrap();
        db.create_table(people_schema()).unwrap();
        for i in 0..50 {
            db.insert_autocommit("people", person(&format!("p{i:02}"), i, "x")).unwrap();
        }
        db.checkpoint().unwrap();
    }

    fn append_frames(path: &Path, payloads: &[&[u8]]) {
        let mut wal = Wal::open(path).unwrap();
        for payload in payloads {
            wal.append(payload).unwrap();
        }
        wal.sync().unwrap();
    }

    #[test]
    fn foreign_or_damaged_files_are_refused() {
        // (input, how to fabricate it around the WAL path, what the
        // refusal must say it looks like)
        type Case = (&'static str, fn(&Path), &'static str);
        let cases: [Case; 4] = [
            (
                "flipped meta-page bit",
                |p| {
                    checkpointed_people(p);
                    let mut bytes = std::fs::read(image_path(p)).unwrap();
                    bytes[100] ^= 1;
                    std::fs::write(image_path(p), bytes).unwrap();
                },
                "damaged or foreign",
            ),
            (
                "JSON-WAL checkpoint",
                |p| {
                    let begin: &[u8] = br#"{"Begin":{"tx":0}}"#;
                    append_frames(&image_path(p), &[begin, br#"{"Commit":{"tx":0}}"#]);
                },
                "legacy WAL-format (JSON) checkpoint",
            ),
            (
                "v1 heap-chain directory",
                |p| {
                    let mut dir = Vec::new();
                    codec::write_u64(&mut dir, 1).unwrap(); // table count, no sentinel
                    codec::write_schema(&mut dir, &people_schema()).unwrap();
                    codec::write_u64(&mut dir, u64::from(NO_PAGE)).unwrap(); // heap head
                    codec::write_u64(&mut dir, 0).unwrap(); // rows
                    let mut pager = Pager::create(&RealBackend, &image_path(p), 4).unwrap();
                    let mut chain = ChainWriter::new(&mut pager, PageType::Directory).unwrap();
                    chain.push_record(&mut pager, &dir).unwrap();
                    let (head, _) = chain.finish(&mut pager).unwrap();
                    pager.set_root(head);
                    pager.flush().unwrap();
                },
                "v1 heap-chain directory",
            ),
            (
                "JSON record mid-log",
                |p| {
                    let db = Database::open(p).unwrap();
                    db.create_table(people_schema()).unwrap();
                    db.insert_autocommit("people", person("a", 1, "x")).unwrap();
                    drop(db);
                    let later = LogRecord::DropTable { table: "people".into() }.encode().unwrap();
                    append_frames(p, &[br#"{"Begin":{"tx":9}}"#, &later]);
                },
                "legacy JSON",
            ),
        ];
        for (input, fabricate, looks_like) in cases {
            let p = tmpwal("refused");
            fabricate(&p);
            let on_disk = |path: PathBuf| std::fs::read(path).ok();
            let before = (on_disk(p.clone()), on_disk(image_path(&p)));
            let err = Database::open(&p).map(drop).expect_err(input);
            assert!(
                matches!(&err, StorageError::Corrupt(m) if m.contains(looks_like)),
                "{input}: {err}"
            );
            // Refusal is clean: nothing was repaired, truncated or replaced.
            assert_eq!((on_disk(p.clone()), on_disk(image_path(&p))), before, "{input}");
        }
        let p = tmpwal("refused");
        assert!(Database::open(&p).unwrap().table_names().is_empty(), "missing files: fresh db");
        let _ = std::fs::remove_file(&p);
    }

    /// Regression: the directory is read from `Directory` pages only. An
    /// image whose root chain is made of, or links into, pages of another
    /// type used to open — as whatever those pages' payloads spelled.
    #[test]
    fn directory_chain_must_stay_in_directory_pages() {
        let rewire = |p: &Path, edit: &dyn Fn(&mut Pager, Vec<u8>)| {
            checkpointed_people(p);
            let mut pager = Pager::open(&RealBackend, &image_path(p), 4).unwrap();
            let root = pager.root();
            let directory = read_chain(&mut pager, root, PageType::Directory).unwrap();
            edit(&mut pager, directory);
            pager.flush().unwrap();
        };
        type Case = (&'static str, fn(&mut Pager, Vec<u8>), &'static str);
        let cases: [Case; 2] = [
            (
                "the same directory bytes in an overflow chain",
                |pager, directory| {
                    let mut chain = ChainWriter::new(pager, PageType::Overflow).unwrap();
                    chain.push_record(pager, &directory).unwrap();
                    let (head, _) = chain.finish(pager).unwrap();
                    pager.set_root(head);
                },
                "which is a Overflow page",
            ),
            (
                "a directory page linked into a B-tree root",
                |pager, _| {
                    let root = pager.root();
                    let held = pager.read_page(root).unwrap();
                    pager.page_mut(root, held).unwrap().page.next = 1; // the row tree's first leaf
                },
                "reaches page 1, which is a Btree",
            ),
        ];
        for (what, edit, names) in cases {
            let p = tmpwal("dirchain");
            rewire(&p, &edit);
            let err = Database::open(&p).map(drop).expect_err(what);
            assert!(matches!(&err, StorageError::Corrupt(m) if m.contains(names)), "{what}: {err}");
            std::fs::remove_file(&p).unwrap();
            std::fs::remove_file(image_path(&p)).unwrap();
        }
    }

    #[test]
    fn durable_database_recovers_committed_work_only() {
        let p = tmpwal("recovery");
        {
            let db = Database::open(&p).unwrap();
            db.create_table(people_schema()).unwrap();
            db.insert_autocommit("people", person("committed", 1, "a")).unwrap();
            let tx = db.begin();
            db.insert(tx, "people", person("uncommitted", 2, "b")).unwrap();
            // Crash: drop db without commit.
        }
        let db = Database::open(&p).unwrap();
        let rows = db.snapshot().scan("people").unwrap();
        assert_eq!(rows, vec![person("committed", 1, "a")]);
        // The recovered database stays usable and durable.
        db.insert_autocommit("people", person("after", 3, "c")).unwrap();
        drop(db);
        let db = Database::open(&p).unwrap();
        assert_eq!(db.row_count("people").unwrap(), 2);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn recovery_replays_updates_and_deletes() {
        let p = tmpwal("recovery2");
        {
            let db = Database::open(&p).unwrap();
            db.create_table(people_schema()).unwrap();
            let tx = db.begin();
            db.insert(tx, "people", person("a", 1, "x")).unwrap();
            db.insert(tx, "people", person("b", 2, "x")).unwrap();
            db.commit(tx).unwrap();
            let tx = db.begin();
            db.update(tx, "people", &["a".into()], person("a", 10, "y")).unwrap();
            db.delete(tx, "people", &["b".into()]).unwrap();
            db.commit(tx).unwrap();
        }
        let db = Database::open(&p).unwrap();
        let rows = db.snapshot().scan("people").unwrap();
        assert_eq!(rows, vec![person("a", 10, "y")]);
        // Secondary index rebuilt by redo.
        assert_eq!(index_rows(&db, "people", "age", &Value::Int(10)).len(), 1);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn checkpoint_compacts_log_and_preserves_state() {
        let p = tmpwal("checkpoint");
        {
            let db = Database::open(&p).unwrap();
            db.create_table(people_schema()).unwrap();
            // History: many inserts, updates, and deletes.
            for i in 0..50 {
                db.insert_autocommit("people", person(&format!("p{i}"), i, "x")).unwrap();
            }
            for i in 0..50 {
                let tx = db.begin();
                if i % 2 == 0 {
                    db.update(
                        tx,
                        "people",
                        &[format!("p{i}").into()],
                        person(&format!("p{i}"), i + 100, "y"),
                    )
                    .unwrap();
                } else {
                    db.delete(tx, "people", &[format!("p{i}").into()]).unwrap();
                }
                db.commit(tx).unwrap();
            }
            let before = std::fs::metadata(&p).unwrap().len();
            db.checkpoint().unwrap();
            let after = std::fs::metadata(&p).unwrap().len();
            assert!(after < before / 2, "log {before} → {after} should shrink");
            // The database keeps working after a checkpoint.
            db.insert_autocommit("people", person("post", 1, "z")).unwrap();
        }
        let db = Database::open(&p).unwrap();
        assert_eq!(db.row_count("people").unwrap(), 26);
        let tx = db.begin();
        assert_eq!(db.get(tx, "people", &["p0".into()]).unwrap()[1], Value::Int(100));
        assert!(db.get(tx, "people", &["p1".into()]).is_err(), "deleted row stays deleted");
        db.commit(tx).unwrap();
        // Secondary index rebuilt from the snapshot.
        assert_eq!(index_rows(&db, "people", "age", &Value::Int(100)).len(), 1);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn checkpoint_survives_crash_at_every_operation() {
        use crate::faultfs::{CrashPlan, FaultBackend};

        // Reference state: three committed rows, a first checkpoint, then
        // two more rows, an update and a delete — so the log the crashed
        // checkpoint leaves holds no `CreateTable`, and replaying it over
        // the new image redoes rows that image already holds.
        let build = |db: &Database| {
            db.create_table(people_schema()).unwrap();
            for i in 0..5 {
                if i == 3 {
                    db.checkpoint().unwrap();
                }
                db.insert_autocommit("people", person(&format!("p{i}"), i, "x")).unwrap();
            }
            let tx = db.begin();
            db.update(tx, "people", &["p0".into()], person("p0", 100, "y")).unwrap();
            db.delete(tx, "people", &["p1".into()]).unwrap();
            db.commit(tx).unwrap();
        };
        // The rows, and the counts the planner reads: a replay of records
        // the image already holds (the window between publication and the
        // WAL reset) must converge on both.
        let state = |db: &Database| {
            let snap = db.snapshot();
            let stats = snap.index_stats("people", "age").unwrap();
            (snap.scan("people").unwrap(), snap.row_count("people").unwrap(), stats)
        };
        let expected = {
            let db = Database::in_memory();
            build(&db);
            state(&db)
        };

        // Count the checkpoint's operations with a recording backend.
        let p = tmpwal("ckpt-crash-rec");
        let total = {
            let rec = FaultBackend::recording(RealBackend);
            let db = Database::open_with(Arc::new(rec.clone()), &p).unwrap();
            build(&db);
            let before = rec.op_count();
            db.checkpoint().unwrap();
            rec.op_count() - before
        };
        assert!(total >= 3, "checkpoint is several ops (build, sync, rename, reset)");

        // Crash the checkpoint at every one of its operations; committed
        // state must survive every time — including the window between the
        // rename (publication) and the WAL reset.
        for k in 1..=total {
            let p = tmpwal(&format!("ckpt-crash-{k}"));
            let fb = FaultBackend::recording(RealBackend);
            let db = Database::open_with(Arc::new(fb.clone()), &p).unwrap();
            build(&db);
            let at = fb.op_count() + k;
            fb.arm(CrashPlan::kill_at(at));
            assert!(db.checkpoint().is_err(), "crash point {k} must fail the checkpoint");
            drop(db);
            let db = Database::open(&p).unwrap();
            assert_eq!(state(&db), expected, "crash point {k}");
            let _ = std::fs::remove_file(&p);
            let _ = std::fs::remove_file(image_path(&p));
            let _ = std::fs::remove_file(tmp_path(&p));
        }
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(image_path(&p));
    }

    #[test]
    fn btree_checkpoint_opens_lazily_and_reads_through_base() {
        let p = tmpwal("btree-lazy");
        let n = 300i64;
        {
            let db = Database::open(&p).unwrap();
            db.create_table(people_schema()).unwrap();
            for i in 0..n {
                db.insert_autocommit("people", person(&format!("p{i:03}"), i % 10, "x")).unwrap();
            }
            db.checkpoint().unwrap();
            // Post-checkpoint the live table itself is an empty overlay
            // over the fresh image.
            assert_eq!(db.overlay_row_count("people").unwrap(), 0);
            assert_eq!(db.row_count("people").unwrap(), n as usize);
        }
        let db = Database::open(&p).unwrap();
        // Lazy open: nothing materialized.
        assert_eq!(db.overlay_row_count("people").unwrap(), 0);
        assert_eq!(db.row_count("people").unwrap(), n as usize);
        assert!(db.image_pool_stats().is_some());

        // Point lookups, index probes, and scans read through the trees.
        let tx = db.begin();
        assert_eq!(db.get(tx, "people", &["p042".into()]).unwrap()[1], Value::Int(2));
        db.commit(tx).unwrap();
        let by_age = index_rows(&db, "people", "age", &Value::Int(3));
        assert_eq!(by_age.len(), 30);
        let rows = db.snapshot().scan("people").unwrap();
        assert_eq!(rows.len(), n as usize);
        assert_eq!(rows[7][0], Value::Text("p007".into()), "row-id order preserved");
        // Stats follow the merged shape.
        let st = db.snapshot().index_stats("people", "age").unwrap().unwrap();
        assert_eq!(st.entries, n as usize);
        assert_eq!(st.distinct, 10);
        std::fs::remove_file(&p).unwrap();
        std::fs::remove_file(image_path(&p)).unwrap();
    }

    /// Renaming a row onto a primary key that only the checkpoint image
    /// holds must be refused like any other duplicate.
    fn assert_rename_onto_base_key_is_refused(db: &Database) {
        let tx = db.begin();
        let err = db.update(tx, "people", &["p03".into()], person("p04", 3, "x")).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKey(_)), "{err}");
        db.abort(tx).unwrap();
    }

    #[test]
    fn base_rows_update_delete_and_merge_across_checkpoints() {
        let p = tmpwal("btree-merge");
        {
            let db = Database::open(&p).unwrap();
            db.create_table(people_schema()).unwrap();
            for i in 0..50 {
                db.insert_autocommit("people", person(&format!("p{i:02}"), i, "x")).unwrap();
            }
            db.checkpoint().unwrap();
            assert_rename_onto_base_key_is_refused(&db);
        }
        {
            // Mutate base rows through the overlay: update, delete,
            // key-change update, fresh insert.
            let db = Database::open(&p).unwrap();
            assert_rename_onto_base_key_is_refused(&db);
            let tx = db.begin();
            db.update(tx, "people", &["p00".into()], person("p00", 100, "y")).unwrap();
            db.delete(tx, "people", &["p01".into()]).unwrap();
            db.update(tx, "people", &["p02".into()], person("renamed", 2, "z")).unwrap();
            db.insert(tx, "people", person("fresh", 7, "w")).unwrap();
            db.commit(tx).unwrap();
            assert_eq!(db.row_count("people").unwrap(), 50);
            // The old key of a renamed base row is gone; the new one hits.
            let tx = db.begin();
            assert!(db.get(tx, "people", &["p02".into()]).is_err());
            assert_eq!(db.get(tx, "people", &["renamed".into()]).unwrap()[1], Value::Int(2));
            db.commit(tx).unwrap();
            // Index probe must not surface the shadowed base entry for the
            // updated row's old value.
            assert!(index_rows(&db, "people", "age", &Value::Int(0)).is_empty());
            assert_eq!(index_rows(&db, "people", "age", &Value::Int(100)).len(), 1);
            // Fold the overlay into a second-generation image.
            db.checkpoint().unwrap();
            assert_eq!(db.overlay_row_count("people").unwrap(), 0);
        }
        let db = Database::open(&p).unwrap();
        assert_eq!(db.row_count("people").unwrap(), 50);
        let tx = db.begin();
        assert_eq!(db.get(tx, "people", &["p00".into()]).unwrap()[1], Value::Int(100));
        assert!(db.get(tx, "people", &["p01".into()]).is_err(), "deleted base row stays gone");
        assert_eq!(db.get(tx, "people", &["renamed".into()]).unwrap()[2], Value::Text("z".into()));
        assert_eq!(db.get(tx, "people", &["fresh".into()]).unwrap()[1], Value::Int(7));
        db.commit(tx).unwrap();
        std::fs::remove_file(&p).unwrap();
        std::fs::remove_file(image_path(&p)).unwrap();
    }

    #[test]
    fn create_index_after_checkpoint_backfills_from_base() {
        let p = tmpwal("btree-backfill");
        {
            let db = Database::open(&p).unwrap();
            db.create_table(people_schema()).unwrap();
            for i in 0..40 {
                db.insert_autocommit("people", person(&format!("p{i:02}"), i, "x")).unwrap();
            }
            db.checkpoint().unwrap();
            // New index over a lazily-held table must see base rows.
            db.create_index("people", "city").unwrap();
            assert_eq!(index_rows(&db, "people", "city", &Value::Text("x".into())).len(), 40);
            // Deleting a base row drops its backfilled entry too.
            let tx = db.begin();
            db.delete(tx, "people", &["p05".into()]).unwrap();
            db.commit(tx).unwrap();
            assert_eq!(index_rows(&db, "people", "city", &Value::Text("x".into())).len(), 39);
            db.checkpoint().unwrap();
        }
        // The folded index survives recovery as a tree.
        let db = Database::open(&p).unwrap();
        assert_eq!(index_rows(&db, "people", "city", &Value::Text("x".into())).len(), 39);
        std::fs::remove_file(&p).unwrap();
        std::fs::remove_file(image_path(&p)).unwrap();
    }

    #[test]
    fn snapshots_over_bases_stay_stable_across_checkpoints() {
        let p = tmpwal("btree-snap");
        let db = Database::open(&p).unwrap();
        db.create_table(people_schema()).unwrap();
        for i in 0..20 {
            db.insert_autocommit("people", person(&format!("p{i:02}"), i, "x")).unwrap();
        }
        db.checkpoint().unwrap();
        // Snapshot over the lazy table reads through the base.
        let snap = db.snapshot();
        assert_eq!(snap.row_count("people").unwrap(), 20);
        assert_eq!(snap.scan("people").unwrap().len(), 20);
        // Keep writing and re-checkpoint: the old snapshot keeps reading
        // the superseded image through its own handle.
        let tx = db.begin();
        db.update(tx, "people", &["p00".into()], person("p00", 99, "y")).unwrap();
        db.commit(tx).unwrap();
        db.checkpoint().unwrap();
        let rows = snap.scan("people").unwrap();
        assert_eq!(rows[0][1], Value::Int(0), "old snapshot sees pre-update state");
        let fresh = db.snapshot();
        assert_eq!(fresh.scan("people").unwrap()[0][1], Value::Int(99));
        // Index access over the snapshot merges base + overlay like the
        // live engine.
        let (rows, scanned) = snap
            .select(
                "people",
                ScanAccess::Index {
                    column: "age",
                    lo: Some(&Value::Int(5)),
                    hi: Some(&Value::Int(9)),
                },
                &mut |_| true,
                None,
            )
            .unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(scanned, 5);
        std::fs::remove_file(&p).unwrap();
        std::fs::remove_file(image_path(&p)).unwrap();
    }

    mod model {
        use super::*;
        use crate::structured::table::Row;
        use proptest::prelude::*;
        use std::collections::{BTreeMap, BTreeSet};
        use std::sync::atomic::{AtomicU64, Ordering};

        static CASE: AtomicU64 = AtomicU64::new(0);
        const NAMES: u16 = 48;
        const AGES: i64 = 9;

        fn name(n: u16) -> String {
            format!("p{:02}", n % NAMES)
        }

        fn city(v: i64) -> Value {
            [Value::Null, "x".into(), "y".into(), "z".into()][v as usize % 4].clone()
        }

        /// `name -> (age, city)`: what the table must hold.
        type Model = BTreeMap<String, (i64, Value)>;

        fn rows_where(model: &Model, keep: impl Fn(&(i64, Value)) -> bool) -> Vec<Row> {
            let kept = model.iter().filter(|(_, v)| keep(v));
            kept.map(|(n, (age, city))| vec![n.as_str().into(), Value::Int(*age), city.clone()])
                .collect()
        }

        /// Every read path against the model: each key of the domain by
        /// primary key, each value by index probe, a full scan, and (when
        /// the overlay is empty, so that it is exact) each index's
        /// `distinct`.
        fn check(db: &Database, model: &Model, city_indexed: bool, folded: bool, when: &str) {
            let by_name = |mut rows: Vec<Row>| {
                rows.sort();
                rows
            };
            let tx = db.begin();
            for n in 0..NAMES {
                let got = db.get(tx, "people", &[name(n).into()]).ok();
                let want = rows_where(model, |_| true).into_iter().find(|r| r[0] == name(n).into());
                assert_eq!(got, want, "{when}: pk {}", name(n));
            }
            db.commit(tx).unwrap();
            for age in 0..AGES + 3 {
                let got = index_rows(db, "people", "age", &Value::Int(age));
                assert_eq!(by_name(got), rows_where(model, |v| v.0 == age), "{when}: age {age}");
            }
            for v in 0..4 {
                if city_indexed {
                    let got = index_rows(db, "people", "city", &city(v));
                    let want = rows_where(model, |row| row.1 == city(v));
                    assert_eq!(by_name(got), want, "{when}: city {:?}", city(v));
                }
            }
            let scanned = db.snapshot().scan("people").unwrap();
            assert_eq!(by_name(scanned), rows_where(model, |_| true));
            assert_eq!(db.row_count("people").unwrap(), model.len(), "{when}");
            if folded {
                let ages: BTreeSet<i64> = model.values().map(|v| v.0).collect();
                let stats = db.snapshot().index_stats("people", "age").unwrap().unwrap();
                assert_eq!(stats.distinct, ages.len(), "{when}: distinct ages");
                if city_indexed {
                    let cities: BTreeSet<&Value> = model.values().map(|v| &v.1).collect();
                    let stats = db.snapshot().index_stats("people", "city").unwrap().unwrap();
                    assert_eq!(stats.distinct, cities.len(), "{when}: distinct cities");
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Random inserts, updates (of values and of keys), deletes and
            /// a `create_index`, with two to four checkpoints cut through
            /// them — so images are built from a base *and* an overlay —
            /// read back like an in-memory model after every checkpoint
            /// and after a reopen. Every case opens with the four shapes a
            /// merge must get right: a base row shadowed by an update that
            /// moves its indexed value, a base row tombstoned, a base row
            /// renamed, and an index created after the checkpoint (an
            /// overlay backfill with no base tree under it).
            #[test]
            fn prop_checkpointed_tables_read_like_the_model(
                ops in proptest::collection::vec((0u8..14, 0u16..NAMES, 0i64..AGES), 30..160),
                cuts in 2usize..=4,
            ) {
                let p = tmpwal(&format!("model-{}", CASE.fetch_add(1, Ordering::SeqCst)));
                let db = Database::open(&p).unwrap();
                db.create_table(people_schema()).unwrap();
                let mut model = Model::new();
                let put = |db: &Database, model: &mut Model, n: String, age: i64, c: Value| {
                    let tx = db.begin();
                    let row = vec![n.as_str().into(), Value::Int(age), c.clone()];
                    match model.insert(n.clone(), (age, c)) {
                        Some(_) => db.update(tx, "people", &[n.into()], row).unwrap(),
                        None => drop(db.insert(tx, "people", row).unwrap()),
                    }
                    db.commit(tx).unwrap();
                };
                let remove = |db: &Database, model: &mut Model, n: String| {
                    if model.remove(&n).is_some() {
                        let tx = db.begin();
                        db.delete(tx, "people", &[n.into()]).unwrap();
                        db.commit(tx).unwrap();
                    }
                };
                let rename = |db: &Database, model: &mut Model, from: String, to: String| {
                    if model.contains_key(&to) {
                        return;
                    }
                    let Some((age, c)) = model.remove(&from) else { return };
                    let tx = db.begin();
                    let row = vec![to.as_str().into(), Value::Int(age), c.clone()];
                    db.update(tx, "people", &[from.into()], row).unwrap();
                    db.commit(tx).unwrap();
                    model.insert(to, (age, c));
                };

                for n in 0..8 {
                    put(&db, &mut model, name(n), i64::from(n) % 3, city(i64::from(n)));
                }
                db.checkpoint().unwrap();
                check(&db, &model, false, true, "first image");
                put(&db, &mut model, name(0), AGES + 1, city(2)); // shadowed, value moved
                remove(&db, &mut model, name(1)); // tombstoned
                rename(&db, &mut model, name(2), name(NAMES - 1));
                db.create_index("people", "city").unwrap(); // backfilled, no base tree

                let cut_every = ops.len() / (cuts + 1);
                for (step, (kind, n, v)) in ops.into_iter().enumerate() {
                    match kind {
                        0..=5 => put(&db, &mut model, name(n), v, city(v + i64::from(n))),
                        6..=9 => remove(&db, &mut model, name(n)),
                        10..=12 => rename(&db, &mut model, name(n), name(n + 1 + v as u16)),
                        _ => db.create_index("people", "city").unwrap(),
                    }
                    if step % cut_every == cut_every - 1 && step / cut_every < cuts {
                        check(&db, &model, true, false, &format!("before the cut at {step}"));
                        db.checkpoint().unwrap();
                        prop_assert_eq!(db.overlay_row_count("people").unwrap(), 0);
                        check(&db, &model, true, true, &format!("after the cut at {step}"));
                    }
                }
                check(&db, &model, true, false, "at the end");
                drop(db);
                let db = Database::open(&p).unwrap();
                check(&db, &model, true, false, "reopened, image and log");
                db.checkpoint().unwrap();
                drop(db);
                let db = Database::open(&p).unwrap();
                check(&db, &model, true, true, "reopened, image alone");
                std::fs::remove_file(&p).unwrap();
                std::fs::remove_file(image_path(&p)).unwrap();
            }
        }
    }

    // That a checkpoint waits for an open transaction is tested beside the
    // other writers' waits, in `structured::replication`.
    #[test]
    fn checkpoint_is_noop_in_memory() {
        let db = Database::in_memory();
        db.create_table(people_schema()).unwrap();
        db.checkpoint().unwrap(); // no-op, no error
        db.insert_autocommit("people", person("a", 1, "x")).unwrap();
        db.checkpoint().unwrap();
        assert_eq!(db.checkpoint_epoch(), 0);
    }
}
