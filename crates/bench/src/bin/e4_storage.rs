//! E4 — §4 storage layer: each data form wants a different device.
//!
//! (a) Overlapping crawl snapshots → diff store saves space (vs. full copies).
//! (b) Sequential intermediate data → filestore scan throughput vs. the
//!     transactional store's scan (which pays typing and transaction overheads).
//! (c) Concurrent user edits → serial transactions (one open at a time)
//!     keep every update; the "no transactions" strawman loses updates.

use quarry_bench::{banner, f1, timed, Table};
use quarry_corpus::{Corpus, CorpusConfig, CrawlConfig, CrawlSimulator};
use quarry_storage::{Column, DataType, Database, FileStore, SnapshotStore, TableSchema, Value};
use std::sync::Arc;

fn main() {
    banner(
        "E4 storage devices",
        "\"these different forms of data ... may best be kept in different storage \
         devices\" (§4)",
    );
    part_a_snapshots();
    part_b_scan_throughput();
    part_c_concurrency();
}

fn part_a_snapshots() {
    println!("(a) diff-based snapshot store vs. storing snapshots in full");
    let corpus = Corpus::generate(&CorpusConfig { seed: 4, ..CorpusConfig::default() });
    let snaps = CrawlSimulator::new(
        &corpus,
        CrawlConfig { seed: 5, days: 30, churn: 0.02, new_page_rate: 0.5 },
    )
    .run();
    let mut delta = SnapshotStore::new(16);
    let mut full = SnapshotStore::new(1); // keyframe-every-version = no deltas
    let mut table = Table::new(&["day", "full bytes", "delta bytes", "ratio"]);
    for (i, s) in snaps.iter().enumerate() {
        delta.put_snapshot(s.docs.iter().map(|d| (d.title.as_str(), d.text.as_str())));
        full.put_snapshot(s.docs.iter().map(|d| (d.title.as_str(), d.text.as_str())));
        if (i + 1) % 5 == 0 {
            let ds = delta.stats();
            let fs = full.stats();
            table.row(&[
                format!("{}", i + 1),
                fs.stored_bytes.to_string(),
                ds.stored_bytes.to_string(),
                f1(fs.stored_bytes as f64 / ds.stored_bytes as f64),
            ]);
        }
    }
    table.print();
    println!();
}

fn part_b_scan_throughput() {
    println!("(b) sequential scan: filestore vs. transactional store");
    let n = 50_000usize;
    let record = |i: usize| format!("extraction {i}: attribute=july_temp value=72 confidence=0.95");

    let dir = std::env::temp_dir().join(format!("quarry-e4-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut fs = FileStore::open(&dir).unwrap();
    let (_, w_fs) = timed(|| {
        for i in 0..n {
            fs.append(record(i).as_bytes()).unwrap();
        }
        fs.sync().unwrap();
    });
    let (bytes, r_fs) = timed(|| fs.scan().unwrap().map(|r| r.unwrap().len()).sum::<usize>());

    let db = Database::in_memory();
    db.create_table(
        TableSchema::new(
            "intermediate",
            vec![Column::new("id", DataType::Int), Column::new("payload", DataType::Text)],
            &["id"],
            &[],
        )
        .unwrap(),
    )
    .unwrap();
    let (_, w_db) = timed(|| {
        let tx = db.begin();
        for i in 0..n {
            db.insert(tx, "intermediate", vec![Value::Int(i as i64), record(i).into()]).unwrap();
        }
        db.commit(tx).unwrap();
    });
    let (rows, r_db) = timed(|| db.snapshot().scan("intermediate").unwrap().len());

    let mut t = Table::new(&["device", "write ms", "scan ms", "records"]);
    t.row(&["filestore (append-only)".into(), f1(w_fs), f1(r_fs), n.to_string()]);
    t.row(&["structured store (txns+WAL)".into(), f1(w_db), f1(r_db), rows.to_string()]);
    t.print();
    println!("  (scanned {bytes} payload bytes from the filestore)\n");
    let _ = std::fs::remove_dir_all(&dir);
}

fn part_c_concurrency() {
    println!("(c) concurrent editors on the final structure");
    let editors = 4usize;
    let edits_per = 50usize;

    // Read-modify-write inside one transaction: `begin()` admits one
    // editor at a time, so nobody reads a counter another is changing.
    let db = Arc::new(Database::in_memory());
    db.create_table(
        TableSchema::new(
            "page_counters",
            vec![Column::new("page", DataType::Text), Column::new("edits", DataType::Int)],
            &["page"],
            &[],
        )
        .unwrap(),
    )
    .unwrap();
    db.insert_autocommit("page_counters", vec!["Madison".into(), Value::Int(0)]).unwrap();
    let (_, ms_serial) = timed(|| {
        let mut handles = Vec::new();
        for _ in 0..editors {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for _ in 0..edits_per {
                    let tx = db.begin();
                    let row = db.get(tx, "page_counters", &["Madison".into()]).unwrap();
                    let n = row[1].as_f64().unwrap() as i64;
                    db.update(
                        tx,
                        "page_counters",
                        &["Madison".into()],
                        vec!["Madison".into(), Value::Int(n + 1)],
                    )
                    .unwrap();
                    db.commit(tx).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });
    let final_serial = db.snapshot().scan("page_counters").unwrap()[0][1].clone();

    // Strawman: each read and write is its own transaction — the lost-update
    // anomaly an RDBMS exists to prevent.
    let db2 = Arc::new(Database::in_memory());
    db2.create_table(
        TableSchema::new(
            "page_counters",
            vec![Column::new("page", DataType::Text), Column::new("edits", DataType::Int)],
            &["page"],
            &[],
        )
        .unwrap(),
    )
    .unwrap();
    db2.insert_autocommit("page_counters", vec!["Madison".into(), Value::Int(0)]).unwrap();
    let barrier = Arc::new(std::sync::Barrier::new(editors));
    let (_, ms_naive) = timed(|| {
        let mut handles = Vec::new();
        for _ in 0..editors {
            let db = Arc::clone(&db2);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..edits_per {
                    // Read in one transaction...
                    let tx = db.begin();
                    let row = db.get(tx, "page_counters", &["Madison".into()]).unwrap();
                    let n = row[1].as_f64().unwrap() as i64;
                    db.commit(tx).unwrap();
                    // ...write in another: the interleaving window.
                    std::thread::yield_now();
                    let tx = db.begin();
                    db.update(
                        tx,
                        "page_counters",
                        &["Madison".into()],
                        vec!["Madison".into(), Value::Int(n + 1)],
                    )
                    .unwrap();
                    db.commit(tx).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });
    let final_naive = db2.snapshot().scan("page_counters").unwrap()[0][1].clone();
    let expected = (editors * edits_per) as i64;
    let lost = expected - final_naive.as_f64().unwrap_or(0.0) as i64;

    let mut t = Table::new(&["scheme", "expected", "observed", "lost updates", "ms"]);
    t.row(&[
        "serial transactions (single writer)".into(),
        expected.to_string(),
        final_serial.to_string(),
        "0".into(),
        f1(ms_serial),
    ]);
    t.row(&[
        "separate read/write txns".into(),
        expected.to_string(),
        final_naive.to_string(),
        lost.to_string(),
        f1(ms_naive),
    ]);
    t.print();
    println!(
        "\nexpected shape: deltas ≫ full copies in space; filestore scans faster than the\n\
         transactional store; serial transactions keep every update ({} editors × {} edits),\n\
         the strawman loses {:.0}%+ of them.",
        editors,
        edits_per,
        100.0 * lost as f64 / expected as f64
    );
}
