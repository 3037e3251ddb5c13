//! The storage layer under its intended workloads.
//!
//! §4's storage argument, demonstrated live: daily crawl snapshots overlap,
//! so the diff-based store keeps 30 days in a fraction of the raw bytes;
//! the final structure lives in the transactional store, which recovers
//! exactly the committed work after a crash mid-batch.
//!
//! Run with: `cargo run --example crawl_and_recover`

use quarry::corpus::{Corpus, CorpusConfig, CrawlConfig, CrawlSimulator};
use quarry::storage::{Column, DataType, Database, SnapshotStore, TableSchema, Value};

fn main() {
    // --- Part 1: 30 daily snapshots into the delta store. -----------------
    let corpus = Corpus::generate(&CorpusConfig { seed: 5, ..CorpusConfig::default() });
    let crawl = CrawlConfig { seed: 6, days: 30, churn: 0.02, new_page_rate: 0.5 };
    let snapshots = CrawlSimulator::new(&corpus, crawl).run();

    let mut store = SnapshotStore::new(16);
    for snap in &snapshots {
        store.put_snapshot(snap.docs.iter().map(|d| (d.title.as_str(), d.text.as_str())));
    }
    let stats = store.stats();
    println!("crawl: {} snapshots of ~{} docs", snapshots.len(), snapshots[0].docs.len());
    println!(
        "snapshot store: {} logical bytes stored in {} ({}x compression)",
        stats.logical_bytes,
        stats.stored_bytes,
        stats.compression_ratio() as u64
    );
    // Any historical version reconstructs exactly.
    let title = &snapshots[0].docs[0].title;
    let day0 = store.get(title, 0).expect("day 0");
    assert_eq!(day0, snapshots[0].docs[0].text);
    println!("day-0 version of {title:?} reconstructs byte-exact");

    // --- Part 2: crash mid-batch, recover the committed prefix. -----------
    let wal = std::env::temp_dir().join(format!("quarry-example-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal);
    let schema = TableSchema::new(
        "cities",
        vec![Column::new("name", DataType::Text), Column::new("population", DataType::Int)],
        &["name"],
        &[],
    )
    .expect("schema");

    {
        let db = Database::open(&wal).expect("open");
        db.create_table(schema).expect("ddl");
        // Batch 1 commits.
        let tx = db.begin();
        for c in corpus.truth.cities.iter().take(10) {
            db.insert(tx, "cities", vec![c.name.as_str().into(), Value::Int(c.population as i64)])
                .expect("insert");
        }
        db.commit(tx).expect("commit");
        // Batch 2 is in flight when the process "dies".
        let tx = db.begin();
        for c in corpus.truth.cities.iter().skip(10).take(10) {
            db.insert(tx, "cities", vec![c.name.as_str().into(), Value::Int(c.population as i64)])
                .expect("insert");
        }
        // No commit: drop everything on the floor.
    }

    let db = Database::open(&wal).expect("recover");
    let rows = db.snapshot().scan("cities").expect("scan");
    println!("\nafter crash + recovery: {} rows (committed batch only)", rows.len());
    assert_eq!(rows.len(), 10, "exactly the committed prefix survives");
    println!("recovery restored exactly the committed prefix — no more, no less");
    let _ = std::fs::remove_file(&wal);
}
