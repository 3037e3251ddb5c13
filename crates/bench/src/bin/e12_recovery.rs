//! E12 — §4 Part III: "transaction management and crash recovery" for the
//! data-generation process.
//!
//! Protocol: write committed batches to a WAL-backed store, then simulate a
//! crash by truncating the log at an arbitrary byte offset (a torn write),
//! recover, and check the committed-prefix invariant: every transaction
//! whose commit record survived is fully present; everything else is fully
//! absent. Also: recovery time vs. log size.

use quarry_bench::{banner, f1, timed, Table};
use quarry_storage::{Column, DataType, Database, TableSchema, Value, Wal};
use std::path::PathBuf;

fn tmpwal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("quarry-e12");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{tag}-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn schema() -> TableSchema {
    TableSchema::new(
        "facts",
        vec![Column::new("k", DataType::Int), Column::new("batch", DataType::Int)],
        &["k"],
        &[],
    )
    .unwrap()
}

fn main() {
    banner(
        "E12 crash recovery",
        "Part III \"handles transaction management and crash recovery\" (§4)",
    );

    // --- (a) random truncation points preserve the committed prefix. -------
    let p = tmpwal("torn");
    {
        let db = Database::open(&p).unwrap();
        db.create_table(schema()).unwrap();
        for batch in 0..30i64 {
            let tx = db.begin();
            for i in 0..20i64 {
                db.insert(tx, "facts", vec![Value::Int(batch * 20 + i), Value::Int(batch)])
                    .unwrap();
            }
            db.commit(tx).unwrap();
        }
    }
    let full = std::fs::read(&p).unwrap();
    println!("(a) committed-prefix invariant under {} random truncations", 25);
    let mut checked = 0;
    for t in 0..25 {
        // Deterministic pseudo-random cut points across the whole log.
        let cut = (t * 982_451_653usize + 12_345) % full.len();
        std::fs::write(&p, &full[..cut]).unwrap();
        let db = Database::open(&p).unwrap();
        let rows = db.snapshot().scan("facts").unwrap();
        // Batch integrity: each batch is all-or-nothing.
        let mut per_batch = std::collections::BTreeMap::new();
        for r in &rows {
            *per_batch.entry(r[1].to_string()).or_insert(0usize) += 1;
        }
        for (batch, count) in &per_batch {
            assert_eq!(*count, 20, "batch {batch} partially recovered at cut {cut}");
        }
        // Prefix property: recovered batches are a prefix 0..m.
        let m = per_batch.len();
        for b in 0..m {
            assert!(per_batch.contains_key(&b.to_string()), "gap at batch {b}, cut {cut}");
        }
        checked += 1;
    }
    println!("    {checked}/25 truncation points recovered to an exact committed prefix\n");
    std::fs::write(&p, &full).unwrap();

    // --- (b) recovery time vs. log size. ------------------------------------
    println!("(b) recovery time vs. log length");
    let mut table = Table::new(&["committed rows", "log bytes", "recovery ms", "rows recovered"]);
    for rows_n in [2_000usize, 10_000, 50_000] {
        let p = tmpwal(&format!("size{rows_n}"));
        {
            let db = Database::open(&p).unwrap();
            db.create_table(schema()).unwrap();
            let tx = db.begin();
            for i in 0..rows_n {
                db.insert(tx, "facts", vec![Value::Int(i as i64), Value::Int(0)]).unwrap();
            }
            db.commit(tx).unwrap();
        }
        let log_bytes = std::fs::metadata(&p).unwrap().len();
        let (db, ms) = timed(|| Database::open(&p).unwrap());
        table.row(&[
            rows_n.to_string(),
            log_bytes.to_string(),
            f1(ms),
            db.row_count("facts").unwrap().to_string(),
        ]);
        let _ = std::fs::remove_file(&p);
    }
    table.print();

    // --- (b2) checkpointing bounds recovery by live size, not history. ------
    println!("\n(b2) recovery after heavy update history, with and without checkpoint");
    let mut table = Table::new(&["history", "log bytes", "recovery ms"]);
    for checkpointed in [false, true] {
        let p = tmpwal(&format!("ckpt{checkpointed}"));
        {
            let db = Database::open(&p).unwrap();
            db.create_table(schema()).unwrap();
            let tx = db.begin();
            for i in 0..1_000i64 {
                db.insert(tx, "facts", vec![Value::Int(i), Value::Int(0)]).unwrap();
            }
            db.commit(tx).unwrap();
            // 20 full-table update passes: history ≫ live data.
            for pass in 1..=20i64 {
                let tx = db.begin();
                for i in 0..1_000i64 {
                    db.update(tx, "facts", &[Value::Int(i)], vec![Value::Int(i), Value::Int(pass)])
                        .unwrap();
                }
                db.commit(tx).unwrap();
            }
            if checkpointed {
                db.checkpoint().unwrap();
            }
        }
        let log_bytes = std::fs::metadata(&p).unwrap().len();
        let (db, ms) = timed(|| Database::open(&p).unwrap());
        assert_eq!(db.row_count("facts").unwrap(), 1_000);
        table.row(&[
            if checkpointed { "21k ops + checkpoint" } else { "21k ops, no checkpoint" }.into(),
            log_bytes.to_string(),
            f1(ms),
        ]);
        let _ = std::fs::remove_file(&p);
    }
    table.print();

    // --- (c) WAL-level torn-tail handling. ----------------------------------
    let records = Wal::replay(&p).unwrap();
    println!(
        "\n(c) WAL replay of the intact log: {} clean records, {} bytes",
        records.len(),
        std::fs::metadata(&p).unwrap().len()
    );
    let _ = std::fs::remove_file(&p);
    println!("\nexpected shape: every truncation recovers a clean batch prefix (asserted);\nrecovery time linear in log length.");
}
