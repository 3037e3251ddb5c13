//! Durability integration: crawl snapshots, WAL-backed structure, crash
//! recovery, and schema evolution over the recovered store.

use quarry::core::feedback::{self, Correction};
use quarry::core::{Quarry, QuarryConfig};
use quarry::corpus::{Corpus, CorpusConfig, CrawlConfig, CrawlSimulator, NoiseConfig};
use quarry::lang::provenance::{self, Cell, Source};
use quarry::schema::{migrate_table, EvolutionOp};
use quarry::storage::{
    Column, CrashPlan, DataType, Database, FaultBackend, Op, RealBackend, ScanAccess,
    SnapshotStore, TableSchema, Value,
};
use std::sync::Arc;

mod common;
use common::{dump, remove_db_files, tmpwal};

#[test]
fn thirty_day_crawl_compresses_and_reconstructs() {
    let corpus = Corpus::generate(&CorpusConfig::tiny(8));
    let snaps = CrawlSimulator::new(
        &corpus,
        CrawlConfig { seed: 2, days: 30, churn: 0.03, new_page_rate: 0.2 },
    )
    .run();
    let mut store = SnapshotStore::new(8);
    for s in &snaps {
        store.put_snapshot(s.docs.iter().map(|d| (d.title.as_str(), d.text.as_str())));
    }
    assert!(store.stats().compression_ratio() > 3.0);
    // Spot-check exact reconstruction of every version of one document.
    let title = &snaps[0].docs[0].title;
    for (day, snap) in snaps.iter().enumerate() {
        let expect = snap.docs.iter().find(|d| &d.title == title).unwrap();
        assert_eq!(store.get(title, day).unwrap(), expect.text, "day {day}");
    }
}

#[test]
fn crash_recovery_preserves_committed_pipeline_output() {
    let p = tmpwal("pipeline-crash");
    let schema = TableSchema::new(
        "cities",
        vec![Column::new("name", DataType::Text), Column::new("population", DataType::Int)],
        &["name"],
        &["population"],
    )
    .unwrap();
    {
        let db = Database::open(&p).unwrap();
        db.create_table(schema.clone()).unwrap();
        let tx = db.begin();
        db.insert(tx, "cities", vec!["Madison".into(), Value::Int(250_000)]).unwrap();
        db.insert(tx, "cities", vec!["Oakton".into(), Value::Int(9_500)]).unwrap();
        db.commit(tx).unwrap();
        let tx2 = db.begin();
        db.insert(tx2, "cities", vec!["Ghost".into(), Value::Int(1)]).unwrap();
        // Crash before commit.
    }
    let db = Database::open(&p).unwrap();
    let snap = db.snapshot();
    let rows = snap.scan("cities").unwrap();
    assert_eq!(rows.len(), 2);
    assert!(rows.iter().all(|r| r[0] != Value::Text("Ghost".into())));
    // The secondary index works post-recovery.
    let pop = Value::Int(9_500);
    let access = ScanAccess::Index { column: "population", lo: Some(&pop), hi: Some(&pop) };
    let (hits, _) = snap.select("cities", access, &mut |_| true, None).unwrap();
    assert_eq!(hits.len(), 1);
    std::fs::remove_file(&p).unwrap();
}

#[test]
fn schema_evolution_survives_recovery() {
    let p = tmpwal("evolution-crash");
    let base =
        TableSchema::new("people", vec![Column::new("name", DataType::Text)], &["name"], &[])
            .unwrap();
    let employer = EvolutionOp::AddColumn {
        column: Column::nullable("employer", DataType::Text),
        default: Value::Null,
    };
    {
        let db = Database::open(&p).unwrap();
        db.create_table(base).unwrap();
        db.insert_autocommit("people", vec!["David Smith".into()]).unwrap();
        migrate_table(&db, "people", &[employer]).unwrap();
        let tx = db.begin();
        db.update(
            tx,
            "people",
            &["David Smith".into()],
            vec!["David Smith".into(), "Acme Systems".into()],
        )
        .unwrap();
        db.commit(tx).unwrap();
    }
    // Recovery replays DDL (drop + create) and the migrated rows.
    let db = Database::open(&p).unwrap();
    let schema = db.schema("people").unwrap();
    assert_eq!(schema.columns.len(), 2);
    let rows = db.snapshot().scan("people").unwrap();
    assert_eq!(
        rows,
        vec![vec![Value::Text("David Smith".into()), Value::Text("Acme Systems".into()),]]
    );
    std::fs::remove_file(&p).unwrap();
}

/// An explanation is read from `_provenance`, which is on the log: it is
/// the same after a second day's crawl replaces the working set and after
/// a restart, when no page of the first day is left in memory.
#[test]
fn explanations_outlive_ingest_and_restart() {
    let p = tmpwal("explain-restart");
    let corpus =
        Corpus::generate(&CorpusConfig { noise: NoiseConfig::none(), ..CorpusConfig::tiny(3) });
    let days = CrawlSimulator::new(
        &corpus,
        CrawlConfig { seed: 4, days: 2, churn: 0.5, new_page_rate: 1.0 },
    )
    .run();
    let open = || Quarry::new(QuarryConfig::builder().wal_path(&p).build()).unwrap();
    let key = [Value::from(corpus.truth.cities[0].name.as_str())];
    let mut q = open();
    q.ingest(days[0].docs.clone());
    q.run_pipeline(
        r#"PIPELINE cities FROM corpus
EXTRACT infobox, rules
WHERE attribute IN ("name", "state", "population")
RESOLVE BY name
STORE INTO cities KEY name"#,
    )
    .unwrap();
    let stored = q.snapshot().explain("cities", &key).unwrap();
    assert!(stored.cells.len() >= 2, "{stored}");
    assert!(stored.cells.iter().all(|c| c.source.is_some()), "{stored}");

    q.ingest(days[1].docs.clone());
    assert_ne!(q.docs(), &days[0].docs[..], "the second day changed the pages");
    assert_eq!(q.snapshot().explain("cities", &key).unwrap(), stored, "after ingest");
    drop(q);
    let q = open();
    assert!(q.docs().is_empty());
    assert_eq!(q.snapshot().explain("cities", &key).unwrap(), stored, "after restart");
    drop(q);
    remove_db_files(&p);
}

#[test]
fn wal_grows_with_work_and_recovery_is_complete_after_many_batches() {
    let p = tmpwal("many-batches");
    {
        let db = Database::open(&p).unwrap();
        db.create_table(
            TableSchema::new(
                "t",
                vec![Column::new("k", DataType::Int), Column::new("v", DataType::Int)],
                &["k"],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        for batch in 0..20i64 {
            let tx = db.begin();
            for i in 0..10i64 {
                db.insert(tx, "t", vec![Value::Int(batch * 10 + i), Value::Int(batch)]).unwrap();
            }
            if batch % 4 == 3 {
                db.abort(tx).unwrap(); // every fourth batch is abandoned
            } else {
                db.commit(tx).unwrap();
            }
        }
    }
    let db = Database::open(&p).unwrap();
    assert_eq!(db.row_count("t").unwrap(), 15 * 10);
    std::fs::remove_file(&p).unwrap();
}

// ---------------------------------------------------------------------
// Recovery differential harness
// ---------------------------------------------------------------------
//
// Records a deterministic workload's complete storage-operation stream with
// a fault-injecting backend, then for every crash point k re-runs the
// workload with a plan that kills the process-model at operation k,
// restarts from the surviving files, and asserts the recovered database is
// bit-identical to a reference state at a *step boundary* — the state just
// before or just after the step the crash interrupted, never a hybrid —
// and never earlier than the last step whose commit completed before the
// crash (the durability floor). Torn-write variants re-run write crash
// points persisting only half the crashing write's bytes.
//
// `QUARRY_CRASH_POINTS=n` bounds the sweep to n evenly-spread crash points
// (CI smoke); the checkpoint publication rename and the WAL reset right
// after it are always included.
//
// Two workloads run through the same sweep: the original mixed DML one,
// and a split-heavy one whose multi-kilobyte text rows force the B-tree
// checkpoint builder through overflow chains, oversized index keys, and
// repeated page splits — so the kill and torn-write sweeps cover crashes
// in the middle of multi-page split writes.

type Step = fn(&Database) -> quarry::storage::Result<()>;

fn people_schema() -> TableSchema {
    TableSchema::new(
        "people",
        vec![
            Column::new("name", DataType::Text),
            Column::new("age", DataType::Int),
            Column::nullable("city", DataType::Text),
        ],
        &["name"],
        &["age"],
    )
    .unwrap()
}

fn events_schema() -> TableSchema {
    TableSchema::new(
        "events",
        vec![Column::new("id", DataType::Int), Column::new("kind", DataType::Text)],
        &["id"],
        &[],
    )
    .unwrap()
}

fn person(name: &str, age: i64, city: &str) -> Vec<Value> {
    vec![name.into(), Value::Int(age), city.into()]
}

/// The recorded workload: each step is one atomic unit (one committed
/// transaction, one auto-committed DDL statement, or one checkpoint), so
/// every step boundary is a legal recovery target.
fn workload_steps() -> Vec<Step> {
    vec![
        |db| db.create_table(people_schema()),
        |db| {
            let tx = db.begin();
            db.insert(tx, "people", person("ada", 36, "london"))?;
            db.insert(tx, "people", person("alan", 41, "cambridge"))?;
            db.insert(tx, "people", person("grace", 37, "arlington"))?;
            db.commit(tx)
        },
        |db| {
            let tx = db.begin();
            db.insert(tx, "people", person("edsger", 40, "austin"))?;
            db.insert(tx, "people", person("barbara", 52, "cambridge"))?;
            db.commit(tx)
        },
        |db| {
            let tx = db.begin();
            db.update(tx, "people", &["ada".into()], person("ada", 37, "london"))?;
            db.commit(tx)
        },
        |db| {
            let tx = db.begin();
            db.delete(tx, "people", &["alan".into()])?;
            db.commit(tx)
        },
        |db| db.create_index("people", "city"),
        |db| {
            // An aborted transaction: logical state unchanged, log grows.
            let tx = db.begin();
            db.insert(tx, "people", person("ghost", 1, "nowhere"))?;
            db.abort(tx)
        },
        |db| {
            let tx = db.begin();
            db.insert(tx, "people", person("kurt", 71, "princeton"))?;
            db.insert(tx, "people", person("alonzo", 92, "princeton"))?;
            db.commit(tx)
        },
        |db| db.checkpoint(),
        |db| {
            let tx = db.begin();
            db.insert(tx, "people", person("john", 53, "princeton"))?;
            db.commit(tx)
        },
        |db| {
            let tx = db.begin();
            db.update(tx, "people", &["grace".into()], person("grace", 85, "arlington"))?;
            db.delete(tx, "people", &["edsger".into()])?;
            db.commit(tx)
        },
        |db| db.create_table(events_schema()),
        |db| {
            let tx = db.begin();
            db.insert(tx, "events", vec![Value::Int(1), "login".into()])?;
            db.insert(tx, "events", vec![Value::Int(2), "edit".into()])?;
            db.commit(tx)
        },
        |db| db.checkpoint(),
        |db| {
            let tx = db.begin();
            db.insert(tx, "events", vec![Value::Int(3), "logout".into()])?;
            db.commit(tx)
        },
        |db| {
            let tx = db.begin();
            db.delete(tx, "events", &[Value::Int(1)])?;
            db.update(tx, "people", &["kurt".into()], person("kurt", 72, "princeton"))?;
            db.commit(tx)
        },
        |db| {
            let tx = db.begin();
            db.insert(tx, "people", person("emmy", 53, "bryn mawr"))?;
            db.commit(tx)
        },
    ]
}

fn cities_schema() -> TableSchema {
    TableSchema::new(
        "cities",
        vec![Column::new("name", DataType::Text), Column::nullable("population", DataType::Int)],
        &["name"],
        &[],
    )
    .unwrap()
}

/// A `STORE`-like unit: the row and each cell's extracted source.
fn store_city(db: &Database, name: &str, population: i64) -> quarry::storage::Result<()> {
    let tx = db.begin();
    db.insert(tx, "cities", vec![name.into(), Value::Int(population)])?;
    for (column, raw) in [("name", name.to_string()), ("population", population.to_string())] {
        let source = Source::Extracted {
            doc: quarry::corpus::DocId(7),
            span: quarry::extract::Span::new(0, raw.len()),
            extractor: "infobox".into(),
            confidence: 0.95,
            raw,
        };
        provenance::set(db, tx, Cell { table: "cities", key: name, column }, &source)?;
    }
    db.commit(tx)
}

/// A correction applied through the function `FeedbackQueue` applies
/// corrections with.
fn correct(db: &Database, name: &str, population: i64, user: &str) -> quarry::storage::Result<()> {
    let c = Correction {
        table: "cities".into(),
        key: vec![name.into()],
        column: "population".into(),
        value: Value::Int(population),
    };
    feedback::apply(db, &c, user)
}

/// The correction workload: a table, `_provenance`, stored rows with their
/// sources, and corrections before and after a checkpoint, so a crash
/// inside a correction's unit must leave its cell and its `User` source
/// both written or neither.
fn correction_steps() -> Vec<Step> {
    vec![
        |db| db.create_table(cities_schema()),
        provenance::ensure,
        |db| store_city(db, "Madison", 1_566_035),
        |db| store_city(db, "Oakton", 9_500),
        |db| correct(db, "Madison", 777_777, "editor"),
        |db| db.checkpoint(),
        |db| correct(db, "Oakton", 9_600, "editor"),
        |db| correct(db, "Madison", 250_000, "curator"),
        |db| store_city(db, "Fairview", 31_000),
    ]
}

fn docs_schema() -> TableSchema {
    TableSchema::new(
        "docs",
        vec![
            Column::new("id", DataType::Int),
            Column::new("tag", DataType::Text),
            Column::new("body", DataType::Text),
        ],
        &["id"],
        &["tag"],
    )
    .unwrap()
}

/// A deterministic multi-kilobyte body: a distinct per-id prefix (so the
/// body index has real ordering work to do) padded to `kb` kilobytes —
/// past the B-tree's inline-value limit, so checkpoint builds spill these
/// rows into overflow chains spanning several pages.
fn big_body(id: i64, kb: usize) -> String {
    let mut s = format!("doc-{id:04}:");
    while s.len() < kb * 1024 {
        s.push_str("the quick brown fox jumps over the lazy dog ");
    }
    s
}

/// One document row; body size cycles 1..=7 KiB so the row tree holds a
/// mix of inline and overflow values.
fn doc(id: i64) -> Vec<Value> {
    let kb = 1 + (id % 4) as usize * 2;
    vec![Value::Int(id), format!("tag-{}", id % 5).into(), big_body(id, kb).into()]
}

fn insert_docs(db: &Database, lo: i64, hi: i64) -> quarry::storage::Result<()> {
    let tx = db.begin();
    for id in lo..hi {
        db.insert(tx, "docs", doc(id))?;
    }
    db.commit(tx)
}

/// The split-heavy workload: enough multi-KB rows that each checkpoint's
/// tree build splits leaves repeatedly and writes multi-page overflow
/// chains, an index over the oversized `body` column (keys past the
/// inline limit), and post-checkpoint churn so the second build merges a
/// base image with an overlay.
fn split_heavy_steps() -> Vec<Step> {
    vec![
        |db| db.create_table(docs_schema()),
        |db| insert_docs(db, 0, 12),
        |db| insert_docs(db, 12, 24),
        |db| insert_docs(db, 24, 36),
        |db| db.checkpoint(),
        |db| {
            let tx = db.begin();
            // Rewrites move rows between inline and overflow sizing.
            db.update(
                tx,
                "docs",
                &[Value::Int(3)],
                vec![Value::Int(3), "tag-3".into(), big_body(3, 6).into()],
            )?;
            db.update(
                tx,
                "docs",
                &[Value::Int(20)],
                vec![Value::Int(20), "tag-0".into(), "tiny".into()],
            )?;
            db.delete(tx, "docs", &[Value::Int(7)])?;
            db.delete(tx, "docs", &[Value::Int(30)])?;
            db.commit(tx)
        },
        |db| db.create_index("docs", "body"),
        |db| insert_docs(db, 36, 44),
        |db| db.checkpoint(),
        |db| {
            let tx = db.begin();
            db.delete(tx, "docs", &[Value::Int(11)])?;
            db.update(
                tx,
                "docs",
                &[Value::Int(40)],
                vec![Value::Int(40), "tag-9".into(), big_body(40, 5).into()],
            )?;
            db.insert(tx, "docs", doc(44))?;
            db.commit(tx)
        },
        |db| insert_docs(db, 45, 48),
    ]
}

/// One crash case: run the workload against a backend that dies at
/// operation `k` (optionally tearing that write), restart from the
/// surviving files with the real backend, and check the recovered state
/// against the reference states.
fn run_crash_case(
    k: u64,
    tear: Option<usize>,
    steps: &[Step],
    states: &[String],
    cum: &[u64],
    label: &str,
) {
    let p = tmpwal(&format!("recdiff-{label}"));
    let plan = CrashPlan { crash_at: k, tear_bytes: tear };
    let fb = FaultBackend::with_plan(RealBackend, plan);
    if let Ok(db) = Database::open_with(Arc::new(fb.clone()), &p) {
        for step in steps {
            if step(&db).is_err() {
                break;
            }
        }
    }
    assert!(fb.crashed(), "{label}: plan at op {k} of {} never fired", cum.last().unwrap());
    assert_eq!(fb.op_count(), k, "{label}: op stream diverged from the recording");

    // Restart: recover from whatever survived, with the real filesystem.
    let db = Database::open(&p).unwrap();
    let got = dump(&db);
    drop(db);
    remove_db_files(&p);

    // The crash hit op k; find the step that contains it. cum[0] is the
    // op count of opening the database, cum[i] the count after step i.
    let s = cum.iter().position(|&c| c >= k).expect("k is within the recorded stream");
    // Atomicity: recovered state is the state just before or just after
    // the interrupted step — never a hybrid. Durability: every step that
    // finished (and synced) before the crash is the floor; recovering less
    // would match an earlier reference state and fail here too.
    let allowed: &[usize] = if s == 0 { &[0] } else { &[s - 1, s] };
    assert!(
        allowed.iter().any(|&j| states[j] == got),
        "{label}: crash at op {k} (step {s}) recovered a state matching neither the pre-step \
         nor the post-step reference.\nrecovered:\n{got}\npre:\n{}\npost:\n{}",
        &states[allowed[0]],
        &states[*allowed.last().unwrap()],
    );
}

/// The full differential: record the workload's op stream, then sweep
/// kill and torn-write crashes across it. `label` keeps the scratch files
/// of concurrently-running sweeps apart.
fn differential_sweep(steps: &[Step], label: &str) {
    // Reference states: the workload replayed on an in-memory database,
    // dumped after every step prefix (checkpoint is a no-op there, which is
    // correct — it does not change logical state).
    let reference = Database::in_memory();
    let mut states = vec![dump(&reference)];
    for step in steps {
        step(&reference).unwrap();
        states.push(dump(&reference));
    }

    // Recording run: capture the full operation stream and each step's
    // cumulative operation count.
    let p = tmpwal(&format!("recdiff-{label}-record"));
    let rec = FaultBackend::recording(RealBackend);
    let db = Database::open_with(Arc::new(rec.clone()), &p).unwrap();
    let mut cum = vec![rec.op_count()];
    for step in steps {
        step(&db).unwrap();
        cum.push(rec.op_count());
    }
    // Capture the stream before dumping, so it is the workload's alone.
    let ops = rec.ops();
    let total = rec.op_count();
    assert_eq!(ops.len() as u64, total);
    assert_eq!(total, *cum.last().unwrap());
    assert_eq!(dump(&db), *states.last().unwrap(), "fault-free run must match the reference");
    drop(db);
    remove_db_files(&p);

    // The two checkpoint publications (renames) and the WAL resets right
    // after them are the crash points the atomic-checkpoint design exists
    // for; always include them.
    let mut must_test: Vec<u64> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if let Op::Rename { .. } = op {
            must_test.push(i as u64 + 1); // the rename itself
            if (i as u64 + 2) <= total {
                must_test.push(i as u64 + 2); // the reset that follows
            }
        }
    }
    assert!(!must_test.is_empty(), "workload must exercise checkpoint publication");

    // Crash points: full sweep by default; QUARRY_CRASH_POINTS=n picks n
    // evenly-spread points (plus the must-test set) for bounded CI runs.
    let mut ks: Vec<u64> = match std::env::var("QUARRY_CRASH_POINTS") {
        Ok(v) => {
            let n: u64 = v.parse().expect("QUARRY_CRASH_POINTS must be an integer");
            let n = n.clamp(1, total);
            (1..=n).map(|i| (i * total) / n).collect()
        }
        Err(_) => (1..=total).collect(),
    };
    ks.extend(&must_test);
    ks.sort_unstable();
    ks.dedup();

    for &k in &ks {
        run_crash_case(k, None, steps, &states, &cum, &format!("{label}-kill-{k}"));
    }

    // Torn-write variants: crash mid-append, persisting half the bytes of
    // the crashing write — replay must drop the torn record.
    let mut torn_cases = 0;
    for &k in &ks {
        if let Op::Write { bytes, .. } = &ops[(k - 1) as usize] {
            if *bytes >= 2 {
                run_crash_case(
                    k,
                    Some(bytes / 2),
                    steps,
                    &states,
                    &cum,
                    &format!("{label}-tear-{k}"),
                );
                torn_cases += 1;
            }
        }
    }
    assert!(torn_cases > 0, "sweep must include at least one torn write");
}

#[test]
fn recovery_differential() {
    differential_sweep(&workload_steps(), "base");
}

/// Same invariant, over corrections: a recovered database never holds a
/// corrected cell without its `User` source, or the source without the
/// cell.
#[test]
fn recovery_differential_corrections() {
    differential_sweep(&correction_steps(), "corrections");
}

/// Same invariant, split-heavy workload: every crash point — including
/// kills and torn writes landing mid-way through the multi-page overflow
/// chains and leaf splits of a B-tree checkpoint build — recovers to a
/// step boundary at or above the durability floor.
#[test]
fn recovery_differential_split_heavy() {
    differential_sweep(&split_heavy_steps(), "split");
}
