//! Differential soak: the serving layer must be a transparent transport.
//!
//! The same query/QDL workload is driven (a) directly through the
//! `Quarry` façade and (b) through `quarry_serve::Client` from four
//! concurrent threads against an in-process server, and every outcome —
//! rows, orderings, error kinds *and* messages — must be bit-identical.
//! The workload is restricted to idempotent pipelines and deterministic
//! reads, so its outcomes are independent of how the four client streams
//! interleave. A mid-soak `Checkpoint` plus a full server restart from
//! the WAL must recover a logically identical database.

use quarry::cluster::{Cluster, ClusterConfig};
use quarry::core::{Quarry, QuarryConfig, QuarryError, SharedQuarry};
use quarry::query::engine::{AggFn, Query};
use quarry::query::Predicate;
use quarry::serve::protocol::ErrorKind;
use quarry::serve::{Client, ClientError, ServeConfig, Server};
use quarry::storage::{Column, DataType, Database, TableSchema, Value};
use quarry_corpus::{Corpus, CorpusConfig, NoiseConfig};
use std::time::Duration;

mod common;
use common::{dump, dump_where, remove_db_files, tmpwal};

const PIPELINE: &str = r#"
PIPELINE cities FROM corpus
EXTRACT infobox, rules
WHERE attribute IN ("name", "state", "population", "founded")
RESOLVE BY name
STORE INTO cities KEY name
"#;

fn corpus() -> Corpus {
    Corpus::generate(&CorpusConfig { noise: NoiseConfig::none(), ..CorpusConfig::tiny(33) })
}

fn queries() -> Vec<Query> {
    vec![
        Query::scan("cities").aggregate(None, AggFn::Count, "name"),
        Query::scan("cities")
            .filter(vec![Predicate::Eq("state".into(), "Wisconsin".into())])
            .project(&["name", "population"]),
        Query::scan("cities").sort("population", true, Some(5)).project(&["name"]),
        Query::scan("cities").aggregate(Some("state"), AggFn::Max, "population"),
        // Deterministic failures: a missing table and an unknown column.
        Query::scan("ghost"),
        Query::scan("cities").filter(vec![Predicate::Eq("no_such_column".into(), Value::Null)]),
    ]
}

/// Render an outcome canonically. `Value`'s (and `f64`'s) `Debug` is
/// shortest-round-trip exact, so equal strings mean bit-equal results.
fn render_rows(columns: &[String], rows: &[Vec<Value>]) -> String {
    format!("ok:{columns:?}|{rows:?}")
}

fn facade_error(e: &QuarryError) -> String {
    let kind = match e {
        QuarryError::Parse(_) => "Parse",
        QuarryError::Pipeline(_) => "Pipeline",
        QuarryError::Storage(_) => "Storage",
        QuarryError::Query(_) => "Query",
        QuarryError::Corpus(_) => "Corpus",
        QuarryError::Integrate(_) => "Integrate",
        QuarryError::Lint(_) => "Lint",
    };
    format!("err:{kind}:{e}")
}

fn direct_outcome(q: &Quarry, query: &Query) -> String {
    match q.snapshot().query(query) {
        Ok(r) => render_rows(&r.columns, &r.rows),
        Err(e) => facade_error(&e),
    }
}

fn client_outcome(c: &mut Client, query: &Query) -> String {
    match c.query(query) {
        Ok((columns, rows)) => render_rows(&columns, &rows),
        Err(ClientError::Server { kind, message }) => format!("err:{kind:?}:{message}"),
        Err(other) => format!("transport:{other}"),
    }
}

/// The interleaving-independent half of a pipeline's stats (extractor
/// runs vs cache hits depend on which thread ran first; the stream and
/// stored rows do not).
fn stable_stats(
    extractions: u64,
    records: u64,
    entities: u64,
    rows_stored: u64,
) -> (u64, u64, u64, u64) {
    (extractions, records, entities, rows_stored)
}

/// A `STORE` keyed unlike its existing table is refused over the wire
/// exactly as by the façade: a QL008 error reply, not pipeline stats, and
/// the table as it was.
#[test]
fn a_store_keyed_unlike_its_table_is_refused_over_the_wire() {
    const REKEYED: &str = r#"
PIPELINE by_state FROM corpus
EXTRACT infobox, rules
WHERE attribute IN ("name", "state", "population")
RESOLVE BY state
STORE INTO cities KEY state
"#;
    let corpus = corpus();
    let mut served = Quarry::new(QuarryConfig::default()).unwrap();
    served.ingest(corpus.docs.clone());
    let server = Server::start(served, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut c = Client::connect_with(server.local_addr(), Duration::from_secs(60)).unwrap();
    c.qdl(PIPELINE).unwrap();
    let scan = Query::scan("cities");
    let before = client_outcome(&mut c, &scan);
    let refused = match c.qdl(REKEYED) {
        Err(ClientError::Server { kind, message }) => format!("err:{kind:?}:{message}"),
        other => panic!("expected an error reply, got {other:?}"),
    };
    assert_eq!(client_outcome(&mut c, &scan), before);
    drop(server.join());

    let mut direct = Quarry::new(QuarryConfig::default()).unwrap();
    direct.ingest(corpus.docs.clone());
    direct.run_pipeline(PIPELINE).unwrap();
    let expected = facade_error(&direct.run_pipeline(REKEYED).unwrap_err());
    assert!(expected.starts_with("err:Lint:") && expected.contains("QL008"), "{expected}");
    assert_eq!(refused, expected);
}

#[test]
fn four_concurrent_clients_match_the_facade_bit_for_bit() {
    let corpus = corpus();

    // Reference: the façade, driven serially.
    let mut direct = Quarry::new(QuarryConfig::default()).unwrap();
    direct.ingest(corpus.docs.clone());
    let ref_stats = direct.run_pipeline(PIPELINE).unwrap();
    let ref_stable = stable_stats(
        ref_stats.extractions as u64,
        ref_stats.records as u64,
        ref_stats.entities as u64,
        ref_stats.rows_stored as u64,
    );
    let qs = queries();
    let ref_outcomes: Vec<String> = qs.iter().map(|q| direct_outcome(&direct, q)).collect();
    let (ref_hits, ref_cands) = direct.snapshot().keyword("population Wisconsin", 5);
    let ref_keyword = format!(
        "{:?}|{:?}",
        ref_hits.iter().map(|h| (h.doc.0, h.score)).collect::<Vec<_>>(),
        ref_cands
            .iter()
            .map(|c| (c.query.display(), c.score, c.explanation.clone()))
            .collect::<Vec<_>>()
    );
    let ref_explain = direct.snapshot().explain_query(&qs[1]).unwrap();
    // The reference workload itself is idempotent: re-running the
    // pipeline leaves every outcome unchanged.
    let again = direct.run_pipeline(PIPELINE).unwrap();
    assert_eq!(
        stable_stats(
            again.extractions as u64,
            again.records as u64,
            again.entities as u64,
            again.rows_stored as u64
        ),
        ref_stable
    );
    for (q, expect) in qs.iter().zip(&ref_outcomes) {
        assert_eq!(&direct_outcome(&direct, q), expect);
    }

    // Serve a WAL-backed instance of the same system.
    let wal = tmpwal("serve-differential");
    let mut served = Quarry::new(QuarryConfig::builder().wal_path(&wal).build()).unwrap();
    served.ingest(corpus.docs.clone());
    let server = Server::start(served, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    // Soak: four threads, same workload, with a mid-soak checkpoint.
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..4 {
            let qs = qs.clone();
            let ref_outcomes = ref_outcomes.clone();
            let ref_keyword = ref_keyword.clone();
            let ref_explain = ref_explain.clone();
            handles.push(scope.spawn(move || {
                let mut c = Client::connect_with(addr, Duration::from_secs(60)).unwrap();
                for round in 0..2 {
                    let stats = c.qdl(PIPELINE).unwrap();
                    assert_eq!(
                        stable_stats(
                            stats.extractions,
                            stats.records,
                            stats.entities,
                            stats.rows_stored
                        ),
                        ref_stable,
                        "thread {t} round {round}"
                    );
                    for (i, q) in qs.iter().enumerate() {
                        assert_eq!(
                            client_outcome(&mut c, q),
                            ref_outcomes[i],
                            "thread {t} round {round} query {i}"
                        );
                    }
                    // Mid-soak checkpoint: runs under the single-writer
                    // lock while concurrent reads keep executing against
                    // their pinned snapshots.
                    c.checkpoint().unwrap();
                    let (hits, cands) = c.keyword("population Wisconsin", 5).unwrap();
                    let got = format!(
                        "{:?}|{:?}",
                        hits.iter().map(|h| (h.doc, h.score)).collect::<Vec<_>>(),
                        cands
                            .iter()
                            .map(|c| (c.query.display(), c.score, c.explanation.clone()))
                            .collect::<Vec<_>>()
                    );
                    assert_eq!(got, ref_keyword, "thread {t} round {round}");
                    assert_eq!(c.explain(&qs[1]).unwrap(), ref_explain, "thread {t} round {round}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });

    // Drain, reclaim the façade, and compare full logical state. The
    // eight checkpoints above show in `Stats` first.
    let mut c = Client::connect(addr).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stats.counter("facade.checkpoints"), 8);
    assert_eq!(stats.counter("facade.checkpoint_errors"), 0);
    assert_eq!(stats.histogram("facade.checkpoint_us").unwrap().count, 8);
    c.shutdown().unwrap();
    let served = server.join();
    let served_dump = dump(&served.db);
    assert_eq!(served_dump, dump(&direct.db), "served state must equal direct state");
    drop(served);

    // Restart from the WAL (checkpoint + suffix) and verify recovery.
    let mut recovered = Quarry::new(QuarryConfig::builder().wal_path(&wal).build()).unwrap();
    assert_eq!(dump(&recovered.db), served_dump, "restart must recover identical state");

    // The recovered system serves the same answers over the wire.
    recovered.ingest(corpus.docs.clone());
    let server = Server::start(recovered, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    for (q, expect) in qs.iter().zip(&ref_outcomes) {
        assert_eq!(&client_outcome(&mut c, q), expect, "post-restart query");
    }
    c.shutdown().unwrap();
    drop(server);
    remove_db_files(&wal);
}

fn reading(id: i64) -> Vec<Value> {
    vec![Value::Int(id), format!("station-{}", id % 7).into(), Value::Int(id * 31 % 200)]
}

/// Through `client`: create `readings`, commit 50 rows, then send a
/// 100-row batch whose 60th row repeats committed key 5. The batch must be
/// refused with the exact message the engine has always given, and leave
/// no row of it visible. Returns the table as it was before the batch.
fn refuse_a_batch(kind: &str, client: &mut Client) -> Vec<Vec<Value>> {
    let columns = vec![
        Column::new("id", DataType::Int),
        Column::new("station", DataType::Text),
        Column::new("value", DataType::Int),
    ];
    client.create_table(TableSchema::new("readings", columns, &["id"], &[]).unwrap()).unwrap();
    client.create_index("readings", "value").unwrap();
    client.insert_rows("readings", (0..50).map(reading).collect()).unwrap();
    let scan = Query::scan("readings");
    let (_, before) = client.query(&scan).unwrap();
    assert_eq!(before.len(), 50, "{kind}");

    let mut batch: Vec<Vec<Value>> = (1000..1100).map(reading).collect();
    batch[59] = reading(5);
    match client.insert_rows("readings", batch) {
        Err(ClientError::Server { kind: ErrorKind::Storage, message }) => assert_eq!(
            message, "storage error: duplicate key: readings key [Int(5)] already exists",
            "{kind}"
        ),
        other => panic!("{kind}: the batch was not refused: {other:?}"),
    }
    assert_eq!(client.query(&scan).unwrap().1, before, "{kind}: a refused row is visible");
    // The index holds none of the batch either.
    let by_value =
        scan.clone().filter(vec![Predicate::Eq("value".into(), Value::Int(1000 * 31 % 200))]);
    let (_, indexed) = client.query(&by_value).unwrap();
    assert!(indexed.iter().all(|row| row[0] < Value::Int(1000)), "{kind}: {indexed:?}");
    before
}

/// A refused batch, end to end, on a server and through a router: the
/// error is word for word the engine's, nothing of the batch is visible,
/// and the reopened log recovers the table as it was before the batch.
#[test]
fn a_refused_batch_leaves_nothing_behind_on_a_server_or_a_router() {
    let wal = tmpwal("refused-batch");
    let q = Quarry::new(QuarryConfig::builder().wal_path(&wal).build()).unwrap();
    let server = Server::start(q, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let before = refuse_a_batch("server", &mut client);
    drop(client);
    drop(server.join());
    let reopened = Database::open(&wal).unwrap();
    assert_eq!(reopened.snapshot().scan("readings").unwrap(), before, "server, reopened");
    drop(reopened);
    remove_db_files(&wal);

    let dir = std::env::temp_dir()
        .join("quarry-int-tests")
        .join(format!("refused-batch-router-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = ClusterConfig { shards: 1, replicas_per_shard: 0, ..Default::default() };
    let mut cluster = Cluster::start(&dir, cfg).unwrap();
    let mut client = cluster.client().unwrap();
    let before = refuse_a_batch("router", &mut client);
    drop(client);
    cluster.shutdown();
    drop(cluster);
    let reopened = Database::open(dir.join("shard0-primary.wal")).unwrap();
    assert_eq!(reopened.snapshot().scan("readings").unwrap(), before, "router, reopened");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The MVCC contract under a live writer, checked differentially: every
/// reader snapshot must equal a *serial replay* of the write history up
/// to its captured LSN.
///
/// A single writer commits a known sequence of inserts through
/// [`SharedQuarry::with_writer`], recording the write clock after each
/// commit. Reader threads concurrently capture snapshots (never touching
/// the writer lock) and run a count query twice per snapshot. Afterwards
/// every observation is checked against the history: the count seen at
/// LSN `L` is exactly the count the last write stamped `<= L` produced —
/// i.e. replaying the writes serially up to `L` reproduces the
/// snapshot's view bit for bit — and a held snapshot never drifts.
#[test]
fn concurrent_readers_serially_replay_at_their_captured_lsn() {
    const WRITES: i64 = 20;
    let q = Quarry::new(QuarryConfig::default()).unwrap();
    q.db.create_table(
        TableSchema::new("events", vec![Column::new("id", DataType::Int)], &["id"], &[]).unwrap(),
    )
    .unwrap();
    let shared = SharedQuarry::new(q);

    let count_query = Query::scan("events").aggregate(None, AggFn::Count, "id");
    let count = |snap: &quarry::core::Snapshot| -> i64 {
        match snap.query(&count_query).unwrap().scalar().cloned().unwrap() {
            Value::Int(n) => n,
            other => panic!("count returned {other:?}"),
        }
    };

    // (post-commit LSN, rows committed by then); entry 0 is the baseline.
    let mut history: Vec<(u64, i64)> = vec![(shared.snapshot().lsn(), 0)];
    let observations: Vec<(u64, i64, i64)> = std::thread::scope(|scope| {
        let shared = &shared;
        let readers: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    let mut last_lsn = 0;
                    for _ in 0..40 {
                        let snap = shared.snapshot();
                        assert!(snap.lsn() >= last_lsn, "write clock went backwards");
                        last_lsn = snap.lsn();
                        // Two reads of one pinned session must agree even
                        // if the writer commits in between.
                        seen.push((snap.lsn(), count(&snap), count(&snap)));
                    }
                    seen
                })
            })
            .collect();
        for i in 0..WRITES {
            shared.with_writer(|q| q.db.insert_autocommit("events", vec![Value::Int(i)]).unwrap());
            history.push((shared.snapshot().lsn(), i + 1));
        }
        readers.into_iter().flat_map(|r| r.join().unwrap()).collect()
    });

    for (lsn, first, second) in observations {
        assert_eq!(first, second, "snapshot at LSN {lsn} drifted between reads");
        let expected = history.iter().rev().find(|(l, _)| *l <= lsn).expect("baseline covers").1;
        assert_eq!(
            first, expected,
            "snapshot at LSN {lsn} must equal serial replay of the first {expected} writes"
        );
    }
    // Sanity: the final state holds every write.
    assert_eq!(count(&shared.snapshot()), WRITES);
}

/// E9's pipeline, run over the wire while three clients insert batches
/// into a table of their own, equals a serial run: a store write waits at
/// the database's gate and not for the pipeline, and the pipeline's
/// `STORE` interleaves with the batches unit by unit. Every acknowledged
/// row is present; the pipeline's table and `_provenance` equal a solo
/// run's; and the reopened log recovers the served state.
#[test]
fn a_pipeline_beside_three_writers_equals_a_solo_run() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;
    const E9: &str = r#"
PIPELINE cities FROM corpus
EXTRACT infobox, rules
WHERE attribute IN ("name", "state", "population", "founded", "july_temp")
RESOLVE BY name
STORE INTO cities KEY name
"#;
    const BATCH: i64 = 20;
    let corpus =
        Corpus::generate(&CorpusConfig { seed: 9, n_cities: 150, ..CorpusConfig::default() });
    let pipeline_tables = |name: &str| name != "readings";

    let mut solo = Quarry::new(QuarryConfig::default()).unwrap();
    solo.ingest(corpus.docs.clone());
    let solo_stats = solo.run_pipeline(E9).unwrap();
    let expected = dump_where(&solo.db, pipeline_tables);

    let wal = tmpwal("pipeline-beside-writers");
    let mut served = Quarry::new(QuarryConfig::builder().wal_path(&wal).build()).unwrap();
    served.ingest(corpus.docs.clone());
    let server = Server::start(served, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let columns = vec![
        Column::new("id", DataType::Int),
        Column::new("station", DataType::Text),
        Column::new("value", DataType::Int),
    ];
    let mut c = Client::connect(addr).unwrap();
    c.create_table(TableSchema::new("readings", columns, &["id"], &[]).unwrap()).unwrap();

    // Each writer sends batches until the pipeline has answered, and at
    // least five; it notes how many it had acknowledged before that.
    let (start, done) = (Barrier::new(4), AtomicBool::new(false));
    let (stats, acknowledged, beside) = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..3)
            .map(|w| {
                let (start, done) = (&start, &done);
                scope.spawn(move || {
                    let mut c = Client::connect_with(addr, Duration::from_secs(60)).unwrap();
                    let (mut rows, mut beside) = (Vec::new(), 0);
                    start.wait();
                    for b in 0.. {
                        let running = !done.load(Ordering::SeqCst);
                        if !running && b >= 5 {
                            break;
                        }
                        let first = w * 1_000_000 + b * BATCH;
                        let batch: Vec<_> = (first..first + BATCH).map(reading).collect();
                        c.insert_rows("readings", batch.clone()).unwrap();
                        beside += usize::from(running && !done.load(Ordering::SeqCst));
                        rows.extend(batch);
                    }
                    (rows, beside)
                })
            })
            .collect();
        let mut c = Client::connect_with(addr, Duration::from_secs(120)).unwrap();
        start.wait();
        let stats = c.qdl(E9).unwrap();
        done.store(true, Ordering::SeqCst);
        let (mut rows, mut beside) = (Vec::new(), 0);
        for writer in writers {
            let (acked, n) = writer.join().unwrap();
            rows.extend(acked);
            beside += n;
        }
        (stats, rows, beside)
    });
    assert!(beside > 0, "no batch was acknowledged while the pipeline ran");
    assert_eq!(stats.rows_stored, solo_stats.rows_stored as u64);
    drop(c);
    let served = server.join();

    let mut stored = served.db.snapshot().scan("readings").unwrap();
    let mut acknowledged = acknowledged;
    stored.sort();
    acknowledged.sort();
    assert_eq!(stored, acknowledged, "every acknowledged row, and nothing else");
    assert_eq!(dump_where(&served.db, pipeline_tables), expected, "the pipeline's tables");
    let served_dump = dump(&served.db);
    drop(served);

    let reopened = Database::open(&wal).unwrap();
    assert_eq!(dump(&reopened), served_dump, "the reopened log");
    drop(reopened);
    remove_db_files(&wal);
}
