//! Failover correctness under the crash harness.
//!
//! A primary database runs a deterministic workload over a
//! fault-injecting storage backend while a replica tails its WAL over
//! loopback TCP (the real `quarry-serve` replication transport). For
//! every tested crash point k the primary's backend dies at operation k
//! mid-workload; the replica is then promoted and its full logical dump
//! must be **bit-identical** to a reference state at a *step boundary* —
//! the state just before or just after the step the crash interrupted,
//! never a hybrid. This is the replication twin of the recovery
//! differential in `durability.rs`: there the invariant holds for the
//! crashed node's own restart, here it must survive a network hop and a
//! promotion.
//!
//! The sweep covers every recorded operation by default (plus torn-write
//! variants); `QUARRY_FAILOVER_POINTS=n` bounds it to n evenly-spread
//! points — the checkpoint-publication ops, the reseed-critical window,
//! are always included.

use quarry::serve::replication::ReplicationClient;
use quarry::serve::ReplicationListener;
use quarry::storage::{
    Column, CrashPlan, DataType, Database, FaultBackend, Op, RealBackend, TableSchema, Value,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{dump, remove_db_files, tmpwal};

type Step = fn(&Database) -> quarry::storage::Result<()>;

fn crew_schema() -> TableSchema {
    TableSchema::new(
        "crew",
        vec![
            Column::new("name", DataType::Text),
            Column::new("rank", DataType::Int),
            Column::nullable("ship", DataType::Text),
        ],
        &["name"],
        &[],
    )
    .unwrap()
}

fn member(name: &str, rank: i64, ship: &str) -> Vec<Value> {
    vec![name.into(), Value::Int(rank), ship.into()]
}

/// The shipped workload. Every step is one atomic unit — one committed
/// transaction, one DDL statement, or one checkpoint — so each step
/// boundary is a legal promotion target.
fn workload_steps() -> Vec<Step> {
    vec![
        |db| db.create_table(crew_schema()),
        |db| {
            let tx = db.begin();
            db.insert(tx, "crew", member("janeway", 1, "voyager"))?;
            db.insert(tx, "crew", member("tuvok", 3, "voyager"))?;
            db.insert(tx, "crew", member("kim", 5, "voyager"))?;
            db.commit(tx)
        },
        |db| db.create_index("crew", "rank"),
        |db| {
            let tx = db.begin();
            db.update(tx, "crew", &["kim".into()], member("kim", 4, "voyager"))?;
            db.delete(tx, "crew", &["tuvok".into()])?;
            db.commit(tx)
        },
        |db| {
            // Aborted work: no logical change, the log still grows.
            let tx = db.begin();
            db.insert(tx, "crew", member("ghost", 0, "nowhere"))?;
            db.abort(tx)
        },
        |db| db.checkpoint(),
        |db| {
            // Post-checkpoint step: the replica has just reseeded under
            // the new epoch; live shipping must resume correctly.
            let tx = db.begin();
            db.insert(tx, "crew", member("seven", 2, "voyager"))?;
            db.insert(tx, "crew", member("paris", 4, "voyager"))?;
            db.commit(tx)
        },
        |db| {
            let tx = db.begin();
            db.update(tx, "crew", &["seven".into()], member("seven", 1, "voyager"))?;
            db.commit(tx)
        },
    ]
}

/// Wait until the replica has applied and acked the primary's complete
/// WAL under the primary's current checkpoint epoch.
fn await_caught_up(client: &ReplicationClient, primary: &Database, deadline: Duration) {
    let until = Instant::now() + deadline;
    loop {
        let epoch = primary.checkpoint_epoch();
        let len = primary.wal_len();
        let pos = client.position();
        if pos.epoch == epoch && pos.offset >= len {
            return;
        }
        assert!(
            Instant::now() < until,
            "replica stuck at {pos:?}; primary epoch {epoch} len {len}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Wait for the replica's applied position to stop moving: after the
/// primary's crash the tail may still deliver already-flushed frames;
/// promotion should happen after that drains, so the sweep also covers
/// post-step recovery targets.
fn await_settled(client: &ReplicationClient) {
    let mut last = client.position();
    let mut stable_since = Instant::now();
    let until = Instant::now() + Duration::from_secs(2);
    while Instant::now() < until {
        std::thread::sleep(Duration::from_millis(5));
        let now = client.position();
        if now == last {
            if stable_since.elapsed() > Duration::from_millis(40) {
                return;
            }
        } else {
            last = now;
            stable_since = Instant::now();
        }
    }
}

/// One crash case: run the workload on a primary whose backend dies at
/// op `k` (optionally tearing that write) while a live replica tails it,
/// then promote the replica and check its state against the references.
fn run_failover_case(k: u64, tear: Option<usize>, steps: &[Step], states: &[String], cum: &[u64]) {
    let pp = tmpwal(&format!("failover-primary-{k}-{}", tear.is_some()));
    let rp = tmpwal(&format!("failover-replica-{k}-{}", tear.is_some()));

    let plan = CrashPlan { crash_at: k, tear_bytes: tear, survives: false };
    let fb = FaultBackend::with_plan(RealBackend, plan);
    let opened = Database::open_with(Arc::new(fb.clone()), &pp);

    let replica = Arc::new(Database::open(&rp).unwrap());
    let got = match opened {
        Err(_) => {
            // Crashed inside open: nothing was ever served or shipped.
            dump(&replica)
        }
        Ok(db) => {
            let db = Arc::new(db);
            let mut listener = ReplicationListener::start(Arc::clone(&db), "127.0.0.1:0").unwrap();
            let mut client = ReplicationClient::start(Arc::clone(&replica), listener.local_addr());
            for step in steps {
                // The explicit sync makes every buffered byte visible to
                // the tail, so the barrier below can require full catch-up.
                if step(&db).and_then(|()| db.sync_wal()).is_err() {
                    break;
                }
                await_caught_up(&client, &db, Duration::from_secs(10));
            }
            assert!(fb.crashed(), "plan at op {k} of {} never fired", cum.last().unwrap());
            assert_eq!(fb.op_count(), k, "op stream diverged from the recording");
            await_settled(&client);
            client.promote().unwrap();
            listener.shutdown();
            dump(&replica)
        }
    };
    drop(replica);
    remove_db_files(&pp);
    remove_db_files(&rp);

    // cum[0] is the op count of opening the database, cum[i] the count
    // after step i; the crash hit the step containing op k.
    let s = cum.iter().position(|&c| c >= k).expect("k is within the recorded stream");
    let allowed: &[usize] = if s == 0 { &[0] } else { &[s - 1, s] };
    assert!(
        allowed.iter().any(|&j| states[j] == got),
        "crash at op {k} (step {s}, tear {tear:?}): promoted replica matches neither the \
         pre-step nor the post-step reference.\npromoted:\n{got}\npre:\n{}\npost:\n{}",
        &states[allowed[0]],
        &states[*allowed.last().unwrap()],
    );
}

#[test]
fn promoted_replica_recovers_to_a_step_boundary_at_every_crash_point() {
    let steps = workload_steps();

    // Reference states: the workload replayed on an in-memory database,
    // dumped after every step prefix.
    let reference = Database::in_memory();
    let mut states = vec![dump(&reference)];
    for step in &steps {
        step(&reference).unwrap();
        states.push(dump(&reference));
    }

    // Recording run (no replication attached — the listener performs no
    // mutating backend ops, so the op stream is identical either way).
    let p = tmpwal("failover-record");
    let rec = FaultBackend::recording(RealBackend);
    let db = Database::open_with(Arc::new(rec.clone()), &p).unwrap();
    let mut cum = vec![rec.op_count()];
    for step in &steps {
        step(&db).unwrap();
        db.sync_wal().unwrap(); // mirrored in the crash runs
        cum.push(rec.op_count());
    }
    let ops = rec.ops();
    let total = rec.op_count();
    assert_eq!(dump(&db), *states.last().unwrap(), "fault-free run must match the reference");
    drop(db);
    remove_db_files(&p);

    // Always test the checkpoint publication (rename) and the WAL reset
    // right after it: the window where the replica must reseed.
    let mut must_test: Vec<u64> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if let Op::Rename { .. } = op {
            must_test.push(i as u64 + 1);
            if i as u64 + 2 <= total {
                must_test.push(i as u64 + 2);
            }
        }
    }
    assert!(!must_test.is_empty(), "workload must exercise checkpoint publication");

    // Full sweep by default; QUARRY_FAILOVER_POINTS=n picks n
    // evenly-spread points (plus the must-test set) for bounded runs.
    let mut ks: Vec<u64> = match std::env::var("QUARRY_FAILOVER_POINTS") {
        Ok(v) if v == "full" => (1..=total).collect(),
        Ok(v) => {
            let n: u64 = v.parse().expect("QUARRY_FAILOVER_POINTS must be an integer or 'full'");
            let n = n.clamp(1, total);
            (1..=n).map(|i| (i * total) / n).collect()
        }
        Err(_) => (1..=total).collect(),
    };
    ks.extend(&must_test);
    ks.sort_unstable();
    ks.dedup();

    for &k in &ks {
        run_failover_case(k, None, &steps, &states, &cum);
    }

    // Torn-write variants: the crashing write persists half its bytes.
    // The flushed prefix of a frame stream is complete frames plus an
    // incomplete tail, which the replica must hold un-applied.
    let mut torn = 0;
    for &k in &ks {
        if let Op::Write { bytes, .. } = &ops[(k - 1) as usize] {
            if *bytes >= 2 {
                run_failover_case(k, Some(bytes / 2), &steps, &states, &cum);
                torn += 1;
            }
        }
    }
    assert!(torn > 0, "sweep must include at least one torn write");
}
