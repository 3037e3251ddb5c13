//! Router differential: a sharded cluster behind the router must answer
//! distributable workloads **bit-identically** to a single-node façade,
//! and the kill → promote → retarget choreography must keep the shard
//! serving its exact pre-failure state.
//!
//! Sums stay bit-identical across shardings because the workload uses
//! integer values far below 2^53: every partial sum is exactly
//! representable, so float addition order cannot change the result.

use quarry::cluster::{Cluster, ClusterConfig};
use quarry::core::{Quarry, QuarryConfig};
use quarry::query::engine::{AggFn, Predicate, Query};
use quarry::serve::{Client, ErrorKind, ServeConfig, Server};
use quarry::storage::{Column, DataType, TableSchema, Value};
use std::time::Duration;

mod common;
use common::tmpwal;

fn people_schema() -> TableSchema {
    TableSchema::new(
        "people",
        vec![
            Column::new("id", DataType::Int),
            Column::new("city", DataType::Text),
            Column::new("score", DataType::Int),
        ],
        &["id"],
        &[],
    )
    .unwrap()
}

fn rows() -> Vec<Vec<Value>> {
    (0..60i64)
        .map(|i| {
            let city = ["madison", "oakton", "princeton"][(i % 3) as usize];
            // Distinct scores so ordering by score is unambiguous.
            vec![Value::Int(i), city.into(), Value::Int(1000 + i * 7)]
        })
        .collect()
}

fn cluster_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("quarry-int-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn single_node(name: &str) -> Server {
    let q = Quarry::new(QuarryConfig::builder().wal_path(tmpwal(name)).build()).unwrap();
    Server::start(q, "127.0.0.1:0", ServeConfig::default()).unwrap()
}

/// Run one query against both and demand byte-equal results.
fn assert_same(
    label: &str,
    router: &mut Client,
    single: &mut Client,
    q: &Query,
) -> (Vec<String>, Vec<Vec<Value>>) {
    let a = router.query(q).unwrap_or_else(|e| panic!("{label} via router: {e}"));
    let b = single.query(q).unwrap_or_else(|e| panic!("{label} single-node: {e}"));
    assert_eq!(a, b, "{label}: sharded answer diverged from single-node");
    a
}

#[test]
fn sharded_cluster_answers_distributable_queries_bit_identically() {
    let dir = cluster_dir("router-diff");
    let cluster = Cluster::start(
        &dir,
        ClusterConfig { shards: 3, replicas_per_shard: 0, ..Default::default() },
    )
    .unwrap();
    let single = single_node("router-diff-single");
    let mut rc = cluster.client().unwrap();
    let mut sc = Client::connect(single.local_addr()).unwrap();

    for c in [&mut rc, &mut sc] {
        c.create_table(people_schema()).unwrap();
        c.insert_rows("people", rows()).unwrap();
        c.create_index("people", "city").unwrap();
    }

    // Point read: the key filter routes to one owning shard, but the
    // fan-out answer must still be identical.
    for id in [0i64, 17, 42, 59] {
        let q = Query::scan("people").filter(vec![Predicate::Eq("id".into(), Value::Int(id))]);
        let (_, rows) = assert_same("point", &mut rc, &mut sc, &q);
        assert_eq!(rows.len(), 1);
    }

    // Sorted scans (unique sort keys): stable k-way merge vs one sort.
    let q = Query::scan("people").sort("id", false, None);
    let (_, all) = assert_same("sort-id", &mut rc, &mut sc, &q);
    assert_eq!(all.len(), 60);
    let q = Query::scan("people").sort("score", true, Some(10));
    assert_same("top10-score", &mut rc, &mut sc, &q);

    // Top-k over a window on an indexed, tie-free column: each shard walks
    // its index on `score` in key order and stops at the limit, and the
    // merge of those ranked legs is the single node's answer, descending
    // and ascending, with limits inside and past the window.
    for c in [&mut rc, &mut sc] {
        c.create_index("people", "score").unwrap();
    }
    let window = || {
        Query::scan("people").filter(vec![
            Predicate::Ge("score".into(), Value::Int(1050)),
            Predicate::Le("score".into(), Value::Int(1300)),
        ])
    };
    for (desc, k) in [(true, 5), (false, 4), (true, 100)] {
        let q = window().sort("score", desc, Some(k));
        let (_, top) = assert_same(&format!("window-top{k}-desc={desc}"), &mut rc, &mut sc, &q);
        assert_eq!(top.len(), k.min(35), "scores 1 056 to 1 294");
        let plans = rc.explain(&q).unwrap();
        assert_eq!(plans.matches("in key order").count(), 3, "{plans}");
    }

    // Aggregates, global and grouped: COUNT sums counts, SUM sums exact
    // integer-valued floats, MIN/MAX compare.
    for agg in [AggFn::Count, AggFn::Sum, AggFn::Min, AggFn::Max] {
        let q = Query::scan("people").aggregate(None, agg, "score");
        assert_same(&format!("global-{agg:?}"), &mut rc, &mut sc, &q);
        let q = Query::scan("people").aggregate(Some("city"), agg, "score");
        assert_same(&format!("grouped-{agg:?}"), &mut rc, &mut sc, &q);
    }

    // Filtered aggregate over the secondary index path.
    let q = Query::scan("people")
        .filter(vec![Predicate::Eq("city".into(), Value::Text("oakton".into()))])
        .aggregate(None, AggFn::Count, "id");
    assert_same("filtered-count", &mut rc, &mut sc, &q);

    // Unsorted scans concatenate in shard order: same multiset, order
    // documented as topology-dependent.
    let (_, mut a) = rc.query(&Query::scan("people")).unwrap();
    let (_, mut b) = sc.query(&Query::scan("people")).unwrap();
    a.sort();
    b.sort();
    assert_eq!(a, b, "unsorted scan multiset diverged");

    // Non-distributable shapes are rejected up front, not answered wrong.
    let avg = Query::scan("people").aggregate(None, AggFn::Avg, "score");
    match rc.query(&avg) {
        Err(quarry::serve::ClientError::Server { kind: ErrorKind::Query, message }) => {
            assert!(message.contains("AVG"), "got: {message}");
        }
        other => panic!("AVG through the router should be rejected, got {other:?}"),
    }
    let join = Query::scan("people").join(Query::scan("people"), "id", "id");
    assert!(matches!(
        rc.query(&join),
        Err(quarry::serve::ClientError::Server { kind: ErrorKind::Query, .. })
    ));
    let inner_limit = Query::scan("people").sort("id", false, Some(3)).project(&["id"]);
    assert!(matches!(
        rc.query(&inner_limit),
        Err(quarry::serve::ClientError::Server { kind: ErrorKind::Query, .. })
    ));
    // Only a top-level sort is merged: an inner one, LIMIT or not, would
    // come back in shard order.
    let inner_order = Query::scan("people").sort("id", false, None).project(&["id"]);
    match rc.query(&inner_order) {
        Err(quarry::serve::ClientError::Server { kind: ErrorKind::Query, message }) => {
            assert!(message.contains("ORDER BY"), "got: {message}");
        }
        other => panic!("an inner ORDER BY through the router should be rejected, got {other:?}"),
    }
    // Keyword scores come from each shard's own corpus statistics, so a
    // merged ranking is not the single-node one: refused, like QDL.
    match rc.keyword("madison", 5) {
        Err(quarry::serve::ClientError::Server { kind: ErrorKind::Query, message }) => {
            assert!(message.contains("keyword"), "got: {message}");
        }
        other => panic!("keyword search through the router should be refused, got {other:?}"),
    }

    // Deletes partition by key exactly like inserts.
    let victims: Vec<Vec<Value>> = (0..30i64).map(|i| vec![Value::Int(i * 2)]).collect();
    rc.delete_rows("people", victims.clone()).unwrap();
    sc.delete_rows("people", victims).unwrap();
    let q = Query::scan("people").sort("id", false, None);
    let (_, rest) = assert_same("post-delete", &mut rc, &mut sc, &q);
    assert_eq!(rest.len(), 30);

    // Stats merges every shard under its own prefix, with per-shard LSNs.
    let stats = rc.stats().unwrap();
    for shard in 0..3 {
        assert!(
            stats.counters.contains_key(&format!("shard{shard}.lsn")),
            "missing shard{shard}.lsn in {:?}",
            stats.counters.keys().take(10).collect::<Vec<_>>()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replica_promotion_restores_service_with_identical_state() {
    let dir = cluster_dir("router-failover");
    let mut cluster = Cluster::start(
        &dir,
        ClusterConfig { shards: 3, replicas_per_shard: 1, ..Default::default() },
    )
    .unwrap();
    let mut c = cluster.client().unwrap();

    c.create_table(people_schema()).unwrap();
    c.insert_rows("people", rows()).unwrap();

    // Let every replica catch up, then remember each shard's exact state.
    for s in 0..3 {
        assert!(
            cluster.await_replicas_caught_up(s, Duration::from_secs(10)),
            "shard {s} replicas never caught up"
        );
    }
    let sorted = Query::scan("people").sort("id", false, None);
    let before = c.query(&sorted).unwrap();

    // Kill shard 1's primary: requests that need it now fail Unavailable.
    cluster.kill_primary(1);
    match c.query(&sorted) {
        Err(quarry::serve::ClientError::Server { kind: ErrorKind::Unavailable, .. }) => {}
        other => panic!("expected Unavailable with a dead shard, got {other:?}"),
    }

    // Promote its replica; the router is retargeted and the *full* data
    // set — including rows owned by the failed-over shard — is intact.
    cluster.promote(1, 0).unwrap();
    let after = c.query(&sorted).unwrap();
    assert_eq!(before, after, "post-promotion state diverged");

    // The promoted node accepts writes (it is no longer read-only).
    c.insert_rows("people", vec![vec![Value::Int(1000), "madison".into(), Value::Int(9)]]).unwrap();
    let (_, rows) = c.query(&sorted).unwrap();
    assert_eq!(rows.len(), 61);

    // Replica serving reads while tailing stays read-only for clients:
    // direct writes to a replica are rejected.
    let replica_addr = cluster.shards()[0].replicas[0].serve_addr();
    let mut rep = Client::connect(replica_addr).unwrap();
    match rep.insert_rows("people", vec![vec![Value::Int(2000), "x".into(), Value::Int(1)]]) {
        Err(quarry::serve::ClientError::Server { kind: ErrorKind::ReadOnly, .. }) => {}
        other => panic!("replica should reject writes, got {other:?}"),
    }

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
