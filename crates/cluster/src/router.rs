//! The shard router: one wire-protocol front door over N shards.
//!
//! Clients speak the ordinary `quarry-serve` protocol to the router;
//! the router speaks the same protocol to every shard. Placement and
//! merging are deterministic:
//!
//! - **Point writes** (`InsertRows`, `DeleteRows`) are partitioned by
//!   primary key over the consistent-hash [`HashRing`] and forwarded to
//!   each owning shard as one transaction per shard. A batch spanning
//!   shards is atomic *per shard*, not across them — the router reports
//!   the first failure and does not roll back other shards.
//! - **DDL** (`CreateTable`, `CreateIndex`) and `Checkpoint` broadcast
//!   to every shard in shard order; the schema is also recorded in the
//!   router's catalog, which is how rows find their key columns.
//! - **Queries** fan out to every shard sequentially in shard order and
//!   merge deterministically: top-level `Sort` does a stable k-way merge
//!   (ties broken by shard index), top-level `Aggregate` combines
//!   partial aggregates by group key (`COUNT`/`SUM` add, `MIN`/`MAX`
//!   compare; `AVG` is rejected as non-distributable), anything else
//!   concatenates rows in shard order. Queries whose shape cannot be
//!   merged correctly from per-shard partials — joins, nested
//!   aggregates, a `Sort` below the top (an inner `ORDER BY`, with or
//!   without `LIMIT`) — are rejected up front rather than answered wrong.
//! - **KeywordSearch** is refused like `Qdl`: a shard scores with its own
//!   corpus statistics, so merged scores would not be the single-node
//!   ranking (see `docs/serving.md`).
//! - **Stats** merges every shard's metrics under a `shardN.` prefix,
//!   including each shard's reported LSN as `shardN.lsn` — the
//!   per-shard snapshot vector a client needs for a well-defined view.
//!
//! Every merged [`Response`] carries the **maximum** shard LSN it
//! reflects; point responses carry the owning shard's LSN unchanged.
//!
//! Each shard's leg is one pooled [`Client`], under the client's one
//! reconnect rule, dialled through the current topology entry whenever
//! its slot is empty. [`Router::retarget`] (called on replica promotion)
//! empties the slot, which redirects that shard's traffic without
//! touching in-flight sessions on other shards.
//!
//! The front door is the [`Endpoint`] a shard server runs on, under
//! [`ServeConfig`]'s defaults, with [`route`] as its handler and a metrics
//! registry of its own (a shard's `server.requests` counts legs only).

use crate::ring::HashRing;
use quarry_exec::{MetricsRegistry, MetricsSnapshot};
use quarry_query::engine::{AggFn, Predicate, Query};
use quarry_serve::endpoint::{lock, Endpoint};
use quarry_serve::protocol::{ErrorKind, Payload, Request, Response};
use quarry_serve::{Client, ClientError, ServeConfig};
use quarry_storage::{TableSchema, Value};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, Mutex};

struct RouterShared {
    ring: HashRing,
    /// Shard index → address currently serving that shard. Rewritten by
    /// [`Router::retarget`] on promotion.
    topology: Mutex<Vec<SocketAddr>>,
    /// One lazily dialled client per shard, emptied only by
    /// [`Router::retarget`]. Locked per leg, never two at once; fan-out
    /// walks shards in index order.
    conn: Vec<Mutex<Option<Client>>>,
    /// Table name → schema, recorded at `CreateTable`; the source of
    /// key-column positions for partitioning. Leaf lock.
    catalog: Mutex<HashMap<String, TableSchema>>,
}

/// A running shard router. Dropping shuts it down; shards are never
/// shut down by the router (its `Shutdown` frame drains the router
/// itself only).
pub struct Router {
    shared: Arc<RouterShared>,
    metrics: MetricsRegistry,
    endpoint: Endpoint,
}

/// `local_addr` and `sessions` are the endpoint's.
impl std::ops::Deref for Router {
    type Target = Endpoint;

    fn deref(&self) -> &Endpoint {
        &self.endpoint
    }
}

impl Router {
    /// Bind `addr` and route over `shards` (index order = shard id).
    pub fn start(shards: Vec<SocketAddr>, addr: impl ToSocketAddrs) -> io::Result<Router> {
        if shards.is_empty() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "router needs >= 1 shard"));
        }
        let shared = Arc::new(RouterShared {
            ring: HashRing::new(shards.len()),
            conn: shards.iter().map(|_| Mutex::new(None)).collect(),
            topology: Mutex::new(shards),
            catalog: Mutex::new(HashMap::new()),
        });
        let (handler, metrics) = (Arc::clone(&shared), MetricsRegistry::new());
        let endpoint = Endpoint::serve(
            "quarry-router",
            addr,
            ServeConfig::default().read_timeout,
            metrics.clone(),
            |_| None,
            move |req| route(&handler, req).unwrap_or_else(|unrouted| (unrouted, 0)),
        )?;
        Ok(Router { shared, metrics, endpoint })
    }

    /// The router's own `server.*` counters (the shards keep theirs).
    pub fn metrics(&self) -> MetricsRegistry {
        self.metrics.clone()
    }

    /// Redirect a shard's traffic to `addr` (a promoted replica). The
    /// stale client is dropped so the next leg dials there.
    pub fn retarget(&self, shard: usize, addr: SocketAddr) {
        {
            let mut topology = lock(&self.shared.topology);
            if let Some(slot) = topology.get_mut(shard) {
                *slot = addr;
            }
        }
        if let Some(conn) = self.shared.conn.get(shard) {
            *lock(conn) = None;
        }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shared.conn.len()
    }

    /// Drain sessions and stop. Shards stay up.
    pub fn shutdown(&mut self) {
        self.endpoint.shutdown();
    }
}

fn error(kind: ErrorKind, message: impl Into<String>) -> Payload {
    Payload::Error { kind, message: message.into() }
}

/// Run one request against one shard over its pooled connection, dialled
/// through the *current* topology entry when the slot is empty. The leg
/// gets one [`Client::request`]: a leg that gets no reply is `Unavailable`
/// to the client, and a shard's own refusals are replies.
fn with_shard(shared: &RouterShared, shard: usize, req: &Request) -> Result<Response, Payload> {
    let unavailable = |e: ClientError| error(ErrorKind::Unavailable, format!("shard {shard}: {e}"));
    let mut conn = lock(&shared.conn[shard]);
    let client = match &mut *conn {
        Some(client) => client,
        None => {
            let addr = lock(&shared.topology)[shard];
            conn.insert(Client::connect(addr).map_err(|e| unavailable(e.into()))?)
        }
    };
    client.request(req).map_err(unavailable)
}

/// Fan a request out to every shard sequentially in shard order; with
/// the replies comes the highest LSN among them.
fn fan_out(shared: &RouterShared, req: &Request) -> Result<(Vec<Response>, u64), Payload> {
    let legs = (0..shared.conn.len())
        .map(|shard| with_shard(shared, shard, req))
        .collect::<Result<Vec<_>, _>>()?;
    let lsn = legs.iter().map(|r| r.lsn).max().unwrap_or(0);
    Ok((legs, lsn))
}

/// A routed reply and the LSN it reflects; `Err` is a reply that reflects
/// no shard's state (LSN 0).
type Routed = Result<(Payload, u64), Payload>;

/// Route one request, which the router owns: a batch's rows and keys move
/// into their shards' parts.
fn route(shared: &RouterShared, req: Request) -> Routed {
    match req {
        Request::Ping => Ok((Payload::Pong, 0)),
        Request::Qdl(_) => Err(error(
            ErrorKind::Query,
            "QDL pipelines are node-local; run them against a shard directly",
        )),
        Request::CreateTable(ref schema) => {
            let (payload, lsn) = broadcast_done(shared, &req)?;
            if matches!(payload, Payload::Done) {
                lock(&shared.catalog).insert(schema.name.clone(), schema.clone());
            }
            Ok((payload, lsn))
        }
        Request::CreateIndex { .. } | Request::Checkpoint => broadcast_done(shared, &req),
        Request::InsertRows { table, rows } => {
            let parts = partition_rows(shared, &table, rows)?;
            let make = |table, part| Request::InsertRows { table, rows: part };
            Ok(send_partitions(shared, &table, parts, make))
        }
        Request::DeleteRows { table, keys } => {
            // Keys are already in key order; hash them directly.
            let mut parts = vec![Vec::new(); shared.conn.len()];
            for key in keys {
                parts[shared.ring.shard_for_key(&key)].push(key);
            }
            let make = |table, part| Request::DeleteRows { table, keys: part };
            Ok(send_partitions(shared, &table, parts, make))
        }
        Request::Query(ref q) => route_query(shared, q),
        Request::KeywordSearch { .. } => Err(error(
            ErrorKind::Query,
            "keyword scores need corpus-wide statistics no shard holds; \
             search a shard directly",
        )),
        Request::Explain(_) => route_explain(shared, &req),
        Request::Stats => route_stats(shared),
        // The endpoint answers the control frame itself, and it stops the
        // *router*: shards have their own lifecycles.
        Request::Shutdown => Ok((Payload::Done, 0)),
    }
}

/// Broadcast a DDL/Checkpoint request; every shard must answer `Done`.
fn broadcast_done(shared: &RouterShared, req: &Request) -> Routed {
    let (legs, lsn) = fan_out(shared, req)?;
    let refused = legs.into_iter().map(|leg| leg.payload).find(|p| !matches!(p, Payload::Done));
    Ok((refused.unwrap_or(Payload::Done), lsn))
}

/// Partition full rows by the table's primary key via the catalog, moving
/// each into its shard's part.
fn partition_rows(
    shared: &RouterShared,
    table: &str,
    rows: Vec<Vec<Value>>,
) -> Result<Vec<Vec<Vec<Value>>>, Payload> {
    let key_cols = lock(&shared.catalog).get(table).map(|schema| schema.key.clone());
    let key_cols = key_cols.ok_or_else(|| {
        error(
            ErrorKind::Query,
            format!("unknown table {table}: create it through the router first"),
        )
    })?;
    let mut parts: Vec<Vec<Vec<Value>>> = vec![Vec::new(); shared.conn.len()];
    for row in rows {
        let mut key = Vec::with_capacity(key_cols.len());
        for &i in &key_cols {
            let Some(v) = row.get(i) else {
                return Err(error(
                    ErrorKind::Query,
                    format!("row with {} values is short of key column {i}", row.len()),
                ));
            };
            key.push(v.clone());
        }
        parts[shared.ring.shard_for_key(&key)].push(row);
    }
    Ok(parts)
}

/// Send each non-empty partition to its shard in shard order; the reply
/// carries the max LSN of the shards actually written.
fn send_partitions(
    shared: &RouterShared,
    table: &str,
    parts: Vec<Vec<Vec<Value>>>,
    make: impl Fn(String, Vec<Vec<Value>>) -> Request,
) -> (Payload, u64) {
    let mut lsn = 0;
    for (shard, part) in parts.into_iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        match with_shard(shared, shard, &make(table.to_string(), part)) {
            Ok(resp) => {
                lsn = lsn.max(resp.lsn);
                if !matches!(resp.payload, Payload::Done) {
                    return (resp.payload, lsn);
                }
            }
            Err(p) => return (p, lsn),
        }
    }
    (Payload::Done, lsn)
}

/// Reject query shapes whose per-shard partials cannot merge into the
/// single-node answer.
fn check_distributable(q: &Query) -> Result<(), String> {
    fn walk(q: &Query, top: bool) -> Result<(), String> {
        match q {
            Query::Scan { .. } => Ok(()),
            Query::Filter { input, .. } | Query::Project { input, .. } => walk(input, false),
            Query::Join { .. } => {
                Err("cross-shard joins are not supported through the router".into())
            }
            Query::Aggregate { input, agg, .. } => {
                if !top {
                    return Err("aggregates below the top of a query are not distributable".into());
                }
                if *agg == AggFn::Avg {
                    return Err("AVG is not distributable across shards; use SUM and COUNT".into());
                }
                walk(input, false)
            }
            Query::Sort { input, limit, .. } => {
                if !top {
                    // Merged rows come back in shard order below the top,
                    // and an inner LIMIT would cut each shard's rows.
                    let what = if limit.is_some() { "an inner LIMIT" } else { "an inner ORDER BY" };
                    return Err(format!("{what} is not distributable across shards"));
                }
                walk(input, false)
            }
        }
    }
    walk(q, true)
}

/// Point-query detection: a filter over one table's scan whose
/// predicates pin every primary-key column with `=` lives entirely on
/// the key's owning shard — no fan-out needed, and a dead shard
/// elsewhere in the ring cannot fail it.
fn point_shard(shared: &RouterShared, q: &Query) -> Option<usize> {
    let Query::Filter { input, predicates } = q else { return None };
    let Query::Scan { table } = input.as_ref() else { return None };
    let catalog = lock(&shared.catalog);
    let schema = catalog.get(table)?;
    let mut key = Vec::with_capacity(schema.key.len());
    for &i in &schema.key {
        let col = &schema.columns.get(i)?.name;
        let v = predicates.iter().find_map(|p| match p {
            Predicate::Eq(c, v) if c == col => Some(v.clone()),
            _ => None,
        })?;
        key.push(v);
    }
    Some(shared.ring.shard_for_key(&key))
}

fn route_query(shared: &RouterShared, q: &Query) -> Routed {
    check_distributable(q).map_err(|why| error(ErrorKind::Query, why))?;
    if let Some(shard) = point_shard(shared, q) {
        let resp = with_shard(shared, shard, &Request::Query(q.clone()))?;
        return Ok((resp.payload, resp.lsn));
    }
    let (legs, lsn) = fan_out(shared, &Request::Query(q.clone()))?;
    let mut results = Vec::with_capacity(legs.len());
    for leg in legs {
        match leg.payload {
            Payload::Rows { columns, rows } => results.push((columns, rows)),
            other => return Ok((other, lsn)), // first non-row leg wins (shard order)
        }
    }
    Ok(match merge_results(q, results) {
        Ok((columns, rows)) => (Payload::Rows { columns, rows }, lsn),
        Err(why) => (error(ErrorKind::Query, why), lsn),
    })
}

type Cols = Vec<String>;
type Rows = Vec<Vec<Value>>;

fn merge_results(q: &Query, mut legs: Vec<(Cols, Rows)>) -> Result<(Cols, Rows), String> {
    let columns = legs.first().map(|(c, _)| c.clone()).unwrap_or_default();
    if legs.iter().any(|(c, _)| *c != columns) {
        return Err("shards disagree on result columns".into());
    }
    match q {
        Query::Aggregate { group_by, agg, .. } => {
            merge_aggregate(*agg, group_by.is_some(), columns, legs)
        }
        Query::Sort { by, desc, limit, .. } => {
            let rows = merge_sorted(&columns, legs, by, *desc, *limit)?;
            Ok((columns, rows))
        }
        _ => {
            // Plain row sets concatenate in shard order: deterministic
            // for a fixed topology (documented in docs/serving.md).
            let mut rows = Vec::new();
            for (_, mut leg) in legs.drain(..) {
                rows.append(&mut leg);
            }
            Ok((columns, rows))
        }
    }
}

/// Combine per-shard partial aggregates. `COUNT` and `SUM` add,
/// `MIN`/`MAX` compare; `NULL` partials (empty shard groups) are the
/// identity. Group keys merge through a `BTreeMap`, reproducing the
/// planner's deterministic group order.
fn merge_aggregate(
    agg: AggFn,
    grouped: bool,
    columns: Cols,
    legs: Vec<(Cols, Rows)>,
) -> Result<(Cols, Rows), String> {
    let combine = |acc: Value, next: &Value| -> Result<Value, String> {
        if next.is_null() {
            return Ok(acc);
        }
        if acc.is_null() {
            return Ok(next.clone());
        }
        match agg {
            AggFn::Count | AggFn::Sum => match (&acc, next) {
                (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a + b)),
                (a, b) => match (a.as_f64(), b.as_f64()) {
                    (Some(a), Some(b)) => Ok(Value::Float(a + b)),
                    _ => Err(format!("non-numeric partial aggregate: {a} + {b}")),
                },
            },
            AggFn::Min => Ok(if *next < acc { next.clone() } else { acc }),
            AggFn::Max => Ok(if *next > acc { next.clone() } else { acc }),
            AggFn::Avg => Err("AVG is not distributable across shards".into()),
        }
    };

    if grouped {
        let mut groups: BTreeMap<Value, Value> = BTreeMap::new();
        for (_, rows) in &legs {
            for row in rows {
                let [key, val] = row.as_slice() else {
                    return Err("grouped aggregate row is not [key, value]".into());
                };
                // One lookup per partial; a key is cloned only for a new group.
                match groups.get_mut(key) {
                    Some(acc) => *acc = combine(std::mem::replace(acc, Value::Null), val)?,
                    None => {
                        groups.insert(key.clone(), val.clone());
                    }
                }
            }
        }
        let rows = groups.into_iter().map(|(k, v)| vec![k, v]).collect();
        Ok((columns, rows))
    } else {
        // One row per shard; COUNT of an empty shard is Int(0), other
        // empty partials are NULL — both fold away as identities.
        let mut acc = if agg == AggFn::Count { Value::Int(0) } else { Value::Null };
        for (_, rows) in &legs {
            for row in rows {
                let [val] = row.as_slice() else {
                    return Err("global aggregate row is not a single value".into());
                };
                acc = combine(acc, val)?;
            }
        }
        Ok((columns, vec![vec![acc]]))
    }
}

/// Stable k-way merge of per-shard sorted runs; ties keep shard order,
/// mirroring the planner's stable sort over a shard-ordered concat.
fn merge_sorted(
    columns: &[String],
    legs: Vec<(Cols, Rows)>,
    by: &str,
    desc: bool,
    limit: Option<usize>,
) -> Result<Rows, String> {
    let col = columns
        .iter()
        .position(|c| c == by)
        .ok_or_else(|| format!("sort column {by} missing from result"))?;
    let mut runs: Vec<std::vec::IntoIter<Vec<Value>>> =
        legs.into_iter().map(|(_, rows)| rows.into_iter()).collect();
    let mut heads: Vec<Option<Vec<Value>>> = runs.iter_mut().map(Iterator::next).collect();
    let mut out = Vec::new();
    loop {
        // A shard's rows are outside input: a short one is refused, not indexed.
        let mut best: Option<(usize, &Value)> = None;
        for (i, head) in heads.iter().enumerate() {
            let Some(row) = head else { continue };
            let key = row.get(col).ok_or_else(|| {
                let (k, m) = (row.len(), columns.len());
                format!("shard {i} sent a row of {k} values under {m} columns")
            })?;
            if best.is_none_or(|(_, b)| if desc { key > b } else { key < b }) {
                best = Some((i, key));
            }
        }
        let Some((i, _)) = best else { break };
        if let Some(row) = heads[i].take() {
            out.push(row);
        }
        heads[i] = runs[i].next();
        if let Some(l) = limit {
            if out.len() >= l {
                break;
            }
        }
    }
    Ok(out)
}

fn route_explain(shared: &RouterShared, req: &Request) -> Routed {
    let (legs, lsn) = fan_out(shared, req)?;
    let mut out = String::new();
    for (shard, leg) in legs.into_iter().enumerate() {
        match leg.payload {
            Payload::Plan(plan) => {
                out.push_str(&format!("=== shard {shard} ===\n{plan}\n"));
            }
            other => return Ok((other, lsn)),
        }
    }
    Ok((Payload::Plan(out), lsn))
}

fn route_stats(shared: &RouterShared) -> Routed {
    let (legs, lsn) = fan_out(shared, &Request::Stats)?;
    let mut merged = MetricsSnapshot::default();
    for (shard, leg) in legs.into_iter().enumerate() {
        match leg.payload {
            Payload::Metrics(snap) => {
                merged.counters.insert(format!("shard{shard}.lsn"), leg.lsn);
                for (name, v) in snap.counters {
                    merged.counters.insert(format!("shard{shard}.{name}"), v);
                }
                for (name, h) in snap.histograms {
                    merged.histograms.insert(format!("shard{shard}.{name}"), h);
                }
            }
            other => return Ok((other, lsn)),
        }
    }
    Ok((Payload::Metrics(merged), lsn))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_shard_row_is_refused_not_indexed() {
        let cols = || vec!["id".to_string(), "score".to_string()];
        let row = |id: i64, score: i64| vec![Value::Int(id), Value::Int(score)];
        for desc in [false, true] {
            let q = Query::scan("t").sort("score", desc, Some(10));
            let (lo, hi) = if desc { (9, 1) } else { (1, 9) };
            let good = vec![(cols(), vec![row(1, lo), row(2, hi)]), (cols(), vec![row(3, 5)])];
            let (_, rows) = merge_results(&q, good).unwrap();
            assert_eq!(rows, vec![row(1, lo), row(3, 5), row(2, hi)], "desc={desc}");
            // Shard 1's second row lost its sort column.
            let short = vec![
                (cols(), vec![row(1, lo), row(2, hi)]),
                (cols(), vec![row(3, 5), vec![Value::Int(4)]]),
            ];
            let why = merge_results(&q, short).unwrap_err();
            assert_eq!(why, "shard 1 sent a row of 1 values under 2 columns", "desc={desc}");
        }
    }
}
