//! The traced run: repeat a workload's set-up on a bench-owned engine
//! whose storage calls are counted, replay a fixed sample of operations
//! twice — over the wire, then in-process layer by layer — and price the
//! layers no operation reaches alone (B-tree, codec, WAL) with probes
//! over the same rows. End-to-end metrics never come from here.

use crate::gen::{self, Dataset, Op, OpStream, BATCH, TABLE};
use crate::run::{self, Kind, Node, Plan, Res, Sut, Tally, SHARDS};
use crate::stats;
use crate::sys::{CountingBackend, DataDir, DeviceCounts, Speedometer};
use crate::trace::{SpanId, Trace};
use quarry_cluster::HashRing;
use quarry_core::{Quarry, SharedQuarry};
use quarry_query::lint;
use quarry_query::planner::{self, PlannerConfig};
use quarry_serve::protocol::{
    read_frame, read_response, write_request, write_response, Payload, Request, Response,
    DEFAULT_MAX_FRAME,
};
use quarry_serve::Client;
use quarry_storage::btree::row_key;
use quarry_storage::structured::LogRecord;
use quarry_storage::{codec, BTree, Database, KeyOrder, Pager, Row, RowId, ScanAccess, Value, Wal};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub struct Layered {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// The image pool the engine opens a checkpoint with.
const POOL_PAGES: usize = 64;
/// Rows per timed call where one row is too fast for the clock.
const CHUNK: usize = 100;

/// Everything the passes share.
struct Ctx<'a> {
    plan: &'a Plan,
    data: Dataset,
    backend: CountingBackend,
    t: Trace,
    tally: Tally,
    m: BTreeMap<&'static str, f64>,
    /// `core.query` minus the planner, for queries the cache missed.
    facade_us: Vec<f64>,
}

fn med(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Ctx<'_> {
    /// One insert transaction in-process: `storage.insert` around begin
    /// plus the row inserts, `storage.commit` around the commit.
    fn insert_batch(&mut self, op: u32, db: &Database, batch: Vec<Row>) -> Res<()> {
        let (tx, _) = self.t.span(op, "storage.insert", None, || {
            let tx = db.begin();
            batch.into_iter().try_for_each(|row| db.insert(tx, TABLE, row).map(drop)).map(|()| tx)
        });
        let (done, _) = self.t.span(op, "storage.commit", None, || db.commit(tx?));
        Ok(done?)
    }

    /// A fresh engine on the counting backend with the table and its
    /// indexes declared.
    fn empty_table(&self, wal: &Path) -> Res<Quarry> {
        let quarry = run::quarry_at(wal, &self.backend)?;
        quarry.db.create_table(gen::schema())?;
        for col in gen::INDEXED {
            quarry.create_index(TABLE, col)?;
        }
        Ok(quarry)
    }

    /// Set-up, in-process: the same DDL and the same transactions the
    /// untraced run sends over the wire, with the write path's spans and
    /// device counts taken as it goes.
    fn build(&mut self, wal: &Path) -> Res<Quarry> {
        let quarry = self.empty_table(wal)?;
        let batches: Vec<Vec<Row>> = self.data.batches().collect();
        let (dev, wal_len) = (self.backend.counts(), quarry.db.wal_len());
        for (i, batch) in batches.into_iter().enumerate() {
            self.insert_batch(i as u32, &quarry.db, batch)?;
        }
        self.note_write_path(&quarry.db, dev, wal_len);
        Ok(quarry)
    }

    fn note_write_path(&mut self, db: &Database, dev: DeviceCounts, wal_len: u64) {
        let wrote = self.backend.counts().since(&dev);
        let rows = self.data.len() as f64;
        let commits = self.data.len().div_ceil(BATCH) as f64;
        self.m.insert("device.write_bytes_per_row", wrote.write_bytes as f64 / rows);
        self.m.insert("device.syncs_per_commit", wrote.syncs as f64 / commits);
        self.m.insert("wal.bytes_per_row", (db.wal_len() - wal_len) as f64 / rows);
    }

    /// Close and reopen, timed. What it costs depends on what is on disk:
    /// a WAL to replay, or an image to attach.
    fn reopen(&mut self, quarry: Quarry, wal: &Path, metric: &'static str) -> Res<Quarry> {
        drop(quarry);
        let start = Instant::now();
        let quarry = run::quarry_at(wal, &self.backend)?;
        self.m.insert(metric, start.elapsed().as_secs_f64() * 1e3);
        self.tally.record(quarry.db.row_count(TABLE)? == self.data.len());
        Ok(quarry)
    }

    fn checkpoint_and_reopen(&mut self, quarry: Quarry, wal: &Path) -> Res<Quarry> {
        let start = Instant::now();
        quarry.checkpoint()?;
        let secs = start.elapsed().as_secs_f64();
        let rows = self.data.len() as f64;
        let image = std::fs::metadata(wal.with_extension("ckpt"))?.len();
        self.m.insert("storage.checkpoint_s", secs);
        self.m.insert("storage.checkpoint_us_per_row", secs * 1e6 / rows);
        self.m.insert("storage.checkpoint_bytes_per_row", image as f64 / rows);
        self.reopen(quarry, wal, "storage.reopen_ms")
    }

    /// One exchange over the wire: `serve.rtt` around the client call,
    /// `serve.server` inside it from the server's own clock.
    fn exchange(&mut self, op: u32, client: &mut Client, req: &Request) -> Res<(Payload, SpanId)> {
        let (resp, rtt) = self.t.span(op, "serve.rtt", None, || client.request(req));
        let resp = resp?;
        let server = self.t.inside(rtt, "serve.server", resp.server_micros * 1000);
        if matches!(resp.payload, Payload::Overloaded) {
            self.t.count("serve.overloaded", 1.0);
        }
        Ok((resp.payload, server))
    }

    fn read_over_wire(&mut self, i: u32, client: &mut Client, op: &Op) -> Res<SpanId> {
        let (payload, server) = self.exchange(i, client, &Request::Query(op.query()))?;
        let ok = matches!(payload, Payload::Rows { rows, .. } if rows == self.data.expect(op));
        self.tally.record(ok);
        Ok(server)
    }

    fn pings(&mut self, client: &mut Client, n: usize) -> Res<()> {
        for i in 0..n {
            let (pong, _) = self.t.span(i as u32, "serve.ping", None, || client.ping());
            pong?;
        }
        Ok(())
    }

    /// The sample over the wire with spans, in blocks that alternate with
    /// as many further ops of the same stream sent with no span taken: the
    /// difference in time is what tracing itself costs, with cache
    /// warmth and the box's mood the same on both sides.
    fn wire_pass(&mut self, client: &mut Client, ops: &[Op], plain: &[Op]) -> Res<Vec<SpanId>> {
        let (mut untraced, mut traced) = (0.0, 0.0);
        let mut servers = Vec::with_capacity(ops.len());
        // The first query after the inserts pins a snapshot of the whole
        // overlay, milliseconds of work: keep it out of the comparison.
        if let Some(first) = plain.first() {
            let warmed = client.query(&first.query());
            self.tally.record(warmed.is_ok());
        }
        for (spare, sample) in plain.chunks(CHUNK).zip(ops.chunks(CHUNK)) {
            let start = Instant::now();
            for op in spare {
                self.tally.record(run::read_checked(client, &self.data, op).0);
            }
            untraced += start.elapsed().as_secs_f64();
            let start = Instant::now();
            for op in sample {
                servers.push(self.read_over_wire(servers.len() as u32, client, op)?);
            }
            traced += start.elapsed().as_secs_f64();
        }
        self.m.insert("trace.overhead_pct", (ratio(traced, untraced) - 1.0) * 100.0);
        self.pings(client, ops.len())?;
        Ok(servers)
    }

    /// Encode and decode a frame pair in memory, as client and server do.
    fn frames(&mut self, op: u32, req: &Request, resp: &Response) -> Res<()> {
        let mut buf = Vec::new();
        let (wrote, _) =
            self.t.span(op, "serve.encode_request", None, || write_request(&mut buf, 1, req));
        wrote?;
        self.t.count("serve.request_bytes", buf.len() as f64);
        let (decoded, _) = self.t.span(op, "serve.decode_request", None, || -> Res<Request> {
            let (_, payload) = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME)?;
            Ok(serde_json::from_slice(&payload)?)
        });
        self.tally.record(decoded? == *req);

        buf.clear();
        let (wrote, _) =
            self.t.span(op, "serve.encode_response", None, || write_response(&mut buf, resp));
        wrote?;
        self.t.count("serve.response_bytes", buf.len() as f64);
        let (decoded, _) = self.t.span(op, "serve.decode_response", None, || {
            read_response(&mut buf.as_slice(), DEFAULT_MAX_FRAME)
        });
        self.tally.record(decoded? == *resp);
        Ok(())
    }

    /// One read, layer by layer from outside in: pin, façade, planner,
    /// lint, plan, storage. `after_write` says the engine committed since
    /// the last pin, so whichever pin goes first pays the re-copy and the
    /// other is left unmeasured.
    fn read_in_process(
        &mut self,
        i: u32,
        shared: &SharedQuarry,
        db: &Database,
        op: &Op,
        after_write: bool,
    ) -> Res<()> {
        let query = op.query();
        let snap = if after_write && i.is_multiple_of(2) {
            self.t.span(i, "storage.snapshot", None, || drop(db.snapshot()));
            shared.snapshot()
        } else {
            let (snap, _) = self.t.span(i, "core.snapshot_pin", None, || shared.snapshot());
            if !after_write {
                self.t.span(i, "storage.snapshot", None, || drop(db.snapshot()));
            }
            snap
        };

        // Page and device counts belong to the outermost call: the inner
        // calls below run the same reads again.
        let (pool, dev, cache) = (
            db.image_pool_stats().unwrap_or_default(),
            self.backend.counts(),
            snap.query_cache_stats(),
        );
        let (result, facade) = self.t.span(i, "core.query", None, || snap.query(&query));
        let result = result?;
        let pool_now = db.image_pool_stats().unwrap_or_default();
        let read = self.backend.counts().since(&dev);
        self.t.count("pager.page_reads", (pool_now.misses - pool.misses) as f64);
        self.t.count("pager.hits", (pool_now.hits - pool.hits) as f64);
        self.t.count("pager.evictions", (pool_now.evictions - pool.evictions) as f64);
        self.t.count("device.read_calls", read.read_calls as f64);
        self.t.count("device.read_bytes", read.read_bytes as f64);
        self.t.count("core.reads", 1.0);
        let hit = snap.query_cache_stats().hits > cache.hits;
        self.t.count("core.qcache_hits", f64::from(u8::from(hit)));
        self.tally.record(result.rows == self.data.expect(op));

        let cfg = PlannerConfig::default();
        let (planned, execute) = self.t.span(i, "query.execute", Some(facade), || {
            planner::execute_snapshot_with(snap.db(), &query, &cfg)
        });
        let (again, ops_trace) = planned?;
        self.tally.record(again.rows == result.rows);
        self.t.count("query.rows_scanned", ops_trace.total_scanned() as f64);
        self.t.count("query.rows_returned", again.rows.len() as f64);
        if !hit {
            self.facade_us.push((self.t.span_us(facade) - self.t.span_us(execute)).max(0.0));
        }
        self.t.span(i, "query.lint", Some(execute), || drop(lint::check_query(snap.db(), &query)));
        self.t
            .span(i, "query.plan", Some(execute), || drop(planner::plan(snap.db(), &query, &cfg)));
        let (selected, _) =
            self.t.span(i, "storage.select", Some(execute), || select(snap.db(), op));
        selected?;

        let response = Response {
            id: 1,
            server_micros: 0,
            lsn: snap.lsn(),
            payload: Payload::Rows { columns: result.columns, rows: result.rows },
        };
        self.frames(i, &Request::Query(query), &response)
    }

    fn in_process_pass(&mut self, quarry: Quarry, ops: &[Op]) -> Res<Quarry> {
        let db = Arc::clone(&quarry.db);
        let shared = SharedQuarry::new(quarry);
        for (i, op) in ops.iter().enumerate() {
            self.read_in_process(i as u32, &shared, &db, op, false)?;
        }
        Ok(shared.into_inner())
    }

    /// `ingest_read`, one repetition over the wire, two exchanges an op;
    /// with spans or, for the overhead of taking them, without. Returns
    /// the seconds the ops took.
    fn ingest_over_wire(&mut self, dir: &Path, traced: bool) -> Res<f64> {
        let mut node = Node::open(dir, &self.backend)?;
        run::create_schema(&mut node.client)?;
        let batches: Vec<Vec<Row>> = self.data.batches().collect();
        let start = Instant::now();
        for (i, batch) in batches.into_iter().enumerate() {
            let read = Op::Point { id: gen::read_back(&batch, self.plan.seed, i) };
            if traced {
                let insert = Request::InsertRows { table: TABLE.into(), rows: batch };
                let (payload, _) = self.exchange(i as u32, &mut node.client, &insert)?;
                self.tally.record(matches!(payload, Payload::Done));
                self.read_over_wire(i as u32, &mut node.client, &read)?;
            } else {
                node.client.insert_rows(TABLE, batch)?;
                self.tally.record(run::read_checked(&mut node.client, &self.data, &read).0);
            }
        }
        let secs = start.elapsed().as_secs_f64();
        if traced {
            self.pings(&mut node.client, self.data.len().div_ceil(BATCH))?;
        }
        drop(node.stop());
        Ok(secs)
    }

    /// `ingest_read`, one repetition in-process: the write path and the
    /// read that follows every commit.
    fn ingest_in_process(&mut self, wal: &Path) -> Res<Quarry> {
        let quarry = self.empty_table(wal)?;
        let db = Arc::clone(&quarry.db);
        let shared = SharedQuarry::new(quarry);
        let batches: Vec<Vec<Row>> = self.data.batches().collect();
        let (dev, wal_len) = (self.backend.counts(), db.wal_len());
        for (i, batch) in batches.into_iter().enumerate() {
            let read = Op::Point { id: gen::read_back(&batch, self.plan.seed, i) };
            let insert = Request::InsertRows { table: TABLE.into(), rows: batch.clone() };
            let done = Response { id: 1, server_micros: 0, lsn: 0, payload: Payload::Done };
            self.frames(i as u32, &insert, &done)?;
            self.insert_batch(i as u32, &db, batch)?;
            self.read_in_process(i as u32, &shared, &db, &read, true)?;
        }
        self.note_write_path(&db, dev, wal_len);
        Ok(shared.into_inner())
    }

    /// `router_fanout` over the wire: through the router, then the same
    /// queries straight to every shard, then routed point reads.
    fn cluster_pass(&mut self, dir: &Path, ops: &[Op], plain: &[Op]) -> Res<()> {
        let Sut::Cluster { mut cluster, mut client, catchup } =
            Sut::setup(Kind::RouterFanout, &self.data, dir, &mut Speedometer::start())?
        else {
            return Err("router_fanout sets up a cluster".into());
        };
        self.m.insert("replication.catchup_ms", catchup.as_secs_f64() * 1e3);

        let primaries: Vec<_> =
            cluster.shards().iter().filter_map(|s| s.primary.as_ref()).collect();
        let served = |ps: &[&quarry_cluster::Primary]| -> u64 {
            ps.iter().map(|p| p.server().metrics().snapshot().counter("server.requests")).sum()
        };
        let before = served(&primaries);
        let servers = self.wire_pass(&mut client, ops, plain)?;
        // wire_pass sends as many ops without spans as with.
        let legs = (served(&primaries) - before) as f64 / (2 * ops.len()) as f64;
        self.m.insert("cluster.legs_per_op", legs);

        let mut direct = Vec::new();
        for p in &primaries {
            direct.push(Client::connect(p.serve_addr())?);
        }
        for (i, op) in ops.iter().enumerate() {
            let req = Request::Query(op.query());
            for shard in &mut direct {
                let (resp, _) =
                    self.t.span(i as u32, "cluster.shard_rtt", Some(servers[i]), || {
                        shard.request(&req)
                    });
                self.tally.record(matches!(resp?.payload, Payload::Rows { .. }));
            }
        }
        let points = OpStream::new(Kind::PointRead.mix(), self.data.len(), self.plan.seed);
        for (i, op) in points.take(ops.len()).enumerate() {
            let query = op.query();
            let (answer, _) =
                self.t.span(i as u32, "cluster.route_point", None, || client.query(&query));
            self.tally.record(matches!(answer, Ok((_, rows)) if rows == self.data.expect(&op)));
        }
        drop(direct);
        drop(client);
        cluster.shutdown();

        let ring = HashRing::new(SHARDS);
        let keys: Vec<[Value; 1]> = (0..1000).map(|id| [Value::Int(id)]).collect();
        for round in 0..100 {
            self.t.span(round, "cluster.ring_lookup_x1000", None, || {
                keys.iter().map(|k| ring.shard_for_key(k)).sum::<usize>()
            });
        }
        Ok(())
    }

    /// B-tree, codec and WAL, each alone on a bench-owned file over the
    /// workload's rows.
    fn probes(&mut self, dir: &Path) -> Res<()> {
        let encoded: Vec<Vec<u8>> = (0..self.data.len() as i64)
            .map(|id| {
                let mut buf = Vec::new();
                codec::write_row(&mut buf, self.data.row(id)).map(|()| buf)
            })
            .collect::<Result<_, _>>()?;

        let mut scratch = Vec::new();
        for (c, chunk) in encoded.chunks(CHUNK).enumerate() {
            let (data, first) = (&self.data, (c * CHUNK) as i64);
            let (done, _) = self.t.span(c as u32, "codec.encode_rows", None, || {
                (first..first + chunk.len() as i64).try_for_each(|id| {
                    scratch.clear();
                    codec::write_row(&mut scratch, data.row(id))
                })
            });
            done?;
            let (done, _) = self.t.span(c as u32, "codec.decode_rows", None, || {
                chunk.iter().try_for_each(|bytes| codec::read_row(bytes, &mut 0).map(drop))
            });
            done?;
        }

        let mut pager = Pager::create(&self.backend, &dir.join("probe.qpg"), POOL_PAGES)?;
        let mut tree = BTree::create(&mut pager, KeyOrder::RowId)?;
        for (id, row) in encoded.iter().enumerate() {
            let key = row_key(id as u64);
            let (done, _) =
                self.t.span(id as u32, "btree.insert", None, || tree.insert(&mut pager, &key, row));
            done?;
        }
        pager.flush()?;
        let lookups = OpStream::new(Kind::PointRead.mix(), self.data.len(), self.plan.seed);
        for (i, op) in lookups.take(self.plan.sample).enumerate() {
            let Op::Point { id } = op else { continue };
            let key = row_key(id as u64);
            let (found, _) =
                self.t.span(i as u32, "btree.lookup", None, || tree.lookup(&mut pager, &key));
            self.tally.record(found?.as_deref() == Some(encoded[id as usize].as_slice()));
            if i % 10 == 0 {
                let (walked, _) = self.t.span(i as u32, "btree.cursor_rows", None, || {
                    let mut cursor = tree.cursor_seek(&mut pager, &key)?;
                    let mut rows = 0;
                    while rows < CHUNK && cursor.next(&mut pager)?.is_some() {
                        rows += 1;
                    }
                    Ok::<usize, quarry_storage::StorageError>(rows)
                });
                self.t.count("btree.cursor_rows", walked? as f64);
            }
        }

        let mut wal = Wal::open_with(Arc::new(self.backend.clone()), dir.join("probe.wal"))?;
        let records: Vec<Vec<u8>> = (0..self.data.len() as i64)
            .map(|id| {
                LogRecord::Insert {
                    tx: 1,
                    table: TABLE.into(),
                    row_id: RowId(id as u64),
                    row: self.data.row(id).clone(),
                }
                .encode()
            })
            .collect::<Result<_, _>>()?;
        for (c, chunk) in records.chunks(CHUNK).enumerate() {
            let (done, _) = self.t.span(c as u32, "wal.appends", None, || {
                chunk.iter().try_for_each(|r| wal.append(r).map(drop))
            });
            done?;
        }
        wal.sync()?;
        Ok(())
    }

    /// Reduce spans and counts to the per-layer metrics.
    fn derive(&mut self) {
        let t = &self.t;
        let m = &mut self.m;
        let rtt = t.per_op_us("serve.rtt");
        m.insert("serve.rtt_us", med(&rtt));
        m.insert("serve.request_p99_us", stats::percentile(&rtt, 0.99).unwrap_or(0.0));
        m.insert("serve.server_us", med(&t.per_op_us("serve.server")));
        m.insert("serve.wire_us", med(&t.per_op_self_us("serve.rtt")));
        m.insert("serve.ping_us", med(&t.each_us("serve.ping")));
        for (metric, span) in [
            ("serve.encode_request_us", "serve.encode_request"),
            ("serve.decode_request_us", "serve.decode_request"),
            ("serve.encode_response_us", "serve.encode_response"),
            ("serve.decode_response_us", "serve.decode_response"),
            ("core.snapshot_pin_us", "core.snapshot_pin"),
            ("core.query_us", "core.query"),
            ("query.lint_us", "query.lint"),
            ("query.plan_us", "query.plan"),
            ("storage.select_us", "storage.select"),
            ("storage.snapshot_us", "storage.snapshot"),
            ("storage.commit_us", "storage.commit"),
            ("btree.lookup_us", "btree.lookup"),
            ("btree.insert_us", "btree.insert"),
            ("cluster.shard_rtt_us", "cluster.shard_rtt"),
            ("cluster.route_point_us", "cluster.route_point"),
        ] {
            m.insert(metric, med(&t.per_op_us(span)));
        }
        let ops = t.counted("core.reads");
        // ingest_read sizes two frame pairs an op; bytes are per op.
        let frame_ops = ops.max(1.0);
        m.insert("serve.request_bytes", t.counted("serve.request_bytes") / frame_ops);
        m.insert("serve.response_bytes", t.counted("serve.response_bytes") / frame_ops);
        m.insert("serve.overloaded", t.counted("serve.overloaded"));
        m.insert("core.facade_us", med(&self.facade_us));
        m.insert("core.qcache_hit_ratio", ratio(t.counted("core.qcache_hits"), ops));
        // Running the plan: the planner's whole call minus lint and plan.
        let running: Vec<f64> = t
            .per_op_self_us("query.execute")
            .iter()
            .zip(t.per_op_us("storage.select"))
            .map(|(own, select)| own + select)
            .collect();
        m.insert("query.exec_us", med(&running));
        m.insert(
            "query.rows_scanned_per_result",
            ratio(t.counted("query.rows_scanned"), t.counted("query.rows_returned")),
        );
        m.insert("storage.insert_us_per_row", med(&t.per_op_us("storage.insert")) / BATCH as f64);
        m.insert("pager.page_reads_per_op", ratio(t.counted("pager.page_reads"), ops));
        m.insert(
            "pager.hit_ratio",
            ratio(t.counted("pager.hits"), t.counted("pager.hits") + t.counted("pager.page_reads")),
        );
        m.insert("pager.evictions_per_op", ratio(t.counted("pager.evictions"), ops));
        m.insert("device.read_calls_per_op", ratio(t.counted("device.read_calls"), ops));
        m.insert("device.read_bytes_per_op", ratio(t.counted("device.read_bytes"), ops));
        m.insert(
            "btree.cursor_row_us",
            ratio(t.each_us("btree.cursor_rows").iter().sum(), t.counted("btree.cursor_rows")),
        );
        m.insert("codec.encode_row_us", med(&t.each_us("codec.encode_rows")) / CHUNK as f64);
        m.insert("codec.decode_row_us", med(&t.each_us("codec.decode_rows")) / CHUNK as f64);
        m.insert("wal.append_us", med(&t.each_us("wal.appends")) / CHUNK as f64);
        m.insert("cluster.ring_lookup_ns", med(&t.each_us("cluster.ring_lookup_x1000")));
        if self.plan.kind == Kind::RouterFanout {
            let legs = t.per_op_us("cluster.shard_rtt");
            let own: Vec<f64> = rtt.iter().zip(&legs).map(|(r, l)| (r - l).max(0.0)).collect();
            m.insert("cluster.router_rtt_us", med(&rtt));
            m.insert("cluster.router_self_us", med(&own));
        } else {
            // A single node: no router, no legs, no replica to wait for.
            for absent in [
                "cluster.router_rtt_us",
                "cluster.router_self_us",
                "cluster.legs_per_op",
                "replication.catchup_ms",
            ] {
                m.insert(absent, 0.0);
            }
        }
    }

    fn print_spans(&self) {
        println!("{:<28} {:>8} {:>14} {:>14}", "span", "count", "median us", "median self us");
        for name in self.t.names() {
            let each = self.t.each_us(name);
            println!(
                "{:<28} {:>8} {:>14.2} {:>14.2}",
                name,
                each.len(),
                med(&each),
                med(&self.t.each_self_us(name))
            );
        }
    }
}

/// `DbSnapshot::select` the way the planner reaches `op`'s rows.
fn select(snap: &quarry_storage::DbSnapshot, op: &Op) -> quarry_storage::Result<(Vec<Row>, usize)> {
    match *op {
        Op::Point { id } => {
            let key = Value::Int(id);
            let access = ScanAccess::Index { column: "id", lo: Some(&key), hi: Some(&key) };
            snap.select(TABLE, access, &mut |row| row[0] == key, None)
        }
        Op::Count { lo, hi } | Op::Top { lo, hi, .. } => {
            let (lo, hi) = (Value::Int(lo), Value::Int(hi));
            let access = ScanAccess::Index { column: "value", lo: Some(&lo), hi: Some(&hi) };
            snap.select(TABLE, access, &mut |row| row[2] >= lo && row[2] <= hi, None)
        }
    }
}

pub fn run(plan: &Plan, dirs: &mut DataDir) -> Res<Layered> {
    let mut ctx = Ctx {
        plan,
        data: Dataset::new(plan.rows, plan.seed),
        backend: CountingBackend::default(),
        t: Trace::default(),
        tally: Tally::default(),
        m: BTreeMap::new(),
        facade_us: Vec::new(),
    };
    let mut stream = OpStream::new(plan.kind.mix(), plan.rows, plan.seed);
    let ops: Vec<Op> = stream.by_ref().take(plan.sample).collect();
    let plain: Vec<Op> = stream.take(plan.sample).collect();
    let dir = dirs.fresh("traced")?;
    let wal = dir.join("node.wal");

    let quarry = if plan.kind == Kind::IngestRead {
        // The first repetition of a process also grows its heap; leave it out.
        ctx.ingest_over_wire(&dirs.fresh("warm-wire")?, false)?;
        let untraced = ctx.ingest_over_wire(&dirs.fresh("untraced-wire")?, false)?;
        let traced = ctx.ingest_over_wire(&dirs.fresh("traced-wire")?, true)?;
        ctx.m.insert("trace.overhead_pct", (ratio(traced, untraced) - 1.0) * 100.0);
        ctx.ingest_in_process(&wal)?
    } else {
        ctx.build(&wal)?
    };
    ctx.m.insert("storage.overlay_rows", quarry.db.overlay_row_count(TABLE)? as f64);
    let mut quarry = ctx.reopen(quarry, &wal, "storage.recover_ms")?;

    match plan.kind {
        Kind::IngestRead => {}
        Kind::RouterFanout => {
            ctx.cluster_pass(&dirs.fresh("traced-cluster")?, &ops, &plain)?;
            quarry = ctx.in_process_pass(quarry, &ops)?;
        }
        Kind::PointRead | Kind::ColdRange => {
            if plan.kind == Kind::ColdRange {
                quarry = ctx.checkpoint_and_reopen(quarry, &wal)?;
                ctx.m.insert("storage.overlay_rows", quarry.db.overlay_row_count(TABLE)? as f64);
            }
            let mut node = Node::serve(quarry)?;
            ctx.wire_pass(&mut node.client, &ops, &plain)?;
            quarry = ctx.in_process_pass(node.stop(), &ops)?;
        }
    }
    // cold_range checkpointed before its reads, as the workload does; the
    // others price a checkpoint of their table once the reads are done.
    if plan.kind != Kind::ColdRange {
        quarry = ctx.checkpoint_and_reopen(quarry, &wal)?;
    }
    drop(quarry);
    ctx.probes(&dir)?;

    ctx.derive();
    ctx.print_spans();
    let out = dirs.root().with_file_name(format!("trace-{}.json", plan.kind.name()));
    ctx.t.write(&out)?;
    println!("spans written to {}", out.display());
    Ok(Layered { tally: ctx.tally, metrics: ctx.m })
}
