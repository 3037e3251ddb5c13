//! The untraced run: set a workload's state up, drive it with one
//! waiting client, check every answer against the oracle, and reduce the
//! windows to the end-to-end metrics.

use crate::gen::{self, Dataset, Mix, Op, OpStream, BATCH, TABLE};
use crate::stats;
use crate::sys::{self, CountingBackend, DataDir, Speedometer, Took};
use quarry_cluster::{Cluster, ClusterConfig};
use quarry_core::{Quarry, QuarryConfig};
use quarry_query::engine::{AggFn, Query};
use quarry_serve::protocol::{write_request, write_response, Payload, Request};
use quarry_serve::{Client, ServeConfig, Server};
use quarry_storage::{Row, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointRead,
    ColdRange,
    IngestRead,
    RouterFanout,
}

pub const KINDS: [Kind; 4] =
    [Kind::PointRead, Kind::ColdRange, Kind::IngestRead, Kind::RouterFanout];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::PointRead => "point_read",
            Kind::ColdRange => "cold_range",
            Kind::IngestRead => "ingest_read",
            Kind::RouterFanout => "router_fanout",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        KINDS.into_iter().find(|k| k.name() == name)
    }

    /// Table size at full scale. For `ingest_read` this is what one
    /// repetition inserts.
    fn full_rows(self) -> usize {
        match self {
            Kind::PointRead => 20_000,
            Kind::ColdRange => 40_000,
            Kind::IngestRead => 12_000,
            Kind::RouterFanout => 30_000,
        }
    }

    /// The read mix; `ingest_read` reads back what it just wrote instead.
    pub fn mix(self) -> Mix {
        match self {
            Kind::PointRead | Kind::IngestRead => Mix::HotCold,
            Kind::ColdRange => Mix::Counts { width: 400 },
            Kind::RouterFanout => Mix::TopThenCount { width: 2000, k: 20 },
        }
    }

    /// Ops replayed by the traced run and sized for `wire_bytes_per_op`.
    fn sample(self) -> usize {
        match self {
            Kind::ColdRange => 300,
            _ => 2000,
        }
    }
}

/// How much work a run does. Everything is a fixed count or a fixed
/// length of time; nothing follows how fast the run happens to go.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub kind: Kind,
    pub seed: u64,
    pub rows: usize,
    pub windows: usize,
    pub window: Duration,
    pub warmup: Duration,
    /// Set-ups per run; `setup_s` is the quiet one among them.
    pub setups: usize,
    pub sample: usize,
}

pub const WINDOWS: usize = 14;

impl Plan {
    pub fn full(kind: Kind, seed: u64, seconds: f64) -> Plan {
        Plan {
            kind,
            seed,
            rows: kind.full_rows(),
            windows: WINDOWS,
            window: Duration::from_secs_f64(seconds / WINDOWS as f64),
            warmup: Duration::from_secs(2),
            setups: match kind {
                Kind::PointRead => 5,
                Kind::RouterFanout => 3,
                // One checkpoint of 40 000 rows is most of ten seconds;
                // every repetition of ingest_read is a set-up already.
                Kind::ColdRange | Kind::IngestRead => 1,
            },
            sample: kind.sample(),
        }
    }

    /// The smoke size: 2 000 rows and one short window.
    pub fn check(kind: Kind, seed: u64) -> Plan {
        Plan {
            kind,
            seed,
            rows: 2000,
            windows: 1,
            window: Duration::from_millis(500),
            warmup: Duration::from_millis(100),
            setups: 1,
            sample: 100,
        }
    }
}

/// Open (or recover) the database whose WAL is `wal`, durability at the
/// shipped default, on the bench's counting backend.
pub fn quarry_at(wal: &Path, backend: &CountingBackend) -> Res<Quarry> {
    let cfg = QuarryConfig::builder().wal_path(wal).storage_backend(Arc::new(backend.clone()));
    Ok(Quarry::new(cfg.build())?)
}

/// One `quarry-serve` node with its one client connection.
pub struct Node {
    server: Server,
    pub client: Client,
}

impl Node {
    /// Open (or recover) the database under `dir` and serve it.
    pub fn open(dir: &Path, backend: &CountingBackend) -> Res<Node> {
        Node::serve(quarry_at(&dir.join("node.wal"), backend)?)
    }

    pub fn serve(quarry: Quarry) -> Res<Node> {
        let server = Server::start(quarry, "127.0.0.1:0", ServeConfig::default())?;
        let client = Client::connect(server.local_addr())?;
        Ok(Node { server, client })
    }

    /// Drain the server and hand the façade back.
    pub fn stop(self) -> Quarry {
        drop(self.client);
        self.server.join()
    }
}

pub fn create_schema(client: &mut Client) -> Res<()> {
    client.create_table(gen::schema())?;
    for col in gen::INDEXED {
        client.create_index(TABLE, col)?;
    }
    Ok(())
}

/// DDL, then every row in [`BATCH`]-row transactions over the wire.
fn seed(client: &mut Client, data: &Dataset, speed: &mut Speedometer) -> Res<()> {
    speed.timed(|| create_schema(client)).0?;
    for batch in data.batches() {
        speed.timed(|| client.insert_rows(TABLE, batch)).0?;
    }
    Ok(())
}

/// A workload's system under test, ready for its first operation.
pub enum Sut {
    Single(Node),
    /// `catchup`: how long the replicas took to apply and acknowledge the
    /// primaries' logs once the last seeded row was acknowledged.
    Cluster {
        cluster: Box<Cluster>,
        client: Client,
        catchup: Duration,
    },
}

pub const SHARDS: usize = 3;

impl Sut {
    /// Every step runs under `speed`, which so collects what the set-up
    /// took at nominal speed.
    pub fn setup(kind: Kind, data: &Dataset, dir: &Path, speed: &mut Speedometer) -> Res<Sut> {
        let backend = CountingBackend::default();
        match kind {
            Kind::PointRead | Kind::IngestRead => {
                let mut node = speed.timed(|| Node::open(dir, &backend)).0?;
                seed(&mut node.client, data, speed)?;
                Ok(Sut::Single(node))
            }
            Kind::ColdRange => {
                let mut node = speed.timed(|| Node::open(dir, &backend)).0?;
                seed(&mut node.client, data, speed)?;
                speed.timed(|| node.client.checkpoint()).0?;
                // Close and reopen, so every read goes through the image.
                let node = speed.timed(|| {
                    drop(node.stop());
                    Node::open(dir, &backend)
                });
                Ok(Sut::Single(node.0?))
            }
            Kind::RouterFanout => {
                let cfg =
                    ClusterConfig { shards: SHARDS, replicas_per_shard: 1, ..Default::default() };
                let cluster = Box::new(speed.timed(|| Cluster::start(dir, cfg)).0?);
                let mut client = cluster.client()?;
                seed(&mut client, data, speed)?;
                let seeded = Instant::now();
                let caught_up = speed.timed(|| {
                    (0..SHARDS)
                        .all(|s| cluster.await_replicas_caught_up(s, Duration::from_secs(60)))
                });
                if !caught_up.0 {
                    return Err("a replica never caught up".into());
                }
                Ok(Sut::Cluster { cluster, client, catchup: seeded.elapsed() })
            }
        }
    }

    pub fn client(&mut self) -> &mut Client {
        match self {
            Sut::Single(node) => &mut node.client,
            Sut::Cluster { client, .. } => client,
        }
    }

    pub fn shutdown(self) {
        match self {
            Sut::Single(node) => drop(node.stop()),
            Sut::Cluster { mut cluster, client, .. } => {
                drop(client);
                cluster.shutdown();
            }
        }
    }
}

/// Attempts and failures. A failure is any error, `Overloaded`, or an
/// answer that differs from the oracle.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    fn check_alive(&self) -> Res<()> {
        // A dead connection fails every later op in microseconds; stop
        // instead of counting them for the rest of the run.
        if self.failed > 100 && self.failed * 2 > self.attempted {
            return Err(format!("{} of {} operations failed", self.failed, self.attempted).into());
        }
        Ok(())
    }
}

/// Run one read over the wire and compare it with the oracle.
pub fn read_checked(client: &mut Client, data: &Dataset, op: &Op) -> (bool, Duration) {
    let query = op.query();
    let start = Instant::now();
    let answer = client.query(&query);
    let took = start.elapsed();
    let ok = match answer {
        Ok((_, rows)) => rows == data.expect(op),
        Err(e) => {
            eprintln!("{op:?}: {e}");
            false
        }
    };
    (ok, took)
}

/// One timed window, every time at nominal speed.
struct Window {
    ops: u64,
    secs: f64,
    cpu_us: f64,
    p50_us: f64,
}

/// Reduces windows to the three timed end-to-end metrics.
#[derive(Default)]
struct Windows(Vec<Window>);

impl Windows {
    /// `took`: the window's operations as timed and at nominal speed.
    /// `latencies_us` are at nominal speed already.
    fn push(&mut self, ops: u64, took: Took, cpu_us: u64, latencies_us: &[f64]) {
        let w = Window {
            ops,
            secs: took.nominal,
            cpu_us: cpu_us as f64 * took.nominal / took.wall,
            p50_us: stats::median(latencies_us).unwrap_or(0.0),
        };
        println!(
            "window {:2}: {:10.1} ops/s   p50 {:9.1} us   cpu {:9.1} us/op   ({} ops, box at {:.2} of nominal speed)",
            self.0.len() + 1,
            w.ops as f64 / w.secs,
            w.p50_us,
            w.cpu_us / w.ops.max(1) as f64,
            w.ops,
            took.nominal / took.wall
        );
        self.0.push(w);
    }

    fn column(&self, f: impl Fn(&Window) -> f64) -> Vec<f64> {
        self.0.iter().filter(|w| w.ops > 0).map(f).collect()
    }

    fn ops_per_s(&self) -> f64 {
        stats::quiet_high(&self.column(|w| w.ops as f64 / w.secs)).unwrap_or(0.0)
    }

    fn p50_us(&self) -> f64 {
        stats::quiet_low(&self.column(|w| w.p50_us)).unwrap_or(0.0)
    }

    fn cpu_us_per_op(&self) -> f64 {
        stats::quiet_low(&self.column(|w| w.cpu_us / w.ops as f64)).unwrap_or(0.0)
    }

    fn samples(&self) -> u64 {
        self.0.iter().map(|w| w.ops).sum()
    }
}

/// What a run measured.
pub struct Outcome {
    pub tally: Tally,
    /// `(name, value)` for every end-to-end metric, in spec order.
    pub metrics: Vec<(&'static str, f64)>,
}

struct Wire {
    bytes: u64,
    ops: u64,
}

impl Wire {
    /// Frame bytes of one exchange, sized by encoding both frames again.
    fn size(&mut self, req: &Request, client: &mut Client) -> Res<Payload> {
        let resp = client.request(req)?;
        let mut frames = Vec::new();
        write_request(&mut frames, resp.id, req)?;
        write_response(&mut frames, &resp)?;
        self.bytes += frames.len() as u64;
        Ok(resp.payload)
    }
}

fn count_rows(client: &mut Client) -> Res<usize> {
    let (_, rows) = client.query(&Query::scan(TABLE).aggregate(None, AggFn::Count, "id"))?;
    match rows.first().and_then(|r| r.first()) {
        Some(Value::Int(n)) => Ok(*n as usize),
        other => Err(format!("COUNT returned {other:?}").into()),
    }
}

fn finish(
    tally: Tally,
    setups: &[f64],
    windows: &Windows,
    peak_rss_mb: f64,
    (disk_bytes, live_rows): (u64, usize),
    wire: &Wire,
) -> Outcome {
    println!("p50 over {} timed operations in {} windows", windows.samples(), windows.0.len());
    println!(
        "set-ups: {}",
        setups.iter().map(|s| format!("{s:.3} s")).collect::<Vec<_>>().join(", ")
    );
    let metrics = vec![
        ("setup_s", stats::quiet_low(setups).unwrap_or(0.0)),
        ("ops_per_s", windows.ops_per_s()),
        ("p50_us", windows.p50_us()),
        ("cpu_us_per_op", windows.cpu_us_per_op()),
        ("peak_rss_mb", peak_rss_mb),
        ("disk_bytes_per_row", disk_bytes as f64 / live_rows.max(1) as f64),
        ("wire_bytes_per_op", wire.bytes as f64 / wire.ops.max(1) as f64),
    ];
    Outcome { tally, metrics }
}

/// Latencies of one window. Fixed capacity, touched once, reused: memory
/// does not follow throughput.
fn latency_buffer() -> Vec<f64> {
    let mut buf = vec![1.0; 1 << 18];
    buf.clear();
    buf
}

pub fn run(plan: &Plan, dirs: &mut DataDir) -> Res<Outcome> {
    match plan.kind {
        Kind::IngestRead => run_ingest(plan, dirs),
        _ => run_reads(plan, dirs),
    }
}

/// Generate the rows and bring a system up on them; how long that took at
/// nominal speed.
fn timed_setup(
    plan: &Plan,
    dirs: &mut DataDir,
    speed: &mut Speedometer,
) -> Res<(f64, Sut, Dataset, PathBuf)> {
    let mark = speed.total();
    let data = speed.timed(|| Dataset::new(plan.rows, plan.seed)).0;
    let dir = dirs.fresh(plan.kind.name())?;
    let sut = Sut::setup(plan.kind, &data, &dir, speed)?;
    Ok((speed.total().since(mark).nominal, sut, data, dir))
}

fn run_reads(plan: &Plan, dirs: &mut DataDir) -> Res<Outcome> {
    let mut speed = Speedometer::start();
    let (first, mut sut, data, dir) = timed_setup(plan, dirs, &mut speed)?;
    let mut setups = vec![first];
    let mut ops = OpStream::new(plan.kind.mix(), plan.rows, plan.seed);
    let mut tally = Tally::default();

    // Size a fixed sample of exchanges; it doubles as the first warm-up.
    let mut wire = Wire { bytes: 0, ops: 0 };
    for op in ops.by_ref().take(plan.sample) {
        let ok = match wire.size(&Request::Query(op.query()), sut.client())? {
            Payload::Rows { rows, .. } => rows == data.expect(&op),
            _ => false,
        };
        wire.ops += 1;
        tally.record(ok);
    }
    // Memory after a fixed amount of work: set-up and the sample. From
    // here on the number of operations follows the speed of the box.
    let peak_rss_mb = sys::peak_rss_mb();

    let warm = Instant::now();
    while warm.elapsed() < plan.warmup {
        let op = ops.next().ok_or("op stream ended")?;
        tally.record(read_checked(sut.client(), &data, &op).0);
    }

    let mut windows = Windows::default();
    let mut latencies = latency_buffer();
    for w in 1..=plan.windows {
        latencies.clear();
        let (cpu, mark) = (sys::process_cpu_us(), speed.total());
        let start = Instant::now();
        let mut n = 0u64;
        while start.elapsed() < plan.window {
            let op = ops.next().ok_or("op stream ended")?;
            let ((ok, took), factor) = speed.timed(|| read_checked(sut.client(), &data, &op));
            tally.record(ok);
            n += 1;
            if latencies.len() < latencies.capacity() {
                latencies.push(took.as_secs_f64() * 1e6 * factor);
            }
        }
        windows.push(n, speed.total().since(mark), sys::process_cpu_us() - cpu, &latencies);
        tally.check_alive()?;
        // The other set-ups, spread over the run so that they do not all
        // meet the box in the same mood; each is torn down at once.
        let extra = plan.setups - 1;
        if extra > 0 && (w * extra) % plan.windows < extra {
            let (secs, again, _, again_dir) = timed_setup(plan, dirs, &mut speed)?;
            setups.push(secs);
            again.shutdown();
            std::fs::remove_dir_all(again_dir)?;
        }
    }

    let live_rows = count_rows(sut.client())?;
    tally.record(live_rows == data.len());
    let disk_bytes = sys::dir_bytes(&dir)?;
    sut.shutdown();
    Ok(finish(tally, &setups, &windows, peak_rss_mb, (disk_bytes, live_rows), &wire))
}

/// One repetition of `ingest_read` on a fresh directory: every op is one
/// [`BATCH`]-row insert transaction and a read of one of its rows. After
/// the last op, outside the timed part, the server is shut down, the
/// directory reopened, and the row count compared with what was
/// acknowledged.
struct Repetition {
    ops: u64,
    /// The ops alone.
    took: Took,
    cpu_us: u64,
    /// Empty directory to verified reopen, at nominal speed.
    whole_secs: f64,
    disk_bytes: u64,
    live_rows: usize,
}

fn repetition(
    plan: &Plan,
    data: &Dataset,
    dir: &Path,
    speed: &mut Speedometer,
    tally: &mut Tally,
    latencies: &mut Vec<f64>,
    mut wire: Option<&mut Wire>,
) -> Res<Repetition> {
    let backend = CountingBackend::default();
    let whole = speed.total();
    let mut node = speed.timed(|| Node::open(dir, &backend)).0?;
    speed.timed(|| create_schema(&mut node.client)).0?;
    let batches: Vec<Vec<Row>> = data.batches().collect();
    let mut acked = 0usize;
    latencies.clear();
    let (cpu, mark) = (sys::process_cpu_us(), speed.total());
    for (i, batch) in batches.into_iter().enumerate() {
        let read = Op::Point { id: gen::read_back(&batch, plan.seed, i) };
        let rows = batch.len();
        let client = &mut node.client;
        let ((ok, took), factor) = speed.timed(|| {
            let start = Instant::now();
            let ok = match wire.as_deref_mut() {
                // The untimed first repetition sizes both exchanges of every op.
                Some(wire) => {
                    let insert = Request::InsertRows { table: TABLE.into(), rows: batch };
                    let inserted = wire.size(&insert, client).map(|p| matches!(p, Payload::Done));
                    let read_ok = wire.size(&Request::Query(read.query()), client).map(
                        |p| matches!(p, Payload::Rows { rows, .. } if rows == data.expect(&read)),
                    );
                    wire.ops += 1;
                    matches!((inserted, read_ok), (Ok(true), Ok(true)))
                }
                None => match client.insert_rows(TABLE, batch) {
                    Ok(()) => read_checked(client, data, &read).0,
                    Err(e) => {
                        eprintln!("insert {i}: {e}");
                        false
                    }
                },
            };
            (ok, start.elapsed())
        });
        latencies.push(took.as_secs_f64() * 1e6 * factor);
        if ok {
            acked += rows;
        }
        tally.record(ok);
    }
    let took = speed.total().since(mark);
    let cpu_us = sys::process_cpu_us() - cpu;

    let reopened = speed.timed(|| {
        drop(node.stop());
        quarry_at(&dir.join("node.wal"), &backend)
    });
    let live_rows = reopened.0?.db.row_count(TABLE)?;
    // Recovery must find exactly the acknowledged rows.
    tally.record(live_rows == acked);
    Ok(Repetition {
        ops: data.len().div_ceil(BATCH) as u64,
        took,
        cpu_us,
        whole_secs: speed.total().since(whole).nominal,
        disk_bytes: sys::dir_bytes(dir)?,
        live_rows,
    })
}

fn run_ingest(plan: &Plan, dirs: &mut DataDir) -> Res<Outcome> {
    let mut speed = Speedometer::start();
    let data = Dataset::new(plan.rows, plan.seed);
    let mut tally = Tally::default();
    let mut latencies = latency_buffer();
    let mut wire = Wire { bytes: 0, ops: 0 };
    let mut on_fresh_dir =
        |tally: &mut Tally, latencies: &mut Vec<f64>, wire: Option<&mut Wire>| {
            let dir = dirs.fresh(plan.kind.name())?;
            let rep = repetition(plan, &data, &dir, &mut speed, tally, latencies, wire)?;
            std::fs::remove_dir_all(&dir)?;
            Ok::<Repetition, Box<dyn std::error::Error>>(rep)
        };

    // Set-up ends with one untimed repetition, which sizes the wire.
    on_fresh_dir(&mut tally, &mut latencies, Some(&mut wire))?;
    let peak_rss_mb = sys::peak_rss_mb();

    // One repetition is one window; run whole repetitions until the timed
    // part is over, and never fewer than the windows the plan asks for.
    // Each is also one set-up: a node taken from an empty directory to
    // its full table, shut down, reopened and counted.
    let timed = plan.window * plan.windows as u32;
    let mut setups = Vec::new();
    let mut windows = Windows::default();
    let mut last = None;
    let start = Instant::now();
    while windows.0.len() < plan.windows || start.elapsed() < timed {
        let rep = on_fresh_dir(&mut tally, &mut latencies, None)?;
        setups.push(rep.whole_secs);
        windows.push(rep.ops, rep.took, rep.cpu_us, &latencies);
        last = Some(rep);
        tally.check_alive()?;
    }
    let last = last.ok_or("a run needs at least one repetition")?;
    Ok(finish(tally, &setups, &windows, peak_rss_mb, (last.disk_bytes, last.live_rows), &wire))
}
