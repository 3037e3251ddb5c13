//! The wire protocol: length-prefixed binary frames carrying JSON
//! payloads, with torn-frame detection.
//!
//! ## Frame layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     4  magic      b"QRYW"
//!      4     2  version    protocol version (currently 1)
//!      6     8  request id caller-chosen; echoed in the response
//!     14     4  len        payload length in bytes
//!     18     4  crc        frame_crc over (len-prefix ‖ payload)
//!     22   len  payload    serde_json-encoded Request or Response
//! ```
//!
//! The checksum reuses [`quarry_storage::wal::frame_crc`], which covers
//! the length prefix *and* the payload — the same discipline the WAL uses
//! so that a zero-filled or truncated tail can never parse as a valid
//! empty frame (`crc32(b"") == 0`). A frame whose checksum does not match
//! is torn: the reader cannot trust `len`, so it cannot resynchronise and
//! must drop the connection.

use quarry_storage::wal::frame_crc;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, Read, Write};

use quarry_exec::MetricsSnapshot;
use quarry_query::engine::Query;
use quarry_storage::{TableSchema, Value};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"QRYW";
/// Protocol version carried in every frame.
pub const VERSION: u16 = 1;
/// Fixed header size preceding the payload.
pub const HEADER_LEN: usize = 22;
/// Default cap on payload size (16 MiB) — a defence against a hostile or
/// corrupt length prefix allocating unbounded memory.
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;

/// Everything a client can ask the server to do.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Run a structured query.
    Query(Query),
    /// Run a QDL program over the server's working corpus.
    Qdl(String),
    /// Keyword search returning document hits and suggested queries.
    KeywordSearch {
        /// The keyword query string.
        query: String,
        /// Maximum hits / candidates to return.
        k: usize,
    },
    /// Run a structured query and render its physical plan with the row
    /// counts each operator saw.
    Explain(Query),
    /// Checkpoint the structured store.
    Checkpoint,
    /// Fetch a serialized metrics snapshot.
    Stats,
    /// Begin graceful shutdown: drain in-flight work, then stop accepting.
    Shutdown,
    /// Create a table in the structured store.
    CreateTable(TableSchema),
    /// Create a secondary index.
    CreateIndex {
        /// Table to index.
        table: String,
        /// Column to index.
        column: String,
    },
    /// Insert a batch of rows as one transaction (all or nothing).
    InsertRows {
        /// Target table.
        table: String,
        /// Rows in schema column order.
        rows: Vec<Vec<Value>>,
    },
    /// Delete rows by primary key as one transaction (all or nothing).
    DeleteRows {
        /// Target table.
        table: String,
        /// Primary-key values, one entry per row to delete.
        keys: Vec<Vec<Value>>,
    },
}

impl Request {
    /// True for the requests a server takes the writer for. A read-only
    /// (replica) node refuses them, and a client sends each at most once:
    /// a reply lost with its connection may belong to a committed write,
    /// and a resend would answer `DuplicateKey` or `NotFound` for work
    /// that was done. `Shutdown` is a control frame, not a data write.
    pub fn is_write(&self) -> bool {
        match self {
            Request::Qdl(_)
            | Request::Checkpoint
            | Request::CreateTable(_)
            | Request::CreateIndex { .. }
            | Request::InsertRows { .. }
            | Request::DeleteRows { .. } => true,
            Request::Ping
            | Request::Query(_)
            | Request::KeywordSearch { .. }
            | Request::Explain(_)
            | Request::Stats
            | Request::Shutdown => false,
        }
    }
}

/// Mirror of `quarry_lang::ExecStats` with wire-stable integer widths.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WireExecStats {
    /// Extractor invocations actually executed.
    pub extractor_runs: u64,
    /// Invocations served from the materialization cache.
    pub cache_hits: u64,
    /// Extractions entering the stream (post-dedup).
    pub extractions: u64,
    /// Per-document records entering resolution.
    pub records: u64,
    /// Entities after merging.
    pub entities: u64,
    /// Rows written to the store.
    pub rows_stored: u64,
}

impl From<&quarry_lang::ExecStats> for WireExecStats {
    fn from(s: &quarry_lang::ExecStats) -> WireExecStats {
        WireExecStats {
            extractor_runs: s.extractor_runs as u64,
            cache_hits: s.cache_hits as u64,
            extractions: s.extractions as u64,
            records: s.records as u64,
            entities: s.entities as u64,
            rows_stored: s.rows_stored as u64,
        }
    }
}

/// One keyword-search document hit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireHit {
    /// Matching document id.
    pub doc: u32,
    /// BM25 score (higher is better).
    pub score: f64,
}

/// One suggested structured query for a keyword search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireCandidate {
    /// The suggested query.
    pub query: Query,
    /// Ranking score (higher is better).
    pub score: f64,
    /// Which keywords each part consumed.
    pub explanation: String,
}

/// Which façade subsystem produced an error — mirrors
/// `quarry_core::QuarryError` variants plus serving-layer causes, so
/// clients can match on the cause without parsing messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// QDL source failed to parse.
    Parse,
    /// A parsed pipeline failed during planning or execution.
    Pipeline,
    /// Storage failure.
    Storage,
    /// Structured-query failure.
    Query,
    /// Invalid corpus configuration.
    Corpus,
    /// Invalid integration configuration.
    Integrate,
    /// Rejected by static analysis.
    Lint,
    /// The request frame or payload was malformed.
    Protocol,
    /// Write rejected: this node serves reads only (a replica). Retry
    /// against the shard's primary.
    ReadOnly,
    /// A node behind a router could not be reached (dead shard with no
    /// promoted replica yet).
    Unavailable,
}

/// The result half of a [`Response`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Payload {
    /// Reply to [`Request::Ping`].
    Pong,
    /// A query's result set.
    Rows {
        /// Output column names.
        columns: Vec<String>,
        /// Result rows, in result order.
        rows: Vec<Vec<Value>>,
    },
    /// A pipeline run's statistics.
    PipelineStats(WireExecStats),
    /// Keyword-search output.
    Hits {
        /// Ranked document hits.
        hits: Vec<WireHit>,
        /// Suggested structured queries.
        candidates: Vec<WireCandidate>,
    },
    /// A rendered physical plan.
    Plan(String),
    /// The request completed with nothing to return (checkpoint, shutdown).
    Done,
    /// A metrics snapshot.
    Metrics(MetricsSnapshot),
    /// The request failed; the server stays up.
    Error {
        /// Which subsystem failed.
        kind: ErrorKind,
        /// The subsystem's rendered error.
        message: String,
    },
    /// Rejected by admission control: too many requests already in
    /// flight. Back off and retry.
    Overloaded,
    /// Rejected because the server is draining for shutdown.
    ShuttingDown,
}

/// What the server sends back for every request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Echo of the request id this answers.
    pub id: u64,
    /// Server-side handling time in microseconds (admission to reply
    /// serialization; zero for rejections that never executed).
    pub server_micros: u64,
    /// The shard's write-clock LSN this response reflects: the snapshot
    /// LSN for reads, the post-commit LSN for writes, zero for replies
    /// that never touched the store. An LSN counts the units — a
    /// transaction that changed something, a DDL statement — the shard
    /// has committed since it opened, so 0 is also the state it opened
    /// with, and two replies of one shard process with the same LSN
    /// reflect the same committed state. Routers forward it so a
    /// client's per-shard snapshot view is well-defined. Defaulted on
    /// decode so version-1 peers without the field still parse.
    #[serde(default)]
    pub lsn: u64,
    /// The outcome.
    pub payload: Payload,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The connection ended mid-frame (truncated header or payload).
    Truncated,
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u16),
    /// The length prefix exceeds the reader's frame-size limit.
    TooLarge {
        /// Claimed payload length.
        len: usize,
        /// The reader's limit.
        max: usize,
    },
    /// Checksum mismatch: the frame is torn, the stream cannot be trusted.
    BadCrc,
    /// The peer stopped sending mid-frame for longer than the stall
    /// budget (see [`MID_FRAME_STALL_RETRIES`]).
    Stalled,
    /// Underlying I/O failure (including read timeouts).
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "connection ended mid-frame"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds limit {max}")
            }
            FrameError::BadCrc => write!(f, "frame checksum mismatch (torn frame)"),
            FrameError::Stalled => write!(f, "connection stalled mid-frame"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// True when the error is a read timeout — the session uses these to
    /// wake up and check the shutdown flag, not as a protocol violation.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut
        )
    }
}

/// Write one frame under `req_id` whose payload `fill` appends: the one
/// place the layout is written. The header is reserved first and its
/// length and checksum patched in once the payload stands behind it, so a
/// frame is one buffer, filled once and written once.
fn write_framed(
    w: &mut impl Write,
    req_id: u64,
    fill: impl FnOnce(&mut Vec<u8>),
) -> io::Result<()> {
    // Room for a small request or reply; a large one grows by doubling.
    let mut frame = Vec::with_capacity(256);
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&VERSION.to_le_bytes());
    frame.extend_from_slice(&req_id.to_le_bytes());
    frame.resize(HEADER_LEN, 0);
    fill(&mut frame);
    let payload = &frame[HEADER_LEN..];
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload over 4 GiB"))?;
    let crc = frame_crc(payload);
    frame[14..18].copy_from_slice(&len.to_le_bytes());
    frame[18..22].copy_from_slice(&crc.to_le_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Write `payload`, already encoded, as one frame.
pub fn write_frame(w: &mut impl Write, req_id: u64, payload: &[u8]) -> io::Result<()> {
    write_framed(w, req_id, |frame| frame.extend_from_slice(payload))
}

/// Consecutive read timeouts tolerated *inside* a frame before the
/// connection is declared [`FrameError::Stalled`]. A timeout at a frame
/// boundary is an idle wakeup and propagates immediately (sessions use it
/// to poll the shutdown flag); a timeout after the first byte of a frame
/// just means the peer is slow, so the read retries — but a bounded
/// number of times, so a half-written frame cannot pin a session (and
/// with it, shutdown drain) forever.
pub const MID_FRAME_STALL_RETRIES: usize = 240;

/// Read exactly `buf.len()` bytes. `frame_start` says `buf` begins a
/// frame, which makes its first byte special in two ways: a clean EOF
/// there is `Closed` (anywhere later, `Truncated`), and a read timeout
/// there is an idle wakeup that propagates at once (anywhere later, a
/// mid-frame stall that is retried).
fn read_exact_or(r: &mut impl Read, buf: &mut [u8], frame_start: bool) -> Result<(), FrameError> {
    let mut filled = 0;
    let mut stalls = 0;
    while filled < buf.len() {
        let between_frames = frame_start && filled == 0;
        match r.read(&mut buf[filled..]) {
            Ok(0) if between_frames => return Err(FrameError::Closed),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => {
                filled += n;
                stalls = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if (e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut)
                    && !between_frames =>
            {
                stalls += 1;
                if stalls > MID_FRAME_STALL_RETRIES {
                    return Err(FrameError::Stalled);
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Read one frame, returning `(request id, payload bytes)`. `max_frame`
/// bounds the payload allocation. The header is asked for in one read and
/// the payload in another, so through a buffered reader a frame smaller
/// than the buffer costs one `recv`.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<(u64, Vec<u8>), FrameError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_or(r, &mut header, true)?;
    if header[..4] != MAGIC {
        let mut m = [0u8; 4];
        m.copy_from_slice(&header[..4]);
        return Err(FrameError::BadMagic(m));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let mut id8 = [0u8; 8];
    id8.copy_from_slice(&header[6..14]);
    let req_id = u64::from_le_bytes(id8);
    let len = u32::from_le_bytes([header[14], header[15], header[16], header[17]]) as usize;
    if len > max_frame {
        return Err(FrameError::TooLarge { len, max: max_frame });
    }
    let crc = u32::from_le_bytes([header[18], header[19], header[20], header[21]]);
    let mut payload = vec![0u8; len];
    read_exact_or(r, &mut payload, false)?;
    if frame_crc(&payload) != crc {
        return Err(FrameError::BadCrc);
    }
    Ok((req_id, payload))
}

/// Serialize a request straight into one frame under `req_id` and write it.
pub fn write_request(w: &mut impl Write, req_id: u64, req: &Request) -> io::Result<()> {
    write_framed(w, req_id, |frame| req.serialize(frame))
}

/// Serialize a response straight into one frame under its own id and
/// write it.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    write_framed(w, resp.id, |frame| resp.serialize(frame))
}

fn decode<T: Deserialize>(what: &str, payload: &[u8]) -> io::Result<T> {
    serde_json::from_slice(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{what}: {e}")))
}

/// Decode a request frame's payload: the one place a request's bytes
/// become a [`Request`].
pub fn decode_request(payload: &[u8]) -> io::Result<Request> {
    decode("undecodable request", payload)
}

/// Read one frame and decode its payload as a [`Response`].
pub fn read_response(r: &mut impl Read, max_frame: usize) -> Result<Response, FrameError> {
    let (_, payload) = read_frame(r, max_frame)?;
    decode("bad response", &payload).map_err(FrameError::Io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_query::Predicate;
    use std::io::BufReader;

    fn round_trip(req: &Request) -> Request {
        let mut buf = Vec::new();
        write_request(&mut buf, 7, req).unwrap();
        let (id, payload) = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(id, 7);
        decode_request(&payload).unwrap()
    }

    #[test]
    fn requests_round_trip_bit_identically() {
        let query = Query::scan("cities")
            .filter(vec![Predicate::Eq("state".into(), "Wisconsin".into())])
            .project(&["name", "population"]);
        for req in [
            Request::Ping,
            Request::Query(query.clone()),
            Request::Qdl("PIPELINE p FROM corpus".into()),
            Request::KeywordSearch { query: "population".into(), k: 5 },
            Request::Explain(query),
            Request::Checkpoint,
            Request::Stats,
            Request::Shutdown,
            Request::CreateIndex { table: "cities".into(), column: "state".into() },
            Request::InsertRows {
                table: "cities".into(),
                rows: vec![vec![Value::Int(1), Value::Text("Madison".into())]],
            },
            Request::DeleteRows { table: "cities".into(), keys: vec![vec![Value::Int(1)]] },
        ] {
            assert_eq!(round_trip(&req), req);
        }
    }

    #[test]
    fn responses_round_trip_with_float_and_null_values() {
        let resp = Response {
            id: 42,
            server_micros: 1234,
            lsn: 17,
            payload: Payload::Rows {
                columns: vec!["name".into(), "score".into()],
                rows: vec![
                    vec![Value::Text("Madison".into()), Value::Float(0.1 + 0.2)],
                    vec![Value::Null, Value::Int(-7)],
                ],
            },
        };
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let back = read_response(&mut buf.as_slice(), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(back, resp);
    }

    /// One frame of every request and response shape, with what JSON makes
    /// awkward inside: floats at both ends of the range, `Null`, integers
    /// at the 64-bit limits, every escape the writer produces next to
    /// multi-byte text, and a 100-row `InsertRows`.
    fn golden_frames() -> Vec<u8> {
        use quarry_exec::metrics::HistogramSnapshot;
        use quarry_query::AggFn;
        use quarry_storage::{Column, DataType};

        let awkward = "tab\there \"quoted\" back\\slash\nline\r\u{1}\u{1f}\u{7f} café 中 😀 /";
        let query = Query::scan("cities")
            .join(Query::scan("states"), "state", "name")
            .filter(vec![
                Predicate::Eq("state".into(), "Wisconsin".into()),
                Predicate::Ge("population".into(), Value::Int(i64::MIN)),
                Predicate::Lt("area".into(), Value::Float(-0.0)),
                Predicate::Contains("name".into(), awkward.into()),
                Predicate::In("id".into(), vec![Value::Null, Value::Bool(true), Value::Int(7)]),
            ])
            .aggregate(Some("state"), AggFn::Avg, "population")
            .sort("population", true, Some(20))
            .project(&["name", "population"]);
        let schema = TableSchema::new(
            "cities",
            vec![
                Column::new("id", DataType::Int),
                Column::new("name", DataType::Text),
                Column { name: "score".into(), dtype: DataType::Float, nullable: true },
                Column { name: "big".into(), dtype: DataType::Bool, nullable: true },
            ],
            &["id"],
            &["name"],
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..100i64)
            .map(|i| {
                vec![
                    Value::Int(i * 1_000_003 - 50),
                    Value::Text(format!("city-{i} \"é{i}\"")),
                    if i % 7 == 0 { Value::Null } else { Value::Float(i as f64 / 7.0) },
                    Value::Bool(i % 2 == 0),
                ]
            })
            .collect();
        let requests = [
            Request::Ping,
            Request::Query(query.clone()),
            Request::Qdl(format!("PIPELINE p FROM corpus -- {awkward}")),
            Request::KeywordSearch { query: awkward.into(), k: usize::MAX },
            Request::Explain(query.clone()),
            Request::Checkpoint,
            Request::Stats,
            Request::Shutdown,
            Request::CreateTable(schema),
            Request::CreateIndex { table: "cities".into(), column: "state".into() },
            Request::InsertRows { table: "cities".into(), rows: rows.clone() },
            Request::DeleteRows {
                table: "cities".into(),
                keys: vec![vec![Value::Int(1)], vec![Value::Int(-1), Value::Text(String::new())]],
            },
        ];
        let floats = [0.1 + 0.2, 2.0, -0.0, 1e300, -1.5e-300, f64::MIN_POSITIVE, f64::MAX, 1e21];
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("server.requests".into(), u64::MAX);
        metrics.counters.insert("server.connections".into(), 0);
        metrics.histograms.insert(
            "server.request_us".into(),
            HistogramSnapshot {
                count: 3,
                sum_us: 600,
                max_us: 400,
                p50_us: 100,
                p95_us: 400,
                p99_us: 400,
            },
        );
        let payloads = [
            Payload::Pong,
            Payload::Rows {
                columns: vec!["name".into(), awkward.into()],
                rows: vec![
                    floats.iter().map(|&f| Value::Float(f)).collect(),
                    vec![Value::Null, Value::Int(i64::MAX), Value::Text(awkward.into())],
                    vec![],
                ],
            },
            Payload::Rows { columns: vec![], rows },
            Payload::PipelineStats(WireExecStats {
                extractor_runs: 1,
                cache_hits: 2,
                extractions: 3,
                records: 4,
                entities: 5,
                rows_stored: u64::MAX,
            }),
            Payload::Hits {
                hits: vec![WireHit { doc: u32::MAX, score: 12.5 }, WireHit { doc: 0, score: 0.0 }],
                candidates: vec![WireCandidate {
                    query,
                    score: 1.0 / 3.0,
                    explanation: awkward.into(),
                }],
            },
            Payload::Plan(format!("Project\n  Sort\n    {awkward}")),
            Payload::Done,
            Payload::Metrics(metrics),
            Payload::Error { kind: ErrorKind::Protocol, message: awkward.into() },
            Payload::Error { kind: ErrorKind::ReadOnly, message: String::new() },
            Payload::Overloaded,
            Payload::ShuttingDown,
        ];

        let mut frames = Vec::new();
        for (id, req) in requests.iter().enumerate() {
            write_request(&mut frames, id as u64, req).unwrap();
        }
        for (i, payload) in payloads.into_iter().enumerate() {
            let resp = Response {
                id: u64::MAX - i as u64,
                server_micros: 1234 * i as u64,
                lsn: if i % 2 == 0 { 0 } else { u64::MAX },
                payload,
            };
            write_response(&mut frames, &resp).unwrap();
        }
        frames
    }

    /// The wire format is what it was: the frames above encode to the
    /// bytes in `testdata/wire_frames.bin`, which the encoder of commit
    /// 39e7af6 wrote, a character and a `format!` at a time. A mismatch is
    /// a format change, which `quarry_bench` and every deployed peer would
    /// have to follow.
    #[test]
    fn frames_encode_to_the_committed_bytes() {
        let golden: &[u8] = include_bytes!("../testdata/wire_frames.bin");
        let frames = golden_frames();
        let (mut ours, mut theirs) = (frames.as_slice(), golden);
        let mut n = 0;
        while !theirs.is_empty() {
            let want = read_frame(&mut theirs, DEFAULT_MAX_FRAME).unwrap();
            let got = read_frame(&mut ours, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(got.0, want.0, "id of frame {n}");
            assert_eq!(
                String::from_utf8_lossy(&got.1),
                String::from_utf8_lossy(&want.1),
                "payload of frame {n}"
            );
            n += 1;
        }
        assert_eq!(n, 24);
        assert!(frames == golden, "same payloads, different framing");

        // And every one of them still decodes to what was encoded.
        let mut rest = golden;
        for i in 0..n {
            let (_, payload) = read_frame(&mut rest, DEFAULT_MAX_FRAME).unwrap();
            let again = if i < 12 {
                serde_json::to_vec(&decode_request(&payload).unwrap())
            } else {
                serde_json::to_vec(&decode::<Response>("bad response", &payload).unwrap())
            };
            assert!(again.unwrap() == payload, "frame {i} does not survive a decode and re-encode");
        }
    }

    /// A version-1 peer that predates `lsn` still parses, with the field at
    /// its default.
    #[test]
    fn a_response_without_lsn_decodes_with_lsn_zero() {
        let payload = br#"{"id":1,"server_micros":0,"payload":"Pong"}"#;
        let resp: Response = decode("bad response", payload).unwrap();
        assert_eq!(resp, Response { id: 1, server_micros: 0, lsn: 0, payload: Payload::Pong });
    }

    #[test]
    fn torn_payload_is_detected_by_crc() {
        let mut buf = Vec::new();
        write_request(&mut buf, 1, &Request::Qdl("PIPELINE x FROM corpus".into())).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameError::BadCrc)
        ));
    }

    #[test]
    fn zero_filled_stream_does_not_parse_as_a_frame() {
        // frame_crc covers the length prefix, so all-zero bytes (which
        // would carry len=0 and crc=0) must NOT look like a valid empty
        // frame — the WAL discipline this protocol mirrors.
        let zeros = [0u8; 64];
        assert!(matches!(
            read_frame(&mut zeros.as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameError::BadMagic(_))
        ));
        // Even with a valid magic+version, a zeroed remainder is torn.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameError::BadCrc)
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 1024),
            Err(FrameError::TooLarge { max: 1024, .. })
        ));
    }

    #[test]
    fn truncation_and_clean_close_are_distinguished() {
        assert!(matches!(
            read_frame(&mut [].as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameError::Closed)
        ));
        let mut buf = Vec::new();
        write_request(&mut buf, 1, &Request::Ping).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameError::Truncated)
        ));
        buf.truncate(HEADER_LEN / 2);
        assert!(matches!(
            read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameError::Truncated)
        ));
    }

    /// Yields `data`, then times out on every further read.
    struct StallingReader {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for StallingReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos < self.data.len() {
                let n = buf.len().min(self.data.len() - self.pos);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            } else {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"))
            }
        }
    }

    #[test]
    fn timeout_at_frame_boundary_is_an_idle_wakeup_not_a_stall() {
        // Nothing read yet: the timeout must surface immediately so a
        // session can poll its shutdown flag.
        let mut r = StallingReader { data: vec![], pos: 0 };
        match read_frame(&mut r, DEFAULT_MAX_FRAME) {
            Err(e) => assert!(e.is_timeout(), "expected idle timeout, got {e}"),
            Ok(_) => panic!("empty reader produced a frame"),
        }
        // The same through the buffer sessions and clients read through.
        let mut r = BufReader::new(StallingReader { data: vec![], pos: 0 });
        match read_frame(&mut r, DEFAULT_MAX_FRAME) {
            Err(e) => assert!(e.is_timeout(), "expected idle timeout, got {e}"),
            Ok(_) => panic!("empty reader produced a frame"),
        }
    }

    #[test]
    fn timeout_mid_frame_retries_then_reports_stalled() {
        // A half-written frame must neither be dropped-and-misframed (the
        // partial bytes re-read as a fresh frame) nor retried forever: the
        // reader retries MID_FRAME_STALL_RETRIES times, then gives up.
        let mut buf = Vec::new();
        write_request(&mut buf, 1, &Request::Ping).unwrap();
        buf.truncate(buf.len() - 3);
        let mut r = StallingReader { data: buf.clone(), pos: 0 };
        assert!(matches!(read_frame(&mut r, DEFAULT_MAX_FRAME), Err(FrameError::Stalled)));
        let mut r = BufReader::new(StallingReader { data: buf, pos: 0 });
        assert!(matches!(read_frame(&mut r, DEFAULT_MAX_FRAME), Err(FrameError::Stalled)));
    }

    /// Hands over one whole frame per `read`, as a socket does when the
    /// peer writes a frame and waits for the reply, and counts the reads.
    struct FrameAtATime {
        frames: std::collections::VecDeque<Vec<u8>>,
        reads: usize,
    }

    impl Read for FrameAtATime {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let Some(frame) = self.frames.front_mut() else { return Ok(0) };
            let n = buf.len().min(frame.len());
            buf[..n].copy_from_slice(&frame[..n]);
            frame.drain(..n);
            if frame.is_empty() {
                self.frames.pop_front();
            }
            Ok(n)
        }
    }

    #[test]
    fn a_frame_that_fits_the_buffer_costs_one_read() {
        let mut frame = Vec::new();
        let req = Request::Qdl("PIPELINE p FROM corpus".into());
        write_request(&mut frame, 1, &req).unwrap();
        let three = || FrameAtATime { frames: vec![frame.clone(); 3].into(), reads: 0 };

        let mut buffered = BufReader::new(three());
        for _ in 0..3 {
            let (_, payload) = read_frame(&mut buffered, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(decode_request(&payload).unwrap(), req);
        }
        assert_eq!(buffered.get_ref().reads, 3);
        assert!(matches!(read_frame(&mut buffered, DEFAULT_MAX_FRAME), Err(FrameError::Closed)));

        // Unbuffered it is the header, then the payload.
        let mut bare = three();
        for _ in 0..3 {
            read_frame(&mut bare, DEFAULT_MAX_FRAME).unwrap();
        }
        assert_eq!(bare.reads, 6);
    }

    /// Interleaves each data byte with a burst of timeouts shorter than
    /// the stall budget — a slow-but-live peer.
    struct TricklingReader {
        data: Vec<u8>,
        pos: usize,
        timeouts_between: usize,
        pending: usize,
    }

    impl Read for TricklingReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pending > 0 && self.pos > 0 {
                self.pending -= 1;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"));
            }
            self.pending = self.timeouts_between;
            if self.pos < self.data.len() && !buf.is_empty() {
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            } else {
                Ok(0)
            }
        }
    }

    #[test]
    fn slow_byte_at_a_time_peer_still_delivers_a_whole_frame() {
        let mut buf = Vec::new();
        write_request(&mut buf, 9, &Request::Ping).unwrap();
        let mut r = TricklingReader { data: buf, pos: 0, timeouts_between: 20, pending: 0 };
        let (id, payload) = read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(id, 9);
        assert_eq!(decode_request(&payload).unwrap(), Request::Ping);
    }
}
