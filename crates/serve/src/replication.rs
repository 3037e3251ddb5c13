//! Primary→replica WAL shipping over TCP.
//!
//! Each serving node runs a [`ReplicationListener`] next to its request
//! port; replicas run a [`ReplicationClient`] that connects, handshakes,
//! and applies the primary's committed WAL frames through
//! [`ReplicaApplier`] — the storage layer's convergent replay path.
//!
//! ## Wire format
//!
//! Both directions carry WAL frames, written and read by the one codec
//! in `quarry_storage::wal`, so a shipped data frame is byte-identical
//! to the frame the primary wrote to its own log — the listener writes
//! each validated run of its log to the socket as it read it. Control
//! messages are payloads whose first byte is a
//! tag in `0xC1..=0xC6` — a range no `LogRecord` encoding starts with
//! (binary records start `0x01`, JSON records `0x7B`):
//!
//! ```text
//! 0xC1 hello    replica → primary   epoch u64, offset u64, fresh u8
//! 0xC2 seed     primary → replica   one seed LogRecord
//! 0xC3 ack      replica → primary   epoch u64, offset u64
//! 0xC4 reseed   primary → replica   epoch u64, start_offset u64
//! 0xC5 seed-end primary → replica   (empty)
//! 0xC6 resume   primary → replica   epoch u64, offset u64
//! ```
//!
//! ## Handshake
//!
//! The replica sends `hello` with its last applied `(epoch, offset)`
//! (`fresh = 1` when it has no state). The primary answers `resume` when
//! that position is still live — same checkpoint epoch, offset within
//! the log — and otherwise streams a **reseed**: `reseed`, the seed
//! records, `seed-end`. The replica buffers the seed and installs it
//! atomically at `seed-end`, so an interrupted seed (primary death
//! mid-stream) leaves the replica at its previous transaction boundary.
//!
//! ## Ack-LSN contract
//!
//! The replica acks `(epoch, offset)` after applying each batch; the
//! primary records the latest ack per connection
//! ([`ReplicationListener::progress`]). An acked offset means every
//! frame below it is applied *and* appended to the replica's own WAL —
//! promotion never rolls an acked position back. See
//! `docs/replication.md` for the full contract and split-brain stance.
//!
//! All decisions here are deterministic functions of the received
//! frames; timeouts only pace the loops, they never pick outcomes.

use crate::endpoint::{dial, lock, Endpoint, State, WRITE_TIMEOUT};
use crate::protocol::DEFAULT_MAX_FRAME;
use quarry_storage::wal::{encode_frame, FRAME_HEADER};
use quarry_storage::{Database, FrameBuf, ReplicaApplier, ReplicaPosition, TailPoll};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const TAG_HELLO: u8 = 0xC1;
const TAG_SEED: u8 = 0xC2;
const TAG_ACK: u8 = 0xC3;
const TAG_RESEED: u8 = 0xC4;
const TAG_SEED_END: u8 = 0xC5;
const TAG_RESUME: u8 = 0xC6;

/// Socket read timeout: how long one poll blocks for. Short, because the
/// ship loop interleaves ack draining with WAL tailing on one thread.
const POLL_TIMEOUT: Duration = Duration::from_millis(2);
/// Sleep when the tail is idle, pacing the poll loop without adding
/// meaningful replication lag.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(b: &[u8], at: usize) -> io::Result<u64> {
    let bytes: [u8; 8] = b
        .get(at..at + 8)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "short control frame"))?;
    Ok(u64::from_le_bytes(bytes))
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Send `payload` as one frame.
fn send_frame(stream: &mut TcpStream, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    encode_frame(&mut frame, payload).map_err(invalid)?;
    stream.write_all(&frame)
}

fn control_frame(tag: u8, words: &[u64]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + 8 * words.len());
    payload.push(tag);
    for w in words {
        put_u64(&mut payload, *w);
    }
    payload
}

/// Most bytes one socket read takes.
const READ_CHUNK: usize = 16 * 1024;

/// One read syscall (blocking up to the socket's short read timeout)
/// into `frames`; the whole frames accumulated so far then come out of
/// [`next_frame`], partial ones stay buffered. Both ends read with a
/// [`FrameBuf`] capped at [`DEFAULT_MAX_FRAME`]: a larger frame is refused
/// on its length prefix, before its bytes are kept.
fn read_socket(frames: &mut FrameBuf, stream: &mut TcpStream) -> io::Result<()> {
    let read = |space: &mut [u8]| match stream.read(space) {
        Ok(0) => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed")),
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => Ok(0),
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
        other => other,
    };
    frames.fill(READ_CHUNK, read).map(drop)
}

/// The next whole frame received. A torn frame is fatal — the stream
/// cannot be resynchronised, exactly like a torn WAL tail.
fn next_frame(frames: &mut FrameBuf) -> io::Result<Option<&[u8]>> {
    frames.next_frame().map_err(invalid)
}

/// Latest known state of one live replica connection, keyed by ack
/// frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicaProgress {
    /// Checkpoint epoch the replica last acked under.
    pub epoch: u64,
    /// Source-WAL offset the replica has applied through.
    pub acked: u64,
}

/// Connection id → progress; an entry lives as long as its session.
type Tracker = Mutex<BTreeMap<u64, ReplicaProgress>>;

/// The primary-side shipping endpoint: accepts replica connections and
/// streams committed WAL frames to each. Dropping it stops shipping and
/// joins every thread.
pub struct ReplicationListener {
    listener: Endpoint,
    tracker: Arc<Tracker>,
}

impl ReplicationListener {
    /// Bind `addr` and start shipping `db`'s WAL to whoever connects.
    /// The database must be file-backed (an in-memory store has no log
    /// to ship; replica sessions are refused with a closed connection).
    pub fn start(db: Arc<Database>, addr: impl ToSocketAddrs) -> io::Result<ReplicationListener> {
        let tracker = Arc::new(Tracker::default());
        let session_tracker = Arc::clone(&tracker);
        let next_id = AtomicU64::new(0);
        let listener =
            Endpoint::listen("quarry-repl", addr, POLL_TIMEOUT, move |stream, state| {
                let id = next_id.fetch_add(1, Ordering::Relaxed);
                let _ = serve_replica(&db, stream, &session_tracker, state, id);
                lock(&session_tracker).remove(&id);
            })?;
        Ok(ReplicationListener { listener, tracker })
    }

    /// The bound shipping address replicas connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Progress of every live replica connection, in connection order.
    pub fn progress(&self) -> Vec<ReplicaProgress> {
        lock(&self.tracker).values().copied().collect()
    }

    /// Connections with a live session.
    pub fn sessions(&self) -> usize {
        self.listener.sessions()
    }

    /// Stop accepting and shipping; joins every session thread.
    pub fn shutdown(&mut self) {
        self.listener.shutdown();
    }
}

/// Stream a reseed: `reseed` header, every seed record, `seed-end`.
/// Returns the seed's `(epoch, start_offset)` for the tail cursor.
fn send_reseed(db: &Database, stream: &mut TcpStream) -> io::Result<(u64, u64)> {
    let seed = db.seed_state().map_err(|e| io::Error::other(format!("seed: {e}")))?;
    send_frame(stream, &control_frame(TAG_RESEED, &[seed.epoch, seed.start_offset]))?;
    for rec in &seed.records {
        let mut payload = vec![TAG_SEED];
        payload.extend_from_slice(&rec.encode().map_err(invalid)?);
        send_frame(stream, &payload)?;
    }
    send_frame(stream, &control_frame(TAG_SEED_END, &[]))?;
    Ok((seed.epoch, seed.start_offset))
}

/// One replica session on the primary: handshake, then interleave ack
/// draining with WAL tailing until either side goes away.
fn serve_replica(
    db: &Database,
    mut stream: TcpStream,
    tracker: &Tracker,
    listener: &State,
    id: u64,
) -> io::Result<()> {
    let no_wal = || io::Error::new(io::ErrorKind::Unsupported, "in-memory primary has no WAL");
    if db.wal_path().is_none() {
        return Err(no_wal());
    }
    let mut frames = FrameBuf::new(DEFAULT_MAX_FRAME);

    // Handshake: wait for hello.
    let (replica_epoch, replica_offset, fresh) = loop {
        if listener.draining() {
            return Ok(());
        }
        read_socket(&mut frames, &mut stream)?;
        if let Some(hello) = next_frame(&mut frames)? {
            if hello.first() != Some(&TAG_HELLO) {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "expected hello"));
            }
            let fresh = hello.get(17).copied().unwrap_or(1) != 0;
            break (get_u64(hello, 1)?, get_u64(hello, 9)?, fresh);
        }
    };

    // Resume only when the replica's position is still meaningful:
    // matching epoch and an offset inside the current log. Everything
    // else reseeds — the convergent, always-correct answer.
    let resumable =
        !fresh && replica_epoch == db.checkpoint_epoch() && replica_offset <= db.wal_len();
    let (mut ship_epoch, start) = if resumable {
        send_frame(&mut stream, &control_frame(TAG_RESUME, &[replica_epoch, replica_offset]))?;
        (replica_epoch, replica_offset)
    } else {
        send_reseed(db, &mut stream)?
    };
    // The tail ships only what a sync made durable, and refuses what the
    // replica's reader would: a frame over the port's limit ends the
    // session here rather than there.
    let mut tail = db.wal_tail(start, DEFAULT_MAX_FRAME).ok_or_else(no_wal)?;
    lock(tracker).insert(id, ReplicaProgress { epoch: ship_epoch, acked: 0 });

    loop {
        if listener.draining() {
            return Ok(());
        }
        // Drain acks (also blocks up to POLL_TIMEOUT, pacing the loop).
        read_socket(&mut frames, &mut stream)?;
        while let Some(frame) = next_frame(&mut frames)? {
            if frame.first() == Some(&TAG_ACK) {
                let progress =
                    ReplicaProgress { epoch: get_u64(frame, 1)?, acked: get_u64(frame, 9)? };
                lock(tracker).insert(id, progress);
            }
        }
        match tail.poll() {
            // The log's bytes are the stream's bytes: ship the run as read.
            Ok(TailPoll::Frames(run)) => stream.write_all(run)?,
            // The log shrank, or the cursor no longer parses, and the
            // checkpoint epoch moved: the log was truncated. Renegotiate
            // with a fresh seed.
            Ok(TailPoll::Truncated) | Err(_) if db.checkpoint_epoch() != ship_epoch => {
                let (epoch, start) = send_reseed(db, &mut stream)?;
                tail.seek(start);
                ship_epoch = epoch;
            }
            // Under an unmoved epoch a parse failure is real corruption,
            // which closes the session, and a "truncation" is our own
            // cursor racing the primary's buffered tail: just idle.
            Err(e) => return Err(invalid(format!("wal tail unreadable without truncation: {e}"))),
            Ok(TailPoll::Idle | TailPoll::Truncated) => std::thread::sleep(IDLE_SLEEP),
        }
    }
}

/// Consecutive failed sessions a [`ReplicationClient`] retries before it
/// gives up (the replica keeps serving reads; promotion stays possible).
/// A session the primary answered — `resume` or `reseed` — clears the
/// count.
const RECONNECT_ATTEMPTS: u32 = 10;
/// Delay before the first retry; it doubles per consecutive failure, so
/// the whole budget waits 5 · (2¹⁰ − 1) ms ≈ 5.1 s.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(5);

/// Observable state of the shipping client.
#[derive(Debug, Clone, Default)]
pub struct ReplicaStatus {
    /// True while a session with the primary is live.
    pub connected: bool,
    /// Sessions lost to the transport over the client's lifetime,
    /// failed dials included.
    pub reconnects: u64,
    /// True once the retry budget is exhausted or apply failed; the
    /// shipping thread has exited.
    pub gave_up: bool,
    /// Rendered cause of the last session loss, if any.
    pub last_error: Option<String>,
}

/// The replica-side shipping endpoint: connects to a primary's
/// [`ReplicationListener`], applies its stream, and acks progress.
pub struct ReplicationClient {
    applier: Arc<Mutex<ReplicaApplier>>,
    status: Arc<Mutex<ReplicaStatus>>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ReplicationClient {
    /// Start shipping `primary`'s WAL into `db`. The applier is the only
    /// writer to `db` until [`ReplicationClient::promote`].
    pub fn start(db: Arc<Database>, primary: SocketAddr) -> ReplicationClient {
        let applier = Arc::new(Mutex::new(ReplicaApplier::new(db)));
        let status = Arc::new(Mutex::new(ReplicaStatus::default()));
        let stop = Arc::new(AtomicBool::new(false));

        let t_applier = Arc::clone(&applier);
        let t_status = Arc::clone(&status);
        let t_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("quarry-repl-apply".into())
            .spawn(move || run_client(&t_applier, &t_status, &t_stop, primary))
            .ok();
        ReplicationClient { applier, status, stop, thread }
    }

    /// The shared applier; lock it to read position or pending state.
    /// Held briefly — the shipping thread takes the same lock per batch.
    pub fn applier(&self) -> Arc<Mutex<ReplicaApplier>> {
        Arc::clone(&self.applier)
    }

    /// Position applied and acked so far.
    pub fn position(&self) -> ReplicaPosition {
        lock(&self.applier).position()
    }

    /// Current client status snapshot.
    pub fn status(&self) -> ReplicaStatus {
        lock(&self.status).clone()
    }

    /// Stop shipping and join the thread. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Promote this replica to primary: stop shipping, discard
    /// transactions whose commits never arrived, adopt the transaction-id
    /// floor, and sync the local log. The database is then writable by
    /// its new owner.
    pub fn promote(&mut self) -> quarry_storage::Result<()> {
        self.stop();
        lock(&self.applier).promote()
    }
}

impl Drop for ReplicationClient {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The shipping thread: bounded-backoff reconnect loop around sessions.
fn run_client(
    applier: &Mutex<ReplicaApplier>,
    status: &Mutex<ReplicaStatus>,
    stop: &AtomicBool,
    primary: SocketAddr,
) {
    // Consecutive failures: the session clears it once the primary answers.
    let mut failures = 0u32;
    while !stop.load(Ordering::SeqCst) {
        if failures > 0 {
            if failures > RECONNECT_ATTEMPTS {
                let mut st = lock(status);
                st.gave_up = true;
                st.connected = false;
                return;
            }
            let delay = RECONNECT_BACKOFF * 2u32.saturating_pow(failures - 1);
            // Sleep in small slices so stop() stays responsive.
            let mut remaining = delay;
            while !remaining.is_zero() && !stop.load(Ordering::SeqCst) {
                let slice = remaining.min(Duration::from_millis(5));
                std::thread::sleep(slice);
                remaining = remaining.saturating_sub(slice);
            }
            if stop.load(Ordering::SeqCst) {
                return;
            }
        }
        match client_session(applier, status, stop, primary, &mut failures) {
            // Clean stop.
            Ok(()) => return,
            Err(SessionEnd::Transport(e)) => {
                let mut st = lock(status);
                st.connected = false;
                st.last_error = Some(e.to_string());
                st.reconnects = st.reconnects.saturating_add(1);
                drop(st);
                failures += 1;
            }
            // A deterministic apply failure would repeat on every retry.
            Err(SessionEnd::Apply(e)) => {
                let mut st = lock(status);
                st.connected = false;
                st.gave_up = true;
                st.last_error = Some(e);
                return;
            }
        }
    }
}

enum SessionEnd {
    /// The connection died; retrying may succeed.
    Transport(io::Error),
    /// Applying a frame failed; retrying cannot help.
    Apply(String),
}

impl From<io::Error> for SessionEnd {
    fn from(e: io::Error) -> SessionEnd {
        SessionEnd::Transport(e)
    }
}

/// One connected session: hello, then apply-and-ack until the stream
/// ends or `stop` is set. The primary's answer to the hello clears
/// `failures`.
fn client_session(
    applier: &Mutex<ReplicaApplier>,
    status: &Mutex<ReplicaStatus>,
    stop: &AtomicBool,
    primary: SocketAddr,
    failures: &mut u32,
) -> Result<(), SessionEnd> {
    let mut stream = dial(primary, POLL_TIMEOUT, WRITE_TIMEOUT)?;

    {
        let a = lock(applier);
        let pos = a.position();
        let mut payload = control_frame(TAG_HELLO, &[pos.epoch, pos.offset]);
        payload.push(u8::from(!a.attached()));
        drop(a);
        send_frame(&mut stream, &payload)?;
    }
    lock(status).connected = true;

    let mut frames = FrameBuf::new(DEFAULT_MAX_FRAME);
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        // Apply every whole frame received (the read blocks up to
        // POLL_TIMEOUT) under one applier lock, taken with the first, so
        // promotion serializes against the batch; then ack once.
        read_socket(&mut frames, &mut stream)?;
        let mut ack_now = false;
        let mut locked = None;
        while let Some(payload) = next_frame(&mut frames)? {
            let a = locked.get_or_insert_with(|| lock(applier));
            let result = match payload.first() {
                Some(&TAG_RESEED) => {
                    *failures = 0;
                    a.begin_reseed(get_u64(payload, 1)?, get_u64(payload, 9)?);
                    Ok(())
                }
                Some(&TAG_SEED) => a.seed_record(payload.get(1..).unwrap_or_default()),
                Some(&TAG_SEED_END) => {
                    ack_now = true;
                    a.finish_reseed()
                }
                Some(&TAG_RESUME) => {
                    *failures = 0;
                    a.resume(get_u64(payload, 1)?, get_u64(payload, 9)?);
                    ack_now = true;
                    Ok(())
                }
                _ => {
                    ack_now = true;
                    a.apply_frame(payload)
                }
            };
            if let Err(e) = result {
                return Err(SessionEnd::Apply(format!("apply: {e}")));
            }
        }
        let Some(a) = locked else { continue };
        let pos = a.position();
        drop(a);
        if ack_now {
            send_frame(&mut stream, &control_frame(TAG_ACK, &[pos.epoch, pos.offset]))?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_storage::{Column, DataType, TableSchema, Value};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("quarry-shiprepl-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![Column::new("id", DataType::Int), Column::new("val", DataType::Text)],
            &["id"],
            &[],
        )
        .unwrap()
    }

    fn dump(db: &Database) -> String {
        let mut out = String::new();
        for name in db.table_names() {
            out.push_str(&format!("{:?}\n", db.schema(&name).unwrap()));
            for row in db.snapshot().scan(&name).unwrap() {
                out.push_str(&format!("{row:?}\n"));
            }
        }
        out
    }

    /// Spin until the replica's acked position covers the primary's
    /// current log under the same epoch.
    fn await_caught_up(listener: &ReplicationListener, client: &ReplicationClient, db: &Database) {
        for _ in 0..4000 {
            let status = client.status();
            assert!(!status.gave_up, "replica gave up: {status:?}");
            let pos = client.position();
            if pos.epoch == db.checkpoint_epoch() && pos.offset >= db.wal_len() {
                // And the primary has seen the ack.
                let acked = listener
                    .progress()
                    .iter()
                    .any(|p| p.epoch == pos.epoch && p.acked >= db.wal_len());
                if acked {
                    return;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("replica never caught up: {:?} vs len {}", client.position(), db.wal_len());
    }

    #[test]
    fn ships_seed_live_frames_and_checkpoint_reseed() {
        let dir = tmpdir("live");
        let primary = Arc::new(Database::open(dir.join("p.wal")).unwrap());
        primary.create_table(schema()).unwrap();
        primary.insert_autocommit("t", vec![Value::Int(1), Value::Text("a".into())]).unwrap();

        let mut listener = ReplicationListener::start(Arc::clone(&primary), "127.0.0.1:0").unwrap();
        let replica = Arc::new(Database::open(dir.join("r.wal")).unwrap());
        let mut client = ReplicationClient::start(Arc::clone(&replica), listener.local_addr());

        // Seed covers pre-connection history.
        await_caught_up(&listener, &client, &primary);
        assert_eq!(dump(&primary), dump(&replica));

        // Live tail covers post-connection writes.
        primary.insert_autocommit("t", vec![Value::Int(2), Value::Text("b".into())]).unwrap();
        await_caught_up(&listener, &client, &primary);
        assert_eq!(dump(&primary), dump(&replica));

        // A checkpoint truncates the log and bumps the epoch; the
        // session renegotiates with a reseed and keeps shipping.
        primary.checkpoint().unwrap();
        primary.insert_autocommit("t", vec![Value::Int(3), Value::Text("c".into())]).unwrap();
        await_caught_up(&listener, &client, &primary);
        assert_eq!(dump(&primary), dump(&replica));

        // A closed connection leaves the progress map with its session.
        client.stop();
        for _ in 0..4000 {
            if listener.progress().is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(listener.progress(), vec![], "a closed replica is still tracked");
        assert_eq!(listener.sessions(), 0);
        listener.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The port takes every frame the engine writes: a batch's run is
    /// sealed at the run budget, plus one row, which is far below it.
    #[test]
    fn the_run_budget_is_far_below_the_ports_frame_limit() {
        const { assert!(16 * quarry_storage::structured::RUN_BUDGET <= DEFAULT_MAX_FRAME) };
    }

    /// A batch over the run budget ships as several frames, and the
    /// replica ends bit-identical to its primary — its own log holding the
    /// same runs, and recovering the same rows.
    #[test]
    fn a_batch_over_the_run_budget_ships_as_its_runs() {
        use quarry_storage::structured::LogRecord;
        let dir = tmpdir("runs");
        let primary = Arc::new(Database::open(dir.join("p.wal")).unwrap());
        primary.create_table(schema()).unwrap();
        let mut listener = ReplicationListener::start(Arc::clone(&primary), "127.0.0.1:0").unwrap();
        let replica = Arc::new(Database::open(dir.join("r.wal")).unwrap());
        let mut client = ReplicationClient::start(Arc::clone(&replica), listener.local_addr());
        await_caught_up(&listener, &client, &primary);

        let rows = (0..4_000).map(|i| vec![Value::Int(i), Value::Text(format!("{i:0>60}"))]);
        let tx = primary.begin();
        primary.insert_rows(tx, "t", rows).unwrap();
        primary.commit(tx).unwrap();
        await_caught_up(&listener, &client, &primary);
        let live = dump(&primary);
        assert_eq!(dump(&replica), live);

        let runs = |wal: &str| -> Vec<usize> {
            let payloads = quarry_storage::Wal::replay(dir.join(wal)).unwrap();
            let runs = payloads.iter().filter_map(|payload| match LogRecord::decode(payload) {
                Ok(LogRecord::InsertRun { rows, .. }) => Some(rows.len()),
                _ => None,
            });
            runs.collect()
        };
        let shipped = runs("r.wal");
        assert!(shipped.len() >= 3, "{} runs", shipped.len());
        assert_eq!(shipped.iter().sum::<usize>(), 4_000);
        assert_eq!(shipped, runs("p.wal"));

        client.stop();
        listener.shutdown();
        drop((client, replica));
        assert_eq!(dump(&Database::open(dir.join("r.wal")).unwrap()), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The shipping port bounds a frame before buffering it: a length
    /// prefix over `DEFAULT_MAX_FRAME` closes the session instead of
    /// growing its buffer for as long as the peer keeps writing.
    #[test]
    fn oversized_length_prefix_closes_the_replication_session() {
        let dir = tmpdir("bound");
        let primary = Arc::new(Database::open(dir.join("p.wal")).unwrap());
        let mut listener = ReplicationListener::start(primary, "127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr()).unwrap();
        peer.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        peer.write_all(&u32::MAX.to_le_bytes()).unwrap(); // claims a 4 GiB frame
        peer.write_all(&0u32.to_le_bytes()).unwrap();
        // The listener never writes before a hello, so a read that ends
        // in anything but a timeout is the close.
        let chunk = vec![0u8; 1 << 20];
        let closed = (0..2).any(|_| {
            peer.write_all(&chunk).is_err()
                || !matches!(peer.read(&mut [0u8; 1]), Err(e) if e.kind() == io::ErrorKind::WouldBlock)
        });
        assert!(closed, "the listener accepted 2 MiB of a frame it should have refused");
        listener.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn promotion_makes_the_replica_writable_at_a_boundary() {
        let dir = tmpdir("promote");
        let primary = Arc::new(Database::open(dir.join("p.wal")).unwrap());
        primary.create_table(schema()).unwrap();
        for i in 0..5 {
            primary
                .insert_autocommit("t", vec![Value::Int(i), Value::Text(format!("v{i}"))])
                .unwrap();
        }
        let mut listener = ReplicationListener::start(Arc::clone(&primary), "127.0.0.1:0").unwrap();
        let replica = Arc::new(Database::open(dir.join("r.wal")).unwrap());
        let mut client = ReplicationClient::start(Arc::clone(&replica), listener.local_addr());
        await_caught_up(&listener, &client, &primary);
        let expected = dump(&primary);
        listener.shutdown(); // primary "dies"
        client.promote().unwrap();
        assert_eq!(dump(&replica), expected);
        // The promoted node allocates fresh transaction ids and accepts
        // writes.
        replica.insert_autocommit("t", vec![Value::Int(99), Value::Text("post".into())]).unwrap();
        assert_eq!(replica.row_count("t").unwrap(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_backoff_gives_up_against_a_dead_primary() {
        let dir = tmpdir("backoff");
        // Reserve an address with no listener behind it.
        let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = sock.local_addr().unwrap();
        drop(sock);
        let replica = Arc::new(Database::open(dir.join("r.wal")).unwrap());
        let mut client = ReplicationClient::start(Arc::clone(&replica), addr);
        // The whole budget's backoff, plus as long again for the dials.
        let backoff = RECONNECT_BACKOFF * (2u32.pow(RECONNECT_ATTEMPTS) - 1);
        let deadline = std::time::Instant::now() + 2 * backoff;
        while !client.status().gave_up && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let status = client.status();
        assert!(status.gave_up, "client should exhaust its retry budget: {status:?}");
        assert!(!status.connected);
        // Every failed dial is a lost session: the first, then each retry.
        assert_eq!(status.reconnects, u64::from(RECONNECT_ATTEMPTS) + 1, "{status:?}");
        // A gave-up replica still promotes (to its last boundary: empty).
        client.promote().unwrap();
        assert!(replica.table_names().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The budget counts consecutive failures: a session the primary
    /// answered clears it, so a replica outlives any number of blips it
    /// recovers from, while a primary that stays down still runs it out.
    #[test]
    fn a_session_the_primary_answers_clears_the_retry_budget() {
        let dir = tmpdir("blips");
        let primary = Arc::new(Database::open(dir.join("p.wal")).unwrap());
        primary.create_table(schema()).unwrap();
        let mut listener = ReplicationListener::start(Arc::clone(&primary), "127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let replica = Arc::new(Database::open(dir.join("r.wal")).unwrap());
        let client = ReplicationClient::start(Arc::clone(&replica), addr);
        await_caught_up(&listener, &client, &primary);
        // Each restart of the shipping port costs the replica at least one
        // failed session, so more restarts than the budget would exhaust a
        // count that never clears.
        for blip in 1..=i64::from(RECONNECT_ATTEMPTS) + 2 {
            listener.shutdown();
            listener = ReplicationListener::start(Arc::clone(&primary), addr).unwrap();
            primary
                .insert_autocommit("t", vec![Value::Int(blip), Value::Text("x".into())])
                .unwrap();
            await_caught_up(&listener, &client, &primary);
        }
        let status = client.status();
        assert!(!status.gave_up, "{status:?}");
        assert!(status.reconnects > u64::from(RECONNECT_ATTEMPTS), "{status:?}");
        assert_eq!(dump(&primary), dump(&replica));
        drop(client);
        listener.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
