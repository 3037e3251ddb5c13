//! Protocol robustness: a hostile or broken peer must get a clean error
//! and must never take the server down.
//!
//! Each case feeds the server raw bytes that violate the framing rules —
//! garbage before the magic, a wrong version, an oversized length prefix,
//! a bad checksum, a truncated frame, a half-written frame that stalls —
//! and asserts (a) the peer receives a best-effort `Protocol` error
//! response where one can be delivered, (b) the offending connection is
//! closed (framing errors) or survives (payload-only errors), and (c) the
//! server keeps serving fresh connections afterwards.

use quarry::core::{Quarry, QuarryConfig};
use quarry::serve::protocol::{
    read_response, write_frame, write_request, DEFAULT_MAX_FRAME, MAGIC, VERSION,
};
use quarry::serve::{Client, ErrorKind, Payload, Request, ServeConfig, Server};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

mod common;
use common::{eventually, Sut};

fn start_server(cfg: ServeConfig) -> Server {
    let q = Quarry::new(QuarryConfig::default()).unwrap();
    Server::start(q, "127.0.0.1:0", cfg).unwrap()
}

fn raw(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

/// Read the best-effort error reply a session sends before dropping a
/// connection it cannot resynchronise, and return its message.
fn expect_protocol_error(stream: &mut TcpStream, expect_id: u64) -> String {
    let resp = read_response(stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(resp.id, expect_id);
    match resp.payload {
        Payload::Error { kind: ErrorKind::Protocol, message } => message,
        other => panic!("expected a Protocol error, got {other:?}"),
    }
}

/// A fresh connection still serves: the previous abuse did not kill the
/// server (or wedge its worker).
fn assert_alive(addr: SocketAddr) {
    let mut c = Client::connect(addr).unwrap();
    c.ping().unwrap();
}

#[test]
fn garbage_before_magic_gets_a_clean_error() {
    let server = start_server(ServeConfig::default());
    let addr = server.local_addr();
    let mut s = raw(addr);
    s.write_all(b"GET /cities HTTP/1.1\r\nHost: quarry\r\n\r\n").unwrap();
    let msg = expect_protocol_error(&mut s, 0);
    assert!(msg.contains("bad frame magic"), "got: {msg}");
    // The session cannot resync, so the connection is closed…
    assert!(read_response(&mut s, DEFAULT_MAX_FRAME).is_err());
    // …but the server is fine.
    assert_alive(addr);
}

#[test]
fn wrong_version_is_rejected() {
    let server = start_server(ServeConfig::default());
    let addr = server.local_addr();
    let mut s = raw(addr);
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&99u16.to_le_bytes());
    frame.extend_from_slice(&[0u8; 16]); // id + len + crc, all zero
    s.write_all(&frame).unwrap();
    let msg = expect_protocol_error(&mut s, 0);
    assert!(msg.contains("unsupported protocol version 99"), "got: {msg}");
    assert_alive(addr);
}

#[test]
fn oversized_length_prefix_is_rejected_not_allocated() {
    let server = start_server(ServeConfig::default());
    let addr = server.local_addr();
    let mut s = raw(addr);
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&VERSION.to_le_bytes());
    frame.extend_from_slice(&7u64.to_le_bytes());
    frame.extend_from_slice(&u32::MAX.to_le_bytes()); // claims a 4 GiB payload
    frame.extend_from_slice(&0u32.to_le_bytes());
    s.write_all(&frame).unwrap();
    let msg = expect_protocol_error(&mut s, 0);
    assert!(msg.contains("exceeds limit"), "got: {msg}");
    assert_alive(addr);
}

#[test]
fn bad_crc_is_a_torn_frame() {
    let server = start_server(ServeConfig::default());
    let addr = server.local_addr();
    let mut s = raw(addr);
    let mut frame = Vec::new();
    write_request(&mut frame, 3, &Request::Ping).unwrap();
    let last = frame.len() - 1;
    frame[last] ^= 0xFF; // tear the payload; the header's crc no longer matches
    s.write_all(&frame).unwrap();
    let msg = expect_protocol_error(&mut s, 0);
    assert!(msg.contains("checksum mismatch"), "got: {msg}");
    assert_alive(addr);
}

#[test]
fn truncated_frame_is_reported_not_hung() {
    let server = start_server(ServeConfig::default());
    let addr = server.local_addr();
    let mut s = raw(addr);
    let mut frame = Vec::new();
    write_request(&mut frame, 4, &Request::Ping).unwrap();
    s.write_all(&frame[..frame.len() - 3]).unwrap();
    s.shutdown(Shutdown::Write).unwrap(); // EOF mid-payload
    let msg = expect_protocol_error(&mut s, 0);
    assert!(msg.contains("mid-frame"), "got: {msg}");
    assert_alive(addr);
}

#[test]
fn half_written_frame_that_stalls_is_timed_out() {
    // Short read timeout so the session's stall budget (a fixed retry
    // count) elapses quickly.
    let server = start_server(ServeConfig {
        read_timeout: Duration::from_millis(1),
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    let mut s = raw(addr);
    let mut frame = Vec::new();
    write_request(&mut frame, 5, &Request::Ping).unwrap();
    // Send half the frame and then go silent, keeping the socket open.
    s.write_all(&frame[..frame.len() - 3]).unwrap();
    let msg = expect_protocol_error(&mut s, 0);
    assert!(msg.contains("stalled"), "got: {msg}");
    assert_alive(addr);
}

#[test]
fn future_version_frame_with_valid_crc_gets_a_clean_id_zero_error() {
    // A peer from a *newer* release speaks version VERSION+1 with an
    // otherwise perfectly well-formed frame (real length, real checksum,
    // decodable payload). The server must not guess at forward
    // compatibility: it answers a clean id-0 Protocol error naming the
    // version and closes, leaving the listener healthy.
    let server = start_server(ServeConfig::default());
    let addr = server.local_addr();
    let mut s = raw(addr);

    let mut frame = Vec::new();
    write_request(&mut frame, 9, &Request::Ping).unwrap();
    let future = VERSION + 1;
    frame[4..6].copy_from_slice(&future.to_le_bytes());
    s.write_all(&frame).unwrap();

    let msg = expect_protocol_error(&mut s, 0);
    assert!(msg.contains(&format!("unsupported protocol version {future}")), "got: {msg}");
    // The session cannot trust anything after an unknown version…
    assert!(read_response(&mut s, DEFAULT_MAX_FRAME).is_err());
    // …and current-version peers are unaffected.
    assert_alive(addr);
}

/// A scripted stand-in server: accepts connections, counts every request
/// frame it reads, and replies from a fixed list of payloads (one per
/// request, repeating the last). Lets the retry tests observe exactly
/// how many times a client re-sent something.
struct ScriptedServer {
    addr: SocketAddr,
    requests: std::sync::Arc<std::sync::atomic::AtomicU64>,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

enum ScriptStep {
    Reply(Payload),
    /// Read the request, then drop the connection without replying.
    Hangup,
}

impl ScriptedServer {
    fn start(script: Vec<ScriptStep>) -> ScriptedServer {
        use quarry::serve::protocol::{read_frame, write_response};
        use quarry::serve::Response;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let requests = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let seen = std::sync::Arc::clone(&requests);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stopped = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut steps = script.into_iter().peekable();
            'conns: for conn in listener.incoming() {
                if stopped.load(std::sync::atomic::Ordering::SeqCst) {
                    return;
                }
                let Ok(mut stream) = conn else { return };
                loop {
                    // Script exhausted: stop *before* blocking on a read
                    // that no step will ever answer.
                    if steps.peek().is_none() {
                        return;
                    }
                    let Ok((id, _)) = read_frame(&mut stream, DEFAULT_MAX_FRAME) else {
                        continue 'conns;
                    };
                    seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    match steps.next() {
                        None | Some(ScriptStep::Hangup) => continue 'conns,
                        Some(ScriptStep::Reply(payload)) => {
                            let resp = Response { id, server_micros: 0, lsn: 0, payload };
                            if write_response(&mut stream, &resp).is_err() {
                                continue 'conns;
                            }
                        }
                    }
                }
            }
        });
        ScriptedServer { addr, requests, stop, handle: Some(handle) }
    }

    fn requests(&self) -> u64 {
        self.requests.load(std::sync::atomic::Ordering::SeqCst)
    }
}

impl Drop for ScriptedServer {
    fn drop(&mut self) {
        // Unblock the accept loop if it is still waiting.
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[test]
fn overloaded_and_shutting_down_are_never_retried() {
    use quarry::serve::ClientError;
    type Check = fn(&ClientError) -> bool;
    // Server *rejections* pass through untouched — retrying them would
    // turn backpressure into more pressure, and a draining server into a
    // hammered one.
    let cases: [(Payload, Check); 2] = [
        (Payload::Overloaded, |e| matches!(e, ClientError::Overloaded)),
        (Payload::ShuttingDown, |e| matches!(e, ClientError::ShuttingDown)),
    ];
    for (step, check) in cases {
        let fake = ScriptedServer::start(vec![ScriptStep::Reply(step)]);
        let mut c = Client::connect_with(fake.addr, Duration::from_secs(5)).unwrap();
        let err = c.ping().unwrap_err();
        assert!(check(&err), "rejection surfaced as the wrong error: {err:?}");
        assert_eq!(fake.requests(), 1, "a server rejection was re-sent");
    }
}

#[test]
fn a_dead_connection_is_redialled_once_for_a_read() {
    // One hangup then an answer: the read is re-sent once on a fresh
    // connection and succeeds; the server saw exactly two sends.
    let fake = ScriptedServer::start(vec![ScriptStep::Hangup, ScriptStep::Reply(Payload::Pong)]);
    let mut c = Client::connect_with(fake.addr, Duration::from_secs(5)).unwrap();
    c.ping().unwrap();
    assert_eq!(fake.requests(), 2);

    // Two hangups then an answer: the re-sent read dies too, and that is
    // final — the bound is one re-send, whatever follows.
    let fake = ScriptedServer::start(vec![
        ScriptStep::Hangup,
        ScriptStep::Hangup,
        ScriptStep::Reply(Payload::Pong),
    ]);
    let mut c = Client::connect_with(fake.addr, Duration::from_secs(5)).unwrap();
    assert!(c.ping().is_err());
    assert_eq!(fake.requests(), 2);
}

#[test]
fn a_write_whose_connection_dies_is_not_resent() {
    use quarry::storage::Value;
    // The hangup may have come after the insert committed: a resend would
    // answer `DuplicateKey` for rows that are there. Where a read would be
    // re-sent, the write surfaces the dead connection.
    let fake = ScriptedServer::start(vec![ScriptStep::Hangup, ScriptStep::Reply(Payload::Done)]);
    let mut c = Client::connect_with(fake.addr, Duration::from_secs(5)).unwrap();
    assert!(c.insert_rows("t", vec![vec![Value::Int(1)]]).is_err());
    assert_eq!(fake.requests(), 1, "the write was sent again");
}

/// A request that timed out leaves its late reply in the socket; the
/// client drops that connection, so no later request reads it. Before,
/// each later request read the previous one's reply ("response id 1 for
/// request 2", and so on for good). The router's shard legs were safe
/// only because `with_shard` threw a failed client away; a leg now keeps
/// its client, and relies on this.
#[test]
fn a_timed_out_request_does_not_desynchronise_the_next() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let (first, returned) = (Arc::new(AtomicBool::new(true)), Arc::new(AtomicBool::new(false)));
    let hook = {
        let (first, returned) = (Arc::clone(&first), Arc::clone(&returned));
        move |_: &Request| {
            if first.swap(false, Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(400));
                returned.store(true, Ordering::SeqCst);
            }
        }
    };
    let server =
        start_server(ServeConfig { request_hook: Some(Arc::new(hook)), ..Default::default() });
    let mut c = Client::connect_with(server.local_addr(), Duration::from_millis(100)).unwrap();
    assert!(c.ping().is_err(), "the first ping outlives its timeout");
    eventually("the slow request to be answered", || returned.load(Ordering::SeqCst));
    for n in [2, 3] {
        let pong = c.ping();
        assert!(pong.is_ok(), "ping {n}: {pong:?}");
    }
}

#[test]
fn undecodable_payload_fails_the_request_but_keeps_the_connection() {
    for (kind, sut) in Sut::both("undecodable") {
        let mut s = raw(sut.addr());
        // Framing is valid (real crc), only the JSON inside is garbage: the
        // stream is still in sync, so the error carries the real request id
        // and the connection keeps serving.
        write_frame(&mut s, 11, b"{\"NoSuchRequest\":true}").unwrap();
        let msg = expect_protocol_error(&mut s, 11);
        assert!(msg.contains("undecodable request"), "{kind} got: {msg}");
        write_request(&mut s, 12, &Request::Ping).unwrap();
        let resp = read_response(&mut s, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(resp.id, 12, "{kind}");
        assert_eq!(resp.payload, Payload::Pong, "{kind}");
    }
}

#[test]
fn malformed_frame_suite_leaves_the_server_healthy() {
    for (kind, sut) in Sut::both("malformed") {
        let addr = sut.addr();

        // Every frame-level abuse in sequence, each on a fresh connection.
        let abuses: Vec<Vec<u8>> = vec![
            b"\x00\x00\x00\x00\x00\x00\x00\x00garbage-garbage-garbage".to_vec(),
            {
                let mut f = Vec::new();
                f.extend_from_slice(&MAGIC);
                f.extend_from_slice(&2u16.to_le_bytes()); // future version
                f.extend_from_slice(&[0u8; 16]);
                f
            },
            {
                let mut f = Vec::new();
                f.extend_from_slice(&MAGIC);
                f.extend_from_slice(&VERSION.to_le_bytes());
                f.extend_from_slice(&1u64.to_le_bytes());
                f.extend_from_slice(&(u32::MAX / 2).to_le_bytes());
                f.extend_from_slice(&0u32.to_le_bytes());
                f
            },
            {
                let mut f = Vec::new();
                write_request(&mut f, 6, &Request::Checkpoint).unwrap();
                f[21] ^= 0x5A; // corrupt the stored crc itself
                f
            },
        ];
        let n_abuses = abuses.len() as u64;
        for bytes in abuses {
            let mut s = raw(addr);
            s.write_all(&bytes).unwrap();
            let _ = expect_protocol_error(&mut s, 0);
            assert_alive(addr);
        }

        // Hostile payloads inside sound frames: the checksum holds, so the
        // stream stays in sync, and what must hold is the decoder — linear
        // time, a bounded stack, a bounded message. The parent commit
        // answered the first by overflowing the session thread's stack
        // (the process aborted), the second after minutes of CPU, and the
        // third with a 4 MB message, four times the request.
        let hostile: [(&str, Vec<u8>); 3] = [
            ("deep nesting", "[".repeat(20_000).into_bytes()),
            ("huge string", format!("\"{}\"", "a".repeat(4 << 20)).into_bytes()),
            (
                "huge wrong-typed array",
                format!("{{\"Qdl\":[{}1]}}", "1,".repeat(500_000)).into_bytes(),
            ),
        ];
        let n_hostile = hostile.len() as u64;
        let mut s = raw(addr);
        for (id, (what, payload)) in (21..).zip(hostile) {
            let start = std::time::Instant::now();
            write_frame(&mut s, id, &payload).unwrap();
            let msg = expect_protocol_error(&mut s, id);
            let took = start.elapsed();
            assert!(msg.starts_with("undecodable request"), "{kind}, {what}: {msg}");
            assert!(msg.len() < 200, "{kind}, {what}: a {}-byte message", msg.len());
            assert!(took < Duration::from_secs(5), "{kind}, {what}: answered after {took:?}");
            // Only the request failed: the same connection serves the next.
            write_request(&mut s, id + 100, &Request::Ping).unwrap();
            let resp = read_response(&mut s, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!((resp.id, resp.payload), (id + 100, Payload::Pong), "{kind}, {what}");
            assert_alive(addr);
        }

        // The counter saw every abuse, real requests still flow, and join
        // hands the façade back intact — no session took the endpoint
        // down along the way.
        let errors = sut.metrics().counter("server.protocol_errors");
        assert_eq!(errors, n_abuses + n_hostile, "{kind}");
        let mut c = Client::connect(addr).unwrap();
        c.ping().unwrap();
        c.shutdown().unwrap();
        sut.join();
    }
}

/// A session is a thread of its own, not a slot of a pool: connections
/// that send nothing cost a new client nothing.
#[test]
fn idle_connections_do_not_starve_a_new_client() {
    for (kind, sut) in Sut::both("idle") {
        let idle: Vec<TcpStream> = (0..8).map(|_| raw(sut.addr())).collect();
        let mut c = Client::connect_with(sut.addr(), Duration::from_secs(1)).unwrap();
        c.ping().unwrap_or_else(|e| panic!("{kind} with 8 idle connections open: {e}"));
        drop(idle);
    }
}

/// Whatever a session held — its thread, its unit of the session cap, its
/// row in the replication tracker — goes when its connection does.
#[test]
fn no_session_state_outlives_its_connection() {
    let sut = Sut::router("session-state");
    for _ in 0..50 {
        let mut c = Client::connect(sut.addr()).unwrap();
        c.ping().unwrap();
    }
    eventually("the router's sessions to end", || sut.sessions() == 0);
    assert_eq!(sut.metrics().counter("server.connections"), 50);

    let Sut::Router(cluster) = &sut else { unreachable!() };
    let primary = cluster.shards()[0].primary.as_ref().unwrap();
    for _ in 0..50 {
        drop(TcpStream::connect(primary.replication_addr()).unwrap());
    }
    eventually("the replication sessions to end", || primary.listener().sessions() == 0);
    assert!(primary.listener().progress().is_empty());
}

/// The session cap is a bound on threads, not a queue: the connection
/// beyond it is closed at accept and counted, and the place a closing
/// session gives back is taken by the next client.
#[test]
fn a_connection_beyond_the_session_cap_is_closed_and_counted() {
    use quarry::serve::endpoint::MAX_SESSIONS;
    use std::io::Read;
    let server = start_server(ServeConfig::default());
    let addr = server.local_addr();
    let mut idle = Vec::with_capacity(MAX_SESSIONS);
    for live in 1..=MAX_SESSIONS {
        idle.push(raw(addr));
        // One at a time, so the accept backlog never holds more than one.
        eventually("the session to start", || server.sessions() == live);
    }

    let mut refused = raw(addr);
    match refused.read(&mut [0u8; 1]) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("the connection beyond the cap was not closed: {other:?}"),
    }
    eventually("the refusal to be counted", || server.refused_connections() == 1);
    assert_eq!(server.sessions(), MAX_SESSIONS, "the refused connection never held a session");

    idle.pop();
    eventually("the closed session to end", || server.sessions() == MAX_SESSIONS - 1);
    assert_alive(addr);
    assert_eq!(server.refused_connections(), 1);
    drop(idle);
    drop(server.join());
}
