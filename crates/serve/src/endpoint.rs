//! One network endpoint: everything between `bind` and a decoded,
//! admitted request. [`Server`](crate::Server), the cluster's router and
//! the [`ReplicationListener`](crate::ReplicationListener) all run on it.
//!
//! One accept thread owns the listening socket and starts one thread per
//! connection *scoped to itself*: a session that ends leaves nothing
//! behind, and the accept thread exits only after every session has, so
//! joining it joins them all. At most [`MAX_SESSIONS`] sessions live at
//! once; a connection beyond that is closed at accept and counted
//! ([`State::refused_connections`]). Shutdown is a flag plus a loop-back
//! connection that wakes the accept loop — no signals — and sessions
//! notice the flag at their next read-timeout wakeup.
//!
//! [`Endpoint::listen`] hands each connection to a session function;
//! [`Endpoint::serve`] is the session that speaks the request protocol to
//! a handler from `Request` to `(Payload, lsn)` — the handler owns the
//! decoded request, so the rows it carries move on without a copy —
//! admitting a request only while fewer than [`MAX_IN_FLIGHT`] are between
//! admission and reply and answering [`Payload::Overloaded`] at once
//! beyond that. A request the owner refuses outright (a write on a
//! replica) never asks for a slot.

use crate::protocol::{
    decode_request, read_frame, write_response, ErrorKind, FrameError, Payload, Request, Response,
    DEFAULT_MAX_FRAME,
};
use quarry_exec::MetricsRegistry;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Sessions one endpoint keeps alive at a time. A session is a thread,
/// so the bound is on threads; [`MAX_IN_FLIGHT`] bounds the work.
pub const MAX_SESSIONS: usize = 256;

/// Requests one endpoint allows between admission and reply; a request
/// beyond them is answered [`Payload::Overloaded`] at once.
pub const MAX_IN_FLIGHT: usize = 8;

/// Write timeout of every accepted connection and of a replica's dialled
/// one: a session that cannot flush within it drops the connection.
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Lock recovering from poisoning: every mutex in the serving tier guards
/// data that is valid between any two statements, and the panic already
/// failed its own request (the precedent is `quarry_exec`).
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The socket options of every connection in the serving tier, accepted
/// or dialled.
fn set_options(stream: &TcpStream, read: Duration, write: Duration) -> io::Result<()> {
    stream.set_read_timeout(Some(read))?;
    stream.set_write_timeout(Some(write))?;
    stream.set_nodelay(true)
}

/// Dial `addr` with the tier's socket options.
pub(crate) fn dial(addr: SocketAddr, read: Duration, write: Duration) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    set_options(&stream, read, write)?;
    Ok(stream)
}

/// One unit of a bounded count, given back on drop — so a session or a
/// handler that panics takes down its own connection only.
struct Held<'a>(&'a AtomicUsize);

impl<'a> Held<'a> {
    /// Take a unit unless `cap` are already out.
    fn take(count: &'a AtomicUsize, cap: usize) -> Option<Held<'a>> {
        let held = Held(count);
        (count.fetch_add(1, Ordering::SeqCst) < cap).then_some(held)
    }
}

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// An endpoint as its owner and its sessions both see it.
pub struct State {
    addr: SocketAddr,
    shutting_down: AtomicBool,
    sessions: AtomicUsize,
    refused: AtomicUsize,
    in_flight: AtomicUsize,
}

impl State {
    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections with a live session.
    pub fn sessions(&self) -> usize {
        self.sessions.load(Ordering::SeqCst)
    }

    /// Connections closed at accept because [`MAX_SESSIONS`] were live.
    pub fn refused_connections(&self) -> usize {
        self.refused.load(Ordering::SeqCst)
    }

    /// Requests currently between admission and reply.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// True once shutdown has begun: a session finishes the exchange at
    /// hand and returns.
    pub fn draining(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Start draining: stop accepting, answer new requests
    /// [`Payload::ShuttingDown`], let in-flight work finish. Idempotent;
    /// the loop-back connection wakes the accept loop to see the flag.
    pub fn begin_shutdown(&self) {
        if !self.shutting_down.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// A bound socket with its accept thread and sessions. Dropping it shuts
/// it down and waits for every thread.
pub struct Endpoint {
    state: Arc<State>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl std::ops::Deref for Endpoint {
    type Target = State;

    fn deref(&self) -> &State {
        &self.state
    }
}

impl Endpoint {
    /// Bind `addr` and run `session` on a thread of its own for every
    /// connection, with `read_timeout` and `WRITE_TIMEOUT` already set.
    /// Threads are named `{name}-accept` and `{name}-session`.
    pub fn listen(
        name: &str,
        addr: impl ToSocketAddrs,
        read_timeout: Duration,
        session: impl Fn(TcpStream, &State) + Send + Sync + 'static,
    ) -> io::Result<Endpoint> {
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(State {
            addr: listener.local_addr()?,
            shutting_down: AtomicBool::new(false),
            sessions: AtomicUsize::new(0),
            refused: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
        });
        let accept_state = Arc::clone(&state);
        let session_name = format!("{name}-session");
        let accept =
            std::thread::Builder::new().name(format!("{name}-accept")).spawn(move || {
                let (state, session) = (&*accept_state, &session);
                std::thread::scope(move |scope| {
                    for conn in listener.incoming() {
                        if state.draining() {
                            break; // the wake-up connection, or a late client
                        }
                        let Ok(stream) = conn else { continue }; // transient accept failure
                        if set_options(&stream, read_timeout, WRITE_TIMEOUT).is_err() {
                            continue;
                        }
                        let Some(live) = Held::take(&state.sessions, MAX_SESSIONS) else {
                            state.refused.fetch_add(1, Ordering::SeqCst);
                            continue; // over the cap: `stream` closes here
                        };
                        // A failed spawn drops the closure, and with it
                        // the connection and its unit of the cap.
                        let _ = std::thread::Builder::new()
                            .name(session_name.clone())
                            .spawn_scoped(scope, move || {
                                let _live = live;
                                session(stream, state);
                            });
                    }
                    // Close the port now: the scope goes on to wait for
                    // the sessions, and a drain must refuse new clients.
                    drop(listener);
                });
            })?;
        Ok(Endpoint { state, accept: Some(accept) })
    }

    /// Bind `addr` and answer every admitted request with `handler`,
    /// which owns it, under [`MAX_IN_FLIGHT`] and a session read timeout
    /// of `read_timeout`, recording into `metrics`. A request `refuse`
    /// has an answer for is never admitted.
    pub fn serve(
        name: &str,
        addr: impl ToSocketAddrs,
        read_timeout: Duration,
        metrics: MetricsRegistry,
        refuse: impl Fn(&Request) -> Option<Payload> + Send + Sync + 'static,
        handler: impl Fn(Request) -> (Payload, u64) + Send + Sync + 'static,
    ) -> io::Result<Endpoint> {
        let gate = Gate { refuse, handler, metrics };
        Endpoint::listen(name, addr, read_timeout, move |stream, state| gate.session(stream, state))
    }

    /// Begin shutdown if nobody has and wait for the accept thread, which
    /// waits for every session; the session function — and a handler it
    /// owns — is dropped by then. Idempotent.
    pub fn shutdown(&mut self) {
        self.begin_shutdown();
        if let Some(accept) = self.accept.take() {
            // An `Err` is a session's panic resurfacing from the scope
            // once all of them have ended; it failed that connection only.
            let _ = accept.join();
        }
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A reply to a request that never executed.
fn refusal(id: u64, payload: Payload) -> Response {
    Response { id, server_micros: 0, lsn: 0, payload }
}

fn protocol_error(e: impl ToString) -> Payload {
    Payload::Error { kind: ErrorKind::Protocol, message: e.to_string() }
}

/// A request-protocol endpoint's handler, limits and accounting.
struct Gate<R, H> {
    refuse: R,
    handler: H,
    metrics: MetricsRegistry,
}

impl<R: Fn(&Request) -> Option<Payload>, H: Fn(Request) -> (Payload, u64)> Gate<R, H> {
    /// Run one connection's session to completion.
    fn session(&self, stream: TcpStream, state: &State) {
        self.metrics.incr("server.connections", 1);
        // Reads go through a buffer, so a frame that fits it is one `recv`
        // (not one for the header and one for the payload); replies are
        // built whole by `write_frame` and go to the socket as they are.
        let (mut reader, mut writer) = (BufReader::new(&stream), &stream);
        loop {
            match read_frame(&mut reader, DEFAULT_MAX_FRAME) {
                Ok((id, payload)) => {
                    let resp = self.respond(state, id, &payload);
                    // While draining, the reply delivered is the drain
                    // complete for this session.
                    if write_response(&mut writer, &resp).is_err() || state.draining() {
                        return;
                    }
                }
                Err(e) if e.is_timeout() => {
                    if state.draining() {
                        return;
                    }
                }
                Err(FrameError::Closed) => return,
                Err(e) => {
                    // Malformed frame: the stream cannot be resynchronised.
                    // Best-effort error reply (id 0: the real id is unknown
                    // or untrusted), then drop the connection. The endpoint
                    // stays up either way.
                    self.metrics.incr("server.protocol_errors", 1);
                    let _ = write_response(&mut writer, &refusal(0, protocol_error(e)));
                    return;
                }
            }
        }
    }

    /// Decode, admit, execute, and time one request.
    fn respond(&self, state: &State, id: u64, payload: &[u8]) -> Response {
        self.metrics.incr("server.requests", 1);
        let req = match decode_request(payload) {
            Ok(req) => req,
            // The frame passed its checksum, so framing is intact and the
            // connection can keep serving; only this request fails.
            Err(e) => {
                self.metrics.incr("server.protocol_errors", 1);
                return refusal(id, protocol_error(e));
            }
        };
        // Shutdown is a control frame: it must work even under overload,
        // so it bypasses admission.
        if req == Request::Shutdown {
            state.begin_shutdown();
            return refusal(id, Payload::Done);
        }
        if state.draining() {
            return refusal(id, Payload::ShuttingDown);
        }
        if let Some(refused) = (self.refuse)(&req) {
            return refusal(id, refused);
        }
        let Some(_slot) = Held::take(&state.in_flight, MAX_IN_FLIGHT) else {
            self.metrics.incr("server.overloaded", 1);
            return refusal(id, Payload::Overloaded);
        };
        let start = Instant::now();
        let (payload, lsn) = (self.handler)(req);
        let elapsed = start.elapsed();
        self.metrics.observe("server.request_us", elapsed);
        if matches!(payload, Payload::Error { .. }) {
            self.metrics.incr("server.request_errors", 1);
        }
        Response { id, server_micros: elapsed.as_micros() as u64, lsn, payload }
    }
}
