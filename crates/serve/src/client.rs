//! A small blocking client for the Quarry wire protocol.
//!
//! [`Client::request`] sends one frame and waits for the matching reply.
//! If the connection dies under a request (server restart, idle drop),
//! the client reconnects, governed by [`ClientConfig`]:
//! `reconnect_attempts` bounds how many fresh connections one request may
//! consume and `backoff` is the base delay before each (doubling per
//! attempt). The default is a single immediate reconnect. A read is
//! resent on the fresh connection. A write ([`Request::is_write`]) is
//! sent at most once: its reply may have been lost after it committed,
//! and a resent `InsertRows` would answer `DuplicateKey` for rows that
//! are there. It fails with the transport error, and the fresh connection
//! serves the next request. Rejections ([`Payload::Overloaded`],
//! [`Payload::ShuttingDown`]) are **never** retried regardless of
//! configuration: they are the server's explicit back-off signal,
//! surfaced to the caller as typed errors.

use crate::endpoint::dial;
use crate::protocol::{
    read_response, write_request, ErrorKind, FrameError, Payload, Request, Response, WireCandidate,
    WireExecStats, WireHit, DEFAULT_MAX_FRAME,
};
use quarry_exec::MetricsSnapshot;
use quarry_query::engine::Query;
use quarry_storage::{TableSchema, Value};
use std::fmt;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Any failure a client call can surface.
#[derive(Debug)]
pub enum ClientError {
    /// Connection or transport failure (after the one reconnect attempt).
    Io(io::Error),
    /// The reply frame was malformed.
    Frame(FrameError),
    /// The server answered with a typed error.
    Server {
        /// Which subsystem failed.
        kind: ErrorKind,
        /// The server's rendered error message.
        message: String,
    },
    /// Rejected by admission control; back off and retry.
    Overloaded,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// The reply did not match the request (wrong id or payload shape).
    Unexpected(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "frame error: {e}"),
            ClientError::Server { kind, message } => {
                write!(f, "server error ({kind:?}): {message}")
            }
            ClientError::Overloaded => write!(f, "server overloaded"),
            ClientError::ShuttingDown => write!(f, "server shutting down"),
            ClientError::Unexpected(m) => write!(f, "unexpected reply: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Retry policy for a [`Client`]: how it behaves when the transport dies
/// under a request. Server rejections are never retried whatever these
/// values say — only dead connections are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Reply/write timeout per exchange.
    pub read_timeout: Duration,
    /// Fresh connections a single request may consume after its original
    /// one dies. Zero disables reconnection entirely.
    pub reconnect_attempts: u32,
    /// Base delay before each reconnect attempt; doubles per attempt
    /// (`backoff`, `2·backoff`, `4·backoff`, …). Zero reconnects
    /// immediately.
    pub backoff: Duration,
}

impl Default for ClientConfig {
    /// The historical policy: one immediate reconnect, 30-second replies.
    fn default() -> ClientConfig {
        ClientConfig {
            read_timeout: Duration::from_secs(30),
            reconnect_attempts: 1,
            backoff: Duration::ZERO,
        }
    }
}

/// A blocking connection to a Quarry server.
pub struct Client {
    addr: SocketAddr,
    /// Replies are read through the buffer (a reply that fits it is one
    /// `recv`); requests are written to the socket inside it.
    stream: BufReader<TcpStream>,
    next_id: u64,
    cfg: ClientConfig,
}

impl Client {
    /// Connect with the default policy (30-second reply timeout, one
    /// immediate reconnect).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with_config(addr, ClientConfig::default())
    }

    /// Connect with an explicit reply timeout and the default reconnect
    /// policy.
    pub fn connect_with(addr: impl ToSocketAddrs, read_timeout: Duration) -> io::Result<Client> {
        Client::connect_with_config(addr, ClientConfig { read_timeout, ..ClientConfig::default() })
    }

    /// Connect with a full retry policy.
    pub fn connect_with_config(addr: impl ToSocketAddrs, cfg: ClientConfig) -> io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        let stream = BufReader::new(dial(addr, cfg.read_timeout, cfg.read_timeout)?);
        Ok(Client { addr, stream, next_id: 1, cfg })
    }

    /// True when the transport error indicates a dead connection worth
    /// one reconnect (as opposed to a timeout or a protocol violation).
    fn is_disconnect(e: &ClientError) -> bool {
        match e {
            ClientError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::BrokenPipe
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::NotConnected
                    | io::ErrorKind::UnexpectedEof
            ),
            ClientError::Frame(FrameError::Closed | FrameError::Truncated) => true,
            ClientError::Frame(FrameError::Io(e)) => {
                !matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
            }
            _ => false,
        }
    }

    fn exchange(&mut self, id: u64, req: &Request) -> Result<Response, ClientError> {
        write_request(self.stream.get_mut(), id, req)?;
        read_response(&mut self.stream, DEFAULT_MAX_FRAME).map_err(ClientError::Frame)
    }

    /// Send `req` and wait for its reply, reconnecting per the
    /// configured policy if the connection dies under it; only a read is
    /// resent (see the module docs). Server rejections pass straight
    /// through — only transport deaths are retried.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut attempt = 0u32;
        let resp = loop {
            let lost = match self.exchange(id, req) {
                Ok(resp) => break resp,
                Err(e) if Client::is_disconnect(&e) && attempt < self.cfg.reconnect_attempts => e,
                Err(e) => return Err(e),
            };
            let delay = self.cfg.backoff * 2u32.saturating_pow(attempt);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            attempt += 1;
            match dial(self.addr, self.cfg.read_timeout, self.cfg.read_timeout) {
                // The old buffer goes with the old socket: bytes of a reply
                // cut short must not prefix the next one.
                Ok(stream) => self.stream = BufReader::new(stream),
                // Connect refused/unreachable: keep burning attempts
                // against the same dead endpoint.
                Err(_) if attempt < self.cfg.reconnect_attempts => {}
                Err(ce) => return Err(ClientError::Io(ce)),
            }
            // At most once (module docs); the next request goes out on
            // whatever connection the dial above left.
            if req.is_write() {
                return Err(lost);
            }
        };
        // A protocol-error reply carries id 0 (the server could not
        // trust the request id); accept it so the cause surfaces.
        if resp.id != id && resp.id != 0 {
            return Err(ClientError::Unexpected(format!(
                "response id {} for request {id}",
                resp.id
            )));
        }
        Ok(resp)
    }

    /// Send `req` and map rejection payloads onto typed errors, handing
    /// back everything else.
    fn call(&mut self, req: &Request) -> Result<Payload, ClientError> {
        match self.request(req)?.payload {
            Payload::Error { kind, message } => Err(ClientError::Server { kind, message }),
            Payload::Overloaded => Err(ClientError::Overloaded),
            Payload::ShuttingDown => Err(ClientError::ShuttingDown),
            other => Ok(other),
        }
    }

    /// Send `req` and expect a bare acknowledgement.
    fn done(&mut self, req: &Request) -> Result<(), ClientError> {
        match self.call(req)? {
            Payload::Done => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Payload::Pong => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Run a structured query; returns `(columns, rows)`.
    pub fn query(&mut self, q: &Query) -> Result<(Vec<String>, Vec<Vec<Value>>), ClientError> {
        match self.call(&Request::Query(q.clone()))? {
            Payload::Rows { columns, rows } => Ok((columns, rows)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Run a QDL program on the server.
    pub fn qdl(&mut self, src: &str) -> Result<WireExecStats, ClientError> {
        match self.call(&Request::Qdl(src.to_string()))? {
            Payload::PipelineStats(stats) => Ok(stats),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Keyword search; returns ranked hits and suggested queries.
    pub fn keyword(
        &mut self,
        query: &str,
        k: usize,
    ) -> Result<(Vec<WireHit>, Vec<WireCandidate>), ClientError> {
        match self.call(&Request::KeywordSearch { query: query.to_string(), k })? {
            Payload::Hits { hits, candidates } => Ok((hits, candidates)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Explain a structured query's physical plan.
    pub fn explain(&mut self, q: &Query) -> Result<String, ClientError> {
        match self.call(&Request::Explain(q.clone()))? {
            Payload::Plan(plan) => Ok(plan),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Checkpoint the server's structured store.
    pub fn checkpoint(&mut self) -> Result<(), ClientError> {
        self.done(&Request::Checkpoint)
    }

    /// Fetch the server's unified metrics snapshot.
    pub fn stats(&mut self) -> Result<MetricsSnapshot, ClientError> {
        match self.call(&Request::Stats)? {
            Payload::Metrics(snap) => Ok(snap),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Ask the server to drain and shut down.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.done(&Request::Shutdown)
    }

    /// Create a table in the server's structured store.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<(), ClientError> {
        self.done(&Request::CreateTable(schema))
    }

    /// Create a secondary index.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<(), ClientError> {
        self.done(&Request::CreateIndex { table: table.to_string(), column: column.to_string() })
    }

    /// Insert a batch of rows as one transaction.
    pub fn insert_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<(), ClientError> {
        self.done(&Request::InsertRows { table: table.to_string(), rows })
    }

    /// Delete rows by primary key as one transaction.
    pub fn delete_rows(&mut self, table: &str, keys: Vec<Vec<Value>>) -> Result<(), ClientError> {
        self.done(&Request::DeleteRows { table: table.to_string(), keys })
    }
}
