//! A small blocking client for the Quarry wire protocol.
//!
//! [`Client::request`] sends one frame and waits for the matching reply.
//! One rule, fixed in code, decides what follows a failed exchange:
//!
//! - Any failure — a transport error, a read timeout, a reply that does
//!   not decode, a reply carrying another request's id — drops the
//!   connection, and the next request dials afresh. A late reply is
//!   never read as the answer to a later request.
//! - A read whose connection died under it (`is_disconnect`: a server
//!   restart, an idle drop) is re-dialled and re-sent once, at once. A
//!   write ([`Request::is_write`]) is never re-sent: its reply may have
//!   been lost after it committed, and a resent `InsertRows` would answer
//!   `DuplicateKey` for rows that are there. It fails with the transport
//!   error, and the next request dials.
//! - A refusal ([`Payload::Overloaded`], [`Payload::ShuttingDown`]) is a
//!   reply, so it is never retried: it is the server's explicit back-off
//!   signal, surfaced to the caller as a typed error.

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
    /// Connection or transport failure.
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

/// A blocking connection to a Quarry server.
pub struct Client {
    addr: SocketAddr,
    /// Reply and write timeout of every exchange.
    read_timeout: Duration,
    /// `None` after a failed exchange, until the next request dials; the
    /// buffer goes with its socket, so no byte of a failed reply prefixes
    /// the next. Replies are read through the buffer (a reply that fits it
    /// is one `recv`); requests are written to the socket inside it.
    stream: Option<BufReader<TcpStream>>,
    next_id: u64,
}

/// True when `e` says the connection died under the exchange — the one
/// failure a read is re-sent for — as opposed to a timeout, a refused
/// dial or a reply that broke the protocol.
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

impl Client {
    /// Connect with a 30-second reply timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with(addr, Duration::from_secs(30))
    }

    /// Connect with an explicit reply timeout.
    pub fn connect_with(addr: impl ToSocketAddrs, read_timeout: Duration) -> io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        let stream = Some(BufReader::new(dial(addr, read_timeout, read_timeout)?));
        Ok(Client { addr, read_timeout, stream, next_id: 1 })
    }

    /// One exchange, on a fresh connection if the last one failed. Any
    /// failure drops the connection (module docs).
    fn exchange(&mut self, id: u64, req: &Request) -> Result<Response, ClientError> {
        let result = self.try_exchange(id, req);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn try_exchange(&mut self, id: u64, req: &Request) -> Result<Response, ClientError> {
        let stream = match &mut self.stream {
            Some(stream) => stream,
            None => {
                let fresh = dial(self.addr, self.read_timeout, self.read_timeout)?;
                self.stream.insert(BufReader::new(fresh))
            }
        };
        write_request(stream.get_mut(), id, req)?;
        let resp = read_response(stream, DEFAULT_MAX_FRAME).map_err(ClientError::Frame)?;
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

    /// Send `req` and wait for its reply; a read whose connection died is
    /// re-sent once on a fresh one (module docs). Server rejections pass
    /// straight through.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        match self.exchange(id, req) {
            Err(e) if is_disconnect(&e) && !req.is_write() => self.exchange(id, req),
            done => done,
        }
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
