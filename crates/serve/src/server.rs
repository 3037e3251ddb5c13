//! The façade behind the endpoint: [`Server`] is an [`Endpoint`] whose
//! handler executes requests against a [`Quarry`].
//!
//! Accepting, sessions, framing, admission, the `Shutdown` control frame
//! and drain are [`crate::endpoint`]'s. What is left here is *execution*,
//! which follows the façade's single-writer / snapshot-reader split
//! ([`SharedQuarry`]): a read captures an MVCC [`Snapshot`] and never
//! takes a lock a writer holds, so reads run concurrently with each other
//! *and* with an in-flight write. Only a `Qdl` takes the façade's writer
//! lock; a store write goes straight to the database and serializes at
//! its writer gate, one unit at a time, so a running pipeline holds up
//! the next pipeline and no store write. Each request is therefore
//! equivalent to a serial execution at one point of the write clock.

use crate::endpoint::Endpoint;
use crate::protocol::{ErrorKind, Payload, Request, WireCandidate, WireHit};
use quarry_core::{Quarry, QuarryError, SharedQuarry, Snapshot};
use quarry_exec::MetricsRegistry;
use quarry_storage::{is_system_table, StorageError};
use std::io;
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A hook invoked for each admitted request before it executes.
pub type RequestHook = Arc<dyn Fn(&Request) + Send + Sync>;

/// Server settings. `Default` suits tests and local serving; admission
/// is the constant [`MAX_IN_FLIGHT`](crate::endpoint::MAX_IN_FLIGHT).
#[derive(Clone)]
pub struct ServeConfig {
    /// Session read timeout. Timeouts do not close idle connections —
    /// they are wakeups where the session checks the shutdown flag.
    pub read_timeout: Duration,
    /// Test hook invoked after a request is admitted and before it
    /// executes; lets tests hold a request in flight deterministically.
    pub request_hook: Option<RequestHook>,
    /// Start in read-only mode: every write request is answered with
    /// [`ErrorKind::ReadOnly`]. Replicas serve this way until promotion
    /// flips it via [`Server::set_read_only`].
    pub read_only: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            read_timeout: Duration::from_millis(25),
            request_hook: None,
            read_only: false,
        }
    }
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("read_timeout", &self.read_timeout)
            .field("request_hook", &self.request_hook.as_ref().map(|_| "…"))
            .field("read_only", &self.read_only)
            .finish()
    }
}

/// The endpoint's handler. The façade is held as a [`SharedQuarry`] —
/// never wrapped in a mutex of its own — so read requests never contend
/// on a server-side lock (enforced by the `no_facade_mutex_in_serve`
/// source scan and audit rule QA103).
struct Facade {
    quarry: SharedQuarry,
    metrics: MetricsRegistry,
    read_only: AtomicBool,
    request_hook: Option<RequestHook>,
}

/// A running server. Dropping without [`Server::join`] still shuts the
/// threads down, but `join` is the way to get the façade back.
pub struct Server {
    facade: Arc<Facade>,
    endpoint: Endpoint,
}

/// `local_addr`, `in_flight`, `sessions` and `begin_shutdown` are the
/// endpoint's.
impl std::ops::Deref for Server {
    type Target = Endpoint;

    fn deref(&self) -> &Endpoint {
        &self.endpoint
    }
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving `quarry` with `cfg`.
    pub fn start(quarry: Quarry, addr: impl ToSocketAddrs, cfg: ServeConfig) -> io::Result<Server> {
        let metrics = quarry.metrics_registry();
        let facade = Arc::new(Facade {
            quarry: SharedQuarry::new(quarry),
            metrics: metrics.clone(),
            read_only: AtomicBool::new(cfg.read_only),
            request_hook: cfg.request_hook.clone(),
        });
        let (replica, handler) = (Arc::clone(&facade), Arc::clone(&facade));
        let endpoint = Endpoint::serve(
            "quarry-serve",
            addr,
            cfg.read_timeout,
            metrics,
            move |req| replica.refuse(req),
            move |req| handler.execute(req),
        )?;
        Ok(Server { facade, endpoint })
    }

    /// The registry the server and façade record into.
    pub fn metrics(&self) -> MetricsRegistry {
        self.facade.metrics.clone()
    }

    /// True while write requests are being rejected with
    /// [`ErrorKind::ReadOnly`].
    pub fn read_only(&self) -> bool {
        self.facade.read_only.load(Ordering::SeqCst)
    }

    /// Flip read-only mode. Promotion calls `set_read_only(false)` after
    /// the replica's applier has been promoted; requests already past
    /// the check finish under the old mode.
    pub fn set_read_only(&self, read_only: bool) {
        self.facade.read_only.store(read_only, Ordering::SeqCst);
    }

    /// Shut down (if not already draining), wait for every thread to
    /// finish, and hand the façade back with all drained work applied.
    pub fn join(self) -> Quarry {
        let facade = Arc::clone(&self.facade);
        drop(self); // Drop shuts down and joins every thread.
        match Arc::try_unwrap(facade) {
            Ok(facade) => facade.quarry.into_inner(),
            // quarry-audit: allow(QA101, reason = "drop(self) joined the accept thread, which owned the handler's clone, so no other Arc<Facade> can remain")
            Err(_) => unreachable!("all server threads joined; no other Facade handles exist"),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.endpoint.shutdown();
        // Every request has drained. Commits are synced already; a
        // replica's shipped frames are only flushed, so sync them too.
        let _ = self.facade.quarry.db().sync_wal();
    }
}

impl Facade {
    /// Invoke the test hook at a request's *execution point* — after a
    /// read has captured its snapshot, inside the writer critical section
    /// for a `Qdl`, before the gate for a store write — so a parked request
    /// holds exactly what it would hold while executing. The backpressure
    /// tests rely on this to prove a parked read blocks no other read, a
    /// parked write no read, and a parked `Qdl` no store write.
    fn run_hook(&self, req: &Request) {
        if let Some(hook) = &self.request_hook {
            hook(req);
        }
    }

    /// Answer `req` from an MVCC snapshot pinned to the write clock's
    /// current LSN, which the reply reflects; never touches the writer lock.
    fn read(
        &self,
        req: &Request,
        answer: impl FnOnce(&Snapshot) -> Result<Payload, QuarryError>,
    ) -> (Payload, u64) {
        let snap = self.quarry.snapshot();
        self.run_hook(req);
        (answer(&snap).unwrap_or_else(|e| error_payload(&e)), snap.lsn())
    }

    /// On a read-only (replica) node, the answer to a write; it is given
    /// before admission, so it costs no slot and is neither timed nor
    /// counted as a request error.
    fn refuse(&self, req: &Request) -> Option<Payload> {
        (self.read_only.load(Ordering::SeqCst) && req.is_write()).then(|| {
            self.metrics.incr("server.read_only_rejections", 1);
            let message = "replica is read-only; retry against the shard primary".into();
            Payload::Error { kind: ErrorKind::ReadOnly, message }
        })
    }

    /// Answer a write `req` after the hook has seen it whole, with the LSN
    /// read after its last commit. A `Qdl` runs under the writer lock and
    /// the hook sees it there; every other write goes straight to the
    /// store, whose gate serializes it with every other unit.
    fn write(&self, req: Request) -> (Payload, u64) {
        let result = match &req {
            Request::Qdl(src) => self.quarry.with_writer(|q| {
                self.run_hook(&req);
                q.run_pipeline(src).map(|stats| Payload::PipelineStats((&stats).into()))
            }),
            _ => {
                self.run_hook(&req);
                apply_write(&self.quarry, req)
            }
        };
        (result.unwrap_or_else(|e| error_payload(&e)), self.quarry.db().current_lsn())
    }

    /// Execute an admitted request against the façade, returning the
    /// payload and the write-clock LSN the response reflects.
    fn execute(&self, req: Request) -> (Payload, u64) {
        match &req {
            Request::Ping => {
                self.run_hook(&req);
                (Payload::Pong, 0)
            }
            Request::Query(query) => self.read(&req, |snap| {
                let r = snap.query(query)?;
                Ok(Payload::Rows { columns: r.columns, rows: r.rows })
            }),
            Request::KeywordSearch { query, k } => self.read(&req, |snap| {
                let (hits, candidates) = snap.keyword(query, *k);
                let hits = hits.into_iter().map(|h| WireHit { doc: h.doc.0, score: h.score });
                let candidates = candidates.into_iter().map(|c| WireCandidate {
                    query: c.query,
                    score: c.score,
                    explanation: c.explanation,
                });
                Ok(Payload::Hits { hits: hits.collect(), candidates: candidates.collect() })
            }),
            Request::Explain(query) => {
                self.read(&req, |snap| Ok(Payload::Plan(snap.explain_query(query)?)))
            }
            Request::Stats => self.read(&req, |snap| Ok(Payload::Metrics(snap.stats()))),
            Request::Qdl(_)
            | Request::Checkpoint
            | Request::CreateTable(_)
            | Request::CreateIndex { .. }
            | Request::InsertRows { .. }
            | Request::DeleteRows { .. } => self.write(req),
            // The endpoint answers the control frame itself.
            Request::Shutdown => (Payload::Done, 0),
        }
    }
}

/// Apply the store write `req`, whose parts move into the store: the rows
/// of an `InsertRows` are one batch, logged as one run, and become the
/// overlay's without a copy. A system table takes no write from a client.
fn apply_write(quarry: &SharedQuarry, req: Request) -> Result<Payload, QuarryError> {
    let db = quarry.db();
    let unreserved = |table: &str| match is_system_table(table) {
        true => Err(StorageError::SchemaViolation(format!("{table} is a system table"))),
        false => Ok(()),
    };
    match req {
        Request::Checkpoint => quarry.checkpoint()?,
        Request::CreateTable(schema) => {
            unreserved(&schema.name)?;
            db.create_table(schema)?;
        }
        Request::CreateIndex { table, column } => {
            unreserved(&table)?;
            db.create_index(&table, &column)?;
        }
        Request::InsertRows { table, rows } => {
            unreserved(&table)?;
            db.in_tx(|tx| db.insert_rows(tx, &table, rows))?;
        }
        Request::DeleteRows { table, keys } => {
            unreserved(&table)?;
            db.in_tx(|tx| keys.iter().try_for_each(|key| db.delete(tx, &table, key)))?;
        }
        // `Facade::write` runs a pipeline; `Facade::execute` answers reads.
        _ => {
            return Ok(Payload::Error { kind: ErrorKind::Protocol, message: "not a write".into() })
        }
    }
    Ok(Payload::Done)
}

/// Map a façade error onto the wire, preserving the variant and the
/// rendered message so clients (and the differential tests) can compare
/// failures exactly.
fn error_payload(e: &QuarryError) -> Payload {
    let kind = match e {
        QuarryError::Parse(_) => ErrorKind::Parse,
        QuarryError::Pipeline(_) => ErrorKind::Pipeline,
        QuarryError::Storage(_) => ErrorKind::Storage,
        QuarryError::Query(_) => ErrorKind::Query,
        QuarryError::Corpus(_) => ErrorKind::Corpus,
        QuarryError::Integrate(_) => ErrorKind::Integrate,
        QuarryError::Lint(_) => ErrorKind::Lint,
    };
    Payload::Error { kind, message: e.to_string() }
}

#[cfg(test)]
mod tests {
    /// The serve path must never wrap the façade in a mutex again: reads
    /// go through snapshots, store writes to the database's gate, and
    /// only a `Qdl` through `SharedQuarry::with_writer`.
    /// Scan this crate's sources for the banned token (assembled from
    /// parts so this test doesn't match itself); audit rule QA103 holds
    /// the whole workspace to the same ban.
    #[test]
    fn no_facade_mutex_in_serve() {
        let banned = format!("Mutex<{}>", "Quarry");
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        for entry in std::fs::read_dir(&src).expect("read crate src dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("read source file");
            assert!(
                !text.contains(&banned),
                "{} reintroduces {banned}: serve reads must stay lock-free",
                path.display()
            );
        }
    }
}
