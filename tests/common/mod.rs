//! Helpers shared by the integration suites.
#![allow(dead_code)] // each test binary uses a subset

use quarry::cluster::{Cluster, ClusterConfig};
use quarry::exec::MetricsSnapshot;
use quarry::serve::{ServeConfig, Server};
use quarry::storage::Database;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};

/// A unique temp WAL path for `name`, with any stale database files from
/// a previous run of this process id removed.
pub fn tmpwal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("quarry-int-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{name}-{}.wal", std::process::id()));
    remove_db_files(&p);
    p
}

/// Remove a database's WAL plus its checkpoint image and any stale
/// checkpoint build (same naming scheme as the engine).
pub fn remove_db_files(p: &Path) {
    let _ = std::fs::remove_file(p);
    let _ = std::fs::remove_file(p.with_extension("ckpt"));
    let _ = std::fs::remove_file(p.with_extension("ckpt-tmp"));
}

/// Canonical dump of a database's full logical state: every table's schema,
/// rows (in row-id order), and indexed columns. Two equal dumps mean
/// logically identical databases.
pub fn dump(db: &Database) -> String {
    dump_where(db, |_| true)
}

/// [`dump`] of the tables whose names `keep` accepts.
pub fn dump_where(db: &Database, keep: impl Fn(&str) -> bool) -> String {
    let mut out = String::new();
    for name in db.table_names().into_iter().filter(|name| keep(name)) {
        out.push_str(&format!("== {name} ==\n"));
        out.push_str(&format!("schema: {:?}\n", db.schema(&name).unwrap()));
        out.push_str(&format!("indexes: {:?}\n", db.snapshot().indexed_columns(&name).unwrap()));
        for row in db.snapshot().scan(&name).unwrap() {
            out.push_str(&format!("row: {row:?}\n"));
        }
    }
    out
}

/// An endpoint under test: the protocol suites run against a [`Server`]
/// over an empty façade and against the [`Router`](quarry::cluster::Router)
/// of a one-shard cluster, which share one accept / session / drain loop.
pub enum Sut {
    Server(Server),
    Router(Cluster),
}

impl Sut {
    /// A router over one shard with no replicas, its files under a fresh
    /// directory named after `name`.
    pub fn router(name: &str) -> Sut {
        Sut::router_with(name, ServeConfig::default())
    }

    /// The same, the shard serving under `serve`.
    pub fn router_with(name: &str, serve: ServeConfig) -> Sut {
        let dir = std::env::temp_dir()
            .join("quarry-int-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ClusterConfig { shards: 1, replicas_per_shard: 0, serve };
        Sut::Router(Cluster::start(&dir, cfg).unwrap())
    }

    /// Both kinds, labelled for assertion messages.
    pub fn both(name: &str) -> [(&'static str, Sut); 2] {
        let q = quarry::Quarry::new(quarry::QuarryConfig::default()).unwrap();
        let server = Server::start(q, "127.0.0.1:0", ServeConfig::default()).unwrap();
        [("server", Sut::Server(server)), ("router", Sut::router(name))]
    }

    pub fn addr(&self) -> SocketAddr {
        match self {
            Sut::Server(s) => s.local_addr(),
            Sut::Router(c) => c.router_addr(),
        }
    }

    /// The endpoint's own `server.*` counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        match self {
            Sut::Server(s) => s.metrics().snapshot(),
            Sut::Router(c) => c.router().metrics().snapshot(),
        }
    }

    /// Connections with a live session.
    pub fn sessions(&self) -> usize {
        match self {
            Sut::Server(s) => s.sessions(),
            Sut::Router(c) => c.router().sessions(),
        }
    }

    /// Shut down from the owner's handle; a no-op when a `Shutdown` frame
    /// got there first.
    pub fn stop(&mut self) {
        match self {
            Sut::Server(s) => s.begin_shutdown(),
            Sut::Router(c) => c.shutdown(),
        }
    }

    /// Wait for every thread of the endpoint to exit.
    pub fn join(self) {
        match self {
            Sut::Server(s) => drop(s.join()),
            Sut::Router(mut c) => c.shutdown(),
        }
    }
}

/// Poll `done` for up to ten seconds: for state another thread settles
/// just after the event the test caused.
pub fn eventually(what: &str, done: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !done() {
        assert!(std::time::Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
