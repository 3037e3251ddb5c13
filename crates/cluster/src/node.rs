//! Process supervision for a serving cluster on one machine.
//!
//! A [`Cluster`] is N shards behind one [`Router`]. Each shard is a
//! primary `quarry-serve` [`Server`] with a replication listener
//! streaming its WAL to R read-only [`Replica`]s. Everything runs on
//! loopback TCP with OS threads — a laptop-scale simulation that still
//! exercises the real wire protocol, the real WAL-shipping transport,
//! and the real promotion path.
//!
//! Failover choreography (see `docs/replication.md`):
//!
//! 1. [`Cluster::kill_primary`] drops the primary's server and
//!    replication listener (replicas see the transport die and retry
//!    with bounded backoff);
//! 2. [`Cluster::promote`] promotes one replica's applier (discarding
//!    transactions whose commits never arrived), flips its server
//!    writable, and retargets the router at it;
//! 3. traffic to that shard resumes on the next request — the router
//!    dials the updated topology entry.
//!
//! Promotion is operator-driven (here: test- or bench-driven). There is
//! no automatic failover or failback; a single writer per shard is the
//! split-brain stance.

use crate::router::Router;
use quarry_core::{Quarry, QuarryConfig};
use quarry_serve::replication::{ReplicationClient, ReplicationListener};
use quarry_serve::{Client, ServeConfig, Server};
use quarry_storage::Database;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cluster shape.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of shards (each its own primary database).
    pub shards: usize,
    /// Read-only replicas tailing each primary.
    pub replicas_per_shard: usize,
    /// Serving config for every node (read-only is forced on replicas).
    pub serve: ServeConfig,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig { shards: 3, replicas_per_shard: 1, serve: ServeConfig::default() }
    }
}

/// A shard primary: writable server plus the WAL-shipping listener.
pub struct Primary {
    server: Server,
    listener: ReplicationListener,
    db: Arc<Database>,
}

impl Primary {
    /// The primary's serving address.
    pub fn serve_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Where replicas connect for the WAL stream.
    pub fn replication_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// The primary's database handle.
    pub fn database(&self) -> Arc<Database> {
        Arc::clone(&self.db)
    }

    /// Underlying server handle.
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// The replication listener (progress inspection).
    pub fn listener(&self) -> &ReplicationListener {
        &self.listener
    }
}

/// A read-only replica: serving reads while tailing the primary's WAL.
pub struct Replica {
    server: Server,
    client: ReplicationClient,
    db: Arc<Database>,
}

impl Replica {
    /// The replica's (read-only) serving address.
    pub fn serve_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The replica's database handle.
    pub fn database(&self) -> Arc<Database> {
        Arc::clone(&self.db)
    }

    /// The shipping client (position/status inspection).
    pub fn replication(&self) -> &ReplicationClient {
        &self.client
    }
}

/// One shard: a primary (until killed) and its replicas.
pub struct Shard {
    /// The writable node; `None` after [`Cluster::kill_primary`].
    pub primary: Option<Primary>,
    /// Replicas still tailing (or promoted away and removed).
    pub replicas: Vec<Replica>,
}

/// A full sharded cluster: N shards, R replicas each, one router.
pub struct Cluster {
    router: Router,
    shards: Vec<Shard>,
}

fn spawn_primary(dir: &Path, shard: usize, serve: &ServeConfig) -> io::Result<Primary> {
    let quarry = make_quarry(&dir.join(format!("shard{shard}-primary.wal")))?;
    let db = Arc::clone(&quarry.db);
    let server = Server::start(quarry, "127.0.0.1:0", serve.clone())?;
    let listener = ReplicationListener::start(Arc::clone(&db), "127.0.0.1:0")?;
    Ok(Primary { server, listener, db })
}

fn spawn_replica(
    dir: &Path,
    shard: usize,
    idx: usize,
    primary_repl: SocketAddr,
    serve: &ServeConfig,
) -> io::Result<Replica> {
    let quarry = make_quarry(&dir.join(format!("shard{shard}-replica{idx}.wal")))?;
    let db = Arc::clone(&quarry.db);
    let cfg = ServeConfig { read_only: true, ..serve.clone() };
    let server = Server::start(quarry, "127.0.0.1:0", cfg)?;
    let client = ReplicationClient::start(Arc::clone(&db), primary_repl);
    Ok(Replica { server, client, db })
}

fn make_quarry(wal: &PathBuf) -> io::Result<Quarry> {
    Quarry::new(QuarryConfig::builder().wal_path(wal).build())
        .map_err(|e| io::Error::other(format!("quarry open: {e}")))
}

impl Cluster {
    /// Bring up a whole cluster under `dir` (one WAL file per node).
    pub fn start(dir: &Path, cfg: ClusterConfig) -> io::Result<Cluster> {
        if cfg.shards == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "cluster needs >= 1 shard"));
        }
        let mut shards = Vec::with_capacity(cfg.shards);
        for s in 0..cfg.shards {
            let primary = spawn_primary(dir, s, &cfg.serve)?;
            let repl_addr = primary.replication_addr();
            let mut replicas = Vec::with_capacity(cfg.replicas_per_shard);
            for r in 0..cfg.replicas_per_shard {
                replicas.push(spawn_replica(dir, s, r, repl_addr, &cfg.serve)?);
            }
            shards.push(Shard { primary: Some(primary), replicas });
        }
        let addrs: Vec<SocketAddr> =
            shards.iter().filter_map(|s| s.primary.as_ref().map(Primary::serve_addr)).collect();
        let router = Router::start(addrs, "127.0.0.1:0")?;
        Ok(Cluster { router, shards })
    }

    /// The router's address — what clients dial.
    pub fn router_addr(&self) -> SocketAddr {
        self.router.local_addr()
    }

    /// A connected client against the router.
    pub fn client(&self) -> io::Result<Client> {
        Client::connect(self.router_addr())
    }

    /// The router handle (retargeting, shard count).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Shard state, for inspection.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Drop shard `s`'s primary: the server drains, the replication
    /// listener closes, replicas start retrying. Requests routed to the
    /// shard fail `Unavailable` until a replica is promoted.
    pub fn kill_primary(&mut self, s: usize) {
        if let Some(shard) = self.shards.get_mut(s) {
            shard.primary = None;
        }
    }

    /// Promote shard `s`'s replica `r`: stop shipping, discard
    /// uncommitted tail state, flip its server writable, retarget the
    /// router. The promoted node is removed from the replica list (it is
    /// no longer one).
    pub fn promote(&mut self, s: usize, r: usize) -> io::Result<()> {
        let shard = self
            .shards
            .get_mut(s)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no such shard"))?;
        if r >= shard.replicas.len() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "no such replica"));
        }
        let mut replica = shard.replicas.remove(r);
        replica.client.promote().map_err(|e| io::Error::other(format!("promote: {e}")))?;
        replica.server.set_read_only(false);
        self.router.retarget(s, replica.serve_addr());
        // The promoted node becomes the shard's primary, with a listener
        // of its own for new replicas; re-chaining the shard's remaining
        // replicas onto it is future work (docs/replication.md).
        let listener = ReplicationListener::start(Arc::clone(&replica.db), "127.0.0.1:0")?;
        shard.primary = Some(Primary { server: replica.server, listener, db: replica.db });
        Ok(())
    }

    /// Wait until every replica of shard `s` has applied and acked the
    /// primary's full WAL (same checkpoint epoch, offset caught up).
    /// Returns `false` on timeout or if the shard has no primary.
    pub fn await_replicas_caught_up(&self, s: usize, timeout: Duration) -> bool {
        let Some(shard) = self.shards.get(s) else { return false };
        let Some(primary) = shard.primary.as_ref() else { return false };
        let deadline = Instant::now() + timeout;
        loop {
            let epoch = primary.db.checkpoint_epoch();
            let len = primary.db.wal_len();
            let caught = shard.replicas.iter().all(|r| {
                let pos = r.client.position();
                pos.epoch == epoch && pos.offset >= len
            });
            let progress = primary.listener.progress();
            let acked = progress.iter().filter(|p| p.epoch == epoch && p.acked >= len).count();
            if caught && acked >= shard.replicas.len() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Shut the router down, then every node. Replicas first so their
    /// transports see live primaries for as long as possible.
    pub fn shutdown(&mut self) {
        self.router.shutdown();
        for shard in &mut self.shards {
            for replica in &mut shard.replicas {
                replica.client.stop();
            }
            shard.replicas.clear();
            shard.primary = None;
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
