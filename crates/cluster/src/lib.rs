//! The physical layer's serving cluster.
//!
//! The source paper's physical layer has two jobs. For *computation* —
//! "given that IE and II are often very computation intensive ... we
//! need parallel processing in the physical layer" — the answer is
//! [`quarry_exec::ExecPool`], which runs every extraction and pair-scoring
//! stage and re-executes a failed task. For *serving*, the extracted
//! structured store must be a shared service: many users querying
//! concurrently, surviving the loss of a machine. This crate is that
//! serving cluster, simulated with OS threads and loopback TCP on one
//! machine:
//!
//! - [`ring`] — a consistent-hash ring placing every primary key on
//!   exactly one shard, stable across router instances;
//! - [`router`] — a wire-protocol front door fanning requests out over
//!   the shards and merging replies deterministically;
//! - [`node`] — process supervision: shard primaries with WAL-shipping
//!   replication listeners, read-only replicas applying the stream,
//!   kill/promote/retarget failover choreography.
//!
//! The replication transport itself lives in `quarry_serve::replication`
//! (it is part of the serving wire surface); this crate composes it into
//! whole clusters. See `docs/replication.md` and `docs/serving.md`.

#![forbid(unsafe_code)]

pub mod node;
pub mod ring;
pub mod router;

pub use node::{Cluster, ClusterConfig, Primary, Replica, Shard};
pub use ring::HashRing;
pub use router::Router;
