//! `quarry-serve`: the network front door for a Quarry system.
//!
//! The source paper frames its blueprint as a shared *service* over
//! extracted structure — queries, keyword search, and feedback all
//! arrive from many concurrent users. This crate puts the
//! [`Quarry`](quarry_core::Quarry) façade behind a TCP socket using only
//! `std::net` (no async runtime, matching the std-only pattern of
//! `quarry_exec`):
//!
//! - [`protocol`] — length-prefixed binary frames with CRC torn-frame
//!   detection carrying JSON requests/responses (byte layout documented
//!   in `docs/serving.md`); the only module that names the encoding.
//! - [`endpoint`] — the one listener of the serving tier: accept thread,
//!   a thread per session under a constant cap, the frame loop, admission
//!   control with explicit `Overloaded` rejections, and graceful
//!   drain-then-stop shutdown driven by a control frame.
//! - [`server`] — that endpoint over the façade: reads on MVCC snapshots,
//!   writes through the single-writer lock.
//! - [`client`] — a blocking client under one reconnect rule: a failed
//!   exchange drops the connection, and only a read whose connection died
//!   is re-sent, once; used by the tests, the router's shard legs and the
//!   `quarry_bench` harness.
//! - [`replication`] — primary→replica WAL shipping: the same listener
//!   streaming committed WAL frames and a client that applies them through
//!   the storage layer's convergent replay path (`docs/replication.md`).

#![forbid(unsafe_code)]

pub mod client;
pub mod endpoint;
pub mod protocol;
pub mod replication;
pub mod server;

pub use client::{Client, ClientError};
pub use protocol::{
    ErrorKind, FrameError, Payload, Request, Response, WireCandidate, WireExecStats, WireHit,
};
pub use replication::{ReplicaProgress, ReplicaStatus, ReplicationClient, ReplicationListener};
pub use server::{RequestHook, ServeConfig, Server};
