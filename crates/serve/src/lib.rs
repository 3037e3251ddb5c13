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
//!   in `docs/serving.md`).
//! - [`server`] — accept loop, bounded worker set, per-connection
//!   sessions with timeouts and frame-size limits, admission control
//!   with explicit `Overloaded` rejections, and graceful drain-then-stop
//!   shutdown driven by a control frame.
//! - [`client`] — a blocking client with configurable bounded
//!   reconnect/backoff, used by the tests and the `quarry_bench` harness.
//! - [`replication`] — primary→replica WAL shipping: a listener that
//!   streams committed WAL frames and a client that applies them through
//!   the storage layer's convergent replay path (`docs/replication.md`).

#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod replication;
pub mod server;

pub use client::{Client, ClientConfig, ClientError};
pub use protocol::{
    ErrorKind, FrameError, Payload, Request, Response, WireCandidate, WireExecStats, WireHit,
};
pub use replication::{
    ReplicaProgress, ReplicaStatus, ReplicationClient, ReplicationClientConfig, ReplicationListener,
};
pub use server::{RequestHook, ServeConfig, Server};
