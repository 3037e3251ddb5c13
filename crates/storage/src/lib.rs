//! Quarry's data storage layer.
//!
//! The CIDR 2009 blueprint stores "all forms of data" — raw crawled pages,
//! intermediate structured data, final structured data, and user
//! contributions — and argues each form wants a different device:
//!
//! - overlapping daily crawl snapshots → a *diff-based* store
//!   ([`snapshot::SnapshotStore`], Subversion-style delta encoding);
//! - intermediate structured data, read/written sequentially → an
//!   append-only file store ([`filestore::FileStore`]);
//! - the final structure, edited concurrently by many users → an RDBMS
//!   ([`structured::Database`]: typed tables, secondary indexes, serial
//!   transactions under MVCC snapshot reads, WAL-based crash recovery).
//!
//! All three are built from scratch here, on the shared primitives in
//! [`delta`] (line diffs) and [`wal`] (checksummed log records).

#![forbid(unsafe_code)]

pub mod btree;
pub mod codec;
pub mod delta;
pub mod error;
pub mod faultfs;
pub mod filestore;
pub mod page;
pub mod pager;
pub mod snapshot;
pub mod structured;
pub mod value;
pub mod wal;

pub use btree::{BTree, Cursor, KeyOrder};
pub use error::StorageError;
pub use faultfs::{BackendFile, CrashPlan, FaultBackend, Op, RealBackend, StorageBackend};
pub use filestore::FileStore;
pub use page::{Page, PageType, PAGE_CAPACITY, PAGE_SIZE};
pub use pager::{Pager, PoolStats};
pub use snapshot::{SnapshotStats, SnapshotStore};
pub use structured::{
    is_system_table, Column, Database, DbSnapshot, IndexStats, ReplicaApplier, ReplicaPosition,
    ReplicationSeed, Row, RowId, ScanAccess, TableSchema, TableView, TxId,
};
pub use value::{DataType, Value};
pub use wal::{FrameBuf, TailPoll, Wal, WalTail};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, StorageError>;
