//! The "final structure" store: a small relational engine.
//!
//! The blueprint argues the final extracted structure — edited concurrently
//! by many users — belongs in an RDBMS "to ensure fast and correct
//! concurrency control". This module is that engine, from scratch:
//!
//! - typed, schema-checked tables with primary keys ([`table`]);
//! - secondary B-tree indexes maintained on every write ([`index`]);
//! - serial transactions: one is open at a time, the next `begin()` waits
//!   for its commit or abort ([`engine`]);
//! - a write-ahead log ([`recovery`]: the record schema) and redo recovery
//!   that restores exactly the committed prefix after a crash;
//! - lock-free MVCC snapshot reads pinned to a write-clock LSN ([`view`]);
//! - the [`Database`] façade tying them together ([`engine`]).
//!
//! Private layers under the façade, each importing only from the ones
//! before it: `pmap` (the structurally shared ordered map every overlay
//! collection is) ← [`index`] ← `paged` (checkpoint-image reads and tree
//! building) ← `overlay` (per-table in-memory state, undo, and the one
//! redo path) ← `checkpoint` (image publication and open-time recovery)
//! and the seed capture in [`replication`] ← [`engine`] (the writer
//! gate, transactions, the WAL handle).

mod checkpoint;
pub mod engine;
#[cfg(test)]
mod fixtures;
pub mod index;
mod overlay;
pub(crate) mod paged;
mod pmap;
pub mod recovery;
pub mod replication;
pub mod table;
pub mod view;

pub use engine::{Database, TxId};
pub use overlay::IndexStats;
pub use recovery::LogRecord;
pub use replication::{ReplicaApplier, ReplicaPosition, ReplicationSeed};
pub use table::{is_system_table, Column, Row, RowId, TableSchema};
pub use view::{DbSnapshot, ScanAccess, TableView};
