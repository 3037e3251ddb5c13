//! The assembled end-to-end system (Figure 1 of the paper).
//!
//! [`Quarry`] wires every layer together behind one façade:
//!
//! - **physical layer** — extraction pipelines and pair scoring fan out
//!   over the [`quarry_exec::ExecPool`], which re-executes a failed
//!   task; `quarry-cluster` serves the result from sharded, replicated
//!   nodes;
//! - **storage layer** — raw pages land in a delta-encoded
//!   [`quarry_storage::SnapshotStore`], the final structure in the
//!   transactional [`quarry_storage::Database`];
//! - **processing layer** — QDL programs ([`quarry_lang`]) run IE
//!   ([`quarry_extract`]) + II ([`quarry_integrate`]) + HI ([`quarry_hi`]),
//!   watched by the semantic debugger ([`quarry_debugger`]); every stored
//!   cell's source is recorded beside it in the `_provenance` system table
//!   ([`quarry_lang::provenance`]) and read back by [`Snapshot::explain`];
//! - **user layer** — keyword search, query translation, forms, and
//!   sessions ([`quarry_query`]), plus user accounts with reputations and
//!   incentive points ([`users`]).
//!
//! [`incremental`] implements §3.2's "incremental, best-effort" generation:
//! structure is extracted only when a query first needs it. [`dge`] records
//! the data-generation-and-exploitation event log that makes the paper's
//! DGE model an inspectable artifact.

#![forbid(unsafe_code)]

pub mod dge;
pub mod feedback;
pub mod incremental;
pub mod monitor;
pub mod snapshot;
pub mod system;
pub mod users;

pub use dge::{DgeEvent, DgeLog};
pub use feedback::{Correction, CorrectionStatus, FeedbackQueue};
pub use incremental::IncrementalManager;
pub use monitor::{MonitorFire, MonitorSet};
pub use snapshot::{SharedQuarry, Snapshot};
pub use system::{Quarry, QuarryConfig, QuarryError};
pub use users::{UserAccount, UserDirectory};
