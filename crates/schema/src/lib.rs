//! Schema management and evolution (blueprint Part IV).
//!
//! Because structure is "generated in an incremental, best-effort fashion"
//! (§3.2), "in many cases the schema will evolve over time" — a city table
//! starts with just temperatures, later gains population, then splits a
//! combined `location` field. This crate provides [`evolution`]:
//! declarative evolution operations (add/drop/rename/retype/split/merge
//! column) that transform a schema *and* migrate its rows, with validity
//! checking (no dropping key columns, retypes must widen losslessly), and
//! [`migrate_table`], which applies them to a live table.
//!
//! There is no catalog here: a table's current schema is the one its
//! [`Database`](quarry_storage::Database) holds.

#![forbid(unsafe_code)]

pub mod evolution;

pub use evolution::{migrate_table, EvolutionError, EvolutionOp};
