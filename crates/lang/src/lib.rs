//! QDL — Quarry's declarative IE+II+HI language (blueprint Parts I–II).
//!
//! "At the heart of this layer is a data model, a declarative language
//! (over this data model) that combines IE, II, and HI, and a library of
//! basic operators. ... These programs can be parsed, reformulated,
//! optimized, then executed." A QDL program:
//!
//! ```text
//! PIPELINE city_facts
//! FROM corpus
//! EXTRACT infobox, rules
//! WHERE attribute IN ("population", "state") AND confidence >= 0.6
//! RESOLVE BY name
//! CURATE BUDGET 50 VOTES 3
//! STORE INTO cities KEY name
//! ```
//!
//! - [`ast`] + [`lexer`] + [`parser`] — surface syntax; programs print and
//!   re-parse losslessly (property-tested);
//! - [`registry`] — the operator library: named extractors with declared
//!   output-attribute signatures and per-document costs;
//! - [`lint`] — the static semantic analyzer: span-anchored QL001–QL008
//!   diagnostics against the registry and the database's tables;
//! - [`compile`](mod@compile) — the one place a program is checked: one
//!   parse, one [`analyze`], lowering with `WHERE` placed, into the
//!   [`CheckedProgram`] that is all the executor runs;
//! - [`plan`] — logical plans and the rule-based optimizer (extractor
//!   pruning against WHERE clauses, cost ordering), plus `EXPLAIN`;
//! - [`exec`] — the executor: runs a checked program over documents,
//!   resolves entities, routes uncertain decisions to an HI oracle, and
//!   stores the result, reporting per-step statistics;
//! - [`provenance`] — the `_provenance` system table: each stored cell's
//!   source, written in the transaction that writes the cell.

#![forbid(unsafe_code)]

pub mod ast;
pub mod compile;
pub mod exec;
pub mod lexer;
pub mod lint;
pub mod parser;
pub mod plan;
pub mod provenance;
pub mod registry;

pub use ast::{Condition, Pipeline, ProgramSpans, Step};
pub use compile::{compile, compile_script, CheckedProgram, CompileError};
pub use exec::{ExecContext, ExecStats, Executor};
pub use lint::{analyze, lint_source};
pub use parser::{parse, parse_spanned};
pub use plan::{optimize, LogicalPlan, PlanOp};
pub use registry::ExtractorRegistry;
