//! Quarry: an end-to-end system for managing unstructured data by
//! extracting, integrating, and curating the structure hidden inside it.
//!
//! This façade crate re-exports every subsystem of the workspace under one
//! namespace. See the README for the architecture overview and DESIGN.md for
//! the subsystem inventory.
//!
//! - [`corpus`] — synthetic wiki corpus with ground truth (the data substrate)
//! - [`storage`] — snapshot store, filestore, and mini-RDBMS (storage layer)
//! - [`extract`] — information-extraction operators (processing layer, IE)
//! - [`integrate`] — information-integration operators (processing layer, II)
//! - [`hi`] — human-intervention simulation: oracles, crowds, reputation
//! - [`uncertainty`] — confidence combination and calibration
//! - [`lang`] — the declarative IE+II+HI language and its optimizer
//! - [`schema`] — schema evolution and live-table migration
//! - [`debugger`] — the semantic debugger
//! - [`query`] — keyword search, structured queries, query translation
//! - [`cluster`] — sharded, replicated serving: router, ring, failover
//!   (physical layer)
//! - [`exec`] — work-stealing parallel executor for the IE/II hot paths,
//!   with per-task re-execution (physical layer)
//! - [`core`] — the assembled end-to-end system
//! - [`serve`] — the TCP serving layer: wire protocol, sessions,
//!   admission control, and a blocking client (see `docs/serving.md`)
//!
//! The most-used entry points are re-exported at the crate root; the
//! registry's operators run standalone through the driver `EXTRACT` uses:
//!
//! ```
//! use quarry::corpus::{Corpus, CorpusConfig};
//! use quarry::lang::{extract, ExecStats, ExtractionCache, ExtractorRegistry};
//! use quarry::{ExecPool, ExecReport, Quarry, QuarryConfig};
//!
//! let config = QuarryConfig::builder().threads(2).build();
//! let system = Quarry::new(config).unwrap();
//! drop(system);
//!
//! let corpus = Corpus::generate(&CorpusConfig::tiny(1));
//! let registry = ExtractorRegistry::standard();
//! let (pool, cache) = (ExecPool::new(2), ExtractionCache::default());
//! let (mut report, mut stats) = (ExecReport::new(), ExecStats::default());
//! let names = ["infobox", "rules"];
//! let exts = extract(&registry, &names, &corpus.docs, &pool, &cache, &mut report, &mut stats);
//! assert!(!exts.unwrap().is_empty());
//! ```

#![forbid(unsafe_code)]

pub use quarry_audit as audit;
pub use quarry_cluster as cluster;
pub use quarry_core as core;
pub use quarry_corpus as corpus;
pub use quarry_debugger as debugger;
pub use quarry_exec as exec;
pub use quarry_extract as extract;
pub use quarry_hi as hi;
pub use quarry_integrate as integrate;
pub use quarry_lang as lang;
pub use quarry_lint as lint;
pub use quarry_query as query;
pub use quarry_schema as schema;
pub use quarry_serve as serve;
pub use quarry_storage as storage;
pub use quarry_uncertainty as uncertainty;

pub use quarry_core::{Quarry, QuarryConfig, QuarryError, SharedQuarry, Snapshot};
pub use quarry_exec::{Diagnostic, ExecPool, ExecReport, LintReport, Severity, Span};
pub use quarry_extract::Extraction;
