//! Synthetic unstructured-data substrate for Quarry.
//!
//! The CIDR 2009 paper's running example is a "slice of the Web" — Wikipedia
//! pages whose prose and infoboxes carry structured facts (monthly
//! temperatures, populations, people, employers). Real Wikipedia has no
//! machine-readable ground truth, so this crate generates a deterministic
//! wiki-like corpus *together with* the ground-truth fact tables, enabling
//! every downstream accuracy measurement (extraction F1, entity-resolution
//! F1, debugger precision/recall, query answer correctness).
//!
//! Everything is seeded: the same [`CorpusConfig`] always yields the same
//! corpus, byte for byte.
//!
//! # Quick start
//!
//! ```
//! use quarry_corpus::{CorpusConfig, Corpus};
//!
//! let corpus = Corpus::generate(&CorpusConfig { n_cities: 5, seed: 42, ..Default::default() });
//! assert_eq!(corpus.truth.cities.len(), 5);
//! let doc = &corpus.docs[0];
//! assert!(doc.text.contains("Infobox"));
//! ```

#![forbid(unsafe_code)]

pub mod corruption;
pub mod crawl;
pub mod generator;
pub mod names;
pub mod noise;
pub mod render;
pub mod sensor;
pub mod truth;
pub mod types;

pub use corruption::{
    apply_log, corrupt_table, CorruptionConfig, CorruptionKind, CorruptionLog, InjectedError,
};
pub use crawl::{CrawlConfig, CrawlSimulator, Snapshot};
pub use generator::{Corpus, CorpusConfig, CorpusError};
pub use noise::NoiseConfig;
pub use truth::{CityFact, CompanyFact, GroundTruth, PersonFact, PublicationFact};
pub use types::{DocId, DocKind, Document};
