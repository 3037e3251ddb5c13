//! Information-extraction (IE) operators.
//!
//! The processing layer of the blueprint starts from "a library of basic
//! operators" for extraction. This crate provides that library:
//!
//! - [`token`] — tokenizer and sentence splitter with exact byte offsets;
//! - [`regex`] — a from-scratch Thompson-NFA regular-expression engine (the
//!   offline build has no regex crate; the engine supports the subset the
//!   extractors need: classes, quantifiers, groups, alternation, anchors);
//! - [`infobox`] — `{{Infobox ...}}` attribute-value block parser;
//! - [`rules`] — contextual prose patterns ("In *March*, the average
//!   temperature in *Madison* is *35 °F*");
//! - [`dictionary`] — gazetteer (longest-match multi-token dictionary)
//!   extraction;
//! - [`normalize`] — value normalization (thousands separators, temperature
//!   unit spellings, dates) into typed [`quarry_storage::Value`]s;
//! - [`learned`] — a naive-Bayes token classifier usable as a trainable
//!   extractor, with calibrated posteriors as confidences;
//! - [`eval`] — precision/recall/F1 scoring against corpus ground truth.
//!
//! Every operator emits [`Extraction`]s: attribute-value pairs with the
//! source span, a confidence, and the producing extractor's name — the raw
//! material for integration, uncertainty tracking, and provenance.
//! Operators run over a corpus through `quarry_lang::extract`, the one
//! driver QDL's `EXTRACT` and every standalone caller use: it fans them
//! out on the executor pool, caches per (document, operator), and keeps
//! one witness per identity ([`model::dedup_order`],
//! [`model::dedup_sorted`]).

#![forbid(unsafe_code)]

pub mod dictionary;
pub mod distant;
pub mod eval;
pub mod infobox;
pub mod learned;
pub mod model;
pub mod normalize;
pub mod regex;
pub mod rules;
pub mod token;

pub use eval::{f1_score, PrF1};
pub use model::{Extraction, Span};
