//! Uncertainty management (blueprint Part V).
//!
//! IE, II, and HI all make fallible decisions; the blueprint dedicates a
//! subsystem to "the uncertainty that arise\[s\] during the IE, II, and HI
//! processes". This crate holds [`prob`]: confidence combination rules
//! (noisy-or for independent supporting evidence, products for
//! conjunctions, weighted fusion) and a calibration meter (Brier score,
//! expected calibration error, reliability bins) that E9 uses to check
//! whether extractor confidences are honest probabilities.
//!
//! Part V's other half, "the provenance and explanation for the derived
//! structured data", is not computed here: each stored cell's source is
//! written beside it by `STORE`, in the `_provenance` system table
//! (`quarry_lang::provenance`).

#![forbid(unsafe_code)]

pub mod prob;

pub use prob::{brier_score, noisy_or, CalibrationReport};
