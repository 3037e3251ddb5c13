//! Uncertainty management and provenance (blueprint Part V).
//!
//! IE, II, and HI all make fallible decisions; the blueprint dedicates a
//! subsystem to "the uncertainty that arise\[s\] during the IE, II, and HI
//! processes" and to "the provenance and explanation for the derived
//! structured data". Three pieces:
//!
//! - [`prob`] — confidence combination rules (noisy-or for independent
//!   supporting evidence, products for conjunctions, weighted fusion) and a
//!   calibration meter (Brier score, reliability bins) used by E9;
//! - [`lineage`] — a provenance DAG from source spans through operator
//!   applications to derived tuples, with human-readable explanations;
//! - [`worlds`] — possible-worlds semantics over independent uncertain
//!   tuples: world enumeration and marginal probabilities for small sets.

#![forbid(unsafe_code)]

pub mod lineage;
pub mod prob;
pub mod worlds;

pub use lineage::{LineageGraph, NodeId, NodeKind};
pub use prob::{brier_score, noisy_or, CalibrationReport};
pub use worlds::WorldSet;
