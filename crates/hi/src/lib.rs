//! Human intervention (HI), simulated.
//!
//! The paper's central bet is that end-to-end systems for unstructured data
//! must keep humans in the loop: automatic IE/II "often will not be 100%
//! accurate", while people — especially crowds of them, Web 2.0 style — can
//! verify what machines cannot generate. This crate models that loop with
//! *simulated* users whose error rates are known, so every claim about HI
//! (accuracy vs. budget, crowd size, reputation weighting, task selection)
//! becomes measurable. The substitution is recorded in DESIGN.md §2.
//!
//! - [`task`] — the question types a system may route to people;
//! - [`oracle`] — simulated users: configurable accuracy, bias, unit cost;
//! - [`crowd`] — panels of users, majority and reputation-weighted voting;
//! - [`reputation`] — Beta-posterior reliability tracking per user;
//! - [`policy`] — which task to spend the next budget unit on (random /
//!   uncertainty sampling / model-disagreement);
//! - [`mod@curate`] — the generic HI repair loop: take uncertain automatic
//!   decisions, spend budget, return curated decisions.

#![forbid(unsafe_code)]

pub mod crowd;
pub mod curate;
pub mod oracle;
pub mod policy;
pub mod reputation;
pub mod task;

pub use crowd::{Crowd, VoteOutcome};
pub use curate::{curate, CurateConfig, CurateReport, UncertainItem};
pub use oracle::{SimulatedUser, UserId};
pub use policy::SelectionPolicy;
pub use reputation::ReputationTracker;
pub use task::{Answer, Question, QuestionKind};
