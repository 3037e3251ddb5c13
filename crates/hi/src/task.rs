//! The HI question.
//!
//! Questions follow the paper's "easy to recognize, hard to generate"
//! principle (§3.3): a person is asked to *verify*, never to author
//! structure from scratch. Every caller asks the same yes/no question — do
//! these two renderings describe the same thing? (two records, or an
//! extracted event and the verdict it claims) — so there is one question
//! type, and an answer is a `bool`.

/// A yes/no question with its hidden ground truth.
///
/// The truth is known only because the corpus is synthetic; real systems
/// would not have it. Simulation code uses it to drive user error models and
/// to score outcomes — voting and aggregation code must never look at it
/// (it aggregates ballots only).
#[derive(Debug, Clone, PartialEq)]
pub struct Question {
    /// Caller-assigned id (indexes the caller's item list).
    pub id: usize,
    /// Rendering of the left record.
    pub left: String,
    /// Rendering of the right record.
    pub right: String,
    /// Hidden correct answer.
    pub truth: bool,
}

impl Question {
    /// "Do these two records describe the same real-world entity?"
    pub fn verify_match(id: usize, left: &str, right: &str, truth: bool) -> Question {
        Question { id, left: left.into(), right: right.into(), truth }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_constructor_carries_truth() {
        let q = Question::verify_match(0, "David Smith", "D. Smith", true);
        assert!(q.truth);
        assert_eq!((q.left.as_str(), q.right.as_str()), ("David Smith", "D. Smith"));
    }
}
