//! HI question types.
//!
//! Questions follow the paper's "easy to recognize, hard to generate"
//! principle (§3.3): every kind asks a human to *verify or choose*, never to
//! author structure from scratch.

/// What the user is being asked to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuestionKind {
    /// "Do these two records describe the same real-world entity?"
    VerifyMatch {
        /// Rendering of the left record.
        left: String,
        /// Rendering of the right record.
        right: String,
    },
    /// "Is this extracted value correct for this attribute of this page?"
    ValidateValue {
        /// Attribute name.
        attribute: String,
        /// The extracted value.
        value: String,
        /// Context excerpt from the source page.
        context: String,
    },
    /// "Which of these query forms matches your information need?"
    ChooseForm {
        /// Candidate form renderings.
        options: Vec<String>,
    },
    /// "Does this schema attribute correspond to that one?"
    VerifyAttributeMatch {
        /// Left attribute label with sample values.
        left: String,
        /// Right attribute label with sample values.
        right: String,
    },
}

/// A user's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Answer {
    /// Yes/no verdict (for verify/validate questions).
    Bool(bool),
    /// Selected option index (for choose questions).
    Choice(usize),
}

impl Answer {
    /// Boolean view; panics on a choice answer.
    pub fn as_bool(&self) -> bool {
        match self {
            Answer::Bool(b) => *b,
            Answer::Choice(_) => panic!("choice answer where bool expected"),
        }
    }
}

/// A question with its hidden ground truth.
///
/// The truth is known only because the corpus is synthetic; real systems
/// would not have it. Simulation code uses it to drive user error models and
/// to score outcomes — voting and aggregation code must never look at it
/// (enforced by keeping aggregation functions generic over answers only).
#[derive(Debug, Clone, PartialEq)]
pub struct Question {
    /// Caller-assigned id (indexes the caller's item list).
    pub id: usize,
    /// What is being asked.
    pub kind: QuestionKind,
    /// Hidden correct answer.
    pub truth: Answer,
}

impl Question {
    /// Build a yes/no match-verification question.
    pub fn verify_match(id: usize, left: &str, right: &str, truth: bool) -> Question {
        Question {
            id,
            kind: QuestionKind::VerifyMatch { left: left.into(), right: right.into() },
            truth: Answer::Bool(truth),
        }
    }

    /// Build a value-validation question.
    pub fn validate_value(
        id: usize,
        attribute: &str,
        value: &str,
        context: &str,
        truth: bool,
    ) -> Question {
        Question {
            id,
            kind: QuestionKind::ValidateValue {
                attribute: attribute.into(),
                value: value.into(),
                context: context.into(),
            },
            truth: Answer::Bool(truth),
        }
    }

    /// Build a form-choice question.
    pub fn choose_form(id: usize, options: Vec<String>, correct: usize) -> Question {
        assert!(correct < options.len(), "correct option out of range");
        Question { id, kind: QuestionKind::ChooseForm { options }, truth: Answer::Choice(correct) }
    }

    /// Number of possible answers (2 for boolean kinds).
    pub fn n_options(&self) -> usize {
        match &self.kind {
            QuestionKind::ChooseForm { options } => options.len(),
            _ => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_carry_truth() {
        let q = Question::verify_match(0, "David Smith", "D. Smith", true);
        assert_eq!(q.truth, Answer::Bool(true));
        assert_eq!(q.n_options(), 2);

        let q = Question::choose_form(1, vec!["a".into(), "b".into(), "c".into()], 2);
        assert_eq!(q.truth, Answer::Choice(2));
        assert_eq!(q.n_options(), 3);
    }

    #[test]
    #[should_panic(expected = "correct option out of range")]
    fn choose_form_validates_index() {
        Question::choose_form(0, vec!["a".into()], 3);
    }

    #[test]
    fn answer_as_bool() {
        assert!(Answer::Bool(true).as_bool());
        assert!(!Answer::Bool(false).as_bool());
    }

    #[test]
    #[should_panic(expected = "choice answer")]
    fn as_bool_rejects_choice() {
        Answer::Choice(1).as_bool();
    }
}
