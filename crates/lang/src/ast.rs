//! QDL abstract syntax.

use quarry_exec::diag::Span;
use std::fmt;

/// A full QDL program: one named pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    /// Pipeline name.
    pub name: String,
    /// Document source (currently always `corpus`; named for forward
    /// compatibility with multiple sources).
    pub source: String,
    /// Steps in program order.
    pub steps: Vec<Step>,
}

/// One pipeline step.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Run the named extraction operators.
    Extract {
        /// Operator names, as registered.
        extractors: Vec<String>,
    },
    /// Filter the extraction stream.
    Where {
        /// Conjunctive conditions.
        conditions: Vec<Condition>,
    },
    /// Resolve records into entities by a key attribute.
    Resolve {
        /// The attribute whose values identify entities (e.g. `name`).
        key: String,
    },
    /// Route uncertain decisions to human review.
    Curate {
        /// Budget units available.
        budget: u32,
        /// Crowd votes per question.
        votes: u32,
    },
    /// Store resolved records into a table.
    Store {
        /// Target table.
        table: String,
        /// Key attribute(s) forming the table's primary key.
        key: Vec<String>,
    },
}

/// A filter condition over the extraction stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// `attribute = "x"`.
    AttributeEq(String),
    /// `attribute IN ("x", "y")`.
    AttributeIn(Vec<String>),
    /// `confidence >= c`.
    ConfidenceGe(f64),
    /// `extractor = "name"` — keep only one operator's output.
    ExtractorEq(String),
}

impl Condition {
    /// The attribute names this condition restricts the stream to, if it is
    /// an attribute condition (the optimizer's pruning input).
    pub fn attribute_set(&self) -> Option<Vec<&str>> {
        match self {
            Condition::AttributeEq(a) => Some(vec![a.as_str()]),
            Condition::AttributeIn(attrs) => Some(attrs.iter().map(String::as_str).collect()),
            _ => None,
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::AttributeEq(a) => write!(f, "attribute = \"{a}\""),
            Condition::AttributeIn(attrs) => {
                let quoted: Vec<String> = attrs.iter().map(|a| format!("\"{a}\"")).collect();
                write!(f, "attribute IN ({})", quoted.join(", "))
            }
            Condition::ConfidenceGe(c) => write!(f, "confidence >= {c}"),
            Condition::ExtractorEq(e) => write!(f, "extractor = \"{e}\""),
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Extract { extractors } => write!(f, "EXTRACT {}", extractors.join(", ")),
            Step::Where { conditions } => {
                let cs: Vec<String> = conditions.iter().map(Condition::to_string).collect();
                write!(f, "WHERE {}", cs.join(" AND "))
            }
            Step::Resolve { key } => write!(f, "RESOLVE BY {key}"),
            Step::Curate { budget, votes } => write!(f, "CURATE BUDGET {budget} VOTES {votes}"),
            Step::Store { table, key } => {
                write!(f, "STORE INTO {table} KEY {}", key.join(", "))
            }
        }
    }
}

impl fmt::Display for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "PIPELINE {}", self.name)?;
        writeln!(f, "FROM {}", self.source)?;
        for s in &self.steps {
            writeln!(f, "{s}")?;
        }
        Ok(())
    }
}

/// Byte-span table for one parsed [`Pipeline`], kept parallel to the AST
/// rather than embedded in it.
///
/// Keeping spans out of the AST preserves the derived `PartialEq`
/// behaviour the print→reparse property tests rely on (two structurally
/// identical programs compare equal regardless of formatting), and spares
/// the dozens of hand-built `Pipeline` literals in tests and benches from
/// carrying positions. `parser::parse_spanned` produces both halves; the
/// indices line up one-to-one (`spans.steps[i]` describes `steps[i]`).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSpans {
    /// Span of the pipeline name identifier.
    pub name: Span,
    /// Span of the source identifier after `FROM`.
    pub source: Span,
    /// One entry per step, in program order.
    pub steps: Vec<StepSpans>,
}

/// Spans for one [`Step`], variant-matched.
#[derive(Debug, Clone, PartialEq)]
pub enum StepSpans {
    /// Spans for `EXTRACT a, b, ...`.
    Extract {
        /// The `EXTRACT` keyword.
        keyword: Span,
        /// One span per extractor name, same order as the AST list.
        extractors: Vec<Span>,
    },
    /// Spans for `WHERE c1 AND c2 ...`.
    Where {
        /// The `WHERE` keyword.
        keyword: Span,
        /// One entry per condition, same order as the AST list.
        conditions: Vec<ConditionSpans>,
    },
    /// Spans for `RESOLVE BY key`.
    Resolve {
        /// The `RESOLVE` keyword.
        keyword: Span,
        /// The key identifier.
        key: Span,
    },
    /// Spans for `CURATE BUDGET b VOTES v`.
    Curate {
        /// The `CURATE` keyword.
        keyword: Span,
        /// The budget number literal.
        budget: Span,
        /// The votes number literal.
        votes: Span,
    },
    /// Spans for `STORE INTO table KEY k1, k2`.
    Store {
        /// The `STORE` keyword.
        keyword: Span,
        /// The table identifier.
        table: Span,
        /// One span per key identifier, same order as the AST list.
        keys: Vec<Span>,
    },
}

impl StepSpans {
    /// The step's leading keyword span — the anchor used when a diagnostic
    /// is about the step as a whole.
    pub fn keyword(&self) -> Span {
        match self {
            StepSpans::Extract { keyword, .. }
            | StepSpans::Where { keyword, .. }
            | StepSpans::Resolve { keyword, .. }
            | StepSpans::Curate { keyword, .. }
            | StepSpans::Store { keyword, .. } => *keyword,
        }
    }
}

/// Spans for one [`Condition`].
#[derive(Debug, Clone, PartialEq)]
pub struct ConditionSpans {
    /// The whole condition (`attribute IN ("a", "b")`).
    pub full: Span,
    /// The value literal(s): each string of an `IN` list, the single
    /// string of an `=` form, or the number of a `confidence >=` bound.
    pub values: Vec<Span>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_program() {
        let p = Pipeline {
            name: "city_facts".into(),
            source: "corpus".into(),
            steps: vec![
                Step::Extract { extractors: vec!["infobox".into(), "rules".into()] },
                Step::Where {
                    conditions: vec![
                        Condition::AttributeIn(vec!["population".into(), "state".into()]),
                        Condition::ConfidenceGe(0.6),
                    ],
                },
                Step::Resolve { key: "name".into() },
                Step::Curate { budget: 50, votes: 3 },
                Step::Store { table: "cities".into(), key: vec!["name".into()] },
            ],
        };
        let text = p.to_string();
        assert!(text.contains("PIPELINE city_facts"));
        assert!(text.contains("EXTRACT infobox, rules"));
        assert!(
            text.contains("WHERE attribute IN (\"population\", \"state\") AND confidence >= 0.6")
        );
        assert!(text.contains("CURATE BUDGET 50 VOTES 3"));
        assert!(text.contains("STORE INTO cities KEY name"));
    }

    #[test]
    fn attribute_sets() {
        assert_eq!(Condition::AttributeEq("a".into()).attribute_set(), Some(vec!["a"]));
        assert_eq!(
            Condition::AttributeIn(vec!["a".into(), "b".into()]).attribute_set(),
            Some(vec!["a", "b"])
        );
        assert_eq!(Condition::ConfidenceGe(0.5).attribute_set(), None);
    }
}
