//! QDL parser: recursive descent over the token stream.

use crate::ast::{Condition, ConditionSpans, Pipeline, ProgramSpans, Step, StepSpans};
use crate::lexer::{lex_spanned, SpannedToken, Token};
use quarry_exec::diag::{line_col_of, Span};
use std::fmt;

/// Valid step keywords, listed in "unknown step" errors.
pub const STEP_KEYWORDS: [&str; 5] = ["EXTRACT", "WHERE", "RESOLVE", "CURATE", "STORE"];
/// Valid condition fields, listed in "unknown condition field" errors.
pub const CONDITION_FIELDS: [&str; 3] = ["attribute", "confidence", "extractor"];

/// Lex or parse error, anchored to the byte span of the offending token.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte range of the offending token (a point span at end of input
    /// when the program ended early).
    pub span: Span,
    /// 1-based line of `span.start`.
    pub line: usize,
    /// 1-based column of `span.start`.
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'s> {
    src: &'s str,
    tokens: Vec<SpannedToken>,
    pos: usize,
}

impl<'s> Parser<'s> {
    fn new(src: &'s str) -> Result<Parser<'s>, ParseError> {
        Ok(Parser { src, tokens: lex_spanned(src)?, pos: 0 })
    }

    fn err(&self, span: Span, message: String) -> ParseError {
        let (line, col) = line_col_of(self.src, span.start);
        ParseError { message, span, line, col }
    }

    /// Span to blame when the current token is missing or wrong: the
    /// token's own span, or a point at end of input.
    fn here(&self) -> Span {
        self.tokens.get(self.pos).map(|t| t.span).unwrap_or_else(|| Span::point(self.src.len()))
    }

    fn describe(&self) -> String {
        match self.tokens.get(self.pos) {
            Some(t) => format!("`{}`", t.tok),
            None => "end of input".into(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn next(&mut self) -> Option<SpannedToken> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn keyword(&mut self, kw: &str) -> Result<Span, ParseError> {
        let (span, found) = (self.here(), self.describe());
        match self.next() {
            Some(SpannedToken { tok: Token::Ident(s), span }) if s.eq_ignore_ascii_case(kw) => {
                Ok(span)
            }
            _ => Err(self.err(span, format!("expected {kw}, found {found}"))),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<(String, Span), ParseError> {
        let (span, found) = (self.here(), self.describe());
        match self.next() {
            Some(SpannedToken { tok: Token::Ident(s), span }) => Ok((s, span)),
            _ => Err(self.err(span, format!("expected identifier, found {found}"))),
        }
    }

    fn string(&mut self) -> Result<(String, Span), ParseError> {
        let (span, found) = (self.here(), self.describe());
        match self.next() {
            Some(SpannedToken { tok: Token::Str(s), span }) => Ok((s, span)),
            _ => Err(self.err(span, format!("expected string, found {found}"))),
        }
    }

    fn number(&mut self) -> Result<(f64, Span), ParseError> {
        let (span, found) = (self.here(), self.describe());
        match self.next() {
            Some(SpannedToken { tok: Token::Number(n), span }) => Ok((n, span)),
            _ => Err(self.err(span, format!("expected number, found {found}"))),
        }
    }

    fn punct(&mut self, want: Token, what: &str) -> Result<(), ParseError> {
        let (span, found) = (self.here(), self.describe());
        match self.next() {
            Some(SpannedToken { tok, .. }) if tok == want => Ok(()),
            _ => Err(self.err(span, format!("expected {what}, found {found}"))),
        }
    }

    fn ident_list(&mut self) -> Result<(Vec<String>, Vec<Span>), ParseError> {
        let first = self.ident()?;
        let (mut names, mut spans) = (vec![first.0], vec![first.1]);
        while self.peek() == Some(&Token::Comma) {
            self.next();
            let (n, s) = self.ident()?;
            names.push(n);
            spans.push(s);
        }
        Ok((names, spans))
    }

    fn pipeline(&mut self) -> Result<(Pipeline, ProgramSpans), ParseError> {
        self.keyword("PIPELINE")?;
        let (name, name_span) = self.ident()?;
        self.keyword("FROM")?;
        let (source, source_span) = self.ident()?;
        let mut steps = Vec::new();
        let mut step_spans = Vec::new();
        // Where a step could begin, `PIPELINE` begins the next program.
        while let Some(tok) = self.peek().filter(|_| !self.peek_keyword("PIPELINE")) {
            let Token::Ident(kw) = tok else {
                let (span, found) = (self.here(), self.describe());
                return Err(self.err(span, format!("expected step keyword, found {found}")));
            };
            let kw = kw.to_ascii_uppercase();
            // The peek above proved a token is present: consume it once
            // here rather than `next().unwrap()` in every arm below.
            let Some(step_tok) = self.next() else { break };
            let keyword = step_tok.span;
            let (step, spans) = match kw.as_str() {
                "EXTRACT" => {
                    let (extractors, spans) = self.ident_list()?;
                    (
                        Step::Extract { extractors },
                        StepSpans::Extract { keyword, extractors: spans },
                    )
                }
                "WHERE" => {
                    let (conditions, spans) = self.conditions()?;
                    (Step::Where { conditions }, StepSpans::Where { keyword, conditions: spans })
                }
                "RESOLVE" => {
                    self.keyword("BY")?;
                    let (key, key_span) = self.ident()?;
                    (Step::Resolve { key }, StepSpans::Resolve { keyword, key: key_span })
                }
                "CURATE" => {
                    self.keyword("BUDGET")?;
                    let (budget, budget_span) = self.number()?;
                    self.keyword("VOTES")?;
                    let (votes, votes_span) = self.number()?;
                    (
                        Step::Curate { budget: budget as u32, votes: votes as u32 },
                        StepSpans::Curate { keyword, budget: budget_span, votes: votes_span },
                    )
                }
                "STORE" => {
                    self.keyword("INTO")?;
                    let (table, table_span) = self.ident()?;
                    self.keyword("KEY")?;
                    let (key, key_spans) = self.ident_list()?;
                    (
                        Step::Store { table, key },
                        StepSpans::Store { keyword, table: table_span, keys: key_spans },
                    )
                }
                other => {
                    return Err(self.err(
                        keyword,
                        format!(
                            "unknown step {other}; valid steps are {}",
                            STEP_KEYWORDS.join(", ")
                        ),
                    ));
                }
            };
            steps.push(step);
            step_spans.push(spans);
        }
        Ok((
            Pipeline { name, source, steps },
            ProgramSpans { name: name_span, source: source_span, steps: step_spans },
        ))
    }

    fn conditions(&mut self) -> Result<(Vec<Condition>, Vec<ConditionSpans>), ParseError> {
        let first = self.condition()?;
        let (mut conds, mut spans) = (vec![first.0], vec![first.1]);
        while self.peek_keyword("AND") {
            self.next();
            let (c, s) = self.condition()?;
            conds.push(c);
            spans.push(s);
        }
        Ok((conds, spans))
    }

    fn condition(&mut self) -> Result<(Condition, ConditionSpans), ParseError> {
        let (field, field_span) = self.ident()?;
        match field.to_ascii_lowercase().as_str() {
            "attribute" => {
                if self.peek_keyword("IN") {
                    self.next();
                    self.punct(Token::LParen, "( after IN")?;
                    let first = self.string()?;
                    let (mut attrs, mut value_spans) = (vec![first.0], vec![first.1]);
                    while self.peek() == Some(&Token::Comma) {
                        self.next();
                        let (a, s) = self.string()?;
                        attrs.push(a);
                        value_spans.push(s);
                    }
                    let close = self.here();
                    self.punct(Token::RParen, ") closing IN list")?;
                    Ok((
                        Condition::AttributeIn(attrs),
                        ConditionSpans { full: field_span.to(close), values: value_spans },
                    ))
                } else if self.peek() == Some(&Token::Eq) {
                    self.next();
                    let (value, value_span) = self.string()?;
                    Ok((
                        Condition::AttributeEq(value),
                        ConditionSpans {
                            full: field_span.to(value_span),
                            values: vec![value_span],
                        },
                    ))
                } else {
                    let (span, found) = (self.here(), self.describe());
                    Err(self.err(span, format!("expected = or IN after attribute, found {found}")))
                }
            }
            "confidence" => {
                let (span, found) = (self.here(), self.describe());
                if self.next().map(|t| t.tok) != Some(Token::Ge) {
                    return Err(
                        self.err(span, format!("expected >= after confidence, found {found}"))
                    );
                }
                let (bound, bound_span) = self.number()?;
                Ok((
                    Condition::ConfidenceGe(bound),
                    ConditionSpans { full: field_span.to(bound_span), values: vec![bound_span] },
                ))
            }
            "extractor" => {
                let (span, found) = (self.here(), self.describe());
                if self.next().map(|t| t.tok) != Some(Token::Eq) {
                    return Err(
                        self.err(span, format!("expected = after extractor, found {found}"))
                    );
                }
                let (value, value_span) = self.string()?;
                Ok((
                    Condition::ExtractorEq(value),
                    ConditionSpans { full: field_span.to(value_span), values: vec![value_span] },
                ))
            }
            other => Err(self.err(
                field_span,
                format!(
                    "unknown condition field {other}; valid fields are {}",
                    CONDITION_FIELDS.join(", ")
                ),
            )),
        }
    }
}

/// Parse a QDL program.
pub fn parse(src: &str) -> Result<Pipeline, ParseError> {
    parse_spanned(src).map(|(p, _)| p)
}

/// Parse a QDL program, also returning the byte-span table used by the
/// static analyzer and diagnostics renderer.
pub fn parse_spanned(src: &str) -> Result<(Pipeline, ProgramSpans), ParseError> {
    let mut p = Parser::new(src)?;
    let out = p.pipeline()?;
    if p.pos != p.tokens.len() {
        let (span, found) = (p.here(), p.describe());
        return Err(p.err(span, format!("trailing tokens after program: {found}")));
    }
    Ok(out)
}

/// Parse a script: zero or more programs, one after another. Each span
/// indexes the whole script, so diagnostics carry its real positions.
pub(crate) fn parse_script(src: &str) -> Result<Vec<(Pipeline, ProgramSpans)>, ParseError> {
    let mut p = Parser::new(src)?;
    let mut out = Vec::new();
    while p.pos != p.tokens.len() {
        out.push(p.pipeline()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const PROGRAM: &str = r#"
PIPELINE city_facts
FROM corpus
EXTRACT infobox, prose-rule
WHERE attribute IN ("population", "state") AND confidence >= 0.6
RESOLVE BY name
CURATE BUDGET 50 VOTES 3
STORE INTO cities KEY name
"#;

    #[test]
    fn parses_full_program() {
        let p = parse(PROGRAM).unwrap();
        assert_eq!(p.name, "city_facts");
        assert_eq!(p.source, "corpus");
        assert_eq!(p.steps.len(), 5);
        assert_eq!(
            p.steps[0],
            Step::Extract { extractors: vec!["infobox".into(), "prose-rule".into()] }
        );
        assert_eq!(
            p.steps[1],
            Step::Where {
                conditions: vec![
                    Condition::AttributeIn(vec!["population".into(), "state".into()]),
                    Condition::ConfidenceGe(0.6),
                ]
            }
        );
        assert_eq!(p.steps[3], Step::Curate { budget: 50, votes: 3 });
        assert_eq!(p.steps[4], Step::Store { table: "cities".into(), key: vec!["name".into()] });
    }

    #[test]
    fn spans_point_at_the_source_text() {
        let (p, spans) = parse_spanned(PROGRAM).unwrap();
        assert_eq!(&PROGRAM[spans.name.start..spans.name.end], "city_facts");
        assert_eq!(&PROGRAM[spans.source.start..spans.source.end], "corpus");
        assert_eq!(spans.steps.len(), p.steps.len());
        let StepSpans::Extract { keyword, extractors } = &spans.steps[0] else {
            panic!("expected extract spans");
        };
        assert_eq!(&PROGRAM[keyword.start..keyword.end], "EXTRACT");
        assert_eq!(&PROGRAM[extractors[1].start..extractors[1].end], "prose-rule");
        let StepSpans::Where { conditions, .. } = &spans.steps[1] else {
            panic!("expected where spans");
        };
        assert_eq!(
            &PROGRAM[conditions[0].full.start..conditions[0].full.end],
            "attribute IN (\"population\", \"state\")"
        );
        assert_eq!(
            &PROGRAM[conditions[0].values[0].start..conditions[0].values[0].end],
            "\"population\""
        );
        assert_eq!(&PROGRAM[conditions[1].values[0].start..conditions[1].values[0].end], "0.6");
        let StepSpans::Store { table, keys, .. } = &spans.steps[4] else {
            panic!("expected store spans");
        };
        assert_eq!(&PROGRAM[table.start..table.end], "cities");
        assert_eq!(&PROGRAM[keys[0].start..keys[0].end], "name");
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let p = parse("pipeline p from corpus extract infobox").unwrap();
        assert_eq!(p.steps.len(), 1);
    }

    #[test]
    fn print_reparse_round_trip() {
        let p = parse(PROGRAM).unwrap();
        let printed = p.to_string();
        let reparsed = parse(&printed).unwrap();
        assert_eq!(p, reparsed);
    }

    #[test]
    fn attribute_eq_and_extractor_conditions() {
        let p = parse(
            "PIPELINE p FROM corpus EXTRACT infobox WHERE attribute = \"population\" AND extractor = \"infobox\"",
        )
        .unwrap();
        assert_eq!(
            p.steps[1],
            Step::Where {
                conditions: vec![
                    Condition::AttributeEq("population".into()),
                    Condition::ExtractorEq("infobox".into()),
                ]
            }
        );
    }

    #[test]
    fn multi_key_store() {
        let p = parse("PIPELINE p FROM corpus EXTRACT infobox STORE INTO temps KEY city, month")
            .unwrap();
        assert_eq!(
            p.steps[1],
            Step::Store { table: "temps".into(), key: vec!["city".into(), "month".into()] }
        );
    }

    #[test]
    fn parse_errors_are_descriptive() {
        for (src, needle) in [
            ("FROM corpus", "PIPELINE"),
            ("PIPELINE p EXTRACT x", "FROM"),
            ("PIPELINE p FROM corpus FROBNICATE", "unknown step"),
            ("PIPELINE p FROM corpus WHERE speed >= 1", "unknown condition"),
            ("PIPELINE p FROM corpus CURATE BUDGET x", "expected number"),
            ("PIPELINE p FROM corpus EXTRACT infobox )", "expected step"),
        ] {
            let err = parse(src).unwrap_err();
            assert!(err.message.contains(needle), "{src}: {err}");
        }
    }

    #[test]
    fn unknown_step_and_condition_errors_list_alternatives() {
        let err = parse("PIPELINE p FROM corpus FROBNICATE").unwrap_err();
        for kw in STEP_KEYWORDS {
            assert!(err.message.contains(kw), "missing {kw} in: {err}");
        }
        let err = parse("PIPELINE p FROM corpus WHERE speed >= 1").unwrap_err();
        for field in CONDITION_FIELDS {
            assert!(err.message.contains(field), "missing {field} in: {err}");
        }
    }

    #[test]
    fn parse_errors_carry_line_and_column() {
        let err = parse("PIPELINE p\nFROM corpus\nWHERE speed >= 1").unwrap_err();
        assert_eq!((err.line, err.col), (3, 7));
        assert!(err.to_string().starts_with("parse error at 3:7: "), "{err}");
        let src = "PIPELINE p\nFROM corpus\nWHERE speed >= 1";
        assert_eq!(&src[err.span.start..err.span.end], "speed");
        // End-of-input errors point one past the last byte.
        let err = parse("PIPELINE p FROM corpus RESOLVE").unwrap_err();
        assert_eq!(err.span, Span::point("PIPELINE p FROM corpus RESOLVE".len()));
        assert!(err.message.contains("end of input"), "{err}");
    }

    #[test]
    fn a_script_splits_where_a_step_could_begin() {
        let src = "-- two programs\nPIPELINE a FROM corpus EXTRACT infobox\n\
                   PIPELINE pipeline FROM corpus RESOLVE BY pipeline\n";
        let programs = parse_script(src).unwrap();
        let names: Vec<&str> = programs.iter().map(|(p, _)| p.name.as_str()).collect();
        assert_eq!(names, ["a", "pipeline"]);
        // Spans index the whole script.
        let spans = &programs[1].1;
        assert_eq!(&src[spans.name.start..spans.name.end], "pipeline");
        assert_eq!(line_col_of(src, spans.name.start), (3, 10));
        // One program is not a script.
        let err = parse_spanned(src).unwrap_err();
        assert!(err.message.contains("trailing tokens"), "{err}");
        assert!(parse_script("-- nothing\n").unwrap().is_empty());
    }

    proptest! {
        #[test]
        fn prop_print_reparse_identity(
            name in "[a-z][a-z_]{0,8}",
            extractors in proptest::collection::vec("[a-z](-?[a-z]){0,5}", 1..4),
            attrs in proptest::collection::vec("[a-z_]{1,8}", 1..4),
            conf in 0.0f64..1.0,
            budget in 0u32..1000,
            votes in 1u32..9,
        ) {
            let p = Pipeline {
                name,
                source: "corpus".into(),
                steps: vec![
                    Step::Extract { extractors },
                    Step::Where { conditions: vec![
                        Condition::AttributeIn(attrs),
                        Condition::ConfidenceGe((conf * 100.0).round() / 100.0),
                    ]},
                    Step::Curate { budget, votes },
                ],
            };
            let reparsed = parse(&p.to_string()).unwrap();
            prop_assert_eq!(p, reparsed);
        }
    }
}
