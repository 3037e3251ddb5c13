//! Static semantic analysis of QDL pipelines.
//!
//! The blueprint's processing layer promises programs that "can be
//! parsed, reformulated, optimized, then executed" — and a program worth
//! optimizing is worth *checking*: an unknown extractor, a filter no
//! selected extractor can satisfy, or a store key the pipeline never
//! projects should be rejected before a single document is read, not
//! discovered as an empty table after a full extraction pass.
//!
//! [`analyze`] walks a parsed [`Pipeline`] (with its
//! [`ProgramSpans`] table) against the [`ExtractorRegistry`] — and
//! optionally a [`SchemaRegistry`] — and emits span-anchored
//! [`Diagnostic`]s with the stable codes below. Errors block execution
//! ([`compile`] refuses them); warnings do not.
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | QL000 | error | syntax error (lex/parse failure, from [`lint_source`]) |
//! | QL001 | error | unknown extractor |
//! | QL002 | error | WHERE attribute no selected extractor can produce |
//! | QL003 | error | confidence bound outside `[0, 1]` |
//! | QL004 | error | unsatisfiable predicate conjunction |
//! | QL005 | error | RESOLVE/STORE key not among projected attributes |
//! | QL006 | warning | extractor fully pruned by WHERE (dead) |
//! | QL007 | warning | CURATE budget/votes cannot do useful work |
//! | QL008 | error | STORE key conflicts with the registered schema |

use crate::ast::{Condition, Pipeline, ProgramSpans, Step, StepSpans};
use crate::compile::{compile, CompileError};
use crate::parser::ParseError;
use crate::registry::{ExtractorRegistry, Produces};
use quarry_exec::diag::{closest, Diagnostic, LintReport, Span};
use quarry_schema::SchemaRegistry;

/// Stable diagnostic codes emitted by the QDL analyzer.
pub mod codes {
    /// Lex or parse failure (reported through [`super::lint_source`]).
    pub const SYNTAX: &str = "QL000";
    /// `EXTRACT` names an operator the registry does not know.
    pub const UNKNOWN_EXTRACTOR: &str = "QL001";
    /// `WHERE` admits an attribute no selected extractor can produce.
    pub const UNPRODUCIBLE_ATTRIBUTE: &str = "QL002";
    /// `confidence >=` bound outside `[0, 1]`.
    pub const CONFIDENCE_RANGE: &str = "QL003";
    /// Predicate conjunction no extraction can satisfy.
    pub const UNSATISFIABLE: &str = "QL004";
    /// `RESOLVE BY`/`STORE ... KEY` names an attribute the pipeline filters out.
    pub const KEY_NOT_PROJECTED: &str = "QL005";
    /// Extractor whose whole output the `WHERE` clause rejects.
    pub const DEAD_EXTRACTOR: &str = "QL006";
    /// `CURATE` budget/votes combination that cannot do useful work.
    pub const CURATE_SANITY: &str = "QL007";
    /// Declared `STORE` key conflicts with the registered schema version.
    pub const SCHEMA_CONFLICT: &str = "QL008";
}

/// Analyze a parsed pipeline. `spans` must come from the same
/// `parse_spanned` call that produced `pipeline` (indices line up 1:1).
/// Pass `schemas` to also check `STORE` targets against registered schema
/// versions (QL008). [`LintReport::new`] sorts the diagnostics into
/// source order.
pub fn analyze(
    pipeline: &Pipeline,
    spans: &ProgramSpans,
    registry: &ExtractorRegistry,
    schemas: Option<&SchemaRegistry>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // ── Selected extractors (QL001) ─────────────────────────────────
    let mut selected: Vec<(&str, Span)> = Vec::new();
    let mut unknown_selected = false;
    for (step, sp) in pipeline.steps.iter().zip(&spans.steps) {
        let (Step::Extract { extractors }, StepSpans::Extract { extractors: ex_spans, .. }) =
            (step, sp)
        else {
            continue;
        };
        for (name, &span) in extractors.iter().zip(ex_spans) {
            selected.push((name.as_str(), span));
            if registry.get(name).is_none() {
                unknown_selected = true;
                let mut d = Diagnostic::error(
                    codes::UNKNOWN_EXTRACTOR,
                    span,
                    format!("unknown extractor `{name}`"),
                );
                d = match closest(name, registry.names()) {
                    Some(suggest) => d.with_help(format!("did you mean `{suggest}`?")),
                    None => d.with_help(format!(
                        "registered extractors: {}",
                        registry.names().join(", ")
                    )),
                };
                diags.push(d);
            }
        }
    }

    // ── QL002 operands: skipped when an unknown extractor is selected
    //    (its signature is unknowable — QL001 already fired) or nothing
    //    is extracted. ────────────────────────────────────────────────
    let check_producible = !unknown_selected && !selected.is_empty();
    let declared: Vec<&str> = selected
        .iter()
        .filter_map(|(n, _)| registry.get(n))
        .filter_map(|r| match &r.produces {
            Produces::Set(set) => Some(set.iter().map(String::as_str)),
            _ => None,
        })
        .flatten()
        .collect();

    // ── Attribute allow-list (mirrors LogicalPlan::attribute_allowlist,
    //    tracking which condition emptied the intersection for QL004) ──
    let mut allow: Option<Vec<String>> = None;
    let mut emptied_at: Option<Span> = None;
    let mut extractor_eq: Option<(String, Span)> = None;
    for (step, sp) in pipeline.steps.iter().zip(&spans.steps) {
        let (Step::Where { conditions }, StepSpans::Where { conditions: cond_spans, .. }) =
            (step, sp)
        else {
            continue;
        };
        for (cond, csp) in conditions.iter().zip(cond_spans) {
            if let Some(attrs) = cond.attribute_set() {
                // QL002: the filter admits attributes nothing selected can
                // produce.
                for (attr, &span) in attrs.iter().zip(&csp.values).filter(|_| check_producible) {
                    let producible = selected.iter().any(|(n, _)| {
                        registry.get(n).is_some_and(|r| r.produces.intersects(&[attr]))
                    });
                    if !producible {
                        let mut d = Diagnostic::error(
                            codes::UNPRODUCIBLE_ATTRIBUTE,
                            span,
                            format!("no selected extractor can produce attribute \"{attr}\""),
                        );
                        if let Some(suggest) = closest(attr, declared.iter().copied()) {
                            d = d.with_help(format!("did you mean \"{suggest}\"?"));
                        }
                        diags.push(d);
                    }
                }
                let set: Vec<String> = attrs.iter().map(|a| a.to_string()).collect();
                allow = Some(match allow.take() {
                    None => set,
                    Some(prev) => {
                        let was_empty = prev.is_empty();
                        let inter: Vec<String> =
                            prev.into_iter().filter(|a| set.contains(a)).collect();
                        if inter.is_empty() && !was_empty && emptied_at.is_none() {
                            emptied_at = Some(csp.full);
                        }
                        inter
                    }
                });
            }
            match cond {
                Condition::ConfidenceGe(c) if !(0.0..=1.0).contains(c) => {
                    diags.push(
                        Diagnostic::error(
                            codes::CONFIDENCE_RANGE,
                            csp.values[0],
                            format!("confidence bound {c} is outside [0, 1]"),
                        )
                        .with_help("extraction confidences are probabilities in [0, 1]"),
                    );
                }
                Condition::ExtractorEq(name) => match &extractor_eq {
                    Some((prev, _)) if prev != name => {
                        diags.push(
                            Diagnostic::error(
                                codes::UNSATISFIABLE,
                                csp.full,
                                format!(
                                    "contradictory conjunction: extractor = \"{prev}\" \
                                     and extractor = \"{name}\" cannot both hold"
                                ),
                            )
                            .with_help("each extraction comes from exactly one extractor"),
                        );
                    }
                    Some(_) => {}
                    None => extractor_eq = Some((name.clone(), csp.full)),
                },
                _ => {}
            }
        }
    }
    if let Some(span) = emptied_at {
        diags.push(
            Diagnostic::error(
                codes::UNSATISFIABLE,
                span,
                "unsatisfiable conjunction: no attribute satisfies every attribute condition"
                    .to_string(),
            )
            .with_help("attribute conditions AND together; their sets must overlap"),
        );
    }

    // ── QL005 + QL006 (both meaningless once the allow-list is empty —
    //    QL004 already explains why nothing flows) ────────────────────
    if let Some(allow) = allow.as_ref().filter(|a| !a.is_empty()) {
        let mut resolve_key: Option<&str> = None;
        let allow_refs: Vec<&str> = allow.iter().map(String::as_str).collect();
        for (name, span) in &selected {
            if let Some(reg) = registry.get(name) {
                if !reg.produces.intersects(&allow_refs) {
                    diags.push(
                        Diagnostic::warning(
                            codes::DEAD_EXTRACTOR,
                            *span,
                            format!(
                                "extractor `{name}` produces no attribute admitted by WHERE; \
                                 the optimizer will prune it"
                            ),
                        )
                        .with_help("drop it from EXTRACT, or widen the attribute conditions"),
                    );
                }
            }
        }
        for (step, sp) in pipeline.steps.iter().zip(&spans.steps) {
            match (step, sp) {
                (Step::Resolve { key }, StepSpans::Resolve { key: key_span, .. }) => {
                    resolve_key = Some(key.as_str());
                    if !allow.contains(key) {
                        diags.push(
                            Diagnostic::error(
                                codes::KEY_NOT_PROJECTED,
                                *key_span,
                                format!(
                                    "RESOLVE key \"{key}\" is filtered out by WHERE; \
                                     every record would be dropped"
                                ),
                            )
                            .with_help(format!("add \"{key}\" to a WHERE attribute condition")),
                        );
                    }
                }
                (Step::Store { key, .. }, StepSpans::Store { keys: key_spans, .. }) => {
                    // The first store key is bound to the resolve key's
                    // value at execution time; later keys must survive
                    // the filters (or be the resolve attribute itself).
                    for (k, &span) in key.iter().zip(key_spans).skip(1) {
                        if !allow.contains(k) && resolve_key != Some(k.as_str()) {
                            diags.push(
                                Diagnostic::error(
                                    codes::KEY_NOT_PROJECTED,
                                    span,
                                    format!(
                                        "STORE key \"{k}\" is filtered out by WHERE; \
                                         its column would be all NULL"
                                    ),
                                )
                                .with_help(format!("add \"{k}\" to a WHERE attribute condition")),
                            );
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // ── QL007: curation sanity ──────────────────────────────────────
    for (step, sp) in pipeline.steps.iter().zip(&spans.steps) {
        let (
            Step::Curate { budget, votes },
            StepSpans::Curate { budget: budget_span, votes: votes_span, .. },
        ) = (step, sp)
        else {
            continue;
        };
        if *budget == 0 {
            diags.push(
                Diagnostic::warning(
                    codes::CURATE_SANITY,
                    *budget_span,
                    "CURATE BUDGET 0 disables curation entirely".to_string(),
                )
                .with_help("drop the CURATE step, or grant a positive budget"),
            );
        }
        if *votes == 0 {
            diags.push(
                Diagnostic::warning(
                    codes::CURATE_SANITY,
                    *votes_span,
                    "CURATE VOTES 0 asks nobody; every uncertain pair stays unresolved".to_string(),
                )
                .with_help("use at least 1 vote per question"),
            );
        } else if *votes > *budget && *budget > 0 {
            diags.push(
                Diagnostic::warning(
                    codes::CURATE_SANITY,
                    *votes_span,
                    format!(
                        "VOTES {votes} exceeds BUDGET {budget}; \
                         not even one question fits in the budget"
                    ),
                )
                .with_help("raise BUDGET or lower VOTES"),
            );
        }
    }

    // ── QL008: schema-evolution conflicts ───────────────────────────
    if let Some(schemas) = schemas {
        for (step, sp) in pipeline.steps.iter().zip(&spans.steps) {
            let (Step::Store { table, key }, StepSpans::Store { table: table_span, .. }) =
                (step, sp)
            else {
                continue;
            };
            let Some(latest) = schemas.latest(table) else { continue };
            let Some(schema) = schemas.schema(table, latest) else { continue };
            let registered: Vec<&str> =
                schema.key.iter().map(|&i| schema.columns[i].name.as_str()).collect();
            let declared: Vec<&str> = key.iter().map(String::as_str).collect();
            if registered != declared {
                diags.push(
                    Diagnostic::error(
                        codes::SCHEMA_CONFLICT,
                        *table_span,
                        format!(
                            "table `{table}` is registered at schema version v{} \
                             with key ({}), but the pipeline stores with key ({})",
                            latest.0,
                            registered.join(", "),
                            declared.join(", ")
                        ),
                    )
                    .with_help("match the registered key, or evolve the schema before storing"),
                );
            }
        }
    }

    diags
}

/// Lint QDL source end-to-end through [`compile`], the same check a run
/// gets: a lex or parse failure becomes a single QL000 diagnostic, and
/// anything else is what [`analyze`] found. Always returns a report, so
/// callers can render uniformly.
pub fn lint_source(
    origin: &str,
    src: &str,
    registry: &ExtractorRegistry,
    schemas: Option<&SchemaRegistry>,
) -> LintReport {
    match compile(origin, src, registry, schemas) {
        Ok(program) => program.report,
        Err(CompileError::Parse(ParseError { message, span, .. })) => {
            LintReport::new(origin, src, vec![Diagnostic::error(codes::SYNTAX, span, message)])
        }
        Err(CompileError::UnknownExtractor { report, .. } | CompileError::Lint(report)) => report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_exec::diag::Severity;
    use quarry_storage::{Column, DataType, TableSchema};

    fn lint(src: &str) -> LintReport {
        lint_source("test.qdl", src, &ExtractorRegistry::standard(), None)
    }

    /// The single diagnostic with `code`, asserting it is the only one.
    fn only<'r>(report: &'r LintReport, code: &str) -> &'r Diagnostic {
        assert_eq!(
            report.diagnostics.len(),
            1,
            "expected exactly one diagnostic: {:#?}",
            report.diagnostics
        );
        let d = &report.diagnostics[0];
        assert_eq!(d.code, code);
        d
    }

    fn covered<'a>(report: &'a LintReport, d: &Diagnostic) -> &'a str {
        &report.source[d.span.start..d.span.end]
    }

    #[test]
    fn clean_program_has_no_diagnostics() {
        let report = lint(
            r#"PIPELINE p FROM corpus
EXTRACT infobox, rules
WHERE attribute IN ("name", "population") AND confidence >= 0.6
RESOLVE BY name
CURATE BUDGET 50 VOTES 3
STORE INTO cities KEY name"#,
        );
        assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    }

    #[test]
    fn ql000_syntax_error_becomes_a_diagnostic() {
        let report = lint("PIPELINE p FROM corpus FROBNICATE");
        let d = only(&report, codes::SYNTAX);
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(covered(&report, d), "FROBNICATE");
    }

    #[test]
    fn ql001_unknown_extractor_with_suggestion() {
        let report = lint("PIPELINE p FROM corpus EXTRACT infobx RESOLVE BY name");
        let d = only(&report, codes::UNKNOWN_EXTRACTOR);
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(covered(&report, d), "infobx");
        assert_eq!(d.help.as_deref(), Some("did you mean `infobox`?"));
    }

    #[test]
    fn ql002_unproducible_attribute() {
        // rule:lead-author produces only `author`; no Any-extractor selected.
        let report = lint(
            r#"PIPELINE p FROM corpus
EXTRACT rule:lead-author
WHERE attribute IN ("author", "theme")
RESOLVE BY author"#,
        );
        let d = only(&report, codes::UNPRODUCIBLE_ATTRIBUTE);
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(covered(&report, d), "\"theme\"");
    }

    #[test]
    fn ql002_is_silenced_by_an_any_extractor() {
        let report = lint(
            r#"PIPELINE p FROM corpus
EXTRACT infobox
WHERE attribute = "anything_at_all"
RESOLVE BY anything_at_all"#,
        );
        assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    }

    #[test]
    fn ql002_is_silenced_after_ql001() {
        // With an unknown extractor selected, its signature is unknowable:
        // only QL001 may fire, not a cascading QL002.
        let report = lint(
            r#"PIPELINE p FROM corpus
EXTRACT warp_drive
WHERE attribute = "dilithium"
RESOLVE BY dilithium"#,
        );
        let d = only(&report, codes::UNKNOWN_EXTRACTOR);
        assert_eq!(covered(&report, d), "warp_drive");
    }

    #[test]
    fn ql003_confidence_out_of_range() {
        let report =
            lint("PIPELINE p FROM corpus EXTRACT infobox WHERE confidence >= 1.5 RESOLVE BY name");
        let d = only(&report, codes::CONFIDENCE_RANGE);
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(covered(&report, d), "1.5");
    }

    #[test]
    fn ql004_disjoint_attribute_conjunction() {
        let report = lint(
            r#"PIPELINE p FROM corpus
EXTRACT infobox
WHERE attribute = "population" AND attribute = "state""#,
        );
        let d = only(&report, codes::UNSATISFIABLE);
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(covered(&report, d), "attribute = \"state\"");
    }

    #[test]
    fn ql004_contradictory_extractor_equalities() {
        let report = lint(
            r#"PIPELINE p FROM corpus
EXTRACT infobox, rules
WHERE extractor = "infobox" AND extractor = "rules""#,
        );
        let d = only(&report, codes::UNSATISFIABLE);
        assert_eq!(covered(&report, d), "extractor = \"rules\"");
    }

    #[test]
    fn ql005_resolve_key_filtered_out() {
        let report = lint(
            r#"PIPELINE p FROM corpus
EXTRACT infobox
WHERE attribute IN ("population", "state")
RESOLVE BY name
STORE INTO cities KEY name"#,
        );
        let d = only(&report, codes::KEY_NOT_PROJECTED);
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(covered(&report, d), "name");
        let (line, _) = quarry_exec::diag::line_col_of(&report.source, d.span.start);
        assert_eq!(line, 4, "span must point at the RESOLVE line");
    }

    #[test]
    fn ql005_secondary_store_key_filtered_out() {
        let report = lint(
            r#"PIPELINE p FROM corpus
EXTRACT infobox
WHERE attribute IN ("name", "population")
RESOLVE BY name
STORE INTO cities KEY name, state"#,
        );
        let d = only(&report, codes::KEY_NOT_PROJECTED);
        assert_eq!(covered(&report, d), "state");
    }

    #[test]
    fn ql006_dead_extractor_is_a_warning() {
        let report = lint(
            r#"PIPELINE p FROM corpus
EXTRACT infobox, rule:monthly-temperature
WHERE attribute IN ("name", "population")
RESOLVE BY name"#,
        );
        let d = only(&report, codes::DEAD_EXTRACTOR);
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(covered(&report, d), "rule:monthly-temperature");
        assert!(report.is_clean(), "warnings must not block execution");
    }

    #[test]
    fn ql007_curate_sanity_warnings() {
        let report = lint(
            r#"PIPELINE p FROM corpus
EXTRACT infobox
RESOLVE BY name
CURATE BUDGET 0 VOTES 9"#,
        );
        // budget 0 fires once; votes>budget is subsumed by budget==0.
        let budget_warnings: Vec<_> =
            report.diagnostics.iter().filter(|d| d.code == codes::CURATE_SANITY).collect();
        assert_eq!(budget_warnings.len(), 1, "{:#?}", report.diagnostics);
        assert_eq!(budget_warnings[0].severity, Severity::Warning);
        assert_eq!(covered(&report, budget_warnings[0]), "0");

        let report =
            lint("PIPELINE p FROM corpus EXTRACT infobox RESOLVE BY name CURATE BUDGET 2 VOTES 5");
        let d = only(&report, codes::CURATE_SANITY);
        assert_eq!(covered(&report, d), "5");
        let report =
            lint("PIPELINE p FROM corpus EXTRACT infobox RESOLVE BY name CURATE BUDGET 5 VOTES 0");
        let d = only(&report, codes::CURATE_SANITY);
        assert_eq!(covered(&report, d), "0");
    }

    #[test]
    fn ql008_schema_key_conflict() {
        let mut schemas = SchemaRegistry::new();
        schemas
            .register(
                TableSchema::new(
                    "cities",
                    vec![
                        Column::new("city_id", DataType::Text),
                        Column::nullable("name", DataType::Text),
                    ],
                    &["city_id"],
                    &[],
                )
                .unwrap(),
            )
            .unwrap();
        let src = r#"PIPELINE p FROM corpus
EXTRACT infobox
RESOLVE BY name
STORE INTO cities KEY name"#;
        let report = lint_source("test.qdl", src, &ExtractorRegistry::standard(), Some(&schemas));
        let d = only(&report, codes::SCHEMA_CONFLICT);
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(covered(&report, d), "cities");
        assert!(d.message.contains("city_id") && d.message.contains("name"), "{}", d.message);

        // Matching key: clean.
        let ok = r#"PIPELINE p FROM corpus
EXTRACT infobox
RESOLVE BY city_id
STORE INTO cities KEY city_id"#;
        let report = lint_source("test.qdl", ok, &ExtractorRegistry::standard(), Some(&schemas));
        assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
    }

    #[test]
    fn diagnostics_are_ordered_by_span() {
        let report = lint(
            r#"PIPELINE p FROM corpus
EXTRACT warp_drive, infobx
WHERE confidence >= 2
RESOLVE BY name"#,
        );
        let codes_in_order: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(
            codes_in_order,
            vec![codes::UNKNOWN_EXTRACTOR, codes::UNKNOWN_EXTRACTOR, codes::CONFIDENCE_RANGE]
        );
        let starts: Vec<usize> = report.diagnostics.iter().map(|d| d.span.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn rendered_report_shows_carets() {
        let report = lint("PIPELINE p FROM corpus EXTRACT infobx RESOLVE BY name");
        let text = report.render();
        assert!(text.contains("error[QL001]"), "{text}");
        assert!(text.contains("^^^^^^"), "{text}");
        assert!(text.contains("test.qdl:1:"), "{text}");
    }
}
