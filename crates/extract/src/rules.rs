//! Contextual prose rules: hand-written patterns over sentence text.
//!
//! Rule-based extraction was the workhorse of 2000s IE systems (and of the
//! UW Cimple/DBLife line of work this paper grew out of): a domain developer
//! writes patterns like *"In ⟨month⟩, the average temperature in ⟨city⟩ is
//! ⟨value⟩"*; matches yield attribute-value extractions with moderate
//! confidence. Prose restates facts less reliably than infobox markup
//! (typos, paraphrase), which is exactly the imperfection the paper's HI
//! loop exists to repair.

use crate::model::{Extraction, Span};
use crate::normalize;
use crate::regex::Regex;
use quarry_corpus::Document;

/// Name this extractor reports in provenance.
pub const NAME: &str = "prose-rule";

/// One binding of a capture group to an attribute.
///
/// `attribute` may contain `{n}` placeholders, replaced by the lowercased
/// text of capture group `n` — e.g. attribute `"{1}_temp"` with group 1
/// capturing `March` binds group 2's value to attribute `march_temp`.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Capture group holding the value.
    pub group: usize,
    /// Attribute name template.
    pub attribute: String,
}

/// A prose extraction rule.
#[derive(Debug, Clone)]
pub struct ProseRule {
    /// Rule name (diagnostics).
    pub name: &'static str,
    pub(crate) pattern: Regex,
    bindings: Vec<Binding>,
    confidence: f64,
}

impl ProseRule {
    /// Compile a rule. Panics on an invalid pattern (rules are static
    /// developer input; failing fast at construction is the right behavior).
    pub fn new(
        name: &'static str,
        pattern: &str,
        bindings: Vec<Binding>,
        confidence: f64,
    ) -> ProseRule {
        ProseRule {
            name,
            pattern: Regex::new(pattern).unwrap_or_else(|e| panic!("rule {name}: {e}")),
            bindings,
            confidence,
        }
    }

    /// Apply the rule to one document.
    pub fn extract(&self, doc: &Document) -> Vec<Extraction> {
        let mut out = Vec::new();
        for caps in self.pattern.captures_iter(&doc.text) {
            for b in &self.bindings {
                let Some(m) = caps.get(b.group) else { continue };
                let raw = m.as_str(&doc.text).trim().to_string();
                if raw.is_empty() {
                    continue;
                }
                // Resolve {n} placeholders in the attribute template.
                let mut attribute = b.attribute.clone();
                for g in 1..caps.len() {
                    let ph = format!("{{{g}}}");
                    if attribute.contains(&ph) {
                        let sub =
                            caps.text(g, &doc.text).map(|t| t.to_lowercase()).unwrap_or_default();
                        attribute = attribute.replace(&ph, &sub);
                    }
                }
                let value = normalize::normalize(&attribute, &raw);
                out.push(Extraction {
                    doc: doc.id,
                    attribute,
                    raw,
                    value,
                    span: Span::new(m.start, m.end),
                    confidence: self.confidence,
                    extractor: NAME,
                });
            }
        }
        out
    }
}

const MONTH_ALT: &str =
    "January|February|March|April|May|June|July|August|September|October|November|December";
const NUM: &str = r"-?[\d,]+";

/// The standard rule set covering the corpus's prose templates, i.e. the
/// sentences a Wikipedia-like city/person/company/publication page uses to
/// restate its facts.
pub fn standard_rules() -> Vec<ProseRule> {
    // NOTE: the engine has no non-capturing groups, so every group counts;
    // bindings reference groups by absolute index.
    vec![
        ProseRule::new(
            "monthly-temperature",
            &format!(r"In ({MONTH_ALT}), the average temperature in [A-Z][a-z]+\w* is (-?\d+)"),
            vec![Binding { group: 2, attribute: "{1}_temp".into() }],
            0.75,
        ),
        ProseRule::new(
            "population-of",
            &format!(r"the population of [A-Z]\w+ was ({NUM})"),
            vec![Binding { group: 1, attribute: "population".into() }],
            0.75,
        ),
        ProseRule::new(
            "founded-and-area",
            r"was founded in (\d{4}) and covers (\d+\.\d+) square miles",
            vec![
                Binding { group: 1, attribute: "founded".into() },
                Binding { group: 2, attribute: "area_sq_mi".into() },
            ],
            0.75,
        ),
        ProseRule::new(
            "person-born-works",
            r"\(born (\d{4})\) works at ([A-Z][\w]*( [A-Z][\w]*)*)",
            vec![
                Binding { group: 1, attribute: "birth_year".into() },
                Binding { group: 2, attribute: "employer".into() },
            ],
            0.7,
        ),
        ProseRule::new(
            "lives-in",
            r"(\w+) lives in ([A-Z][\w]*)",
            vec![Binding { group: 2, attribute: "residence".into() }],
            0.7,
        ),
        ProseRule::new(
            "company-industry-hq",
            r"is a ([a-z]+) company headquartered in ([A-Z][\w]*)",
            vec![
                Binding { group: 1, attribute: "industry".into() },
                Binding { group: 2, attribute: "headquarters".into() },
            ],
            0.7,
        ),
        ProseRule::new(
            "company-founded",
            r"It was founded in (\d{4})",
            vec![Binding { group: 1, attribute: "founded".into() }],
            0.7,
        ),
        ProseRule::new(
            "publication-venue-year",
            r#"appeared at ([A-Z]+) in (\d{4})"#,
            vec![
                Binding { group: 1, attribute: "venue".into() },
                Binding { group: 2, attribute: "year".into() },
            ],
            0.75,
        ),
        ProseRule::new(
            "lead-author",
            // A name part is either a capitalized word or an initial ("D.");
            // a sentence-final period must not be absorbed into the name.
            r"The lead author is ([A-Z](\w+|\.)( [A-Z](\w+|\.))*)",
            vec![Binding { group: 1, attribute: "author".into() }],
            0.7,
        ),
    ]
}

/// Run every rule over a document.
pub fn extract(doc: &Document, rules: &[ProseRule]) -> Vec<Extraction> {
    rules.iter().flat_map(|r| r.extract(doc)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_corpus::{DocId, DocKind};
    use quarry_storage::Value;

    fn doc(text: &str) -> Document {
        Document { id: DocId(0), title: "T".into(), text: text.into(), kind: DocKind::City }
    }

    #[test]
    fn monthly_temperature_rule_builds_attribute_from_month() {
        let rules = standard_rules();
        let d = doc("In March, the average temperature in Madison is 35 °F. In July, the average temperature in Madison is 72 °F.");
        let exts = extract(&d, &rules);
        let march = exts.iter().find(|e| e.attribute == "march_temp").unwrap();
        assert_eq!(march.value, Value::Int(35));
        let july = exts.iter().find(|e| e.attribute == "july_temp").unwrap();
        assert_eq!(july.value, Value::Int(72));
    }

    #[test]
    fn population_with_separators() {
        let d = doc("As of the last census, the population of Madison was 250,000.");
        let exts = extract(&d, &standard_rules());
        assert_eq!(exts.len(), 1);
        assert_eq!(exts[0].attribute, "population");
        assert_eq!(exts[0].value, Value::Int(250_000));
    }

    #[test]
    fn founded_and_area_two_bindings() {
        let d = doc("Madison was founded in 1846 and covers 77.0 square miles.");
        let exts = extract(&d, &standard_rules());
        assert_eq!(exts.len(), 2);
        assert_eq!(exts.iter().find(|e| e.attribute == "founded").unwrap().value, Value::Int(1846));
        assert_eq!(
            exts.iter().find(|e| e.attribute == "area_sq_mi").unwrap().value,
            Value::Float(77.0)
        );
    }

    #[test]
    fn person_and_company_rules() {
        let d = doc("David Smith (born 1962) works at Acme Systems. Smith lives in Madison.");
        let exts = extract(&d, &standard_rules());
        let attr = |a: &str| exts.iter().find(|e| e.attribute == a).map(|e| e.value.clone());
        assert_eq!(attr("birth_year"), Some(Value::Int(1962)));
        assert_eq!(attr("employer"), Some(Value::Text("Acme Systems".into())));
        assert_eq!(attr("residence"), Some(Value::Text("Madison".into())));
    }

    #[test]
    fn company_page_rules() {
        let d = doc(
            "Acme Systems is a software company headquartered in Madison. It was founded in 1987.",
        );
        let exts = extract(&d, &standard_rules());
        let attr = |a: &str| exts.iter().find(|e| e.attribute == a).map(|e| e.value.clone());
        assert_eq!(attr("industry"), Some(Value::Text("software".into())));
        assert_eq!(attr("headquarters"), Some(Value::Text("Madison".into())));
        assert_eq!(attr("founded"), Some(Value::Int(1987)));
    }

    #[test]
    fn publication_rules() {
        let d = doc("\"A Survey of Entity Resolution\" appeared at CIDR in 2008. The lead author is D. Smith.");
        let exts = extract(&d, &standard_rules());
        let attr = |a: &str| exts.iter().find(|e| e.attribute == a).map(|e| e.value.clone());
        assert_eq!(attr("venue"), Some(Value::Text("CIDR".into())));
        assert_eq!(attr("year"), Some(Value::Int(2008)));
        assert_eq!(attr("author"), Some(Value::Text("D. Smith".into())));
    }

    #[test]
    fn no_rule_matches_neutral_text() {
        let d = doc("The library maintains regional archives.");
        assert!(extract(&d, &standard_rules()).is_empty());
    }

    #[test]
    fn spans_are_exact() {
        let d = doc("the population of Oakton was 9,500 then");
        let exts = extract(&d, &standard_rules());
        assert_eq!(exts[0].span.slice(&d.text), "9,500");
    }

    #[test]
    #[should_panic(expected = "rule bad")]
    fn invalid_rule_panics_at_construction() {
        ProseRule::new("bad", "(unclosed", vec![], 0.5);
    }
}
