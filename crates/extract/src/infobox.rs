//! Infobox extraction: `{{Infobox kind | key = value ... }}` blocks.
//!
//! The highest-precision extractor: infobox lines are machine-written
//! key/value markup, so confidence is high; label *names* may still be
//! variants (`residents` for `population`) — resolving that is the
//! integration layer's job, not this extractor's.

use crate::model::{Extraction, Span};
use crate::normalize;
use crate::regex::Regex;
use quarry_corpus::Document;
use std::sync::OnceLock;

/// Name this extractor reports in provenance.
pub const NAME: &str = "infobox";

/// Confidence assigned to infobox extractions (markup is near-deterministic;
/// residual risk is template vandalism and parse ambiguity).
pub const CONFIDENCE: f64 = 0.95;

pub(crate) fn line_re() -> &'static Regex {
    static RE: OnceLock<Regex> = OnceLock::new();
    RE.get_or_init(|| {
        Regex::new(r"\| *([a-zA-Z_][a-zA-Z0-9_]*) *= *([^\n]+)").expect("static pattern")
    })
}

/// The parsed header and body bounds of an infobox block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfoboxBlock {
    /// The template kind (`settlement`, `person`, ...).
    pub kind: String,
    /// Byte range of the whole block including braces.
    pub span: Span,
}

/// Locate the first infobox block of a page, if any.
pub fn find_block(text: &str) -> Option<InfoboxBlock> {
    let start = text.find("{{Infobox")?;
    let rest = &text[start..];
    let end_rel = rest.find("}}")? + 2;
    let header_end = rest.find('\n').unwrap_or(end_rel);
    let kind = rest["{{Infobox".len()..header_end].trim().to_string();
    Some(InfoboxBlock { kind, span: Span::new(start, start + end_rel) })
}

/// Extract every `key = value` pair from a document's infobox.
pub fn extract(doc: &Document) -> Vec<Extraction> {
    let Some(block) = find_block(&doc.text) else {
        return Vec::new();
    };
    let body = block.span.slice(&doc.text);
    let mut out = Vec::new();
    for caps in line_re().captures_iter(body) {
        let (Some(key), Some(val)) = (caps.get(1), caps.get(2)) else {
            continue;
        };
        let attribute = key.as_str(body).to_string();
        let raw = val.as_str(body).trim().to_string();
        if raw.is_empty() {
            continue;
        }
        // Rebase the value span onto the document.
        let span =
            Span::new(block.span.start + val.start, block.span.start + val.start + raw.len());
        let value = normalize::normalize(&attribute, &raw);
        out.push(Extraction {
            doc: doc.id,
            attribute,
            raw,
            value,
            span,
            confidence: CONFIDENCE,
            extractor: NAME,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_corpus::{DocId, DocKind};
    use quarry_storage::Value;

    fn doc(text: &str) -> Document {
        Document { id: DocId(0), title: "T".into(), text: text.into(), kind: DocKind::City }
    }

    const PAGE: &str = "{{Infobox settlement\n| name = Madison\n| state = Wisconsin\n| population = 250,000\n| january_temp = 26 °F\n}}\n\nProse follows.";

    #[test]
    fn finds_block_and_kind() {
        let b = find_block(PAGE).unwrap();
        assert_eq!(b.kind, "settlement");
        assert!(b.span.slice(PAGE).starts_with("{{Infobox"));
        assert!(b.span.slice(PAGE).ends_with("}}"));
    }

    #[test]
    fn extracts_all_pairs_normalized() {
        let d = doc(PAGE);
        let exts = extract(&d);
        assert_eq!(exts.len(), 4);
        let by_attr = |a: &str| exts.iter().find(|e| e.attribute == a).unwrap();
        assert_eq!(by_attr("name").value, Value::Text("Madison".into()));
        assert_eq!(by_attr("population").value, Value::Int(250_000));
        assert_eq!(by_attr("january_temp").value, Value::Int(26));
        assert!(exts.iter().all(|e| e.extractor == NAME));
        assert!(exts.iter().all(|e| e.confidence == CONFIDENCE));
    }

    #[test]
    fn spans_point_at_raw_values() {
        let d = doc(PAGE);
        let exts = extract(&d);
        for e in &exts {
            assert_eq!(e.span.slice(&d.text), e.raw, "span/raw mismatch for {}", e.attribute);
        }
    }

    #[test]
    fn page_without_infobox_yields_nothing() {
        assert!(extract(&doc("Just prose, no template.")).is_empty());
        assert!(extract(&doc("{{Infobox broken")).is_empty());
    }

    #[test]
    fn variant_labels_pass_through_unresolved() {
        let d = doc("{{Infobox settlement\n| residents = 9,000\n}}");
        let exts = extract(&d);
        assert_eq!(exts[0].attribute, "residents");
        assert_eq!(exts[0].value, Value::Int(9_000));
    }

    #[test]
    fn empty_values_are_skipped() {
        let d = doc("{{Infobox settlement\n| name = \n| state = Ohio\n}}");
        let exts = extract(&d);
        assert_eq!(exts.len(), 1);
        assert_eq!(exts[0].attribute, "state");
    }
}
