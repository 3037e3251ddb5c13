//! The extraction data model: spans and attribute-value extractions.

use quarry_corpus::DocId;
use quarry_storage::Value;
use std::fmt;

/// A byte range within a document's text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// Inclusive start byte offset.
    pub start: usize,
    /// Exclusive end byte offset.
    pub end: usize,
}

impl Span {
    /// Construct a span; panics if `end < start`.
    pub fn new(start: usize, end: usize) -> Span {
        assert!(end >= start, "span end before start");
        Span { start, end }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for zero-length spans.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The text this span covers.
    pub fn slice<'a>(&self, text: &'a str) -> &'a str {
        &text[self.start..self.end]
    }

    /// Whether two spans overlap by at least one byte.
    pub fn overlaps(&self, other: &Span) -> bool {
        self.start < other.end && other.start < self.end
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{})", self.start, self.end)
    }
}

/// One extracted attribute-value pair, the paper's unit of generated
/// structure (e.g. `("month" = "September", "temperature" = 70)`).
#[derive(Debug, Clone, PartialEq)]
pub struct Extraction {
    /// Source document.
    pub doc: DocId,
    /// Attribute name, canonicalized by the extractor (e.g. `september_temp`).
    pub attribute: String,
    /// The raw surface text of the value.
    pub raw: String,
    /// The normalized, typed value.
    pub value: Value,
    /// Where in the document the value came from.
    pub span: Span,
    /// Extractor-assigned confidence in `[0,1]`.
    pub confidence: f64,
    /// Name of the producing extractor (provenance).
    pub extractor: &'static str,
}

impl Extraction {
    /// Stable identity for dedup: same doc + attribute + normalized value.
    pub fn identity(&self) -> (DocId, &str, &Value) {
        (self.doc, &self.attribute, &self.value)
    }
}

/// Remove duplicate extractions (same identity), keeping the most confident.
pub fn dedup(mut extractions: Vec<Extraction>) -> Vec<Extraction> {
    extractions.sort_by(dedup_order);
    dedup_sorted(extractions)
}

/// The comparator [`dedup`] sorts by: identity ascending, then confidence
/// descending, so the first witness of each identity is the most
/// confident one. Exposed so a parallel sort can reproduce `dedup`
/// exactly (see `quarry-exec`).
pub fn dedup_order(a: &Extraction, b: &Extraction) -> std::cmp::Ordering {
    a.identity()
        .cmp(&b.identity())
        .then(b.confidence.partial_cmp(&a.confidence).unwrap_or(std::cmp::Ordering::Equal))
}

/// Second half of [`dedup`]: collapse a vector already sorted by
/// [`dedup_order`] down to one witness per identity.
pub fn dedup_sorted(mut extractions: Vec<Extraction>) -> Vec<Extraction> {
    extractions.dedup_by(|next, kept| next.identity() == kept.identity());
    extractions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext(attr: &str, val: i64, conf: f64) -> Extraction {
        Extraction {
            doc: DocId(1),
            attribute: attr.into(),
            raw: val.to_string(),
            value: Value::Int(val),
            span: Span::new(0, 2),
            confidence: conf,
            extractor: "test",
        }
    }

    #[test]
    fn span_slice_and_overlap() {
        let s = Span::new(4, 9);
        assert_eq!(s.slice("the quick fox"), "quick");
        assert_eq!(s.len(), 5);
        assert!(s.overlaps(&Span::new(8, 10)));
        assert!(!s.overlaps(&Span::new(9, 10)));
        assert!(!Span::new(2, 2).overlaps(&s));
    }

    #[test]
    #[should_panic(expected = "span end before start")]
    fn invalid_span_panics() {
        Span::new(5, 4);
    }

    #[test]
    fn dedup_keeps_highest_confidence() {
        let out = dedup(vec![ext("a", 1, 0.5), ext("a", 1, 0.9), ext("a", 2, 0.3)]);
        assert_eq!(out.len(), 2);
        let best = out.iter().find(|e| e.value == Value::Int(1)).unwrap();
        assert_eq!(best.confidence, 0.9);
    }

    #[test]
    fn dedup_distinguishes_docs_and_attributes() {
        let mut e2 = ext("a", 1, 0.5);
        e2.doc = DocId(2);
        let out = dedup(vec![ext("a", 1, 0.5), e2, ext("b", 1, 0.5)]);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn span_display() {
        assert_eq!(Span::new(3, 7).to_string(), "[3..7)");
    }
}
