//! Core document types shared across the corpus and the rest of Quarry.

use std::fmt;

/// Stable identifier of a document within a corpus.
///
/// Identifiers are dense (0..n) so they can double as vector indexes in
/// downstream components (inverted index posting lists).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocId(pub u32);

impl DocId {
    /// The id as a usize, for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "doc:{}", self.0)
    }
}

/// The template a page was generated from.
///
/// Downstream code must *not* rely on this for extraction decisions (a real
/// system does not know page kinds a priori); it exists for evaluation
/// stratification only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DocKind {
    /// A city page: infobox with population/temperatures, prose restating them.
    City,
    /// A person page: birth year, employer, residence.
    Person,
    /// A company page: founding year, headquarters, industry.
    Company,
    /// A publication page: venue, year, author list.
    Publication,
}

impl DocKind {
    /// All kinds, in generation order.
    pub const ALL: [DocKind; 4] =
        [DocKind::City, DocKind::Person, DocKind::Company, DocKind::Publication];

    /// Lower-case label used in rendered infobox headers.
    pub fn label(self) -> &'static str {
        match self {
            DocKind::City => "settlement",
            DocKind::Person => "person",
            DocKind::Company => "company",
            DocKind::Publication => "publication",
        }
    }
}

/// One unstructured document: a wiki-like page of plain text.
///
/// `text` is the only field an extractor may look at. The infobox is plain
/// text inside the page (a `{{Infobox ...}}` block of `| key = value` lines)
/// mirroring MediaWiki markup; prose paragraphs restate a subset of the same
/// facts in natural-language sentences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Corpus-unique id.
    pub id: DocId,
    /// Page title (e.g. "Madison, Wisconsin").
    pub title: String,
    /// Full page text: infobox block followed by prose paragraphs.
    pub text: String,
    /// Generation template (evaluation only; see [`DocKind`]).
    pub kind: DocKind,
}

impl Document {
    /// Approximate size in bytes of the page content.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// True when the page body is empty.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_id_display_and_index() {
        let id = DocId(7);
        assert_eq!(id.to_string(), "doc:7");
        assert_eq!(id.index(), 7);
    }

    #[test]
    fn doc_kind_labels_are_distinct() {
        let mut labels: Vec<_> = DocKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn document_len_tracks_text() {
        let d =
            Document { id: DocId(0), title: "T".into(), text: "hello".into(), kind: DocKind::City };
        assert_eq!(d.len(), 5);
        assert!(!d.is_empty());
    }
}
