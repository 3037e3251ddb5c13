//! Distant supervision: train learned extractors from the corpus itself.
//!
//! The redundancy the paper's architecture banks on — the same fact stated
//! in infobox markup *and* in prose — is also free training data: wherever
//! an infobox value reappears verbatim in the page's prose, that prose span
//! is a positive example for the attribute. Training the
//! [`NaiveBayes`] classifier on these
//! auto-labels yields an extractor that works on pages with *no infobox at
//! all* — structure teaching the system to find more structure, with no
//! human labeling.

use crate::infobox;
use crate::learned::{LabeledDoc, NaiveBayes};
use crate::model::{Extraction, Span};
use quarry_corpus::Document;

/// Auto-label prose occurrences of a document's infobox values.
///
/// Returns a labeled document for `attribute`: every prose span (outside
/// the infobox block) whose text equals the infobox's value for that
/// attribute is marked positive.
pub fn auto_label(doc: &Document, attribute: &str) -> Option<LabeledDoc> {
    let block = infobox::find_block(&doc.text)?;
    let infobox_exts = infobox::extract(doc);
    let value = infobox_exts.iter().find(|e| e.attribute == attribute)?.raw.clone();
    if value.len() < 2 {
        return None; // single characters label everything; useless signal
    }
    let mut positive = Vec::new();
    let prose_start = block.span.end;
    let prose = &doc.text[prose_start..];
    let mut from = 0usize;
    while let Some(pos) = prose[from..].find(value.as_str()) {
        let start = prose_start + from + pos;
        positive.push(Span::new(start, start + value.len()));
        from += pos + value.len();
    }
    if positive.is_empty() {
        return None;
    }
    Some(LabeledDoc { text: doc.text.clone(), positive })
}

/// A distantly supervised extractor for one attribute.
#[derive(Debug, Clone)]
pub struct DistantExtractor {
    attribute: String,
    model: NaiveBayes,
    threshold: f64,
    /// How many documents contributed auto-labels.
    pub training_docs: usize,
}

impl DistantExtractor {
    /// Train from every document whose infobox value for `attribute`
    /// reappears in its prose.
    pub fn train(docs: &[Document], attribute: &str, threshold: f64) -> DistantExtractor {
        let labeled: Vec<LabeledDoc> =
            docs.iter().filter_map(|d| auto_label(d, attribute)).collect();
        DistantExtractor {
            attribute: attribute.to_string(),
            model: NaiveBayes::train(attribute, &labeled),
            threshold,
            training_docs: labeled.len(),
        }
    }

    /// Extract from a document — most useful on pages without an infobox.
    pub fn extract(&self, doc: &Document) -> Vec<Extraction> {
        self.model.extract(doc, self.threshold)
    }

    /// The target attribute.
    pub fn attribute(&self) -> &str {
        &self.attribute
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_corpus::{Corpus, CorpusConfig, DocId, DocKind, NoiseConfig};
    use quarry_storage::Value;

    fn strip_infobox(doc: &Document) -> Document {
        let end = infobox::find_block(&doc.text).map(|b| b.span.end).unwrap_or(0);
        Document {
            id: doc.id,
            title: doc.title.clone(),
            text: doc.text[end..].trim_start().to_string(),
            kind: doc.kind,
        }
    }

    #[test]
    fn auto_label_finds_prose_restatements() {
        let doc = Document {
            id: DocId(0),
            title: "T".into(),
            text: "{{Infobox settlement\n| population = 250,000\n}}\n\nAs of the last census, the population of Madison was 250,000. Growth continues.".into(),
            kind: DocKind::City,
        };
        let labeled = auto_label(&doc, "population").expect("label found");
        assert_eq!(labeled.positive.len(), 1);
        assert_eq!(labeled.positive[0].slice(&labeled.text), "250,000");
        // The infobox's own occurrence is not labeled (prose only).
        assert!(labeled.positive[0].start > doc.text.find("}}").unwrap());
    }

    #[test]
    fn no_label_without_infobox_or_restatement() {
        let plain = Document {
            id: DocId(1),
            title: "T".into(),
            text: "Just prose with numbers 42.".into(),
            kind: DocKind::City,
        };
        assert!(auto_label(&plain, "population").is_none());
        let unechoed = Document {
            id: DocId(2),
            title: "T".into(),
            text: "{{Infobox settlement\n| population = 99,999\n}}\n\nProse that never repeats it."
                .into(),
            kind: DocKind::City,
        };
        assert!(auto_label(&unechoed, "population").is_none());
    }

    #[test]
    fn distant_extractor_recovers_facts_from_infobox_free_pages() {
        // Train on the full corpus; test on the same pages with their
        // infoboxes removed, so only prose remains.
        let corpus = Corpus::generate(&CorpusConfig {
            seed: 77,
            n_cities: 60,
            noise: NoiseConfig::none(),
            ..CorpusConfig::default()
        });
        let ext = DistantExtractor::train(&corpus.docs, "population", 0.8);
        assert!(ext.training_docs > 20, "{} training docs", ext.training_docs);

        let mut tp = 0usize;
        let mut total = 0usize;
        let mut fp = 0usize;
        for c in &corpus.truth.cities {
            let bare = strip_infobox(&corpus.docs[c.doc.index()]);
            assert!(!bare.text.contains("Infobox"));
            total += 1;
            for e in ext.extract(&bare) {
                if e.value == Value::Int(c.population as i64) {
                    tp += 1;
                } else {
                    fp += 1;
                }
            }
        }
        let recall = tp as f64 / total as f64;
        assert!(recall > 0.6, "recall {recall:.3} (tp={tp}, total={total})");
        assert!(fp <= tp, "precision collapsed: tp={tp}, fp={fp}");
    }

    #[test]
    fn threshold_trades_precision_for_recall() {
        let corpus = Corpus::generate(&CorpusConfig {
            seed: 78,
            n_cities: 50,
            noise: NoiseConfig::none(),
            ..CorpusConfig::default()
        });
        let strict = DistantExtractor::train(&corpus.docs, "population", 0.99);
        let lax = DistantExtractor::train(&corpus.docs, "population", 0.5);
        let count = |e: &DistantExtractor| -> usize {
            corpus
                .truth
                .cities
                .iter()
                .map(|c| e.extract(&strip_infobox(&corpus.docs[c.doc.index()])).len())
                .sum()
        };
        assert!(count(&lax) >= count(&strict), "lower threshold must not extract less");
    }
}
