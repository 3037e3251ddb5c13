//! Crawl simulator: daily snapshots of a slowly changing document set.
//!
//! The paper's storage-layer discussion assumes "unstructured data retrieved
//! daily from a collection of Web sites", where consecutive snapshots
//! "overlap a lot" and therefore suit a diff-based store. This module
//! produces that workload: snapshot 0 is the corpus as generated; each later
//! snapshot edits a small fraction of pages (sentence tweaks, value bumps,
//! appended paragraphs) and occasionally adds a page.

use crate::generator::Corpus;
use crate::types::{DocId, DocKind, Document};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Crawl workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrawlConfig {
    /// RNG seed for the edit stream (independent of the corpus seed).
    pub seed: u64,
    /// Number of snapshots to produce (snapshot 0 = unmodified corpus).
    pub days: usize,
    /// Fraction of documents edited per day, in `[0,1]`.
    pub churn: f64,
    /// Probability per day that one brand-new page appears.
    pub new_page_rate: f64,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig { seed: 0, days: 30, churn: 0.02, new_page_rate: 0.5 }
    }
}

/// One day's crawl: the full text of every page as of that day.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// 0-based day number.
    pub day: usize,
    /// All documents as of this day.
    pub docs: Vec<Document>,
}

impl Snapshot {
    /// Total bytes across all pages in this snapshot.
    pub fn total_bytes(&self) -> usize {
        self.docs.iter().map(Document::len).sum()
    }
}

/// Iterator-style simulator producing consecutive snapshots.
pub struct CrawlSimulator {
    rng: StdRng,
    config: CrawlConfig,
    current: Vec<Document>,
    day: usize,
    next_id: u32,
}

const APPENDED: &[&str] = &[
    "A recent development project has attracted regional attention.",
    "Updated figures were released by the municipal statistics office.",
    "An editorial review corrected several minor details on this page.",
    "New photographs of the area were contributed this week.",
];

impl CrawlSimulator {
    /// Start a simulation from a generated corpus.
    pub fn new(corpus: &Corpus, config: CrawlConfig) -> Self {
        let next_id = corpus.docs.len() as u32;
        CrawlSimulator {
            rng: StdRng::seed_from_u64(config.seed),
            config,
            current: corpus.docs.clone(),
            day: 0,
            next_id,
        }
    }

    /// Produce the next snapshot, or `None` after `config.days` snapshots.
    pub fn next_snapshot(&mut self) -> Option<Snapshot> {
        if self.day >= self.config.days {
            return None;
        }
        if self.day > 0 {
            self.mutate();
        }
        let snap = Snapshot { day: self.day, docs: self.current.clone() };
        self.day += 1;
        Some(snap)
    }

    /// Collect all snapshots eagerly.
    pub fn run(mut self) -> Vec<Snapshot> {
        let mut out = Vec::with_capacity(self.config.days);
        while let Some(s) = self.next_snapshot() {
            out.push(s);
        }
        out
    }

    fn mutate(&mut self) {
        let n_edits = ((self.current.len() as f64) * self.config.churn).ceil() as usize;
        for _ in 0..n_edits {
            let i = self.rng.gen_range(0..self.current.len());
            let doc = &mut self.current[i];
            match self.rng.gen_range(0..3u8) {
                // Append a sentence at the end (most common wiki edit).
                0 => {
                    doc.text.push_str(APPENDED[self.rng.gen_range(0..APPENDED.len())]);
                    doc.text.push(' ');
                }
                // Tweak one digit of some number in the page (a value update).
                1 => {
                    // SAFETY: the only writes below replace an ASCII digit
                    // byte with another ASCII digit, so the buffer remains
                    // valid UTF-8.
                    let bytes = unsafe { doc.text.as_bytes_mut() };
                    let digit_positions: Vec<usize> = bytes
                        .iter()
                        .enumerate()
                        .filter(|(_, b)| b.is_ascii_digit())
                        .map(|(p, _)| p)
                        .collect();
                    if let Some(&p) =
                        digit_positions.get(self.rng.gen_range(0..digit_positions.len().max(1)))
                    {
                        bytes[p] = b'0' + self.rng.gen_range(0..10u8);
                    }
                }
                // Delete the final sentence (vandalism revert / trim).
                _ => {
                    if let Some(p) = doc.text.trim_end().rfind(". ") {
                        doc.text.truncate(p + 2);
                    }
                }
            }
        }
        if self.rng.gen_bool(self.config.new_page_rate) {
            let id = DocId(self.next_id);
            self.next_id += 1;
            self.current.push(Document {
                id,
                title: format!("New article {}", id.0),
                text: format!(
                    "A newly created stub article, first seen on day {}. {}",
                    self.day,
                    APPENDED[self.rng.gen_range(0..APPENDED.len())]
                ),
                kind: DocKind::City,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Corpus, CorpusConfig};

    fn snaps(days: usize, churn: f64) -> Vec<Snapshot> {
        let corpus = Corpus::generate(&CorpusConfig::tiny(1));
        CrawlSimulator::new(&corpus, CrawlConfig { seed: 2, days, churn, new_page_rate: 0.3 }).run()
    }

    #[test]
    fn first_snapshot_is_the_corpus() {
        let corpus = Corpus::generate(&CorpusConfig::tiny(1));
        let s = CrawlSimulator::new(&corpus, CrawlConfig::default()).next_snapshot().unwrap();
        assert_eq!(s.day, 0);
        assert_eq!(s.docs, corpus.docs);
    }

    #[test]
    fn produces_requested_number_of_days() {
        assert_eq!(snaps(5, 0.1).len(), 5);
    }

    #[test]
    fn consecutive_snapshots_overlap_heavily() {
        let ss = snaps(3, 0.05);
        let unchanged =
            ss[0].docs.iter().zip(&ss[1].docs).filter(|(a, b)| a.text == b.text).count();
        // With 5% churn, ≥ 80% of docs should be byte-identical day over day.
        assert!(unchanged * 10 >= ss[0].docs.len() * 8, "{unchanged}/{}", ss[0].docs.len());
    }

    #[test]
    fn churn_actually_changes_documents() {
        let ss = snaps(2, 0.5);
        let changed = ss[0].docs.iter().zip(&ss[1].docs).filter(|(a, b)| a.text != b.text).count();
        assert!(changed > 0);
    }

    #[test]
    fn new_pages_get_fresh_ids() {
        let ss = snaps(20, 0.02);
        let last = ss.last().unwrap();
        let mut ids: Vec<u32> = last.docs.iter().map(|d| d.id.0).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate doc ids after crawl");
        assert!(last.docs.len() >= ss[0].docs.len());
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = snaps(4, 0.1);
        let b = snaps(4, 0.1);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn exhausted_simulator_returns_none() {
        let corpus = Corpus::generate(&CorpusConfig::tiny(1));
        let mut sim =
            CrawlSimulator::new(&corpus, CrawlConfig { days: 1, ..CrawlConfig::default() });
        assert!(sim.next_snapshot().is_some());
        assert!(sim.next_snapshot().is_none());
    }
}
