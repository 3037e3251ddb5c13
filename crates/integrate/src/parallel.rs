//! Parallel pairwise scoring over candidate blocks, with a memoised
//! name-similarity kernel.
//!
//! Blocking produces candidate pairs; the expensive part is scoring
//! them. [`score_pairs`] fans the pair list out over a `quarry-exec`
//! pool and returns decisions **in pair order**, which is all a caller
//! needs to reproduce the sequential algorithm exactly: clustering
//! decisions (union-find merges, uncertain-pair queues) are applied by
//! the caller in that same order.

use crate::blocking::Pair;
use crate::matcher::{decide_with, MatchConfig, MatchDecision, Record};
use crate::similarity::name_similarity;
use quarry_exec::{ExecPool, ExecReport, MemoCache};

/// Memo cache for `name_similarity`, keyed by the (ordered) string pair.
/// Name strings recur heavily across candidate pairs — every record in a
/// block is compared against every other — so memoisation converts the
/// quadratic number of kernel runs into roughly the number of distinct
/// name pairs.
pub struct SimCache {
    inner: MemoCache<(String, String), f64>,
}

impl SimCache {
    /// Cache with room for about `capacity` distinct name pairs.
    pub fn new(capacity: usize) -> SimCache {
        SimCache { inner: MemoCache::new(capacity) }
    }

    /// Memoised [`name_similarity`].
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        // Canonicalise the key: the kernel is symmetric.
        let key =
            if a <= b { (a.to_string(), b.to_string()) } else { (b.to_string(), a.to_string()) };
        self.inner.get_or_insert_with(key, || name_similarity(a, b))
    }

    /// Lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.inner.hits()
    }

    /// Lookups that ran the kernel.
    pub fn misses(&self) -> u64 {
        self.inner.misses()
    }
}

impl Default for SimCache {
    fn default() -> SimCache {
        SimCache::new(1 << 16)
    }
}

/// Score every candidate pair on `pool`, returning
/// `(pair, decision, score)` in the same order as `pairs` — byte-for-byte
/// what a sequential `decide` loop would produce, because the memoised
/// kernel returns the same value as `name_similarity` for every input.
pub fn score_pairs(
    records: &[Record],
    pairs: &[Pair],
    cfg: &MatchConfig,
    pool: &ExecPool,
    cache: &SimCache,
    report: &mut ExecReport,
) -> Vec<(Pair, MatchDecision, f64)> {
    let out = pool.map(
        "integrate/score-pairs",
        pairs,
        |_, &(i, j)| {
            let (d, s) = decide_with(&records[i], &records[j], cfg, &|a, b| cache.similarity(a, b));
            ((i, j), d, s)
        },
        report,
    );
    report.incr("sim_cache_hits", cache.hits());
    report.incr("sim_cache_misses", cache.misses());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::all_pairs;
    use crate::matcher::decide;
    use quarry_storage::Value;

    fn records() -> Vec<Record> {
        // Recurring names so the memo cache actually gets hits.
        let names = ["David Smith", "D. Smith", "Laura Johnson", "David Smith", "L. Johnson"];
        names
            .iter()
            .enumerate()
            .map(|(i, n)| Record::new(i, [("name", Value::Text((*n).into()))]))
            .collect()
    }

    #[test]
    fn parallel_scores_equal_sequential_decide() {
        let recs = records();
        let pairs = all_pairs(recs.len());
        let cfg = MatchConfig::default();
        let expected: Vec<_> = pairs
            .iter()
            .map(|&(i, j)| {
                let (d, s) = decide(&recs[i], &recs[j], &cfg);
                ((i, j), d, s)
            })
            .collect();
        for threads in [1, 2, 4] {
            let pool = ExecPool::new(threads).with_batch_size(2);
            let cache = SimCache::default();
            let mut report = ExecReport::new();
            let got = score_pairs(&recs, &pairs, &cfg, &pool, &cache, &mut report);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn cache_hits_on_recurring_names() {
        let recs = records();
        let pairs = all_pairs(recs.len());
        let cfg = MatchConfig::default();
        let pool = ExecPool::sequential();
        let cache = SimCache::default();
        let mut report = ExecReport::new();
        score_pairs(&recs, &pairs, &cfg, &pool, &cache, &mut report);
        // Two identical "David Smith" records make several pairs share a
        // canonical key.
        assert!(report.counter("sim_cache_hits") > 0);
        assert_eq!(
            report.counter("sim_cache_hits") + report.counter("sim_cache_misses"),
            pairs.len() as u64
        );
    }
}
