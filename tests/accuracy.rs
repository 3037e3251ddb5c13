//! Accuracy integration: extraction and entity resolution scored against
//! ground truth, with and without noise, blocking, and human intervention.

use quarry::corpus::{Corpus, CorpusConfig, NoiseConfig};
use quarry::extract::eval;
use quarry::hi::oracle::panel;
use quarry::hi::{curate, Crowd, CurateConfig, SelectionPolicy, UncertainItem};
use quarry::integrate::blocking;
use quarry::integrate::matcher::{decide, MatchConfig, MatchDecision, Record};
use quarry::integrate::{pairwise_score, Clustering};
use quarry::lang::{extract, ExecStats, ExtractionCache, ExtractorRegistry};
use quarry::storage::Value;
use quarry::{ExecPool, ExecReport};
use std::collections::BTreeSet;

#[test]
fn extraction_f1_degrades_gracefully_with_noise() {
    let mut scores = Vec::new();
    for (label, noise) in [
        ("none", NoiseConfig::none()),
        ("default", NoiseConfig::default()),
        (
            "heavy",
            NoiseConfig {
                name_variant: 0.8,
                label_variant: 0.6,
                number_format_variant: 0.8,
                unit_variant: 0.8,
                typo: 0.05,
            },
        ),
    ] {
        let c = Corpus::generate(&CorpusConfig { seed: 9, noise, ..CorpusConfig::default() });
        let (registry, pool, cache) =
            (ExtractorRegistry::standard(), ExecPool::sequential(), ExtractionCache::default());
        let (mut report, mut stats) = (ExecReport::new(), ExecStats::default());
        let names = ["infobox", "rules"];
        let exts = extract(&registry, &names, &c.docs, &pool, &cache, &mut report, &mut stats);
        let s = eval::score(&exts.unwrap(), &c.truth);
        scores.push((label, s.f1));
    }
    assert!(scores[0].1 > 0.9, "clean F1 {:.3}", scores[0].1);
    assert!(scores[0].1 > scores[1].1, "noise must cost accuracy: {scores:?}");
    assert!(scores[1].1 > scores[2].1, "more noise, more cost: {scores:?}");
    assert!(scores[2].1 > 0.3, "heavy noise still extracts something: {scores:?}");
}

fn person_matching_items(corpus: &Corpus) -> Vec<UncertainItem> {
    let people = &corpus.truth.people;
    let cfg = MatchConfig::default();
    let mut items = Vec::new();
    for i in 0..people.len() {
        for j in i + 1..people.len() {
            let (a, b) = (&people[i], &people[j]);
            let ta = &corpus.docs[a.doc.index()].title;
            let tb = &corpus.docs[b.doc.index()].title;
            let rec = |id: usize, t: &str, p: &quarry::corpus::PersonFact| {
                Record::new(
                    id,
                    [
                        ("name", Value::Text(t.to_string())),
                        ("birth_year", Value::Int(p.birth_year as i64)),
                        ("employer", Value::Text(p.employer.clone())),
                        ("residence", Value::Text(p.residence.clone())),
                    ],
                )
            };
            let (d, score) = decide(&rec(i, ta, a), &rec(j, tb, b), &cfg);
            items.push(UncertainItem {
                id: items.len(),
                prompt_left: ta.clone(),
                prompt_right: tb.clone(),
                auto_decision: d == MatchDecision::Match,
                auto_score: score,
                truth: a.entity == b.entity,
            });
        }
    }
    items
}

fn er_f1(
    _items: &[UncertainItem],
    n: usize,
    decisions: &[bool],
    truth_pairs: &[(usize, usize)],
) -> f64 {
    // items are indexed over person-page pairs (i, j) in order.
    let mut matched = Vec::new();
    let mut k = 0;
    for i in 0..n {
        for j in i + 1..n {
            if decisions[k] {
                matched.push((i, j));
            }
            k += 1;
        }
    }
    let predicted = Clustering::from_pairs(n, matched);
    let truth = Clustering::from_pairs(n, truth_pairs.iter().copied());
    pairwise_score(&predicted, &truth).f1
}

#[test]
fn hi_budget_improves_entity_resolution_f1() {
    let corpus = Corpus::generate(&CorpusConfig {
        seed: 31,
        n_people: 80,
        duplicate_rate: 0.5,
        noise: NoiseConfig { name_variant: 1.0, ..NoiseConfig::default() },
        ..CorpusConfig::default()
    });
    let items = person_matching_items(&corpus);
    let n = corpus.truth.people.len();
    let truth_pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .filter(|&(i, j)| corpus.truth.people[i].entity == corpus.truth.people[j].entity)
        .collect();

    let auto: Vec<bool> = items.iter().map(|i| i.auto_decision).collect();
    let f1_auto = er_f1(&items, n, &auto, &truth_pairs);

    // 5 votes per question: a single careless answer cannot flip a verdict
    // into a false match (false matches over-merge transitively and cost
    // far more pairwise F1 than a missed match).
    let mut crowd = Crowd::new(panel(5, &[0.05], 3));
    let report = curate(
        &items,
        &mut crowd,
        CurateConfig {
            budget: 1000,
            votes_per_question: 5,
            policy: SelectionPolicy::UncertaintyFirst,
            reputation: None,
        },
    );
    let f1_hi = er_f1(&items, n, &report.decisions, &truth_pairs);
    assert!(f1_hi >= f1_auto, "HI must not hurt: auto {f1_auto:.3} vs HI {f1_hi:.3}");
    assert!(f1_hi > 0.8, "curated ER should be strong, got {f1_hi:.3}");
}

#[test]
fn blocking_preserves_most_true_pairs_while_cutting_work() {
    let corpus = Corpus::generate(&CorpusConfig {
        seed: 17,
        n_people: 120,
        duplicate_rate: 0.5,
        noise: NoiseConfig { name_variant: 1.0, ..NoiseConfig::default() },
        ..CorpusConfig::default()
    });
    let titles: Vec<String> =
        corpus.truth.people.iter().map(|p| corpus.docs[p.doc.index()].title.clone()).collect();
    let truth_pairs: BTreeSet<(usize, usize)> = (0..titles.len())
        .flat_map(|i| ((i + 1)..titles.len()).map(move |j| (i, j)))
        .filter(|&(i, j)| corpus.truth.people[i].entity == corpus.truth.people[j].entity)
        .collect();

    let key = |t: &String| {
        t.split([' ', ','])
            .rfind(|w| w.len() > 1 && w.chars().all(char::is_alphabetic))
            .unwrap_or("")
            .to_lowercase()
    };
    let candidates = blocking::key_blocking(&titles, key);
    let stats = blocking::evaluate(&candidates, &truth_pairs, titles.len());
    assert!(stats.reduction_ratio() > 0.9, "reduction {:.3}", stats.reduction_ratio());
    assert!(stats.pairs_completeness() > 0.6, "completeness {:.3}", stats.pairs_completeness());
}
