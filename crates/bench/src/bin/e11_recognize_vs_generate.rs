//! E11 — §3.3: "it is very easy for users to recognize something that fits
//! their needs, yet very difficult for them to generate this something
//! without help ... narrowing the set of potential matches to a manageable
//! number allows users to spot the correct match, when they would be
//! swamped by the total number of potential matches."
//!
//! Task: for each left record (a person page), find its true duplicate
//! among N candidates. Two protocols at *equal human budget k*:
//!   recognition — the matcher ranks candidates; the user reviews the top k;
//!   generation  — no system help; the user reviews k candidates blindly.

use quarry_bench::{banner, f3, Table};
use quarry_corpus::{Corpus, CorpusConfig, NoiseConfig};
use quarry_hi::oracle::SimulatedUser;
use quarry_hi::Question;
use quarry_integrate::matcher::{match_score, MatchConfig, Record};
use quarry_storage::Value;

fn main() {
    banner(
        "E11 recognize vs generate",
        "verification beats generation at equal budget when the system narrows the \
         candidates (§3.3)",
    );
    let corpus = Corpus::generate(&CorpusConfig {
        seed: 11,
        n_people: 200,
        duplicate_rate: 1.0, // every person has exactly one duplicate page
        noise: NoiseConfig { name_variant: 1.0, ..NoiseConfig::default() },
        ..CorpusConfig::default()
    });
    let people = &corpus.truth.people;
    // Pages: even indexes original, odd indexes duplicates (generation order).
    let originals: Vec<usize> = (0..people.len()).step_by(2).collect();
    let duplicates: Vec<usize> = (1..people.len()).step_by(2).collect();
    println!(
        "task: match {} original pages to their duplicate among {} candidates\n",
        originals.len(),
        duplicates.len()
    );

    let cfg = MatchConfig::default();
    let rec = |idx: usize| {
        let p = &people[idx];
        Record::new(
            idx,
            [
                ("name", Value::Text(corpus.docs[p.doc.index()].title.clone())),
                ("birth_year", Value::Int(p.birth_year as i64)),
                ("employer", Value::Text(p.employer.clone())),
            ],
        )
    };

    let mut user = SimulatedUser::new(0, 0.05, 17);
    let mut table =
        Table::new(&["budget k", "recognition (ranked top-k)", "generation (blind scan)"]);
    for k in [1usize, 3, 5, 10, 20] {
        let mut recog = 0usize;
        let mut blind = 0usize;
        for (qi, &left) in originals.iter().enumerate() {
            let truth_right =
                duplicates.iter().copied().find(|&d| people[d].entity == people[left].entity);
            let Some(truth_right) = truth_right else { continue };

            // Recognition: rank all candidates by matcher score, show top-k.
            let mut scored: Vec<(usize, f64)> =
                duplicates.iter().map(|&d| (d, match_score(&rec(left), &rec(d), &cfg))).collect();
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            if scan(&mut user, qi, left, truth_right, scored.iter().take(k).map(|(d, _)| *d)) {
                recog += 1;
            }

            // Generation: no ranking; the user inspects k arbitrary
            // candidates (deterministic pseudo-shuffle).
            let mut order = duplicates.clone();
            let n = order.len();
            for i in 0..n {
                let j = (i * 7919 + left * 31) % n;
                order.swap(i, j);
            }
            if scan(&mut user, qi + 100_000, left, truth_right, order.into_iter().take(k)) {
                blind += 1;
            }
        }
        let n = originals.len() as f64;
        table.row(&[k.to_string(), f3(recog as f64 / n), f3(blind as f64 / n)]);
    }
    table.print();
    println!("\nexpected shape: recognition near-perfect at tiny k; blind generation scales\nonly as k/N — the automated narrowing is what makes human verification viable.");
}

/// The user inspects candidates in order, answering "is this the match?"
/// per pair; returns whether they accepted the true match.
fn scan(
    user: &mut SimulatedUser,
    qbase: usize,
    _left: usize,
    truth_right: usize,
    candidates: impl Iterator<Item = usize>,
) -> bool {
    for (off, cand) in candidates.enumerate() {
        let q = Question::verify_match(qbase * 64 + off, "left", "right", cand == truth_right);
        if user.answer(&q) && cand == truth_right {
            return true;
        }
    }
    false
}
