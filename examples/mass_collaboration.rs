//! Mass collaboration: crowds of imperfect users curating entity matches.
//!
//! §3.2: "it may be highly beneficial to allow a multitude of users,
//! instead of just a single one, to be able to provide feedback, in a mass
//! collaboration fashion" — provided the system manages reputation. This
//! example resolves person duplicates ("David Smith" vs "D. Smith") three
//! ways: automatically, with a noisy crowd majority, and with
//! reputation-weighted voting that learns to discount unreliable users.
//!
//! Run with: `cargo run --example mass_collaboration`

use quarry::corpus::{Corpus, CorpusConfig, NoiseConfig};
use quarry::hi::oracle::panel;
use quarry::hi::{curate, Crowd, CurateConfig, ReputationTracker, SelectionPolicy, UncertainItem};
use quarry::integrate::matcher::{decide, MatchConfig, MatchDecision, Record};
use quarry::storage::Value;

fn main() {
    // People with many duplicate pages under name variants.
    let corpus = Corpus::generate(&CorpusConfig {
        seed: 99,
        n_people: 150,
        duplicate_rate: 0.5,
        noise: NoiseConfig { name_variant: 1.0, ..NoiseConfig::default() },
        ..CorpusConfig::default()
    });

    // Candidate pairs: person pages sharing a surname-ish block.
    let people = &corpus.truth.people;
    let mut items = Vec::new();
    let cfg = MatchConfig::default();
    for i in 0..people.len() {
        for j in i + 1..people.len() {
            let (a, b) = (&people[i], &people[j]);
            let sa = corpus.docs[a.doc.index()].title.clone();
            let sb = corpus.docs[b.doc.index()].title.clone();
            // Cheap block: same last word of the page title.
            if sa.split(' ').next_back() != sb.split(' ').next_back() {
                continue;
            }
            let rec = |id: usize, title: &str, p: &quarry::corpus::PersonFact| {
                Record::new(
                    id,
                    [
                        ("name", Value::Text(title.to_string())),
                        ("birth_year", Value::Int(p.birth_year as i64)),
                        ("employer", Value::Text(p.employer.clone())),
                    ],
                )
            };
            let (d, score) = decide(&rec(i, &sa, a), &rec(j, &sb, b), &cfg);
            items.push(UncertainItem {
                id: items.len(),
                prompt_left: sa,
                prompt_right: sb,
                auto_decision: d == MatchDecision::Match,
                auto_score: score,
                truth: a.entity == b.entity,
            });
        }
    }
    let auto: Vec<bool> = items.iter().map(|i| i.auto_decision).collect();
    println!("candidate pairs: {}", items.len());
    println!("automatic matcher accuracy:            {:.3}", accuracy(&items, &auto));

    // A crowd where 2 of 5 members are careless (40% error).
    let rates = [0.05, 0.4, 0.05, 0.4, 0.1];
    let budget = items.len() as u32 * 3;

    let mut crowd = Crowd::new(panel(5, &rates, 1));
    let majority = curate(
        &items,
        &mut crowd,
        CurateConfig {
            budget,
            votes_per_question: 3,
            policy: SelectionPolicy::UncertaintyFirst { centre: cfg.band_centre() },
            reputation: None,
        },
    );
    println!(
        "crowd majority (3 votes, noisy users):  {:.3}  ({} overrides, {} budget)",
        accuracy(&items, &majority.decisions),
        majority.overrides,
        majority.spent
    );

    let mut crowd = Crowd::new(panel(5, &rates, 1));
    let weighted = curate(
        &items,
        &mut crowd,
        CurateConfig {
            budget,
            votes_per_question: 3,
            policy: SelectionPolicy::UncertaintyFirst { centre: cfg.band_centre() },
            reputation: Some(ReputationTracker::new()),
        },
    );
    println!(
        "reputation-weighted voting:             {:.3}  ({} overrides)",
        accuracy(&items, &weighted.decisions),
        weighted.overrides
    );

    if let Some(rep) = &weighted.reputation {
        println!("\nlearned reliabilities (truth in parentheses):");
        for (uid, err) in rates.iter().enumerate() {
            let r = rep.reliability(quarry::hi::oracle::UserId(uid as u32));
            println!("  user {uid}: estimated {:.2} (true {:.2})", r.mean(), 1.0 - err);
        }
    }
}

fn accuracy(items: &[UncertainItem], decisions: &[bool]) -> f64 {
    items.iter().zip(decisions).filter(|(i, &d)| i.truth == d).count() as f64 / items.len() as f64
}
