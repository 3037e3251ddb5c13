//! E2 — §3.2: automatic IE/II "often will not be 100% accurate"; human
//! intervention repairs it, mass collaboration tolerates noisy users, and
//! reputation weighting beats plain majority when some users are careless.
//!
//! Task: person entity matching over duplicate pages with name variants.
//! Swept: HI budget, crowd size, user error rate, voting scheme, and the
//! task-selection policy ablation (uncertainty sampling vs. random).

use quarry_bench::{banner, f3, Table};
use quarry_corpus::{Corpus, CorpusConfig, NoiseConfig, PersonFact};
use quarry_hi::oracle::panel;
use quarry_hi::{curate, Crowd, CurateConfig, ReputationTracker, SelectionPolicy, UncertainItem};
use quarry_integrate::matcher::{decide, MatchConfig, MatchDecision, Record};
use quarry_integrate::{pairwise_score, Clustering};
use quarry_storage::Value;

fn items(corpus: &Corpus) -> Vec<UncertainItem> {
    let people = &corpus.truth.people;
    let cfg = MatchConfig::default();
    // Name + one weak supporting field: the regime where the automatic
    // matcher genuinely cannot tell "D. Smith" from "Daniel Smith" — the
    // uncertain band the paper routes to people.
    let rec = |id: usize, t: &str, p: &PersonFact| {
        Record::new(
            id,
            [("name", Value::Text(t.to_string())), ("residence", Value::Text(p.residence.clone()))],
        )
    };
    let mut out = Vec::new();
    for i in 0..people.len() {
        for j in i + 1..people.len() {
            let (a, b) = (&people[i], &people[j]);
            let ta = &corpus.docs[a.doc.index()].title;
            let tb = &corpus.docs[b.doc.index()].title;
            let (d, score) = decide(&rec(i, ta, a), &rec(j, tb, b), &cfg);
            out.push(UncertainItem {
                id: out.len(),
                prompt_left: ta.clone(),
                prompt_right: tb.clone(),
                auto_decision: d == MatchDecision::Match,
                auto_score: score,
                truth: a.entity == b.entity,
            });
        }
    }
    out
}

fn er_f1(corpus: &Corpus, decisions: &[bool]) -> f64 {
    let n = corpus.truth.people.len();
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
    let truth_pairs = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .filter(|&(i, j)| corpus.truth.people[i].entity == corpus.truth.people[j].entity);
    let predicted = Clustering::from_pairs(n, matched);
    let truth = Clustering::from_pairs(n, truth_pairs);
    pairwise_score(&predicted, &truth).f1
}

fn main() {
    banner(
        "E2 HI accuracy",
        "automatic IE/II is imperfect; HI budget buys accuracy; crowds + reputation \
         tolerate noisy users (§3.2)",
    );
    let corpus = Corpus::generate(&CorpusConfig {
        seed: 2,
        n_people: 90,
        duplicate_rate: 0.5,
        noise: NoiseConfig { name_variant: 1.0, ..NoiseConfig::default() },
        ..CorpusConfig::default()
    });
    let its = items(&corpus);
    let auto: Vec<bool> = its.iter().map(|i| i.auto_decision).collect();
    let f1_auto = er_f1(&corpus, &auto);
    // The matcher's uncertain band: what `decide` neither matches nor
    // rejects.
    let cfg = MatchConfig::default();
    let band = cfg.nonmatch_threshold..cfg.match_threshold;
    let uncertain = its.iter().filter(|i| band.contains(&i.auto_score)).count();
    println!(
        "pairs: {}   uncertain band: {}   automatic pairwise F1: {:.3}\n",
        its.len(),
        uncertain,
        f1_auto
    );

    // --- Sweep 1: budget × selection policy (5 reliable users, 5 votes). --
    // On this task the matcher's surviving errors are *confident* false
    // matches (ambiguous "D. Smith"-style initials with coincidental field
    // agreement), so verifying positives first pays off fastest — the
    // policy comparison is the ablation DESIGN.md calls for.
    let reviewable = its.iter().filter(|i| i.auto_score >= band.start).count();
    let mut t =
        Table::new(&["budget (questions)", "random", "uncertainty-first", "verify-positives"]);
    for frac in [0.0, 0.05, 0.1, 0.25, 0.5, 1.0] {
        let budget = ((reviewable as f64 * frac) as u32) * 5;
        let mut cells = vec![format!("{}", budget / 5)];
        for policy in [
            SelectionPolicy::Random,
            SelectionPolicy::UncertaintyFirst,
            SelectionPolicy::HighestScoreFirst,
        ] {
            let mut crowd = Crowd::new(panel(5, &[0.05], 11));
            let report = curate(
                &its,
                &mut crowd,
                CurateConfig { budget, votes_per_question: 5, policy, reputation: None },
            );
            cells.push(f3(er_f1(&corpus, &report.decisions)));
        }
        t.row(&cells);
    }
    println!("F1 vs HI budget (votes = 5, user error = 5%):");
    t.print();

    // --- Sweep 2: crowd size × user error (full budget, majority). --------
    let mut t = Table::new(&["votes", "error 5%", "error 20%", "error 40%"]);
    for votes in [1usize, 3, 5, 9] {
        let mut cells = vec![votes.to_string()];
        for err in [0.05, 0.2, 0.4] {
            let mut crowd = Crowd::new(panel(votes.max(1), &[err], 23));
            let report = curate(
                &its,
                &mut crowd,
                CurateConfig {
                    budget: (reviewable * votes) as u32,
                    votes_per_question: votes,
                    policy: SelectionPolicy::HighestScoreFirst,
                    reputation: None,
                },
            );
            cells.push(f3(er_f1(&corpus, &report.decisions)));
        }
        t.row(&cells);
    }
    println!(
        "\nF1 vs crowd size and user error (budget covers all positives + the uncertain band):"
    );
    t.print();

    // --- Sweep 3: majority vs reputation with a mixed crowd. ---------------
    println!("\nmixed crowd (2 good @5%, 3 careless @45% error), 5 votes, full budget:");
    let rates = [0.05, 0.45, 0.45, 0.05, 0.45];
    let mut t = Table::new(&["voting", "F1", "overrides"]);
    for (label, rep) in
        [("plain majority", None), ("reputation-weighted", Some(ReputationTracker::new()))]
    {
        let mut crowd = Crowd::new(panel(5, &rates, 31));
        // Reputation warm-up on gold questions, as the user layer would.
        let mut rep = rep;
        if let Some(tracker) = rep.as_mut() {
            for g in 0..200 {
                let q = quarry_hi::Question::verify_match(1_000_000 + g, "l", "r", g % 2 == 0);
                let out = crowd.ask_majority(&q, 5);
                Crowd::debrief(&out, q.truth, tracker);
            }
        }
        let report = curate(
            &its,
            &mut crowd,
            CurateConfig {
                budget: (reviewable * 5) as u32,
                votes_per_question: 5,
                policy: SelectionPolicy::HighestScoreFirst,
                reputation: rep,
            },
        );
        t.row(&[label.into(), f3(er_f1(&corpus, &report.decisions)), report.overrides.to_string()]);
    }
    t.print();
    println!(
        "\nexpected shape: F1 rises with budget under the policy that reviews where the\n\
         matcher's errors actually live (confident positives here); larger crowds absorb\n\
         higher user error; reputation weighting beats plain majority on mixed crowds."
    );
}
