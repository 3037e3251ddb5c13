//! The generic HI repair loop: spend a human budget on the automatic
//! system's most questionable decisions and override them with crowd
//! verdicts.
//!
//! This is the crate's integration point with IE/II: the caller hands over
//! items with automatic decisions and scores (plus hidden truth so simulated
//! users can be driven), a crowd, a budget, and a policy; it gets back
//! curated decisions and an accounting of what changed.

use crate::crowd::Crowd;
use crate::policy::SelectionPolicy;
use crate::reputation::ReputationTracker;
use crate::task::Question;

/// One automatic decision eligible for human review.
#[derive(Debug, Clone, PartialEq)]
pub struct UncertainItem {
    /// Caller id (preserved in the report).
    pub id: usize,
    /// Rendering shown to the (simulated) user.
    pub prompt_left: String,
    /// Second rendering (right side of a match question).
    pub prompt_right: String,
    /// The automatic decision (true = positive/match).
    pub auto_decision: bool,
    /// The automatic score in `[0,1]` that produced the decision.
    pub auto_score: f64,
    /// Hidden ground truth driving the simulated users.
    pub truth: bool,
}

/// Curation knobs.
#[derive(Debug, Clone)]
pub struct CurateConfig {
    /// Total budget units available.
    pub budget: u32,
    /// Crowd members consulted per question.
    pub votes_per_question: usize,
    /// Task-selection policy.
    pub policy: SelectionPolicy,
    /// Optional reputation tracker for weighted voting (updated in place
    /// from each outcome when provided, treating the majority as consensus).
    pub reputation: Option<ReputationTracker>,
}

/// What curation did.
#[derive(Debug, Clone, PartialEq)]
pub struct CurateReport {
    /// Final decision per item (same order as the input).
    pub decisions: Vec<bool>,
    /// Which items were reviewed, in the order they were asked.
    pub reviewed: Vec<usize>,
    /// How many decisions changed.
    pub overrides: usize,
    /// Budget actually spent.
    pub spent: u32,
    /// The (possibly updated) reputation tracker.
    pub reputation: Option<ReputationTracker>,
}

/// Run the loop.
pub fn curate(items: &[UncertainItem], crowd: &mut Crowd, cfg: CurateConfig) -> CurateReport {
    let scores: Vec<f64> = items.iter().map(|i| i.auto_score).collect();
    let order = cfg.policy.order(&scores);
    let mut decisions: Vec<bool> = items.iter().map(|i| i.auto_decision).collect();
    let mut reviewed = Vec::new();
    let mut overrides = 0usize;
    let mut spent = 0u32;
    let mut reputation = cfg.reputation;

    for idx in order {
        if spent >= cfg.budget {
            break;
        }
        let item = &items[idx];
        let q = Question::verify_match(item.id, &item.prompt_left, &item.prompt_right, item.truth);
        let outcome = crowd.ask_weighted(&q, cfg.votes_per_question, reputation.as_ref());
        spent += outcome.cost;
        reviewed.push(idx);
        if outcome.answer != decisions[idx] {
            decisions[idx] = outcome.answer;
            overrides += 1;
        }
        // Update reputations against the consensus (not the hidden truth:
        // a real system cannot see it).
        if let Some(rep) = reputation.as_mut() {
            for (uid, a) in &outcome.ballots {
                rep.record(*uid, *a == outcome.answer);
            }
        }
    }

    CurateReport { decisions, reviewed, overrides, spent, reputation }
}

/// Accuracy of a decision vector against the hidden truths.
pub fn decision_accuracy(items: &[UncertainItem], decisions: &[bool]) -> f64 {
    if items.is_empty() {
        return 1.0;
    }
    let right = items.iter().zip(decisions).filter(|(i, &d)| i.truth == d).count();
    right as f64 / items.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::panel;

    /// Items whose automatic decisions are wrong exactly when the score is
    /// near the boundary — the regime the paper says HI should repair.
    fn items(n: usize) -> Vec<UncertainItem> {
        (0..n)
            .map(|i| {
                let truth = i % 2 == 0;
                let near_boundary = i % 3 == 0;
                let (score, decision) = if near_boundary {
                    // Uncertain and wrong half the time.
                    (0.5 + if truth { -0.02 } else { 0.02 }, !truth)
                } else {
                    (if truth { 0.9 } else { 0.1 }, truth)
                };
                UncertainItem {
                    id: i,
                    prompt_left: format!("left {i}"),
                    prompt_right: format!("right {i}"),
                    auto_decision: decision,
                    auto_score: score,
                    truth,
                }
            })
            .collect()
    }

    fn run(policy: SelectionPolicy, budget: u32) -> (f64, CurateReport) {
        let its = items(60);
        let mut crowd = Crowd::new(panel(5, &[0.1], 77));
        let report = curate(
            &its,
            &mut crowd,
            CurateConfig { budget, votes_per_question: 3, policy, reputation: None },
        );
        (decision_accuracy(&its, &report.decisions), report)
    }

    #[test]
    fn zero_budget_changes_nothing() {
        let (acc, report) = run(SelectionPolicy::UncertaintyFirst { centre: 0.5 }, 0);
        assert_eq!(report.spent, 0);
        assert_eq!(report.overrides, 0);
        let auto_acc = decision_accuracy(
            &items(60),
            &items(60).iter().map(|i| i.auto_decision).collect::<Vec<_>>(),
        );
        assert_eq!(acc, auto_acc);
    }

    #[test]
    fn budget_buys_accuracy() {
        let (acc0, _) = run(SelectionPolicy::UncertaintyFirst { centre: 0.5 }, 0);
        let (acc_full, report) = run(SelectionPolicy::UncertaintyFirst { centre: 0.5 }, 3 * 60);
        assert!(acc_full > acc0 + 0.2, "auto {acc0:.3} vs curated {acc_full:.3}");
        assert!(report.overrides > 0);
    }

    #[test]
    fn uncertainty_sampling_beats_random_at_small_budget() {
        // Budget covers only 1/3 of items; targeting the boundary matters.
        let budget = 60; // 20 questions at 3 votes
        let (acc_u, _) = run(SelectionPolicy::UncertaintyFirst { centre: 0.5 }, budget);
        let (acc_r, _) = run(SelectionPolicy::Random, budget);
        assert!(acc_u > acc_r, "uncertainty {acc_u:.3} vs random {acc_r:.3}");
    }

    #[test]
    fn budget_is_respected() {
        let (_, report) = run(SelectionPolicy::Random, 10);
        assert!(report.spent <= 12, "spent {}", report.spent); // ≤ budget + one in-flight question
        assert!(report.reviewed.len() <= 4);
    }

    #[test]
    fn reputation_tracker_is_threaded_through() {
        let its = items(30);
        let mut crowd = Crowd::new(panel(5, &[0.05, 0.4], 9));
        let report = curate(
            &its,
            &mut crowd,
            CurateConfig {
                budget: 90,
                votes_per_question: 5,
                policy: SelectionPolicy::UncertaintyFirst { centre: 0.5 },
                reputation: Some(ReputationTracker::new()),
            },
        );
        let rep = report.reputation.expect("tracker returned");
        assert!(!rep.is_empty());
    }

    #[test]
    fn empty_items_is_trivial() {
        let mut crowd = Crowd::new(panel(2, &[0.1], 1));
        let report = curate(
            &[],
            &mut crowd,
            CurateConfig {
                budget: 10,
                votes_per_question: 1,
                policy: SelectionPolicy::Random,
                reputation: None,
            },
        );
        assert!(report.decisions.is_empty());
        assert_eq!(decision_accuracy(&[], &report.decisions), 1.0);
    }
}
