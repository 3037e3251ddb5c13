//! Crowds: panels of users answering the same question, with vote
//! aggregation (plain majority, or reputation-weighted).

use crate::oracle::{SimulatedUser, UserId};
use crate::reputation::ReputationTracker;
use crate::task::Question;

/// The result of putting one question to a crowd.
#[derive(Debug, Clone, PartialEq)]
pub struct VoteOutcome {
    /// The winning answer.
    pub answer: bool,
    /// Total weight for the winner / total weight cast.
    pub agreement: f64,
    /// Individual `(user, answer)` ballots.
    pub ballots: Vec<(UserId, bool)>,
    /// Budget units consumed.
    pub cost: u32,
}

/// A panel of simulated users.
///
/// ```
/// use quarry_hi::oracle::panel;
/// use quarry_hi::{Crowd, Question};
///
/// let mut crowd = Crowd::new(panel(5, &[0.1], 42));
/// let q = Question::verify_match(0, "David Smith", "D. Smith", true);
/// let outcome = crowd.ask_majority(&q, 5);
/// assert!(outcome.answer);
/// assert_eq!(outcome.cost, 5);
/// ```
pub struct Crowd {
    users: Vec<SimulatedUser>,
}

impl Crowd {
    /// Wrap a user panel.
    pub fn new(users: Vec<SimulatedUser>) -> Crowd {
        assert!(!users.is_empty(), "a crowd needs at least one user");
        Crowd { users }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True when the crowd has no members (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Ask `k` members (round-robin from `start`) and majority-vote.
    pub fn ask_majority(&mut self, q: &Question, k: usize) -> VoteOutcome {
        self.ask_weighted(q, k, None)
    }

    /// Ask `k` members and aggregate with reputation weights (or uniform
    /// weights when `rep` is `None`). A tie goes to the first ballot's
    /// answer.
    pub fn ask_weighted(
        &mut self,
        q: &Question,
        k: usize,
        rep: Option<&ReputationTracker>,
    ) -> VoteOutcome {
        let k = k.clamp(1, self.users.len());
        // Deterministic member choice: rotate by question id so different
        // questions see different sub-panels.
        let n = self.users.len();
        let mut ballots = Vec::with_capacity(k);
        let mut cost = 0u32;
        for i in 0..k {
            let u = &mut self.users[(q.id + i) % n];
            let a = u.answer(q);
            cost += u.cost_per_answer;
            ballots.push((u.id, a));
        }
        let (mut yes, mut no, mut total) = (0.0, 0.0, 0.0);
        for (uid, a) in &ballots {
            let w = match rep {
                Some(r) => r.weight(*uid).max(1e-6),
                None => 1.0,
            };
            if *a {
                yes += w
            } else {
                no += w
            }
            total += w;
        }
        // `k >= 1`, so there is a first ballot.
        let first = ballots.first().is_some_and(|&(_, a)| a);
        let (w_first, w_other) = if first { (yes, no) } else { (no, yes) };
        let (answer, w) = if w_other > w_first { (!first, w_other) } else { (first, w_first) };
        VoteOutcome { answer, agreement: if total > 0.0 { w / total } else { 1.0 }, ballots, cost }
    }

    /// Record every ballot of an outcome against a known truth (gold
    /// question) into a reputation tracker.
    pub fn debrief(outcome: &VoteOutcome, truth: bool, rep: &mut ReputationTracker) {
        for (uid, a) in &outcome.ballots {
            rep.record(*uid, *a == truth);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::panel;

    fn q(id: usize, truth: bool) -> Question {
        Question::verify_match(id, "l", "r", truth)
    }

    fn accuracy(crowd: &mut Crowd, k: usize, rep: Option<&ReputationTracker>, n: usize) -> f64 {
        let mut right = 0;
        for i in 0..n {
            let question = q(i, i % 2 == 0);
            let out = crowd.ask_weighted(&question, k, rep);
            if out.answer == question.truth {
                right += 1;
            }
        }
        right as f64 / n as f64
    }

    #[test]
    fn majority_beats_individual() {
        // Users at 30% error: singly ~70% right; 5-member majority much better.
        let mut single = Crowd::new(panel(1, &[0.3], 11));
        let mut five = Crowd::new(panel(5, &[0.3], 11));
        let a1 = accuracy(&mut single, 1, None, 400);
        let a5 = accuracy(&mut five, 5, None, 400);
        assert!(a5 > a1 + 0.08, "single {a1:.3}, crowd {a5:.3}");
        assert!(a5 > 0.8);
    }

    #[test]
    fn reputation_weighting_suppresses_bad_users() {
        // 2 good users + 3 near-adversarial users: plain majority loses,
        // reputation-weighted voting recovers.
        let users = panel(5, &[0.05, 0.45, 0.45, 0.05, 0.45], 29);
        let mut crowd = Crowd::new(users);
        // Warm-up: learn reputations on 150 gold questions.
        let mut rep = ReputationTracker::new();
        for i in 0..150 {
            let question = q(10_000 + i, i % 2 == 0);
            let out = crowd.ask_majority(&question, 5);
            Crowd::debrief(&out, question.truth, &mut rep);
        }
        let mut crowd2 = Crowd::new(panel(5, &[0.05, 0.45, 0.45, 0.05, 0.45], 31));
        let plain = accuracy(&mut crowd2, 5, None, 300);
        let mut crowd3 = Crowd::new(panel(5, &[0.05, 0.45, 0.45, 0.05, 0.45], 31));
        let weighted = accuracy(&mut crowd3, 5, Some(&rep), 300);
        assert!(weighted > plain, "weighted {weighted:.3} vs plain {plain:.3}");
        assert!(weighted > 0.9, "{weighted:.3}");
    }

    #[test]
    fn outcome_reports_cost_and_ballots() {
        let mut crowd = Crowd::new(panel(4, &[0.0], 1));
        let out = crowd.ask_majority(&q(0, true), 3);
        assert_eq!(out.cost, 3);
        assert_eq!(out.ballots.len(), 3);
        assert!(out.answer);
        assert_eq!(out.agreement, 1.0);
    }

    #[test]
    fn a_tie_goes_to_the_first_ballot() {
        // Member 0 never errs and member 1 always does; question `id`
        // starts the round-robin, so the id picks who votes first.
        for truth in [true, false] {
            let mut crowd = Crowd::new(panel(2, &[0.0, 1.0], 3));
            let out = crowd.ask_majority(&q(0, truth), 2);
            assert_eq!(out.ballots, vec![(UserId(0), truth), (UserId(1), !truth)]);
            assert_eq!((out.answer, out.agreement), (truth, 0.5));
            let out = crowd.ask_majority(&q(1, truth), 2);
            assert_eq!(out.ballots, vec![(UserId(1), !truth), (UserId(0), truth)]);
            assert_eq!((out.answer, out.agreement), (!truth, 0.5));
        }
        // Weighted: equal reputations tie the same way.
        let mut rep = ReputationTracker::new();
        for uid in [UserId(0), UserId(1)] {
            rep.record(uid, true);
        }
        let mut crowd = Crowd::new(panel(2, &[0.0, 1.0], 3));
        assert!(!crowd.ask_weighted(&q(1, true), 2, Some(&rep)).answer);
    }

    #[test]
    fn k_is_clamped_to_crowd_size() {
        let mut crowd = Crowd::new(panel(2, &[0.0], 1));
        let out = crowd.ask_majority(&q(0, false), 10);
        assert_eq!(out.ballots.len(), 2);
    }

    #[test]
    fn debrief_updates_reputation() {
        let mut crowd = Crowd::new(panel(2, &[0.0, 1.0], 5));
        let mut rep = ReputationTracker::new();
        for i in 0..20 {
            let question = q(i, true);
            let out = crowd.ask_majority(&question, 2);
            Crowd::debrief(&out, question.truth, &mut rep);
        }
        assert!(rep.reliability(UserId(0)).mean() > 0.9);
        assert!(rep.reliability(UserId(1)).mean() < 0.1);
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn empty_crowd_rejected() {
        Crowd::new(vec![]);
    }
}
