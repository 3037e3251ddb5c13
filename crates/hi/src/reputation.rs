//! User reputation: Beta-posterior reliability estimates.
//!
//! The blueprint's user layer "manage\[s\] user reputation (e.g., for mass
//! collaboration)". Each user's reliability is tracked as a Beta(α, β)
//! posterior over their probability of answering correctly, updated from
//! gold questions (known answers) or from agreement with the crowd
//! consensus. The posterior mean weights their future votes.

use crate::oracle::UserId;
use std::collections::HashMap;

/// Per-user Beta posterior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reliability {
    /// Successes + prior.
    pub alpha: f64,
    /// Failures + prior.
    pub beta: f64,
}

impl Reliability {
    /// Posterior mean P(correct).
    pub fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    /// Number of observations behind the estimate.
    pub fn observations(&self) -> f64 {
        self.alpha + self.beta - 2.0 // minus the uniform prior
    }
}

/// Reputation tracker over a user population.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReputationTracker {
    users: HashMap<UserId, Reliability>,
}

impl ReputationTracker {
    /// Empty tracker: unknown users start at Beta(1,1) (mean 0.5).
    pub fn new() -> ReputationTracker {
        ReputationTracker::default()
    }

    /// Record an observed outcome for a user.
    pub fn record(&mut self, user: UserId, correct: bool) {
        let r = self.users.entry(user).or_insert(Reliability { alpha: 1.0, beta: 1.0 });
        if correct {
            r.alpha += 1.0;
        } else {
            r.beta += 1.0;
        }
    }

    /// Current reliability estimate for a user.
    pub fn reliability(&self, user: UserId) -> Reliability {
        self.users.get(&user).copied().unwrap_or(Reliability { alpha: 1.0, beta: 1.0 })
    }

    /// Voting weight for a user: log-odds of their estimated reliability,
    /// floored at 0 (a user at or below coin-flip gets no say, not a
    /// negative say — robust when estimates are noisy).
    pub fn weight(&self, user: UserId) -> f64 {
        let p = self.reliability(user).mean().clamp(0.01, 0.99);
        (p / (1.0 - p)).ln().max(0.0)
    }

    /// Number of users with any history.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True when no user has history.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_users_are_coin_flips() {
        let t = ReputationTracker::new();
        assert_eq!(t.reliability(UserId(9)).mean(), 0.5);
        assert_eq!(t.weight(UserId(9)), 0.0);
    }

    #[test]
    fn history_separates_good_from_bad() {
        let mut t = ReputationTracker::new();
        for _ in 0..20 {
            t.record(UserId(1), true);
            t.record(UserId(2), false);
        }
        t.record(UserId(1), false);
        t.record(UserId(2), true);
        assert!(t.reliability(UserId(1)).mean() > 0.85);
        assert!(t.reliability(UserId(2)).mean() < 0.15);
        assert!(t.weight(UserId(1)) > 1.0);
        assert_eq!(t.weight(UserId(2)), 0.0, "bad users floored, not negative");
    }

    #[test]
    fn observations_count() {
        let mut t = ReputationTracker::new();
        t.record(UserId(3), true);
        t.record(UserId(3), false);
        assert_eq!(t.reliability(UserId(3)).observations(), 2.0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn weight_grows_with_evidence() {
        let mut t = ReputationTracker::new();
        t.record(UserId(1), true);
        let w1 = t.weight(UserId(1));
        for _ in 0..10 {
            t.record(UserId(1), true);
        }
        assert!(t.weight(UserId(1)) > w1);
    }
}
