//! User accounts: authentication stub, reputation, and incentives.
//!
//! The user layer "authenticates users, manage\[s\] incentive schemes for
//! soliciting user feedback, and manage\[s\] user reputation (e.g., for mass
//! collaboration)". Accounts pair an identity with a reliability posterior
//! (from [`quarry_hi::ReputationTracker`]) and an incentive-point balance
//! credited per accepted contribution.

use quarry_hi::oracle::UserId;
use quarry_hi::ReputationTracker;
use std::collections::BTreeMap;

/// One registered user.
#[derive(Debug, Clone, PartialEq)]
pub struct UserAccount {
    /// Stable id (feeds the HI layer).
    pub id: UserId,
    /// Display name, unique.
    pub name: String,
    /// Whether the user may run pipelines (sophisticated user) or only
    /// query and give feedback (ordinary user).
    pub developer: bool,
    /// Incentive points earned.
    pub points: u64,
}

/// The account directory.
#[derive(Debug, Clone, Default)]
pub struct UserDirectory {
    by_name: BTreeMap<String, UserAccount>,
    reputation: ReputationTracker,
    next_id: u32,
    /// Points granted per accepted contribution.
    pub points_per_contribution: u64,
}

impl UserDirectory {
    /// Empty directory (5 points per contribution).
    pub fn new() -> UserDirectory {
        UserDirectory { points_per_contribution: 5, ..Default::default() }
    }

    /// Register a user; errors if the name is taken.
    pub fn register(&mut self, name: &str, developer: bool) -> Result<UserId, String> {
        if self.by_name.contains_key(name) {
            return Err(format!("user {name} already exists"));
        }
        let id = UserId(self.next_id);
        self.next_id += 1;
        self.by_name.insert(
            name.to_string(),
            UserAccount { id, name: name.to_string(), developer, points: 0 },
        );
        Ok(id)
    }

    /// "Authenticate": look up by name (a stand-in for real credentials —
    /// the interface boundary is what matters to the architecture).
    pub fn authenticate(&self, name: &str) -> Option<&UserAccount> {
        self.by_name.get(name)
    }

    /// Record the outcome of one contribution: reputation updates either
    /// way, points only for accepted work.
    pub fn record_contribution(&mut self, name: &str, accepted: bool) -> Result<(), String> {
        let account = self.by_name.get_mut(name).ok_or_else(|| format!("no user {name}"))?;
        self.reputation.record(account.id, accepted);
        if accepted {
            account.points += self.points_per_contribution;
        }
        Ok(())
    }

    /// A user's current reliability estimate.
    pub fn reliability(&self, name: &str) -> Option<f64> {
        self.by_name.get(name).map(|a| self.reputation.reliability(a.id).mean())
    }

    /// The reputation tracker (for reputation-weighted voting).
    pub fn reputation(&self) -> &ReputationTracker {
        &self.reputation
    }

    /// Leaderboard: users by points, descending.
    pub fn leaderboard(&self) -> Vec<(&str, u64)> {
        let mut rows: Vec<(&str, u64)> =
            self.by_name.values().map(|a| (a.name.as_str(), a.points)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        rows
    }

    /// Number of registered users.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// True when nobody is registered.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_authenticate() {
        let mut d = UserDirectory::new();
        let id = d.register("ada", true).unwrap();
        assert_eq!(d.authenticate("ada").unwrap().id, id);
        assert!(d.authenticate("ada").unwrap().developer);
        assert!(d.authenticate("ghost").is_none());
        assert!(d.register("ada", false).is_err());
    }

    #[test]
    fn contributions_move_points_and_reputation() {
        let mut d = UserDirectory::new();
        d.register("good", false).unwrap();
        d.register("bad", false).unwrap();
        for _ in 0..10 {
            d.record_contribution("good", true).unwrap();
            d.record_contribution("bad", false).unwrap();
        }
        assert_eq!(d.authenticate("good").unwrap().points, 50);
        assert_eq!(d.authenticate("bad").unwrap().points, 0);
        assert!(d.reliability("good").unwrap() > 0.8);
        assert!(d.reliability("bad").unwrap() < 0.2);
        assert!(d.record_contribution("ghost", true).is_err());
    }

    #[test]
    fn leaderboard_orders_by_points() {
        let mut d = UserDirectory::new();
        d.register("a", false).unwrap();
        d.register("b", false).unwrap();
        d.record_contribution("b", true).unwrap();
        assert_eq!(d.leaderboard(), vec![("b", 5), ("a", 0)]);
    }
}
