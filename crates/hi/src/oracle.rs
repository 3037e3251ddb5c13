//! Simulated users: noisy oracles with configurable reliability.

use crate::task::{Answer, Question};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// User identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u32);

/// A simulated user.
///
/// Answers correctly with probability `1 − error_rate`; otherwise answers
/// wrongly (for boolean questions, the flip; for choices, a uniformly random
/// wrong option). An optional `yes_bias` models users who over-confirm:
/// with that probability an erroneous boolean answer is "yes" regardless.
#[derive(Debug, Clone)]
pub struct SimulatedUser {
    /// Identity.
    pub id: UserId,
    /// Probability of answering incorrectly.
    pub error_rate: f64,
    /// Cost in budget units per answered question.
    pub cost_per_answer: u32,
    rng: StdRng,
}

impl SimulatedUser {
    /// Create a user. Determinism: same id/seed/error rate → same answers.
    pub fn new(id: u32, error_rate: f64, seed: u64) -> SimulatedUser {
        assert!((0.0..=1.0).contains(&error_rate), "error rate out of range");
        SimulatedUser {
            id: UserId(id),
            error_rate,
            cost_per_answer: 1,
            rng: StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Answer a question according to the error model.
    pub fn answer(&mut self, q: &Question) -> Answer {
        let correct = !self.rng.gen_bool(self.error_rate);
        match q.truth {
            Answer::Bool(t) => Answer::Bool(if correct { t } else { !t }),
            Answer::Choice(t) => {
                if correct || q.n_options() < 2 {
                    Answer::Choice(t)
                } else {
                    // Uniform over wrong options.
                    let mut pick = self.rng.gen_range(0..q.n_options() - 1);
                    if pick >= t {
                        pick += 1;
                    }
                    Answer::Choice(pick)
                }
            }
        }
    }
}

/// Build a panel of `n` users with the given per-user error rates cycling,
/// all seeded from `seed`.
pub fn panel(n: usize, error_rates: &[f64], seed: u64) -> Vec<SimulatedUser> {
    assert!(!error_rates.is_empty());
    (0..n).map(|i| SimulatedUser::new(i as u32, error_rates[i % error_rates.len()], seed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Question;

    fn q(id: usize, truth: bool) -> Question {
        Question::verify_match(id, "a", "b", truth)
    }

    #[test]
    fn perfect_user_always_correct() {
        let mut u = SimulatedUser::new(0, 0.0, 1);
        for i in 0..50 {
            assert_eq!(u.answer(&q(i, i % 2 == 0)), Answer::Bool(i % 2 == 0));
        }
    }

    #[test]
    fn always_wrong_user_always_flips() {
        let mut u = SimulatedUser::new(0, 1.0, 1);
        for i in 0..50 {
            assert_eq!(u.answer(&q(i, true)), Answer::Bool(false));
        }
    }

    #[test]
    fn error_rate_is_approximately_realized() {
        let mut u = SimulatedUser::new(3, 0.3, 42);
        let n = 2000;
        let wrong = (0..n).filter(|&i| u.answer(&q(i, true)) == Answer::Bool(false)).count();
        let rate = wrong as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.04, "realized {rate}");
    }

    #[test]
    fn choice_errors_pick_wrong_options_uniformly() {
        let mut u = SimulatedUser::new(0, 1.0, 7);
        let q = Question::choose_form(0, vec!["a".into(), "b".into(), "c".into()], 1);
        let mut saw = [0usize; 3];
        for _ in 0..300 {
            if let Answer::Choice(c) = u.answer(&q) {
                saw[c] += 1;
            }
        }
        assert_eq!(saw[1], 0, "never the correct option at error rate 1");
        assert!(saw[0] > 100 && saw[2] > 100, "{saw:?}");
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = SimulatedUser::new(5, 0.4, 9);
        let mut b = SimulatedUser::new(5, 0.4, 9);
        for i in 0..100 {
            assert_eq!(a.answer(&q(i, i % 3 == 0)), b.answer(&q(i, i % 3 == 0)));
        }
    }

    #[test]
    fn panel_cycles_error_rates() {
        let users = panel(5, &[0.1, 0.4], 1);
        assert_eq!(users.len(), 5);
        assert_eq!(users[0].error_rate, 0.1);
        assert_eq!(users[1].error_rate, 0.4);
        assert_eq!(users[2].error_rate, 0.1);
        // Distinct users answer independently.
        let mut u0 = SimulatedUser::new(0, 0.5, 1);
        let mut u1 = SimulatedUser::new(1, 0.5, 1);
        let answers0: Vec<_> = (0..50).map(|i| u0.answer(&q(i, true))).collect();
        let answers1: Vec<_> = (0..50).map(|i| u1.answer(&q(i, true))).collect();
        assert_ne!(answers0, answers1);
    }

    #[test]
    #[should_panic(expected = "error rate out of range")]
    fn invalid_error_rate_rejected() {
        SimulatedUser::new(0, 1.5, 1);
    }
}
