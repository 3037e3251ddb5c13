//! Task-selection policies: which question deserves the next budget unit?
//!
//! DESIGN.md ablates uncertainty sampling against random selection (E2):
//! spending human attention on the decisions the automatic system is *least
//! sure about* should buy more accuracy per unit than spending it uniformly.

/// How to order candidate tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// Uniform-ish order (by a hash of the id — deterministic but unrelated
    /// to informativeness).
    Random,
    /// Most-uncertain first: automatic score closest to the decision
    /// boundary 0.5.
    UncertaintyFirst,
    /// Highest automatic score first — verify the system's positives.
    /// Wins whenever the matcher's residual errors are confident false
    /// positives (E2's measured regime); loses when errors sit at the
    /// decision boundary.
    HighestScoreFirst,
}

fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer: a deterministic stand-in for shuffling.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl SelectionPolicy {
    /// Order task indexes by priority under this policy.
    ///
    /// `scores[i]` is the automatic system's confidence that item `i` is a
    /// positive (e.g. a match), in `[0,1]`.
    pub fn order(&self, scores: &[f64]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        match self {
            SelectionPolicy::Random => idx.sort_by_key(|&i| mix(i as u64)),
            SelectionPolicy::UncertaintyFirst => {
                idx.sort_by(|&a, &b| {
                    let da = (scores[a] - 0.5).abs();
                    let db = (scores[b] - 0.5).abs();
                    da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
                });
            }
            SelectionPolicy::HighestScoreFirst => {
                idx.sort_by(|&a, &b| {
                    scores[b]
                        .partial_cmp(&scores[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
            }
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCORES: [f64; 5] = [0.9, 0.52, 0.1, 0.45, 0.7];

    #[test]
    fn uncertainty_first_prefers_the_boundary() {
        let order = SelectionPolicy::UncertaintyFirst.order(&SCORES);
        assert_eq!(order[0], 1); // 0.52 — closest to 0.5
        assert_eq!(order[1], 3); // 0.45
        assert_eq!(*order.last().unwrap(), 2); // 0.1 — most certain
    }

    #[test]
    fn highest_score_first() {
        let order = SelectionPolicy::HighestScoreFirst.order(&SCORES);
        assert_eq!(order[0], 0);
        assert_eq!(order[1], 4);
    }

    #[test]
    fn random_is_deterministic_permutation() {
        let a = SelectionPolicy::Random.order(&SCORES);
        let b = SelectionPolicy::Random.order(&SCORES);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_scores_empty_order() {
        assert!(SelectionPolicy::Random.order(&[]).is_empty());
    }
}
