//! The semantic debugger: learn on trusted data, flag suspicious tuples.

use crate::constraints::{learn, Constraint, LearnConfig};
use quarry_storage::Value;

/// One flagged cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Suspicion {
    /// Row index in the checked batch.
    pub row: usize,
    /// Attribute flagged.
    pub attribute: String,
    /// Human-readable reason.
    pub reason: String,
}

/// A trained semantic debugger for one table shape.
#[derive(Debug, Clone)]
pub struct SemanticDebugger {
    columns: Vec<String>,
    constraints: Vec<Constraint>,
}

impl SemanticDebugger {
    /// Learn constraints from trusted (assumed-clean) serialized rows.
    pub fn learn(
        columns: &[String],
        trusted_rows: &[Vec<String>],
        cfg: &LearnConfig,
    ) -> SemanticDebugger {
        SemanticDebugger {
            columns: columns.to_vec(),
            constraints: learn(columns, trusted_rows, cfg),
        }
    }

    /// The learned constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Check a batch of serialized rows; returns every suspicious cell.
    pub fn check(&self, rows: &[Vec<String>]) -> Vec<Suspicion> {
        let mut out = Vec::new();
        for (ri, row) in rows.iter().enumerate() {
            let view = |attr: &str| -> Option<Value> {
                let j = self.columns.iter().position(|c| c == attr)?;
                let cell = row.get(j)?;
                if cell.trim().is_empty() {
                    return None; // absent attribute: constraints don't apply
                }
                Some(Value::parse_lossy(cell))
            };
            for c in &self.constraints {
                if let Some(reason) = c.check(&view) {
                    out.push(Suspicion {
                        row: ri,
                        attribute: c.flagged_attribute().to_string(),
                        reason,
                    });
                }
            }
        }
        out
    }

    /// Precision/recall of `check(rows)` against a labeled corruption set:
    /// `is_bad(row, attribute)` says whether that cell was actually damaged.
    pub fn score(
        &self,
        rows: &[Vec<String>],
        is_bad: impl Fn(usize, &str) -> bool,
        n_bad: usize,
    ) -> DebuggerScore {
        let flags = self.check(rows);
        let mut unique: Vec<(usize, String)> =
            flags.iter().map(|s| (s.row, s.attribute.clone())).collect();
        unique.sort();
        unique.dedup();
        let tp = unique.iter().filter(|(r, a)| is_bad(*r, a)).count();
        let fp = unique.len() - tp;
        let precision = if unique.is_empty() { 1.0 } else { tp as f64 / unique.len() as f64 };
        let recall = if n_bad == 0 { 1.0 } else { tp as f64 / n_bad as f64 };
        DebuggerScore { precision, recall, flagged: unique.len(), tp, fp }
    }
}

/// Detector quality against labeled corruption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DebuggerScore {
    /// Fraction of flags that were real errors.
    pub precision: f64,
    /// Fraction of real errors flagged.
    pub recall: f64,
    /// Distinct cells flagged.
    pub flagged: usize,
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_corpus::corruption::corrupt_table;
    use quarry_corpus::CorruptionConfig;

    fn columns() -> Vec<String> {
        vec!["city".into(), "state".into(), "temp".into(), "population".into()]
    }

    fn clean_rows(n: usize) -> Vec<Vec<String>> {
        let states = ["Wisconsin", "Iowa", "Ohio", "Texas"];
        (0..n)
            .map(|i| {
                vec![
                    format!("city{}", i % 25), // repeated cities give the FD support
                    states[(i % 25) % states.len()].to_string(),
                    format!("{}", 20 + (i % 25) * 3), // temps 20..92
                    format!("{}", 10_000 + (i % 25) * 3_000),
                ]
            })
            .collect()
    }

    #[test]
    fn paper_example_temperature_135_is_flagged() {
        // Training temps top out in the 90s; the learned range (with slack)
        // admits ~110 but flags 135 — the paper's own example.
        let dbg = SemanticDebugger::learn(&columns(), &clean_rows(100), &LearnConfig::default());
        let mut bad = clean_rows(1);
        bad[0][2] = "135".into();
        let flags = dbg.check(&bad);
        assert!(flags.iter().any(|s| s.attribute == "temp"), "expected temp flag, got {flags:?}");
        // 100 °F is within the slack band: no *range* flag (a learned FD
        // city→temp may still fire, which is correct behaviour — the value
        // genuinely contradicts the city's training-time temperature).
        let mut fine = clean_rows(1);
        fine[0][2] = "100".into();
        assert!(dbg.check(&fine).iter().all(|s| !s.reason.contains("outside learned range")));
    }

    #[test]
    fn clean_rows_raise_no_flags() {
        let dbg = SemanticDebugger::learn(&columns(), &clean_rows(100), &LearnConfig::default());
        let flags = dbg.check(&clean_rows(40));
        assert!(flags.is_empty(), "{flags:?}");
    }

    #[test]
    fn wrong_type_and_unknown_state_flagged() {
        let dbg = SemanticDebugger::learn(&columns(), &clean_rows(100), &LearnConfig::default());
        let mut rows = clean_rows(2);
        rows[0][3] = "unknown".into(); // type violation in population
        rows[1][1] = "Atlantis".into(); // out-of-domain state
        let flags = dbg.check(&rows);
        assert!(flags.iter().any(|s| s.row == 0 && s.attribute == "population"));
        assert!(flags.iter().any(|s| s.row == 1 && s.attribute == "state"));
    }

    #[test]
    fn fd_violation_flagged() {
        let dbg = SemanticDebugger::learn(&columns(), &clean_rows(100), &LearnConfig::default());
        let mut rows = clean_rows(1);
        // city0 maps to Wisconsin in training; claim Iowa.
        rows[0][0] = "city0".into();
        rows[0][1] = "Iowa".into();
        let flags = dbg.check(&rows);
        assert!(
            flags.iter().any(|s| s.attribute == "state" && s.reason.contains("FD")),
            "{flags:?}"
        );
    }

    #[test]
    fn detector_scores_well_on_injected_corruption() {
        let dbg = SemanticDebugger::learn(&columns(), &clean_rows(200), &LearnConfig::default());
        let mut rows = clean_rows(120);
        let log = corrupt_table(
            &mut rows,
            &[("city", false), ("state", false), ("temp", true), ("population", true)],
            CorruptionConfig { seed: 5, rate: 0.05 },
        );
        assert!(!log.is_empty());
        let score = dbg.score(&rows, |r, a| log.is_corrupted(r, a), log.len());
        assert!(score.recall > 0.5, "recall {:.3}", score.recall);
        assert!(score.precision > 0.6, "precision {:.3}", score.precision);
    }

    #[test]
    fn score_handles_no_flags_and_no_errors() {
        let dbg = SemanticDebugger::learn(&columns(), &clean_rows(50), &LearnConfig::default());
        let rows = clean_rows(10);
        let s = dbg.score(&rows, |_, _| false, 0);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.flagged, 0);
    }
}
