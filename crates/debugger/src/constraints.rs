//! Constraint kinds and constraint learning.

use quarry_storage::{DataType, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A learned data-quality constraint over one or two attributes.
#[derive(Debug, Clone, PartialEq)]
pub enum Constraint {
    /// Numeric values of `attribute` must fall within `[lo, hi]`.
    NumericRange {
        /// Constrained attribute.
        attribute: String,
        /// Lower bound (with slack).
        lo: f64,
        /// Upper bound (with slack).
        hi: f64,
    },
    /// Values of `attribute` must come from a closed set.
    CategoricalDomain {
        /// Constrained attribute.
        attribute: String,
        /// Allowed values (lowercased).
        domain: BTreeSet<String>,
    },
    /// Values of `attribute` must parse as this type.
    TypeIs {
        /// Constrained attribute.
        attribute: String,
        /// Required type.
        dtype: DataType,
    },
    /// `lhs` functionally determines `rhs`: rows agreeing on `lhs` must
    /// agree on `rhs`.
    FunctionalDependency {
        /// Determinant attribute.
        lhs: String,
        /// Dependent attribute.
        rhs: String,
        /// The lhs→rhs mapping observed on trusted data.
        mapping: BTreeMap<String, String>,
    },
}

impl Constraint {
    /// The attribute a violation of this constraint points at.
    pub fn flagged_attribute(&self) -> &str {
        match self {
            Constraint::NumericRange { attribute, .. }
            | Constraint::CategoricalDomain { attribute, .. }
            | Constraint::TypeIs { attribute, .. } => attribute,
            Constraint::FunctionalDependency { rhs, .. } => rhs,
        }
    }

    /// Check one row (attribute → value view). Returns a reason when
    /// violated.
    pub fn check(&self, row: &dyn Fn(&str) -> Option<Value>) -> Option<String> {
        match self {
            Constraint::NumericRange { attribute, lo, hi } => {
                let v = row(attribute)?;
                let x = v.as_f64()?;
                if x < *lo || x > *hi {
                    Some(format!("{attribute} = {x} outside learned range [{lo:.1}, {hi:.1}]"))
                } else {
                    None
                }
            }
            Constraint::CategoricalDomain { attribute, domain } => {
                let v = row(attribute)?;
                let s = v.to_string().to_lowercase();
                if domain.contains(&s) {
                    None
                } else {
                    Some(format!(
                        "{attribute} = {s:?} not in learned domain ({} values)",
                        domain.len()
                    ))
                }
            }
            Constraint::TypeIs { attribute, dtype } => {
                let v = row(attribute)?;
                if v.is_null() || v.fits(*dtype) {
                    None
                } else {
                    Some(format!("{attribute} = {v} is not {dtype}"))
                }
            }
            Constraint::FunctionalDependency { lhs, rhs, mapping } => {
                let l = row(lhs)?.to_string();
                let r = row(rhs)?.to_string();
                match mapping.get(&l) {
                    Some(expect) if expect != &r => Some(format!(
                        "FD {lhs}→{rhs} violated: {lhs}={l} implies {rhs}={expect}, found {r}"
                    )),
                    _ => None,
                }
            }
        }
    }
}

/// Knobs for constraint learning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnConfig {
    /// Slack added around observed numeric ranges, as a fraction of the
    /// observed spread (paper example: temperatures observed up to ~110
    /// should admit 115 but flag 135).
    pub range_slack: f64,
    /// Maximum distinct values for an attribute to count as categorical.
    pub max_domain: usize,
    /// Minimum fraction of values that must parse as a type to learn a
    /// type constraint.
    pub type_majority: f64,
    /// Minimum distinct lhs values for an FD to be trusted.
    pub fd_min_support: usize,
}

impl Default for LearnConfig {
    fn default() -> Self {
        LearnConfig { range_slack: 0.25, max_domain: 40, type_majority: 0.95, fd_min_support: 3 }
    }
}

/// Learn constraints for each attribute from trusted rows.
///
/// `columns` names the attributes; `rows[i][j]` is attribute `columns[j]`
/// of row `i`, serialized (learning runs upstream of typing, on extraction
/// output).
pub fn learn(columns: &[String], rows: &[Vec<String>], cfg: &LearnConfig) -> Vec<Constraint> {
    let mut out = Vec::new();
    let n = rows.len();
    if n == 0 {
        return out;
    }
    for (j, col) in columns.iter().enumerate() {
        // Empty cells mean "attribute absent for this row" (NULLs in a
        // sparse extracted table); constraints describe present values.
        let values: Vec<&str> =
            rows.iter().map(|r| r[j].as_str()).filter(|v| !v.trim().is_empty()).collect();
        if values.is_empty() {
            continue;
        }
        let n = values.len();
        let numeric: Vec<f64> =
            values.iter().filter_map(|v| v.trim().parse::<f64>().ok()).collect();
        let numeric_frac = numeric.len() as f64 / n as f64;

        if numeric_frac >= cfg.type_majority {
            out.push(Constraint::TypeIs { attribute: col.clone(), dtype: DataType::Float });
            // Robust range: trim ~2% (at least one value when n ≥ 5) from
            // each end before applying slack, so that learning on data that
            // already contains a gross outlier still brackets the bulk —
            // otherwise a min/max range could never flag anything it was
            // trained on.
            let mut sorted = numeric.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let trim = if sorted.len() >= 5 {
                ((sorted.len() as f64 * 0.02).ceil() as usize).max(1)
            } else {
                0
            };
            let lo = sorted[trim];
            let hi = sorted[sorted.len() - 1 - trim];
            let spread = (hi - lo).max(hi.abs().max(lo.abs()) * 0.05).max(1.0);
            out.push(Constraint::NumericRange {
                attribute: col.clone(),
                lo: lo - cfg.range_slack * spread,
                hi: hi + cfg.range_slack * spread,
            });
        } else {
            let distinct: BTreeSet<String> = values.iter().map(|v| v.to_lowercase()).collect();
            if distinct.len() <= cfg.max_domain && (distinct.len() as f64) < 0.5 * n as f64 {
                out.push(Constraint::CategoricalDomain {
                    attribute: col.clone(),
                    domain: distinct,
                });
            }
        }
    }
    // Single-attribute FDs with enough support and no violations.
    for (a, ca) in columns.iter().enumerate() {
        for (b, cb) in columns.iter().enumerate() {
            if a == b {
                continue;
            }
            let mut mapping: BTreeMap<String, String> = BTreeMap::new();
            let mut holds = true;
            let mut considered = 0usize;
            for r in rows {
                let l = r[a].clone();
                let rv = r[b].clone();
                if l.trim().is_empty() || rv.trim().is_empty() {
                    continue; // absent attributes carry no FD evidence
                }
                considered += 1;
                match mapping.get(&l) {
                    Some(prev) if prev != &rv => {
                        holds = false;
                        break;
                    }
                    Some(_) => {}
                    None => {
                        mapping.insert(l, rv);
                    }
                }
            }
            // An FD where every lhs is unique is vacuous (a key, not a
            // dependency) — require repeated lhs evidence.
            let repeats = considered > mapping.len();
            if holds && repeats && mapping.len() >= cfg.fd_min_support {
                out.push(Constraint::FunctionalDependency {
                    lhs: ca.clone(),
                    rhs: cb.clone(),
                    mapping,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(pairs: &'a [(&'a str, Value)]) -> impl Fn(&str) -> Option<Value> + 'a {
        move |a| pairs.iter().find(|(k, _)| *k == a).map(|(_, v)| v.clone())
    }

    #[test]
    fn learns_numeric_range_with_slack() {
        let cols = vec!["temp".to_string()];
        let rows: Vec<Vec<String>> = (20..=110).step_by(10).map(|t| vec![t.to_string()]).collect();
        let cs = learn(&cols, &rows, &LearnConfig::default());
        let range = cs
            .iter()
            .find_map(|c| match c {
                Constraint::NumericRange { lo, hi, .. } => Some((*lo, *hi)),
                _ => None,
            })
            .expect("range learned");
        // The paper example: 115 inside slack, 135 outside.
        assert!(range.1 >= 115.0, "{range:?}");
        assert!(range.1 < 135.0, "{range:?}");
        let c = cs.iter().find(|c| matches!(c, Constraint::NumericRange { .. })).unwrap();
        assert!(c.check(&view(&[("temp", Value::Int(115))])).is_none());
        assert!(c.check(&view(&[("temp", Value::Int(135))])).is_some());
        assert!(c.check(&view(&[("temp", Value::Int(-200))])).is_some());
    }

    #[test]
    fn learns_categorical_domain() {
        let cols = vec!["state".to_string()];
        let mut rows = Vec::new();
        for _ in 0..10 {
            for s in ["Wisconsin", "Iowa", "Ohio"] {
                rows.push(vec![s.to_string()]);
            }
        }
        let cs = learn(&cols, &rows, &LearnConfig::default());
        let dom = cs.iter().find(|c| matches!(c, Constraint::CategoricalDomain { .. })).unwrap();
        assert!(dom.check(&view(&[("state", Value::Text("Iowa".into()))])).is_none());
        assert!(
            dom.check(&view(&[("state", Value::Text("iowa".into()))])).is_none(),
            "case folded"
        );
        assert!(dom.check(&view(&[("state", Value::Text("Atlantis".into()))])).is_some());
    }

    #[test]
    fn high_cardinality_text_learns_no_domain() {
        let cols = vec!["name".to_string()];
        let rows: Vec<Vec<String>> = (0..100).map(|i| vec![format!("name{i}")]).collect();
        let cs = learn(&cols, &rows, &LearnConfig::default());
        assert!(cs.iter().all(|c| !matches!(c, Constraint::CategoricalDomain { .. })));
    }

    #[test]
    fn learns_type_constraint_and_flags_wrong_type() {
        let cols = vec!["population".to_string()];
        let rows: Vec<Vec<String>> = (0..50).map(|i| vec![format!("{}", 1000 * (i + 1))]).collect();
        let cs = learn(&cols, &rows, &LearnConfig::default());
        let ty = cs.iter().find(|c| matches!(c, Constraint::TypeIs { .. })).unwrap();
        assert!(ty.check(&view(&[("population", Value::Int(5))])).is_none());
        assert!(ty.check(&view(&[("population", Value::Text("unknown".into()))])).is_some());
    }

    #[test]
    fn learns_fd_with_support() {
        let cols = vec!["city".to_string(), "state".to_string()];
        let mut rows = Vec::new();
        for _ in 0..5 {
            rows.push(vec!["Madison".to_string(), "Wisconsin".to_string()]);
            rows.push(vec!["Desmoines".to_string(), "Iowa".to_string()]);
            rows.push(vec!["Columbus".to_string(), "Ohio".to_string()]);
        }
        let cs = learn(&cols, &rows, &LearnConfig::default());
        let fd = cs
            .iter()
            .find(|c| matches!(c, Constraint::FunctionalDependency { lhs, .. } if lhs == "city"))
            .expect("fd learned");
        assert!(fd
            .check(&view(&[
                ("city", Value::Text("Madison".into())),
                ("state", Value::Text("Wisconsin".into()))
            ]))
            .is_none());
        let reason = fd
            .check(&view(&[
                ("city", Value::Text("Madison".into())),
                ("state", Value::Text("Iowa".into())),
            ]))
            .expect("violation");
        assert!(reason.contains("FD"));
        // Unseen lhs: no opinion.
        assert!(fd
            .check(&view(&[
                ("city", Value::Text("Gotham".into())),
                ("state", Value::Text("NJ".into()))
            ]))
            .is_none());
    }

    #[test]
    fn vacuous_fds_not_learned() {
        // Every lhs unique → no FD evidence.
        let cols = vec!["id".to_string(), "x".to_string()];
        let rows: Vec<Vec<String>> =
            (0..20).map(|i| vec![i.to_string(), (i * 2).to_string()]).collect();
        let cs = learn(&cols, &rows, &LearnConfig::default());
        assert!(cs.iter().all(|c| !matches!(c, Constraint::FunctionalDependency { .. })));
    }

    #[test]
    fn empty_rows_learn_nothing() {
        assert!(learn(&["a".to_string()], &[], &LearnConfig::default()).is_empty());
    }

    #[test]
    fn missing_attribute_in_row_is_not_a_violation() {
        let c = Constraint::NumericRange { attribute: "temp".into(), lo: 0.0, hi: 100.0 };
        assert!(c.check(&view(&[("other", Value::Int(5))])).is_none());
    }
}
