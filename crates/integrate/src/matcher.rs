//! Pairwise record matching: do two extracted records describe the same
//! real-world entity?

use crate::similarity::{jaro_winkler, name_similarity};
use quarry_storage::Value;
use std::collections::BTreeMap;

/// A record assembled from extractions: one entity mention with its fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Caller-assigned id (e.g. document id).
    pub id: usize,
    /// Field name → value.
    pub fields: BTreeMap<String, Value>,
}

impl Record {
    /// Build a record from `(field, value)` pairs.
    pub fn new(id: usize, fields: impl IntoIterator<Item = (&'static str, Value)>) -> Record {
        Record { id, fields: fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect() }
    }

    /// Text view of a field.
    pub fn text(&self, field: &str) -> Option<&str> {
        self.fields.get(field).and_then(Value::as_text)
    }
}

/// Matching thresholds and weights.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchConfig {
    /// Field holding the entity name (scored with name similarity).
    pub name_field: String,
    /// Weight of name similarity in the final score.
    pub name_weight: f64,
    /// Weight of supporting-field agreement.
    pub field_weight: f64,
    /// Score at or above which the pair is declared a match.
    pub match_threshold: f64,
    /// Score below which the pair is declared a non-match; the band between
    /// the two thresholds is "uncertain" — exactly the cases the paper
    /// routes to human intervention.
    pub nonmatch_threshold: f64,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            name_field: "name".into(),
            name_weight: 0.7,
            field_weight: 0.3,
            match_threshold: 0.8,
            nonmatch_threshold: 0.55,
        }
    }
}

/// Invalid matcher configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum IntegrateError {
    /// `nonmatch_threshold` exceeds `match_threshold` (the uncertain band
    /// would be negative).
    InvertedThresholds {
        /// The configured match threshold.
        match_threshold: f64,
        /// The configured non-match threshold.
        nonmatch_threshold: f64,
    },
    /// A weight lies outside `[0,1]`.
    InvalidWeight {
        /// Which weight.
        parameter: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for IntegrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrateError::InvertedThresholds { match_threshold, nonmatch_threshold } => write!(
                f,
                "match config: nonmatch_threshold {nonmatch_threshold} > match_threshold {match_threshold}"
            ),
            IntegrateError::InvalidWeight { parameter, value } => {
                write!(f, "match config: {parameter} = {value} outside [0,1]")
            }
        }
    }
}

impl std::error::Error for IntegrateError {}

impl MatchConfig {
    /// Check thresholds and weights are coherent.
    pub fn validate(&self) -> Result<(), IntegrateError> {
        for (parameter, value) in [
            ("name_weight", self.name_weight),
            ("field_weight", self.field_weight),
            ("match_threshold", self.match_threshold),
            ("nonmatch_threshold", self.nonmatch_threshold),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(IntegrateError::InvalidWeight { parameter, value });
            }
        }
        if self.nonmatch_threshold > self.match_threshold {
            return Err(IntegrateError::InvertedThresholds {
                match_threshold: self.match_threshold,
                nonmatch_threshold: self.nonmatch_threshold,
            });
        }
        Ok(())
    }

    /// The middle of the uncertain band, where [`decide`] is least sure.
    pub fn band_centre(&self) -> f64 {
        (self.nonmatch_threshold + self.match_threshold) / 2.0
    }
}

/// Trinary match decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchDecision {
    /// Confidently the same entity.
    Match,
    /// Confidently different entities.
    NonMatch,
    /// The automatic matcher cannot tell; a candidate for HI review.
    Uncertain,
}

/// Compute a match score in `[0,1]` for a record pair.
pub fn match_score(a: &Record, b: &Record, cfg: &MatchConfig) -> f64 {
    match_score_with(a, b, cfg, &name_similarity)
}

/// [`match_score`] with a pluggable name-similarity kernel, so callers
/// can interpose a memo cache (see `quarry_integrate::parallel`). The
/// kernel MUST be a pure function of its two arguments for results to
/// stay identical to [`match_score`].
pub fn match_score_with(
    a: &Record,
    b: &Record,
    cfg: &MatchConfig,
    name_sim_fn: &impl Fn(&str, &str) -> f64,
) -> f64 {
    let name_sim = match (a.text(&cfg.name_field), b.text(&cfg.name_field)) {
        (Some(na), Some(nb)) => name_sim_fn(na, nb),
        _ => 0.0,
    };
    // Supporting fields: agreement ratio over fields present in both.
    let mut agree = 0.0;
    let mut total = 0.0;
    for (k, va) in &a.fields {
        if k == &cfg.name_field {
            continue;
        }
        let Some(vb) = b.fields.get(k) else { continue };
        total += 1.0;
        agree += match (va, vb) {
            (Value::Text(x), Value::Text(y)) => jaro_winkler(x, y),
            (x, y) if x == y => 1.0,
            (x, y) => match (x.as_f64(), y.as_f64()) {
                // Near-equal numbers count partially (crawl edits nudge
                // values); the steep slope means a 2% relative difference
                // already reads as disagreement — essential for year-like
                // values where 1931 vs 1962 is "relatively close" but
                // semantically a different person.
                (Some(fx), Some(fy)) if fx != 0.0 || fy != 0.0 => {
                    let rel = (fx - fy).abs() / fx.abs().max(fy.abs());
                    (1.0 - rel * 50.0).max(0.0)
                }
                _ => 0.0,
            },
        };
    }
    let field_sim = if total == 0.0 { name_sim } else { agree / total };
    cfg.name_weight * name_sim + cfg.field_weight * field_sim
}

/// Decide a pair.
pub fn decide(a: &Record, b: &Record, cfg: &MatchConfig) -> (MatchDecision, f64) {
    decide_with(a, b, cfg, &name_similarity)
}

/// [`decide`] with a pluggable name-similarity kernel.
pub fn decide_with(
    a: &Record,
    b: &Record,
    cfg: &MatchConfig,
    name_sim_fn: &impl Fn(&str, &str) -> f64,
) -> (MatchDecision, f64) {
    let s = match_score_with(a, b, cfg, name_sim_fn);
    let d = if s >= cfg.match_threshold {
        MatchDecision::Match
    } else if s < cfg.nonmatch_threshold {
        MatchDecision::NonMatch
    } else {
        MatchDecision::Uncertain
    };
    (d, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_band_centres_on_the_constant_curation_used() {
        // CURATE asks from this centre outwards; exact in f64, so the
        // order of its questions is bit-identical to sorting by 0.675.
        assert_eq!(MatchConfig::default().band_centre(), 0.675);
    }

    fn rec(id: usize, name: &str, employer: &str, year: i64) -> Record {
        Record::new(
            id,
            [
                ("name", Value::Text(name.into())),
                ("employer", Value::Text(employer.into())),
                ("birth_year", Value::Int(year)),
            ],
        )
    }

    #[test]
    fn same_person_under_variant_matches() {
        let a = rec(0, "David Smith", "Acme Systems", 1962);
        let b = rec(1, "D. Smith", "Acme Systems", 1962);
        let (d, s) = decide(&a, &b, &MatchConfig::default());
        assert_eq!(d, MatchDecision::Match, "score {s}");
    }

    #[test]
    fn different_people_do_not_match() {
        let a = rec(0, "David Smith", "Acme Systems", 1962);
        let b = rec(1, "Laura Johnson", "Nimbus Labs", 1975);
        let (d, _) = decide(&a, &b, &MatchConfig::default());
        assert_eq!(d, MatchDecision::NonMatch);
    }

    #[test]
    fn conflicting_evidence_is_uncertain() {
        // Same surname + initial-compatible name but disagreeing fields.
        let a = rec(0, "David Smith", "Acme Systems", 1962);
        let b = rec(1, "D. Smith", "Nimbus Labs", 1931);
        let (d, s) = decide(&a, &b, &MatchConfig::default());
        assert_eq!(d, MatchDecision::Uncertain, "score {s}");
    }

    #[test]
    fn score_is_bounded_and_symmetric() {
        let cfg = MatchConfig::default();
        let a = rec(0, "David Smith", "Acme", 1962);
        let b = rec(1, "Sarah Miller", "Vertex", 1970);
        let ab = match_score(&a, &b, &cfg);
        let ba = match_score(&b, &a, &cfg);
        assert!((0.0..=1.0).contains(&ab));
        assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn missing_fields_fall_back_to_name_only() {
        let a = Record::new(0, [("name", Value::Text("David Smith".into()))]);
        let b = Record::new(1, [("name", Value::Text("David Smith".into()))]);
        let (d, s) = decide(&a, &b, &MatchConfig::default());
        assert_eq!(d, MatchDecision::Match);
        assert!(s > 0.95);
    }

    #[test]
    fn near_numeric_values_score_partially() {
        let cfg = MatchConfig::default();
        let a = rec(0, "David Smith", "Acme", 1962);
        let b = rec(1, "David Smith", "Acme", 1963); // crawl-edit nudge
        let s = match_score(&a, &b, &cfg);
        assert!(s > 0.9, "{s}");
    }

    #[test]
    fn missing_name_scores_zero_name_component() {
        let cfg = MatchConfig::default();
        let a = Record::new(0, [("employer", Value::Text("Acme".into()))]);
        let b = Record::new(1, [("employer", Value::Text("Acme".into()))]);
        let s = match_score(&a, &b, &cfg);
        assert!(s < cfg.match_threshold);
    }
}
