//! Noise model: the controlled imperfection that makes IE and II non-trivial.
//!
//! The paper's §3.2 argument rests on automatic extraction/integration being
//! imperfect because "semantics is often not adequately captured in the
//! text". This module produces exactly the phenomena it names:
//! name variants ("David Smith" → "D. Smith"), attribute-label variants
//! (`location` vs `address`), unit/format variants, and typos.

use rand::Rng;

/// Probabilities of each noise phenomenon, all in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Chance a rendered person mention uses an abbreviated variant.
    pub name_variant: f64,
    /// Chance an infobox uses the alternate label for an attribute.
    pub label_variant: f64,
    /// Chance a numeric value is rendered with thousands separators.
    pub number_format_variant: f64,
    /// Chance a temperature is rendered with a spelled-out unit.
    pub unit_variant: f64,
    /// Per-word chance of a single-character typo in prose (never in values).
    pub typo: f64,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig {
            name_variant: 0.3,
            label_variant: 0.25,
            number_format_variant: 0.3,
            unit_variant: 0.3,
            typo: 0.01,
        }
    }
}

impl NoiseConfig {
    /// A configuration with every probability zero: pages render canonically.
    pub fn none() -> Self {
        NoiseConfig {
            name_variant: 0.0,
            label_variant: 0.0,
            number_format_variant: 0.0,
            unit_variant: 0.0,
            typo: 0.0,
        }
    }

    /// Validate all probabilities are within `[0,1]`.
    pub fn validate(&self) -> Result<(), String> {
        for (label, p) in [
            ("name_variant", self.name_variant),
            ("label_variant", self.label_variant),
            ("number_format_variant", self.number_format_variant),
            ("unit_variant", self.unit_variant),
            ("typo", self.typo),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{label} = {p} outside [0,1]"));
            }
        }
        Ok(())
    }
}

/// Abbreviated person-name variants: "David Smith" → "D. Smith",
/// "Smith, David", or "David R. Smith"-style middle initials.
pub fn name_variant(full: &str, first: &str, last: &str, rng: &mut impl Rng) -> String {
    match rng.gen_range(0..3u8) {
        0 => format!("{}. {}", &first[..1], last),
        1 => format!("{last}, {first}"),
        _ => {
            let mid = (b'A' + rng.gen_range(0..26u8)) as char;
            let _ = full;
            format!("{first} {mid}. {last}")
        }
    }
}

/// Format an integer with or without thousands separators.
pub fn format_number(n: u64, with_separators: bool) -> String {
    if !with_separators {
        return n.to_string();
    }
    let digits = n.to_string();
    let bytes = digits.as_bytes();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 && (bytes.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(*b as char);
    }
    out
}

/// Render a temperature value with one of the unit spellings extractors must
/// normalize: `70 °F`, `70 F`, or `70 degrees Fahrenheit`.
pub fn format_temp(value: i32, variant: u8) -> String {
    match variant % 3 {
        0 => format!("{value} °F"),
        1 => format!("{value} F"),
        _ => format!("{value} degrees Fahrenheit"),
    }
}

/// Introduce a single-character transposition typo into one word of `s`.
///
/// Words that look numeric or capitalized (likely proper nouns / values) are
/// skipped so that facts stay recoverable; only filler prose degrades.
pub fn typo(s: &str, rng: &mut impl Rng) -> String {
    let words: Vec<&str> = s.split(' ').collect();
    let candidates: Vec<usize> = words
        .iter()
        .enumerate()
        .filter(|(_, w)| w.len() >= 4 && w.chars().all(|c| c.is_ascii_lowercase()))
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return s.to_string();
    }
    let wi = candidates[rng.gen_range(0..candidates.len())];
    let mut out_words: Vec<String> = words.iter().map(|w| w.to_string()).collect();
    let w = &mut out_words[wi];
    let ci = rng.gen_range(0..w.len() - 1);
    let mut chars: Vec<char> = w.chars().collect();
    chars.swap(ci, ci + 1);
    *w = chars.into_iter().collect();
    out_words.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_config_is_valid() {
        assert!(NoiseConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_probability_rejected() {
        let cfg = NoiseConfig { typo: 1.5, ..NoiseConfig::none() };
        assert!(cfg.validate().unwrap_err().contains("typo"));
    }

    #[test]
    fn name_variants_differ_from_canonical() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let v = name_variant("David Smith", "David", "Smith", &mut rng);
            assert_ne!(v, "David Smith");
            assert!(v.contains("Smith"));
        }
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(1234567, true), "1,234,567");
        assert_eq!(format_number(1234567, false), "1234567");
        assert_eq!(format_number(12, true), "12");
        assert_eq!(format_number(100, true), "100");
        assert_eq!(format_number(1000, true), "1,000");
    }

    #[test]
    fn temp_unit_variants() {
        assert_eq!(format_temp(70, 0), "70 °F");
        assert_eq!(format_temp(70, 1), "70 F");
        assert_eq!(format_temp(-5, 2), "-5 degrees Fahrenheit");
    }

    #[test]
    fn typo_preserves_word_count_and_skips_proper_nouns() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = "Madison enjoys pleasant weather during summer";
        let t = typo(s, &mut rng);
        assert_eq!(t.split(' ').count(), s.split(' ').count());
        assert!(t.contains("Madison"), "proper noun must survive: {t}");
    }

    #[test]
    fn typo_on_empty_or_short_is_identity() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(typo("Hi Bob", &mut rng), "Hi Bob");
        assert_eq!(typo("", &mut rng), "");
    }
}
