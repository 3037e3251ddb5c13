//! Error injection for evaluating the semantic debugger.
//!
//! The paper's Part-VI example: a module that "has learned that the monthly
//! temperature of a city cannot exceed 130 degrees ... can flag an extracted
//! temperature of 135 as suspicious". To measure that detector we corrupt
//! ground-truth-derived tuples at a known rate and keep a log of exactly
//! which (row, attribute) pairs were damaged.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The kinds of damage injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorruptionKind {
    /// Numeric value pushed outside its learned plausible range
    /// (e.g. temperature 135 °F, population −4).
    OutOfRange,
    /// Value replaced by one of the wrong type (a word where a number goes).
    WrongType,
    /// Value swapped with another row's value for the same attribute,
    /// breaking functional dependencies without leaving the value domain.
    SwappedValue,
}

impl CorruptionKind {
    /// All kinds in a fixed order.
    pub const ALL: [CorruptionKind; 3] =
        [CorruptionKind::OutOfRange, CorruptionKind::WrongType, CorruptionKind::SwappedValue];
}

/// Configuration for one corruption pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionConfig {
    /// RNG seed.
    pub seed: u64,
    /// Fraction of cells to corrupt, in `[0,1]`.
    pub rate: f64,
}

/// Record of one injected error.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectedError {
    /// Row index in the corrupted table.
    pub row: usize,
    /// Attribute (column) name.
    pub attribute: String,
    /// What was done.
    pub kind: CorruptionKind,
    /// The original (correct) serialized value.
    pub original: String,
    /// The corrupted serialized value now in place.
    pub corrupted: String,
}

/// The labels produced by a corruption pass: which cells are bad.
#[derive(Debug, Clone, Default)]
pub struct CorruptionLog {
    /// One entry per damaged cell.
    pub errors: Vec<InjectedError>,
}

impl CorruptionLog {
    /// True if the given cell was corrupted.
    pub fn is_corrupted(&self, row: usize, attribute: &str) -> bool {
        self.errors.iter().any(|e| e.row == row && e.attribute == attribute)
    }

    /// Number of injected errors.
    pub fn len(&self) -> usize {
        self.errors.len()
    }

    /// True when nothing was corrupted.
    pub fn is_empty(&self) -> bool {
        self.errors.is_empty()
    }
}

// Splitmix64-style odd multipliers used to fold a cell's coordinates into
// the configured seed.
const ROW_MIX: u64 = 0x9E37_79B9_7F4A_7C15;
const COL_MIX: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// RNG for one cell, derived from `(seed, row, col)` alone. Whether a cell
/// is corrupted — and how — never depends on how many random draws other
/// cells consumed, so adding a column (or changing another cell's damage)
/// cannot reshuffle the rest of the plan.
fn cell_rng(seed: u64, row: usize, col: usize) -> StdRng {
    let mixed =
        seed ^ (row as u64 + 1).wrapping_mul(ROW_MIX) ^ (col as u64 + 1).wrapping_mul(COL_MIX);
    StdRng::seed_from_u64(mixed)
}

/// Corrupt a string-serialized table in place.
///
/// `rows` is a mutable table of serialized cell values; `columns` names each
/// column and says whether it is numeric. Each cell is damaged independently
/// with probability `rate`, using an RNG derived from the seed and the
/// cell's coordinates (see [`cell_rng`]), so the plan is a pure function of
/// `(seed, rate, original table)`. Returns the log of injected errors.
pub fn corrupt_table(
    rows: &mut [Vec<String>],
    columns: &[(&str, bool)],
    config: CorruptionConfig,
) -> CorruptionLog {
    let mut log = CorruptionLog::default();
    let rate = config.rate.clamp(0.0, 1.0);
    if rows.is_empty() || rate == 0.0 {
        return log;
    }
    // Swap sources read from the pristine table so one cell's damage never
    // leaks into another's.
    let pristine: Vec<Vec<String>> = rows.to_vec();

    for row in 0..rows.len() {
        for (col, &(attr, numeric)) in columns.iter().enumerate() {
            let mut rng = cell_rng(config.seed, row, col);
            if !rng.gen_bool(rate) {
                continue;
            }
            let original = pristine[row][col].clone();
            let kind = CorruptionKind::ALL[rng.gen_range(0..CorruptionKind::ALL.len())];
            let corrupted = match kind {
                CorruptionKind::OutOfRange if numeric => {
                    let v: f64 = original.parse().unwrap_or(0.0);
                    // Push far outside any plausible learned range.
                    let blown =
                        if rng.gen_bool(0.5) { v * 100.0 + 1000.0 } else { -v * 100.0 - 1000.0 };
                    format!("{blown:.0}")
                }
                CorruptionKind::OutOfRange => {
                    // Non-numeric column: fall back to an unseen categorical value.
                    format!("__corrupt_{}", rng.gen_range(0..u32::MAX))
                }
                CorruptionKind::WrongType if numeric => "unknown".to_string(),
                CorruptionKind::WrongType => rng.gen_range(10_000..99_999u32).to_string(),
                CorruptionKind::SwappedValue => {
                    let other = rng.gen_range(0..pristine.len());
                    pristine[other][col].clone()
                }
            };
            if corrupted == original {
                continue; // swap landed on an identical value; not an error
            }
            rows[row][col] = corrupted.clone();
            log.errors.push(InjectedError {
                row,
                attribute: attr.to_string(),
                kind,
                original,
                corrupted,
            });
        }
    }
    log
}

/// Re-apply a recorded corruption log to a clean copy of its table.
///
/// Logs are serializable and can outlive the schema they were recorded
/// against, so an entry may name an attribute the current column list no
/// longer has, or a row past the end of the table. Such entries are skipped
/// and returned for inspection rather than panicking.
pub fn apply_log(
    rows: &mut [Vec<String>],
    columns: &[(&str, bool)],
    log: &CorruptionLog,
) -> Vec<InjectedError> {
    let mut skipped = Vec::new();
    for e in &log.errors {
        let col = columns.iter().position(|(n, _)| *n == e.attribute);
        match (col, rows.get_mut(e.row)) {
            (Some(c), Some(r)) if c < r.len() => r[c] = e.corrupted.clone(),
            _ => skipped.push(e.clone()),
        }
    }
    skipped
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (Vec<Vec<String>>, Vec<(&'static str, bool)>) {
        let rows: Vec<Vec<String>> = (0..50)
            .map(|i| vec![format!("city{i}"), format!("{}", 20 + i), format!("{}", 1000 * (i + 1))])
            .collect();
        (rows, vec![("name", false), ("temp", true), ("population", true)])
    }

    #[test]
    fn zero_rate_corrupts_nothing() {
        let (mut rows, cols) = table();
        let orig = rows.clone();
        let log = corrupt_table(&mut rows, &cols, CorruptionConfig { seed: 1, rate: 0.0 });
        assert!(log.is_empty());
        assert_eq!(rows, orig);
    }

    #[test]
    fn log_matches_actual_damage() {
        let (mut rows, cols) = table();
        let orig = table().0;
        let log = corrupt_table(&mut rows, &cols, CorruptionConfig { seed: 2, rate: 0.1 });
        assert!(!log.is_empty());
        // Replaying the log over a clean copy reproduces the damage exactly.
        let mut replay = table().0;
        assert!(apply_log(&mut replay, &cols, &log).is_empty(), "no entry should be skipped");
        assert_eq!(replay, rows);
        for e in &log.errors {
            let col = cols
                .iter()
                .position(|(n, _)| *n == e.attribute)
                .unwrap_or_else(|| panic!("log names unknown attribute {:?}", e.attribute));
            assert_eq!(rows[e.row][col], e.corrupted);
            assert_eq!(orig[e.row][col], e.original);
            assert_ne!(e.corrupted, e.original);
        }
        // Every changed cell is in the log.
        for (r, (now, before)) in rows.iter().zip(&orig).enumerate() {
            for (c, (nv, bv)) in now.iter().zip(before).enumerate() {
                if nv != bv {
                    assert!(log.is_corrupted(r, cols[c].0), "unlogged damage at ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn log_naming_absent_attribute_is_skipped_not_a_panic() {
        let (mut rows, cols) = table();
        let mut log = corrupt_table(&mut rows, &cols, CorruptionConfig { seed: 2, rate: 0.1 });
        // Simulate a log recorded against an older schema: one entry names a
        // column that no longer exists, another points past the table.
        log.errors.push(InjectedError {
            row: 0,
            attribute: "renamed_away".into(),
            kind: CorruptionKind::WrongType,
            original: "x".into(),
            corrupted: "y".into(),
        });
        log.errors.push(InjectedError {
            row: 9_999,
            attribute: "temp".into(),
            kind: CorruptionKind::OutOfRange,
            original: "20".into(),
            corrupted: "9000".into(),
        });
        let mut replay = table().0;
        let skipped = apply_log(&mut replay, &cols, &log);
        assert_eq!(skipped.len(), 2, "both stale entries skipped: {skipped:?}");
        assert_eq!(replay, rows, "valid entries still applied");
    }

    #[test]
    fn per_cell_plan_is_independent_of_other_columns() {
        // The point of deriving each cell's RNG from (seed, row, col): adding
        // a column must not reshuffle the damage in the existing ones.
        let (mut a, cols) = table();
        let (mut b, _) = table();
        for r in &mut b {
            r.push("constant".to_string());
        }
        let mut cols_b = cols.clone();
        cols_b.push(("extra", false));
        let cfg = CorruptionConfig { seed: 11, rate: 0.2 };
        let la = corrupt_table(&mut a, &cols, cfg);
        let lb = corrupt_table(&mut b, &cols_b, cfg);
        let lb_existing: Vec<_> =
            lb.errors.iter().filter(|e| e.attribute != "extra").cloned().collect();
        assert_eq!(la.errors, lb_existing);
    }

    #[test]
    fn out_of_range_numeric_values_are_extreme() {
        let (mut rows, cols) = table();
        let log = corrupt_table(&mut rows, &cols, CorruptionConfig { seed: 3, rate: 0.3 });
        for e in log.errors.iter().filter(|e| e.kind == CorruptionKind::OutOfRange) {
            if let Ok(v) = e.corrupted.parse::<f64>() {
                assert!(v.abs() > 500.0, "not extreme: {v}");
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (mut a, cols) = table();
        let (mut b, _) = table();
        let cfg = CorruptionConfig { seed: 7, rate: 0.2 };
        let la = corrupt_table(&mut a, &cols, cfg);
        let lb = corrupt_table(&mut b, &cols, cfg);
        assert_eq!(a, b);
        assert_eq!(la.errors, lb.errors);
    }

    #[test]
    fn empty_table_is_noop() {
        let mut rows: Vec<Vec<String>> = vec![];
        let log = corrupt_table(&mut rows, &[("x", true)], CorruptionConfig { seed: 1, rate: 0.5 });
        assert!(log.is_empty());
    }
}
