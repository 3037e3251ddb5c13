//! Line-oriented delta encoding.
//!
//! The snapshot store keeps most document versions as a delta against the
//! previous version. The encoding is a sequence of [`DeltaOp`]s over *lines*:
//! `Copy { start, len }` references a run of lines in the base text, and
//! `Insert(text)` supplies new lines verbatim. A greedy longest-run matcher
//! over a line-hash index produces compact deltas for the
//! "mostly-unchanged page" workload in a single pass — the same trade-off
//! Subversion's xdelta makes.

use std::collections::HashMap;

/// One instruction of a delta script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Copy `len` lines of the base starting at line `start`.
    Copy {
        /// 0-based first line in the base text.
        start: u32,
        /// Number of lines to copy.
        len: u32,
    },
    /// Insert these lines (joined with `\n` when applying).
    Insert(Vec<String>),
}

/// A delta script transforming one text into another.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Delta {
    /// Ops in application order.
    pub ops: Vec<DeltaOp>,
    /// True when the target text ended with a trailing newline.
    pub trailing_newline: bool,
}

impl Delta {
    /// Approximate encoded size in bytes: insert payloads plus a fixed cost
    /// per op. Used by the snapshot store to decide delta vs full storage and
    /// by the E4 experiment to report space savings.
    pub fn encoded_size(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::Copy { .. } => 8,
                DeltaOp::Insert(lines) => 8 + lines.iter().map(|l| l.len() + 1).sum::<usize>(),
            })
            .sum()
    }
}

fn split_lines(text: &str) -> Vec<&str> {
    if text.is_empty() {
        return Vec::new();
    }
    text.split('\n').collect()
}

/// Compute a delta that transforms `base` into `target`.
///
/// Guarantee (property-tested): `apply(&diff(base, target), base) == target`
/// for every pair of strings.
pub fn diff(base: &str, target: &str) -> Delta {
    let base_lines = split_lines(base);
    let target_lines = split_lines(target);
    let trailing_newline = target.ends_with('\n');
    // Strip the phantom empty line produced by a trailing '\n'.
    let target_lines =
        if trailing_newline { &target_lines[..target_lines.len() - 1] } else { &target_lines[..] };
    let base_trailing = base.ends_with('\n');
    let base_lines =
        if base_trailing { &base_lines[..base_lines.len() - 1] } else { &base_lines[..] };

    // Index base lines by content for O(1) candidate lookup.
    let mut index: HashMap<&str, Vec<u32>> = HashMap::with_capacity(base_lines.len());
    for (i, line) in base_lines.iter().enumerate() {
        index.entry(line).or_default().push(i as u32);
    }

    let mut ops: Vec<DeltaOp> = Vec::new();
    let mut pending_insert: Vec<String> = Vec::new();
    let mut ti = 0usize;
    while ti < target_lines.len() {
        // Find the base position giving the longest run match starting at ti.
        let mut best: Option<(u32, u32)> = None; // (base start, run len)
        if let Some(starts) = index.get(target_lines[ti]) {
            for &s in starts {
                let mut len = 0u32;
                while (ti + len as usize) < target_lines.len()
                    && (s + len) < base_lines.len() as u32
                    && base_lines[(s + len) as usize] == target_lines[ti + len as usize]
                {
                    len += 1;
                }
                if best.is_none_or(|(_, bl)| len > bl) {
                    best = Some((s, len));
                }
            }
        }
        match best {
            // Runs of ≥2 lines are worth a Copy op; single-line matches are
            // usually cheaper inlined (op overhead > line length for short lines).
            Some((s, len)) if len >= 2 => {
                if !pending_insert.is_empty() {
                    ops.push(DeltaOp::Insert(std::mem::take(&mut pending_insert)));
                }
                ops.push(DeltaOp::Copy { start: s, len });
                ti += len as usize;
            }
            _ => {
                pending_insert.push(target_lines[ti].to_string());
                ti += 1;
            }
        }
    }
    if !pending_insert.is_empty() {
        ops.push(DeltaOp::Insert(pending_insert));
    }
    Delta { ops, trailing_newline }
}

/// Apply a delta to its base text, producing the target text.
///
/// Returns `None` if the delta references lines outside the base (i.e. it was
/// produced against a different base).
pub fn apply(delta: &Delta, base: &str) -> Option<String> {
    let base_trailing = base.ends_with('\n');
    let mut base_lines = split_lines(base);
    if base_trailing {
        base_lines.pop();
    }
    let mut out: Vec<&str> = Vec::new();
    for op in &delta.ops {
        match op {
            DeltaOp::Copy { start, len } => {
                let s = *start as usize;
                let e = s + *len as usize;
                if e > base_lines.len() {
                    return None;
                }
                out.extend_from_slice(&base_lines[s..e]);
            }
            DeltaOp::Insert(lines) => out.extend(lines.iter().map(String::as_str)),
        }
    }
    let mut text = out.join("\n");
    if delta.trailing_newline {
        text.push('\n');
    }
    Some(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(a: &str, b: &str) {
        let d = diff(a, b);
        assert_eq!(apply(&d, a).as_deref(), Some(b), "base={a:?} target={b:?}");
    }

    #[test]
    fn identical_texts_are_one_copy() {
        let text = "alpha\nbeta\ngamma\ndelta";
        let d = diff(text, text);
        assert_eq!(d.ops, vec![DeltaOp::Copy { start: 0, len: 4 }]);
        round_trip(text, text);
    }

    #[test]
    fn empty_and_nonempty_cases() {
        round_trip("", "");
        round_trip("", "hello\nworld");
        round_trip("hello\nworld", "");
        round_trip("a\n", "a\n");
        round_trip("a", "a\n");
        round_trip("a\n", "a");
    }

    #[test]
    fn small_edit_produces_small_delta() {
        let base: String = (0..200).map(|i| format!("line number {i}\n")).collect();
        let target = base.replacen("line number 100", "line number one hundred", 1);
        let d = diff(&base, &target);
        assert_eq!(apply(&d, &base).unwrap(), target);
        assert!(
            d.encoded_size() < base.len() / 10,
            "delta {} vs base {}",
            d.encoded_size(),
            base.len()
        );
    }

    #[test]
    fn appended_lines() {
        let base = "one\ntwo\nthree";
        let target = "one\ntwo\nthree\nfour\nfive";
        round_trip(base, target);
        let d = diff(base, target);
        assert!(matches!(d.ops[0], DeltaOp::Copy { start: 0, len: 3 }));
    }

    #[test]
    fn reordered_blocks_round_trip() {
        round_trip("a\nb\nc\nd\ne\nf", "d\ne\nf\na\nb\nc");
    }

    #[test]
    fn apply_rejects_mismatched_base() {
        let d = diff("a\nb\nc\nd", "a\nb\nc\nd\nx");
        assert!(apply(&d, "a").is_none());
    }

    #[test]
    fn repeated_lines_handled() {
        round_trip("x\nx\nx\nx", "x\nx\ny\nx\nx");
    }

    proptest! {
        #[test]
        fn prop_round_trip(a in "(\\PC{0,12}\n){0,20}\\PC{0,12}", b in "(\\PC{0,12}\n){0,20}\\PC{0,12}") {
            let d = diff(&a, &b);
            prop_assert_eq!(apply(&d, &a), Some(b));
        }

        #[test]
        fn prop_self_diff_is_compact(a in "([a-z ]{0,30}\n){1,30}") {
            let d = diff(&a, &a);
            // Self-delta never stores payload bytes (single-line texts are
            // the exception: runs below two lines inline as inserts).
            let all_copies = d.ops.iter().all(|op| matches!(op, DeltaOp::Copy { .. }));
            prop_assert!(all_copies || a.trim().is_empty() || a.lines().count() < 2);
        }
    }
}
