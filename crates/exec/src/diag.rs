//! Span-carrying diagnostics shared by the pipeline language and the
//! structured query engine.
//!
//! The paper's processing layer promises that declarative programs are
//! "parsed, reformulated, optimized, then executed" — which only pays off
//! if a bad program is rejected *before* the (expensive) extraction pass.
//! This module is the substrate for that: a [`Diagnostic`] is a coded,
//! severity-tagged message anchored to a byte [`Span`] in some source
//! text; a [`SourceMap`] resolves spans to 1-based line/column pairs; and
//! a [`LintReport`] renders a batch of diagnostics in the familiar
//! caret-under-the-offending-text terminal style:
//!
//! ```text
//! error[QL001]: unknown extractor `infobx`
//!  --> pipeline.qdl:3:9
//!   |
//! 3 | EXTRACT infobx
//!   |         ^^^^^^
//!   = help: did you mean `infobox`? registered extractors: infobox, rules, ...
//! ```
//!
//! Both `quarry-lang` (QDL lint codes `QL...`) and `quarry-query`
//! (structured query codes `QQ...`) build on this one implementation so
//! the two surfaces stay visually and behaviourally consistent, the same
//! way [`crate::explain::PlanNode`] unifies the two EXPLAIN trees.

use std::fmt;

/// Half-open byte range `[start, end)` into some source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span {
    /// Byte offset of the first byte covered.
    pub start: usize,
    /// Byte offset one past the last byte covered.
    pub end: usize,
}

impl Span {
    /// A span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end: end.max(start) }
    }

    /// An empty span at one offset (used for "at end of input" errors).
    pub fn point(at: usize) -> Span {
        Span { start: at, end: at }
    }

    /// Number of bytes covered (zero for point spans).
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the span covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(&self, other: Span) -> Span {
        Span { start: self.start.min(other.start), end: self.end.max(other.end) }
    }

    /// This span translated `by` bytes to the right. Used when a
    /// sub-expression's diagnostics are re-anchored inside a larger
    /// rendered text (the structured-query validator composes rendered
    /// fragments this way).
    pub fn shifted(&self, by: usize) -> Span {
        Span { start: self.start + by, end: self.end + by }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// How bad a diagnostic is. `Error` blocks execution; `Warning` does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but executable (dead extractor, zero budget, ...).
    Warning,
    /// The program is wrong and must not be executed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One coded finding anchored to a span of the source text.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`QL001`, `QQ002`, ...).
    pub code: &'static str,
    /// Blocking or advisory.
    pub severity: Severity,
    /// Where in the source the problem is.
    pub span: Span,
    /// Human-readable description of what is wrong.
    pub message: String,
    /// Optional actionable suggestion ("did you mean ...").
    pub help: Option<String>,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic { code, severity: Severity::Error, span, message: message.into(), help: None }
    }

    /// A warning-severity diagnostic.
    pub fn warning(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic { code, severity: Severity::Warning, span, message: message.into(), help: None }
    }

    /// Attach a help suggestion.
    pub fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help = Some(help.into());
        self
    }

    /// Shift the span right by `by` bytes (see [`Span::shifted`]).
    pub fn shifted(mut self, by: usize) -> Diagnostic {
        self.span = self.span.shifted(by);
        self
    }
}

/// Resolves byte offsets in one source text to 1-based line/column pairs.
///
/// Built once per lint pass: a sorted table of line-start offsets, so each
/// lookup is a binary search.
#[derive(Debug, Clone)]
pub struct SourceMap {
    /// Byte offset where each line starts; `line_starts[0] == 0`.
    line_starts: Vec<usize>,
    len: usize,
}

impl SourceMap {
    /// Index `src` for line/column lookups.
    pub fn new(src: &str) -> SourceMap {
        let mut line_starts = vec![0usize];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        SourceMap { line_starts, len: src.len() }
    }

    /// 1-based (line, column) of a byte offset. Offsets past the end of
    /// the source clamp to the final position.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let offset = offset.min(self.len);
        let line = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (line + 1, offset - self.line_starts[line] + 1)
    }

    /// The 0-based index of the line containing `offset`.
    fn line_index(&self, offset: usize) -> usize {
        self.line_col(offset).0 - 1
    }
}

/// Compute 1-based (line, column) for an offset without building a map.
/// Used by `LexError`/`ParseError` `Display` impls, which must be able to
/// report positions independently of the full renderer.
pub fn line_col_of(src: &str, offset: usize) -> (usize, usize) {
    let offset = offset.min(src.len());
    let before = &src.as_bytes()[..offset];
    let line = before.iter().filter(|&&b| b == b'\n').count();
    let col = offset - before.iter().rposition(|&b| b == b'\n').map(|p| p + 1).unwrap_or(0);
    (line + 1, col + 1)
}

/// Levenshtein edit distance; small helper for did-you-mean suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The candidate closest to `needle` by edit distance, if any is close
/// enough to be a plausible typo (distance ≤ max(1, len/3), ties broken
/// by candidate order).
pub fn closest<'a, I>(needle: &str, candidates: I) -> Option<&'a str>
where
    I: IntoIterator<Item = &'a str>,
{
    let budget = (needle.chars().count() / 3).max(1);
    let mut best: Option<(usize, &str)> = None;
    for cand in candidates {
        let d = edit_distance(needle, cand);
        if d <= budget && best.map(|(bd, _)| d < bd).unwrap_or(true) {
            best = Some((d, cand));
        }
    }
    best.map(|(_, c)| c)
}

/// A batch of diagnostics for one source text, ready to render.
#[derive(Debug, Clone, PartialEq)]
pub struct LintReport {
    /// Display name of the source (`"pipeline.qdl"`, `"<query>"`, ...).
    pub origin: String,
    /// The text the diagnostics' spans index into.
    pub source: String,
    /// Findings, stably ordered by (span.start, span.end, code).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Build a report, sorting the diagnostics into their stable order.
    pub fn new(
        origin: impl Into<String>,
        source: impl Into<String>,
        mut diagnostics: Vec<Diagnostic>,
    ) -> LintReport {
        diagnostics.sort_by(|a, b| {
            (a.span.start, a.span.end, a.code).cmp(&(b.span.start, b.span.end, b.code))
        });
        LintReport { origin: origin.into(), source: source.into(), diagnostics }
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// True when no error-severity diagnostic is present (warnings ok).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Render every diagnostic in caret style, separated by blank lines.
    pub fn render(&self) -> String {
        let map = SourceMap::new(&self.source);
        let mut out = String::new();
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            render_one(&mut out, &self.origin, &self.source, &map, d);
        }
        out
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Render one diagnostic in rustc-ish caret style.
fn render_one(out: &mut String, origin: &str, src: &str, map: &SourceMap, d: &Diagnostic) {
    let (line, col) = map.line_col(d.span.start);
    out.push_str(&format!("{}[{}]: {}\n", d.severity, d.code, d.message));
    out.push_str(&format!(" --> {origin}:{line}:{col}\n"));

    // Show every source line the span touches, carets under the covered
    // region of each.
    let first = map.line_index(d.span.start);
    let last = map.line_index(if d.span.is_empty() { d.span.start } else { d.span.end - 1 });
    let gutter = (last + 1).to_string().len();
    out.push_str(&format!("{:width$} |\n", "", width = gutter));
    for li in first..=last {
        let line_start = map.line_starts[li];
        let line_end = map.line_starts.get(li + 1).map(|&e| e - 1).unwrap_or(src.len());
        let text = src[line_start..line_end.max(line_start)].trim_end_matches('\r');
        out.push_str(&format!("{:>width$} | {}\n", li + 1, text, width = gutter));

        let from = d.span.start.max(line_start) - line_start;
        let to = if d.span.is_empty() {
            from + 1
        } else {
            (d.span.end.min(line_start + text.len())).saturating_sub(line_start).max(from + 1)
        };
        let carets: String = " ".repeat(from) + &"^".repeat(to - from);
        out.push_str(&format!("{:width$} | {}\n", "", carets, width = gutter));
    }
    if let Some(help) = &d.help {
        out.push_str(&format!("{:width$} = help: {}\n", "", help, width = gutter));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_basics() {
        let s = Span::new(3, 7);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert!(Span::point(5).is_empty());
        assert_eq!(Span::new(1, 3).to(Span::new(6, 9)), Span::new(1, 9));
        assert_eq!(Span::new(1, 3).shifted(10), Span::new(11, 13));
    }

    #[test]
    fn source_map_lines_and_columns() {
        let src = "abc\ndef\n\nxyz";
        let map = SourceMap::new(src);
        assert_eq!(map.line_col(0), (1, 1));
        assert_eq!(map.line_col(2), (1, 3));
        assert_eq!(map.line_col(4), (2, 1));
        assert_eq!(map.line_col(8), (3, 1));
        assert_eq!(map.line_col(9), (4, 1));
        assert_eq!(map.line_col(11), (4, 3));
        // past-the-end clamps
        assert_eq!(map.line_col(999), (4, 4));
        // the standalone helper agrees
        for off in 0..=src.len() {
            assert_eq!(line_col_of(src, off), map.line_col(off));
        }
    }

    #[test]
    fn closest_suggests_plausible_typos_only() {
        let names = ["infobox", "rules", "rule:monthly-temperature"];
        assert_eq!(closest("infobx", names), Some("infobox"));
        assert_eq!(closest("rule", names), Some("rules"));
        assert_eq!(closest("zzzzzz", names), None);
    }

    #[test]
    fn render_points_a_caret_at_the_span() {
        let src = "EXTRACT infobx\nWHERE confidence >= 0.6";
        let d = Diagnostic::error("QL001", Span::new(8, 14), "unknown extractor `infobx`")
            .with_help("did you mean `infobox`?");
        let report = LintReport::new("p.qdl", src, vec![d]);
        let text = report.render();
        assert!(text.starts_with("error[QL001]: unknown extractor `infobx`\n"));
        assert!(text.contains(" --> p.qdl:1:9\n"));
        assert!(text.contains("1 | EXTRACT infobx\n"));
        assert!(text.contains("  |         ^^^^^^\n"));
        assert!(text.contains("  = help: did you mean `infobox`?\n"));
    }

    #[test]
    fn report_sorts_and_counts() {
        let a = Diagnostic::warning("QL007", Span::new(9, 10), "later");
        let b = Diagnostic::error("QL003", Span::new(2, 5), "earlier");
        let report = LintReport::new("x", "0123456789abcdef", vec![a, b]);
        assert_eq!(report.diagnostics[0].code, "QL003");
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.warning_count(), 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn point_span_renders_one_caret() {
        let d = Diagnostic::error("QL000", Span::point(3), "here");
        let text = LintReport::new("x", "abcdef", vec![d]).render();
        assert!(text.contains("1 | abcdef\n"));
        assert!(text.contains("  |    ^\n"), "got:\n{text}");
    }
}
