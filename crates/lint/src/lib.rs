//! One roof over Quarry's static analyzers.
//!
//! The diagnostics *framework* lives in [`quarry_exec::diag`] (spans,
//! severities, source-mapped rendering); the QDL semantic analyzer
//! (QL001–QL008) lives in [`quarry_lang::lint`]; the structured-query
//! validator (QQ001–QQ003) lives in [`quarry_query::lint`]. This crate
//! re-exports all three behind one import path and ships the
//! `quarry-check` binary that lints `.qdl` files from the command line
//! (see `examples/qdl/` and the CI step that keeps them honest).
//!
//! The convenience entry point is [`check_file_source`], which the binary
//! and the golden tests share: lint one QDL source against the standard
//! operator library.

#![forbid(unsafe_code)]

pub use quarry_exec::diag::{
    closest, line_col_of, Diagnostic, LintReport, Severity, SourceMap, Span,
};
pub use quarry_lang::lint::{analyze, codes as qdl_codes, lint_source};
pub use quarry_query::lint::{check_query, codes as query_codes};

use quarry_lang::ExtractorRegistry;
use quarry_schema::SchemaRegistry;

/// Lint one QDL source file against the standard extractor registry (and
/// optionally a schema registry), under the file's own name.
pub fn check_file_source(origin: &str, src: &str, schemas: Option<&SchemaRegistry>) -> LintReport {
    lint_source(origin, src, &ExtractorRegistry::standard(), schemas)
}

/// The `-- expect: QL001, QL005` annotations of a `.bad.qdl` example:
/// every listed code must appear in the report for the file to "pass" as
/// a negative test.
pub fn expected_codes(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in src.lines() {
        let Some(rest) = line.trim_start().strip_prefix("--") else { continue };
        let Some(codes) = rest.trim_start().strip_prefix("expect:") else { continue };
        for code in codes.split(',') {
            let code = code.trim();
            if !code.is_empty() {
                out.push(code.to_string());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_file_source_runs_the_qdl_analyzer() {
        let report = check_file_source(
            "t.qdl",
            "PIPELINE p FROM corpus\nEXTRACT infobx\nRESOLVE BY name",
            None,
        );
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.diagnostics[0].code, qdl_codes::UNKNOWN_EXTRACTOR);
        assert_eq!(report.origin, "t.qdl");
    }

    #[test]
    fn expect_annotations_parse() {
        let src =
            "-- a comment\n--expect: QL001\n-- expect: QL004, QL005\nPIPELINE p FROM corpus\n";
        assert_eq!(expected_codes(src), vec!["QL001", "QL004", "QL005"]);
        assert!(expected_codes("PIPELINE p FROM corpus\n").is_empty());
    }
}
