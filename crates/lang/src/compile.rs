//! The front door, and the one place a program is checked: [`compile`]
//! parses the source once, runs [`analyze`] once over the text the user
//! wrote, and lowers the program with its `WHERE` filters placed. Only it
//! (and [`compile_script`]) turns source into a [`CheckedProgram`], the
//! one thing [`Executor::run`](crate::exec::Executor::run) accepts.

use crate::ast::Pipeline;
use crate::lint::{analyze, codes};
use crate::parser::{parse_script, parse_spanned, ParseError};
use crate::plan::LogicalPlan;
use crate::registry::ExtractorRegistry;
use quarry_exec::diag::{LintReport, Severity};
use quarry_schema::SchemaRegistry;
use std::fmt;

/// A program that parsed and passed static analysis, lowered to a plan.
/// It has no public constructor; [`crate::plan::optimize_with`] turns one
/// into another that answers the same.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedProgram {
    pub(crate) name: String,
    pub(crate) plan: LogicalPlan,
    pub(crate) report: LintReport,
}

impl CheckedProgram {
    /// The `PIPELINE` name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The plan the executor runs.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// What analysis found: warnings only.
    pub fn report(&self) -> &LintReport {
        &self.report
    }
}

/// Why [`compile`] refused a program, before any document was read.
#[derive(Debug)]
pub enum CompileError {
    /// The source does not lex or parse.
    Parse(ParseError),
    /// Unknown extractors (QL001) are the only errors; `name` is the first.
    UnknownExtractor {
        /// The first unknown extractor, in source order.
        name: String,
        /// Every diagnostic.
        report: LintReport,
    },
    /// Any other error diagnostic.
    Lint(LintReport),
}

impl CompileError {
    /// What analysis found, if the source parsed.
    pub fn report(&self) -> Option<&LintReport> {
        match self {
            CompileError::Parse(_) => None,
            CompileError::UnknownExtractor { report, .. } | CompileError::Lint(report) => {
                Some(report)
            }
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::UnknownExtractor { name, .. } => write!(f, "unknown extractor: {name}"),
            CompileError::Lint(report) => write!(f, "rejected by static analysis:\n{report}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compile one program against the operator library and, optionally, the
/// schema registry (QL008). `origin` names the source in diagnostics.
pub fn compile(
    origin: &str,
    src: &str,
    registry: &ExtractorRegistry,
    schemas: Option<&SchemaRegistry>,
) -> Result<CheckedProgram, CompileError> {
    let (pipeline, spans) = parse_spanned(src).map_err(CompileError::Parse)?;
    let report =
        clean(LintReport::new(origin, src, analyze(&pipeline, &spans, registry, schemas)))?;
    Ok(lower(pipeline, report))
}

/// Compile a script of programs, checked whole: an error in any program
/// refuses them all, with every diagnostic at its place in the script.
pub fn compile_script(
    origin: &str,
    src: &str,
    registry: &ExtractorRegistry,
    schemas: Option<&SchemaRegistry>,
) -> Result<Vec<CheckedProgram>, CompileError> {
    let mut programs = Vec::new();
    let mut diagnostics = Vec::new();
    for (pipeline, spans) in parse_script(src).map_err(CompileError::Parse)? {
        let found = analyze(&pipeline, &spans, registry, schemas);
        diagnostics.extend(found.iter().cloned());
        programs.push((pipeline, LintReport::new(origin, src, found)));
    }
    clean(LintReport::new(origin, src, diagnostics))?;
    Ok(programs.into_iter().map(|(pipeline, report)| lower(pipeline, report)).collect())
}

/// Pass a report without errors through; refuse one with errors.
fn clean(report: LintReport) -> Result<LintReport, CompileError> {
    let mut errors = report.diagnostics.iter().filter(|d| d.severity == Severity::Error);
    let Some(first) = errors.clone().next() else { return Ok(report) };
    if errors.all(|d| d.code == codes::UNKNOWN_EXTRACTOR) {
        let name = report.source.get(first.span.start..first.span.end).unwrap_or("").to_string();
        return Err(CompileError::UnknownExtractor { name, report });
    }
    Err(CompileError::Lint(report))
}

fn lower(pipeline: Pipeline, report: LintReport) -> CheckedProgram {
    CheckedProgram { plan: LogicalPlan::from_pipeline(&pipeline), name: pipeline.name, report }
}
