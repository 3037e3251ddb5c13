//! `quarry-check` — lint QDL files from the command line.
//!
//! ```text
//! quarry-check [PATH ...]
//! ```
//!
//! Each PATH is a `.qdl` file or a directory searched recursively for
//! them. Ordinary files must lint clean of errors (warnings are printed
//! but tolerated). Files named `*.bad.qdl` are negative examples: they
//! must produce at least one error, and when they carry `-- expect: QLnnn`
//! annotations, every listed code must appear. Exits non-zero on any
//! violation, so CI can keep `examples/qdl/` honest.

use quarry_lint::{check_file_source, expected_codes, Severity};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn collect(path: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut children: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        children.sort();
        for child in children {
            collect(&child, out)?;
        }
    } else if path.extension().is_some_and(|e| e == "qdl") {
        out.push(path.to_path_buf());
    }
    Ok(())
}

fn run() -> Result<usize, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: quarry-check [PATH ...]\nLints .qdl files; *.bad.qdl must fail.");
        return Ok(0);
    }
    let roots: Vec<PathBuf> = if args.is_empty() {
        vec![PathBuf::from(".")]
    } else {
        args.iter().map(PathBuf::from).collect()
    };
    let mut files = Vec::new();
    for root in &roots {
        if !root.exists() {
            return Err(format!("{}: no such file or directory", root.display()));
        }
        collect(root, &mut files)?;
    }
    if files.is_empty() {
        return Err("no .qdl files found".to_string());
    }

    let mut violations = 0usize;
    for file in &files {
        let src = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        let origin = file.display().to_string();
        let report = check_file_source(&origin, &src);
        let negative = origin.ends_with(".bad.qdl");
        if negative {
            let missing: Vec<String> = expected_codes(&src)
                .into_iter()
                .filter(|c| !report.diagnostics.iter().any(|d| d.code == *c))
                .collect();
            if report.error_count() == 0 {
                println!("FAIL {origin}: expected errors, found none");
                violations += 1;
            } else if !missing.is_empty() {
                println!("FAIL {origin}: missing expected code(s) {}", missing.join(", "));
                print!("{}", report.render());
                violations += 1;
            } else {
                println!("ok   {origin} (fails as expected: {} error(s))", report.error_count());
            }
        } else if report.error_count() > 0 {
            println!("FAIL {origin}:");
            print!("{}", report.render());
            violations += 1;
        } else {
            let warnings = report.warning_count();
            if warnings > 0 {
                println!("ok   {origin} ({warnings} warning(s))");
                print!(
                    "{}",
                    report
                        .diagnostics
                        .iter()
                        .filter(|d| d.severity == Severity::Warning)
                        .map(|d| format!("  {}: {}\n", d.code, d.message))
                        .collect::<String>()
                );
            } else {
                println!("ok   {origin}");
            }
        }
    }
    println!("{} file(s) checked, {violations} violation(s)", files.len());
    Ok(violations)
}

fn main() -> ExitCode {
    match run() {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("quarry-check: {msg}");
            ExitCode::FAILURE
        }
    }
}
