//! QDL programs through the façade. What `quarry-check` accepts runs, and
//! what it refuses the façade refuses with the same codes. A program is
//! checked once, as written, before anything runs, and a script is split
//! by the lexer and checked whole.

use quarry::corpus::CorpusConfig;
use quarry::exec::diag::line_col_of;
use quarry::lang::exec::ExecError;
use quarry::lint::{check_file_source, expected_codes};
use quarry::{Quarry, QuarryConfig, QuarryError};
use std::path::PathBuf;

fn system() -> Quarry {
    let mut q = Quarry::new(QuarryConfig::default()).unwrap();
    q.ingest_generated(&CorpusConfig::tiny(7)).unwrap();
    q
}

/// `(file name, source)` of every `examples/qdl/*.qdl`, sorted by name.
fn examples() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/qdl");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "qdl"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).unwrap())
        })
        .collect()
}

/// The codes a static refusal names: a `Lint` report's codes, or QL001
/// for the façade's unknown-extractor answer.
fn refused_codes(err: &QuarryError) -> Vec<&str> {
    match err {
        QuarryError::Lint(report) => report.diagnostics.iter().map(|d| d.code).collect(),
        QuarryError::Pipeline(ExecError::UnknownExtractor(_)) => vec!["QL001"],
        other => panic!("expected a static refusal, got {other}"),
    }
}

#[test]
fn the_checker_and_the_facade_agree_on_every_example() {
    let (mut ran, mut refused) = (0, 0);
    for (name, src) in examples() {
        let mut q = system();
        if name.ends_with(".bad.qdl") {
            let expected = expected_codes(&src);
            assert!(!expected.is_empty(), "{name} has no `-- expect:` codes");
            let err = q.run_pipeline(&src).expect_err(&name);
            let named = refused_codes(&err);
            for code in &expected {
                assert!(named.contains(&code.as_str()), "{name}: {code} missing from {err}");
            }
            refused += 1;
        } else if check_file_source(&name, &src, None).is_clean() {
            let stats = q.run_script(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(stats.len(), 1, "{name}");
            ran += 1;
        }
    }
    assert!(ran >= 2 && refused >= 5, "ran {ran}, refused {refused}");
}

#[test]
fn a_program_is_checked_as_written_not_as_optimized() {
    // The filter admits only `population`, so the optimizer prunes
    // `rule:lead-author`. The check reads the program the user wrote,
    // where `author` is producible; pruning must not turn it into a
    // refusal about a plan the user never wrote.
    let src = r#"PIPELINE pops
FROM corpus
EXTRACT rule:population-of, rule:lead-author
WHERE attribute IN ("population", "author") AND attribute = "population"
RESOLVE BY population
STORE INTO pops KEY population"#;
    let mut q = system();
    let report = q.check_program(src);
    assert_eq!((report.error_count(), report.warning_count()), (0, 1), "{report}");
    assert_eq!(report.diagnostics[0].code, "QL006");
    let stats = q.run_pipeline(src).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(q.db.row_count("pops").unwrap(), stats.rows_stored);
}

#[test]
fn a_script_is_split_by_the_lexer() {
    // `--` inside a string literal is not a comment.
    let script = r#"PIPELINE cities FROM corpus
EXTRACT infobox
WHERE attribute IN ("name", "a--b")
RESOLVE BY name
STORE INTO cities KEY name
"#;
    let mut q = system();
    assert!(q.check_program(script).is_clean());
    let ran = q.run_script(script).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(ran.iter().map(|(name, _)| name.as_str()).collect::<Vec<_>>(), ["cities"]);
    let mut single = system();
    let stats = single.run_pipeline(script).unwrap();
    assert_eq!(ran[0].1, stats, "a script of one runs as that program");
    assert!(q.db.row_count("cities").unwrap() > 0);
}

#[test]
fn a_refused_script_runs_nothing_and_points_at_its_own_lines() {
    let script = r#"-- The first pipeline is fine; the second filters its key out.
PIPELINE first FROM corpus
EXTRACT infobox
RESOLVE BY name
STORE INTO first KEY name

PIPELINE second FROM corpus
EXTRACT infobox
WHERE attribute IN ("population")
RESOLVE BY name
STORE INTO second KEY name
"#;
    let mut q = system();
    let Err(QuarryError::Lint(report)) = q.run_script(script) else {
        panic!("expected a Lint refusal")
    };
    let d = report.diagnostics.iter().find(|d| d.code == "QL005").expect("QL005");
    assert_eq!(line_col_of(&report.source, d.span.start), (10, 12));
    assert!(report.render().contains("<script>:10:12"), "{report}");
    assert!(q.db.schema("first").is_err(), "a refused script must run no pipeline");
}
