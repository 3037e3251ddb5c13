//! Golden-file tests: the caret renderer's exact output for each QA rule
//! family, driven by the fixtures under `tests/fixtures/`.
//!
//! Regenerate after an intentional renderer or rule change with:
//! `GOLDEN_REGEN=1 cargo test -p quarry-audit --test golden`

use quarry_audit::{audit_sources, codes, reports, Manifest, Severity};
use std::path::PathBuf;

fn manifest() -> Manifest {
    Manifest::parse("order = [\"writer\", \"tables\", \"active\", \"wal\", \"docs\"]").unwrap()
}

/// Audit one fixture under a virtual workspace path and compare the
/// rendered reports (errors and warnings) against a golden file.
fn golden(fixture: &str, virtual_path: &str, golden_name: &str) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(root.join("tests/fixtures").join(fixture)).unwrap();
    let out = audit_sources(vec![(virtual_path.to_string(), src)], &manifest());
    let got: String = reports(&out.files, &out.findings)
        .iter()
        .map(|r| r.render())
        .collect::<Vec<_>>()
        .join("\n");
    let golden_path = root.join("tests/golden").join(golden_name);
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(&golden_path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden {golden_name} ({e}); run with GOLDEN_REGEN=1"));
    assert_eq!(got, want, "renderer output drifted for {fixture}");
}

#[test]
fn qa101_panic_reachability_render() {
    golden("qa101_panics.rs", "crates/serve/src/handler.rs", "qa101.txt");
}

#[test]
fn qa102_lock_order_render() {
    golden("qa102_locks.rs", "crates/storage/src/engine.rs", "qa102.txt");
}

#[test]
fn qa103_forbidden_construct_render() {
    golden("qa103_forbidden.rs", "crates/serve/src/state.rs", "qa103.txt");
}

#[test]
fn qa104_unsafe_hygiene_render() {
    golden("qa104_unsafe.rs", "crates/corpus/src/mutate.rs", "qa104.txt");
}

#[test]
fn qa100_and_qa105_allow_hygiene_render() {
    golden("qa100_allows.rs", "crates/serve/src/session.rs", "qa100.txt");
}

/// A `Row::new()` under a `pager` guard reaches `Row::new` only, not
/// every `new`; `Quarry::new()` and `Self::new()` inside `impl Quarry`
/// still reach the `docs` acquisition and fail.
#[test]
fn qa102_resolves_type_paths_to_that_type() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(root.join("tests/fixtures/qa102_paths.rs")).unwrap();
    let manifest = Manifest::parse("order = [\"docs\", \"pager\"]").unwrap();
    let out = audit_sources(vec![("crates/storage/src/paged.rs".to_string(), src)], &manifest);
    let mut found: Vec<&str> = out
        .findings
        .iter()
        .filter(|f| f.code == codes::LOCK_ORDER)
        .map(|f| f.diagnostic.message.split('`').nth(1).unwrap())
        .collect();
    found.sort_unstable();
    assert_eq!(found, ["Quarry::reopen", "opens_a_facade"], "{:#?}", out.findings);
}

/// The seeded Mutex<Quarry> fixture must fail the audit the way the old
/// `! grep` CI step failed the build — but only via real code, not the
/// string literal bait.
#[test]
fn qa103_catches_the_seeded_facade_mutex() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(root.join("tests/fixtures/qa103_forbidden.rs")).unwrap();
    let out = audit_sources(vec![("crates/serve/src/state.rs".to_string(), src)], &manifest());
    let q103: Vec<_> = out.findings.iter().filter(|f| f.code == codes::FORBIDDEN).collect();
    assert_eq!(q103.len(), 1, "exactly the struct field, not the string: {q103:#?}");
    assert_eq!(q103[0].diagnostic.severity, Severity::Error);
    // The same source outside crates/serve is not a finding.
    let src = std::fs::read_to_string(root.join("tests/fixtures/qa103_forbidden.rs")).unwrap();
    let out = audit_sources(vec![("crates/core/src/state.rs".to_string(), src)], &manifest());
    assert!(!out.findings.iter().any(|f| f.code == codes::FORBIDDEN));
}

/// Clean sources produce no findings at all.
#[test]
fn clean_sources_are_silent() {
    let out = audit_sources(
        vec![
            (
                "crates/serve/src/clean.rs".to_string(),
                "pub fn handle(req: &Request) -> Result<Response, Error> {\n    \
                 let body = req.body.as_ref().ok_or(Error::Empty)?;\n    \
                 Ok(Response::ok(body.get(0).copied()))\n}\n"
                    .to_string(),
            ),
            (
                "crates/storage/src/clean.rs".to_string(),
                "impl Database {\n    pub fn ordered(&self) {\n        \
                 let tables = self.tables.lock();\n        \
                 let active = self.active.lock();\n        drop((tables, active));\n    }\n}\n"
                    .to_string(),
            ),
        ],
        &manifest(),
    );
    assert!(out.findings.is_empty(), "{:#?}", out.findings);
}
