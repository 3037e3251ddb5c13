//! Golden-file tests: the caret renderer's exact output for the QL001–QL005
//! negative examples under `examples/qdl/`.
//!
//! Regenerate after an intentional renderer change with:
//! `GOLDEN_REGEN=1 cargo test -p quarry-lint --test golden`

use quarry_lint::check_file_source;
use std::path::PathBuf;

fn golden(example: &str, golden_name: &str) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(root.join("../../examples/qdl").join(example)).unwrap();
    let report = check_file_source(example, &src);
    let got = report.render();
    let golden_path = root.join("tests/golden").join(golden_name);
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(&golden_path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden {golden_name} ({e}); run with GOLDEN_REGEN=1"));
    assert_eq!(got, want, "renderer output drifted for {example}");
}

#[test]
fn ql001_unknown_extractor_render() {
    golden("unknown_extractor.bad.qdl", "ql001.txt");
}

#[test]
fn ql002_unproducible_attribute_render() {
    golden("unproducible_attribute.bad.qdl", "ql002.txt");
}

#[test]
fn ql003_confidence_range_render() {
    golden("confidence_range.bad.qdl", "ql003.txt");
}

#[test]
fn ql004_unsatisfiable_render() {
    golden("unsatisfiable.bad.qdl", "ql004.txt");
}

#[test]
fn ql005_key_not_projected_render() {
    golden("key_not_projected.bad.qdl", "ql005.txt");
}
