//! E9 — §4 Part V: uncertainty management and provenance.
//!
//! (a) What provenance costs: the pipeline's wall time with `STORE`
//!     writing each non-null cell's source into `_provenance` in the
//!     transaction that writes the cell, the rows stored and the
//!     `_provenance` rows written.
//! (b) Explanation completeness and precision: every stored row's
//!     non-null cells have a recorded source, and each extracted source's
//!     document mentions the row's key (a miss is listed by document, not
//!     filtered out); plus a sample explanation for one fixed key.
//! (c) Confidence calibration: are the extractors' confidences honest
//!     probabilities? (reliability bins + Brier/ECE against ground truth)
//!
//! Every line but the one naming `wall ms` is deterministic: two runs
//! print the same bytes there.

use quarry_bench::{banner, f3, timed, Table};
use quarry_core::{Quarry, QuarryConfig};
use quarry_corpus::{Corpus, CorpusConfig};
use quarry_extract::{eval, extract_all, ExtractorSet};
use quarry_lang::provenance::{Source, TABLE};
use quarry_storage::Value;
use quarry_uncertainty::prob::CalibrationReport;

const PIPELINE: &str = r#"
PIPELINE cities FROM corpus
EXTRACT infobox, rules
WHERE attribute IN ("name", "state", "population", "founded", "july_temp")
RESOLVE BY name
STORE INTO cities KEY name
"#;

fn pct(n: usize, of: usize) -> String {
    format!("{n}/{of} ({:.1}%)", 100.0 * n as f64 / of.max(1) as f64)
}

fn main() {
    banner(
        "E9 provenance & uncertainty",
        "Part V \"handles the uncertainty that arise during the IE, II, and HI \
         processes. It also provides the provenance and explanation for the derived \
         structured data\" (§4)",
    );
    let corpus =
        Corpus::generate(&CorpusConfig { seed: 9, n_cities: 150, ..CorpusConfig::default() });

    // --- (a) what provenance costs. ----------------------------------------
    let mut q = Quarry::new(QuarryConfig::builder().build()).unwrap();
    q.ingest(corpus.docs.clone());
    let (stats, ms_pipeline) = timed(|| q.run_pipeline(PIPELINE).unwrap());
    let snap = q.snapshot();
    let rows = snap.db().scan("cities").unwrap();
    let cells = rows.iter().flatten().filter(|v| !v.is_null()).count();
    let mut t = Table::new(&["rows stored", "non-null cells", "_provenance rows"]);
    t.row(&[
        stats.rows_stored.to_string(),
        cells.to_string(),
        snap.db().row_count(TABLE).unwrap().to_string(),
    ]);
    t.print();
    println!("pipeline wall ms (STORE writes the cells and their sources): {ms_pipeline:.1}");

    // --- (b) explanation completeness and precision. ------------------------
    let (mut complete, mut extracted, mut mention, mut exact) = (0, 0, 0, 0);
    let mut misses = Vec::new();
    for row in &rows {
        let key = &row[..1];
        let name = key[0].to_string();
        let explained = snap.explain("cities", key).unwrap();
        complete += usize::from(explained.cells.iter().all(|c| c.source.is_some()));
        for cell in &explained.cells {
            let Some(Source::Extracted { doc, span, raw, .. }) = &cell.source else { continue };
            let text = &corpus.docs[doc.index()].text;
            extracted += 1;
            exact += usize::from(text.get(span.start..span.end) == Some(raw.as_str()));
            if text.contains(&name) {
                mention += 1;
            } else {
                misses.push(format!("{doc} ({name}.{})", cell.column));
            }
        }
    }
    println!(
        "\nexplanation completeness: {} stored rows have a source for every non-null cell",
        pct(complete, rows.len())
    );
    println!(
        "precision: {} extracted sources are pages that mention the row's key",
        pct(mention, extracted)
    );
    println!(
        "span check: {} extracted sources' spans slice to the text recorded",
        pct(exact, extracted)
    );
    for miss in &misses {
        println!("  miss: {miss}");
    }
    let sample = Value::from(corpus.truth.cities[0].name.as_str());
    println!("\nsample explanation:\n{}\n", snap.explain("cities", &[sample]).unwrap());

    // --- (c) confidence calibration. ----------------------------------------
    let exts = extract_all(&corpus, &ExtractorSet::standard());
    let truth_pairs = eval::truth_pairs(&corpus.truth);
    let predictions: Vec<(f64, bool)> = exts
        .iter()
        .filter_map(|e| {
            let attr = eval::canonical_attribute(&e.attribute);
            // Score only attributes the truth model covers.
            if !truth_pairs.iter().any(|(_, a, _)| *a == attr) {
                return None;
            }
            let correct = truth_pairs.contains(&(e.doc.0, attr, e.value.clone()));
            Some((e.confidence, correct))
        })
        .collect();
    let report = CalibrationReport::from_predictions(&predictions, 10);
    println!("confidence calibration over {} scored extractions:", predictions.len());
    let mut t = Table::new(&["confidence bin", "n", "mean conf", "accuracy"]);
    for b in report.bins.iter().filter(|b| b.count > 0) {
        t.row(&[
            format!("[{:.1}, {:.1})", b.lo, b.hi),
            b.count.to_string(),
            f3(b.mean_confidence),
            f3(b.accuracy),
        ]);
    }
    t.print();
    println!("Brier score: {:.4}   expected calibration error: {:.4}", report.brier, report.ece);
    println!("\nexpected shape: one _provenance row per non-null cell; completeness and precision\n100%; higher-confidence extractors (infobox 0.95) empirically more accurate\nthan prose rules (0.70–0.75).");
}
