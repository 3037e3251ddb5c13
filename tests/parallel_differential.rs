//! Differential tests: every parallel entry point must be bit-identical
//! to its sequential counterpart at every thread count, and the
//! executor's instrumentation must report what actually ran.

use std::collections::HashSet;
use std::sync::Mutex;

use quarry::core::{Quarry, QuarryConfig};
use quarry::corpus::{Corpus, CorpusConfig, DocId, Document, NoiseConfig};
use quarry::exec::{ExecPool, ExecReport};
use quarry::extract::pipeline::extract_all_with;
use quarry::extract::{extract_all, Extraction, ExtractorSet};
use quarry::integrate::blocking::all_pairs;
use quarry::integrate::matcher::{decide, MatchConfig, Record};
use quarry::integrate::{score_pairs, SimCache};
use quarry::lang::registry::Produces;
use quarry::storage::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The pipeline both façade-level tests run.
const SRC: &str = r#"
PIPELINE people FROM corpus
EXTRACT infobox, rules
WHERE attribute IN ("name", "birth_year", "employer", "residence")
RESOLVE BY name
STORE INTO people KEY name
"#;

fn corpus() -> Corpus {
    Corpus::generate(&CorpusConfig {
        noise: NoiseConfig::default(),
        duplicate_rate: 0.5,
        ..CorpusConfig::tiny(77)
    })
}

#[test]
fn parallel_extraction_is_bit_identical_to_sequential() {
    let c = corpus();
    let set = ExtractorSet::standard();
    let expected = extract_all(&c, &set);
    for threads in [1, 2, 4, 8] {
        let pool = ExecPool::new(threads).with_batch_size(3);
        let mut report = ExecReport::new();
        let got = extract_all_with(&c, &set, &pool, &mut report);
        assert_eq!(got, expected, "threads={threads}");
    }
}

#[test]
fn parallel_pair_scoring_is_bit_identical_to_sequential() {
    let c = corpus();
    // Build name records from ground truth so the matcher sees realistic
    // near-duplicate strings.
    let records: Vec<Record> = c
        .truth
        .people
        .iter()
        .enumerate()
        .map(|(i, p)| {
            Record::new(
                i,
                [
                    ("name", Value::Text(p.name.clone())),
                    ("birth_year", Value::Int(p.birth_year as i64)),
                ],
            )
        })
        .collect();
    let pairs = all_pairs(records.len());
    let cfg = MatchConfig::default();
    let expected: Vec<_> = pairs
        .iter()
        .map(|&(i, j)| {
            let (d, s) = decide(&records[i], &records[j], &cfg);
            ((i, j), d, s)
        })
        .collect();
    for threads in [1, 2, 4, 8] {
        let pool = ExecPool::new(threads).with_batch_size(5);
        let cache = SimCache::default();
        let mut report = ExecReport::new();
        let got = score_pairs(&records, &pairs, &cfg, &pool, Some(&cache), &mut report);
        assert_eq!(got, expected, "threads={threads}");
    }
}

#[test]
fn pipeline_results_identical_across_thread_counts() {
    let c = corpus();
    let mut reference: Option<(quarry::lang::ExecStats, Vec<Vec<Value>>)> = None;
    for threads in [1, 2, 4, 8] {
        let mut q = Quarry::new(QuarryConfig::builder().threads(threads).build()).unwrap();
        q.ingest(c.docs.clone());
        let stats = q.run_pipeline(SRC).unwrap();
        let rows = q.db.snapshot().scan("people").unwrap();
        match &reference {
            None => reference = Some((stats, rows)),
            Some((ref_stats, ref_rows)) => {
                assert_eq!(&stats, ref_stats, "stats diverged at threads={threads}");
                assert_eq!(&rows, ref_rows, "stored rows diverged at threads={threads}");
            }
        }
    }
}

/// Every stored table, `_provenance` included, is identical at every
/// thread count: resolution picks each cell's source the same way however
/// the extraction and pair scoring were spread over workers.
#[test]
fn every_stored_table_is_identical_across_thread_counts() {
    let c = corpus();
    let tables = |threads: usize| {
        let mut q = Quarry::new(QuarryConfig::builder().threads(threads).build()).unwrap();
        q.ingest(c.docs.clone());
        q.run_pipeline(SRC).unwrap();
        let snap = q.db.snapshot();
        let names = snap.table_names();
        assert_eq!(names, ["_provenance", "people"]);
        // Compared as `Debug` text, so a float must match to the bit.
        names.iter().map(|t| format!("{:?}", snap.scan(t).unwrap())).collect::<Vec<_>>()
    };
    let reference = tables(1);
    assert_ne!(reference[0], "[]", "STORE recorded its cells' sources");
    for threads in [2, 4, 8] {
        assert!(tables(threads) == reference, "stored tables diverged at threads={threads}");
    }
}

/// `infobox`, except that it panics on its first attempt at every
/// document in `doomed`.
fn flaky_infobox(doomed: HashSet<DocId>) -> impl Fn(&Document) -> Vec<Extraction> + Send + Sync {
    let failed = Mutex::new(HashSet::new());
    move |doc| {
        if doomed.contains(&doc.id) && failed.lock().unwrap().insert(doc.id) {
            panic!("injected failure at {}", doc.id);
        }
        quarry::extract::infobox::extract(doc)
    }
}

#[test]
fn served_pipeline_re_executes_failed_extractions_exactly() {
    let c = corpus();
    // A seeded third of the documents fails its first infobox attempt.
    let mut rng = StdRng::seed_from_u64(26);
    let doomed: HashSet<DocId> =
        c.docs.iter().map(|d| d.id).filter(|_| rng.gen_bool(1.0 / 3.0)).collect();
    assert!(doomed.len() > 5, "{} doomed documents", doomed.len());

    let run = |threads: usize, flaky: bool| {
        let mut q = Quarry::new(QuarryConfig::builder().threads(threads).build()).unwrap();
        if flaky {
            q.registry.register("infobox", Produces::Any, 1.0, flaky_infobox(doomed.clone()));
        }
        q.ingest(c.docs.clone());
        let stats = q.run_pipeline(SRC).unwrap();
        let rows = q.db.snapshot().scan("people").unwrap();
        let retries = q.last_report().stage("exec/extract:infobox").unwrap().retries;
        (stats, rows, retries)
    };
    let (clean_stats, clean_rows, clean_retries) = run(1, false);
    assert_eq!(clean_retries, 0);
    for threads in [1, 2, 4, 8] {
        let (stats, rows, retries) = run(threads, true);
        assert_eq!(stats, clean_stats, "stats diverged at threads={threads}");
        assert_eq!(rows, clean_rows, "stored rows diverged at threads={threads}");
        assert_eq!(retries, doomed.len(), "threads={threads}");
    }
}

#[test]
fn exec_report_counts_what_ran() {
    let c = corpus();
    let mut q = Quarry::new(QuarryConfig::builder().threads(2).build()).unwrap();
    q.ingest(c.docs.clone());
    let stats = q
        .run_pipeline(
            "PIPELINE p FROM corpus EXTRACT infobox RESOLVE BY name STORE INTO t KEY name",
        )
        .unwrap();
    let report = q.last_report();

    // The extract stage saw every (uncached) document.
    let extract_stage = report.stage("exec/extract:infobox").expect("extract stage recorded");
    assert_eq!(extract_stage.items, c.docs.len());
    assert!(extract_stage.elapsed.as_nanos() > 0);

    // Per-operator timing: one invocation per extractor run.
    assert_eq!(report.operators["infobox"].invocations, stats.extractor_runs);

    // Pair scoring was recorded, and the similarity cache accounted for
    // every kernel lookup.
    let score_stage = report.stage("integrate/score-pairs").expect("scoring stage recorded");
    assert_eq!(score_stage.items, stats.pairs_scored);
    assert!(
        report.counter("sim_cache_hits") + report.counter("sim_cache_misses") > 0,
        "similarity cache never consulted"
    );

    // A fully cached re-run fans out zero documents.
    q.run_pipeline("PIPELINE p FROM corpus EXTRACT infobox RESOLVE BY name STORE INTO t KEY name")
        .unwrap();
    let report = q.last_report();
    let extract_stage = report.stage("exec/extract:infobox").expect("stage still recorded");
    assert_eq!(extract_stage.items, 0, "cached run must not re-extract");
}

#[test]
fn structured_errors_convert_from_subsystems() {
    use quarry::core::QuarryError;
    use quarry::corpus::CorpusError;
    use quarry::integrate::IntegrateError;

    fn check_corpus(cfg: &CorpusConfig) -> Result<(), QuarryError> {
        cfg.validate()?;
        Ok(())
    }
    fn check_match(cfg: &MatchConfig) -> Result<(), QuarryError> {
        cfg.validate()?;
        Ok(())
    }

    let bad = CorpusConfig { duplicate_rate: 1.5, ..CorpusConfig::tiny(1) };
    assert!(matches!(
        check_corpus(&bad),
        Err(QuarryError::Corpus(CorpusError::InvalidRate { .. }))
    ));
    let bad =
        MatchConfig { match_threshold: 0.5, nonmatch_threshold: 0.6, ..MatchConfig::default() };
    assert!(matches!(
        check_match(&bad),
        Err(QuarryError::Integrate(IntegrateError::InvertedThresholds { .. }))
    ));

    // And the façade rejects an invalid generated-corpus request.
    let mut q = Quarry::new(QuarryConfig::default()).unwrap();
    let bad = CorpusConfig { duplicate_rate: -0.1, ..CorpusConfig::tiny(1) };
    assert!(matches!(q.ingest_generated(&bad), Err(QuarryError::Corpus(_))));
    let ok = q.ingest_generated(&CorpusConfig::tiny(5)).unwrap();
    assert_eq!(ok, q.docs().len());
}
