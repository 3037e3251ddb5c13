//! E6 — §4 physical layer: IE/II are computation-intensive, so the
//! blueprint runs them as "Map-Reduce-like processes" on a cluster, which
//! must also survive worker failures by re-execution.
//!
//! The job: full IE over every document through `quarry_lang::extract`,
//! the driver every served `EXTRACT` runs, on `quarry_exec::ExecPool`. One
//! registered operator runs the registry's `infobox` then `rules` over a
//! document, so a task is a document; then the pool's stable sort and
//! `dedup_sorted`. Swept: worker count (NOTE: this machine's core count
//! bounds real speedup; the fault-injection half is hardware-independent)
//! and the share of tasks whose first attempt panics after doing its
//! work, drawn from a seeded RNG. The pool discards that attempt and
//! re-executes the task. Every output must equal the sequential run of
//! `infobox, rules`.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use quarry_bench::{banner, f1, timed, Table};
use quarry_corpus::{Corpus, CorpusConfig, Document};
use quarry_exec::{ExecPool, ExecReport};
use quarry_extract::{infobox, rules, Extraction};
use quarry_lang::registry::Produces;
use quarry_lang::{extract, ExecStats, ExtractionCache, ExtractorRegistry};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Payload of an injected failure; the panic hook stays quiet for it.
const INJECTED: &str = "e6: injected task failure";

/// The operator one task runs: `infobox` then the standard prose `rules`,
/// what the standard registry's two operators of those names run.
const OPERATOR: &str = "infobox+rules";

/// Run `names` from `registry` over `docs` on `pool`, with a fresh cache.
fn extract_with(
    registry: &ExtractorRegistry,
    names: &[&str],
    docs: &[Document],
    pool: &ExecPool,
    report: &mut ExecReport,
) -> Vec<Extraction> {
    let (cache, mut stats) = (ExtractionCache::default(), ExecStats::default());
    extract(registry, names, docs, pool, &cache, report, &mut stats).expect("registered operators")
}

/// The job on `pool`, where the first attempt of the task for document
/// `i` panics when `doomed[i]`. Returns the output, the attempts the
/// operator saw, and the re-executions the pool reported.
fn job(docs: &[Document], pool: &ExecPool, doomed: &[bool]) -> (Vec<Extraction>, usize, usize) {
    let attempts: Arc<Vec<AtomicUsize>> =
        Arc::new(docs.iter().map(|_| AtomicUsize::new(0)).collect());
    let (seen, doomed, prose) = (Arc::clone(&attempts), doomed.to_vec(), rules::standard_rules());
    let mut registry = ExtractorRegistry::new();
    registry.register(OPERATOR, Produces::Any, 6.0, move |doc| {
        let mut out = infobox::extract(doc);
        out.extend(rules::extract(doc, &prose));
        let i = doc.id.index();
        if seen[i].fetch_add(1, Relaxed) == 0 && doomed[i] {
            panic::panic_any(INJECTED);
        }
        out
    });
    let mut report = ExecReport::new();
    let out = extract_with(&registry, &[OPERATOR], docs, pool, &mut report);
    let retries = report.stage(&format!("exec/extract:{OPERATOR}")).map_or(0, |s| s.retries);
    (out, attempts.iter().map(|a| a.load(Relaxed)).sum(), retries)
}

fn main() {
    banner(
        "E6 MapReduce extraction",
        "\"we need parallel processing in the physical layer ... Map-Reduce-like \
         processes\" (§4), with re-execution masking worker failures",
    );
    let default_hook = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<&str>() != Some(&INJECTED) {
            default_hook(info);
        }
    }));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host parallelism: {cores} core(s)\n");

    let corpus =
        Corpus::generate(&CorpusConfig { seed: 6, n_cities: 150, ..CorpusConfig::default() });
    let docs = &corpus.docs;
    let (standard, sequential) = (ExtractorRegistry::standard(), ExecPool::sequential());
    let reference =
        extract_with(&standard, &["infobox", "rules"], docs, &sequential, &mut ExecReport::new());

    // --- Worker sweep, no faults. ------------------------------------------
    let mut table = Table::new(&["workers", "wall ms", "map attempts", "extractions"]);
    for workers in [1usize, 2, 4, 8] {
        let pool = ExecPool::new(workers);
        let ((out, attempts, _), ms) = timed(|| job(docs, &pool, &vec![false; docs.len()]));
        assert_eq!(out, reference, "worker count changed the answer!");
        table.row(&[workers.to_string(), f1(ms), attempts.to_string(), out.len().to_string()]);
    }
    println!("worker sweep on ExecPool (output equal to the sequential run at every width):");
    table.print();

    // --- Fault injection sweep. --------------------------------------------
    let mut table =
        Table::new(&["failure rate", "wall ms", "tasks", "attempts", "failures", "exact"]);
    for rate in [0.0, 0.1, 0.3, 0.5] {
        let mut rng = StdRng::seed_from_u64(66);
        let doomed: Vec<bool> = docs.iter().map(|_| rng.gen_bool(rate)).collect();
        let ((out, attempts, failures), ms) = timed(|| job(docs, &ExecPool::new(4), &doomed));
        let exact = out == reference;
        table.row(&[
            format!("{:.0}%", rate * 100.0),
            f1(ms),
            docs.len().to_string(),
            attempts.to_string(),
            failures.to_string(),
            exact.to_string(),
        ]);
        assert_eq!(failures, doomed.iter().filter(|&&d| d).count(), "one retry per failure");
        assert_eq!(attempts, docs.len() + failures, "attempts = tasks + failures");
        assert!(exact, "failures must not change the answer");
    }
    println!("\nfault injection (ExecPool, 4 workers):");
    table.print();
    println!(
        "\nexpected shape: attempts = tasks + failures; re-execution keeps every output\n\
         byte-identical; wall time grows roughly with the failure rate. On multi-core\n\
         hosts the worker sweep also shows near-linear speedup until the core count."
    );
}
