//! E6 — §4 physical layer: IE/II are computation-intensive, so the
//! blueprint runs them as "Map-Reduce-like processes" on a cluster, which
//! must also survive worker failures by re-execution.
//!
//! The job: full IE over every document on `quarry_exec::ExecPool`, the
//! engine every served pipeline runs on — the `extract/fan-out` map, then
//! the stable-equivalent sort and `dedup_sorted`, as `extract_all_with`
//! does. Swept: worker count (NOTE: this machine's core count bounds real
//! speedup; the fault-injection half is hardware-independent) and the
//! share of tasks whose first attempt panics after doing its work, drawn
//! from a seeded RNG. The pool discards that attempt and re-executes the
//! task. Every output must equal the sequential `extract_all`.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use quarry_bench::{banner, f1, timed, Table};
use quarry_corpus::{Corpus, CorpusConfig, Document};
use quarry_exec::{ExecPool, ExecReport};
use quarry_extract::model::{dedup_order, dedup_sorted};
use quarry_extract::{extract_all, Extraction, ExtractorSet};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Payload of an injected failure; the panic hook stays quiet for it.
const INJECTED: &str = "e6: injected task failure";

/// `extract_all_with`'s job on `pool`, where the first attempt of task `i`
/// panics when `doomed[i]`. Returns the output, the attempts the closure
/// saw, and the re-executions the pool reported.
fn run(
    docs: &[Document],
    set: &ExtractorSet,
    pool: &ExecPool,
    doomed: &[bool],
) -> (Vec<Extraction>, usize, usize) {
    let attempts: Vec<AtomicUsize> = docs.iter().map(|_| AtomicUsize::new(0)).collect();
    let mut report = ExecReport::new();
    let per_doc = pool.map(
        "extract/fan-out",
        docs,
        |i, doc| {
            let out = set.extract_doc(doc);
            if attempts[i].fetch_add(1, Relaxed) == 0 && doomed[i] {
                panic::panic_any(INJECTED);
            }
            out
        },
        &mut report,
    );
    let raw = per_doc.into_iter().flatten().collect();
    let out = dedup_sorted(pool.sort_by("extract/dedup-sort", raw, dedup_order, &mut report));
    let retries = report.stage("extract/fan-out").map_or(0, |s| s.retries);
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
    let (docs, set) = (&corpus.docs, ExtractorSet::standard());
    let reference = extract_all(&corpus, &set);

    // --- Worker sweep, no faults. ------------------------------------------
    let mut table = Table::new(&["workers", "wall ms", "map attempts", "extractions"]);
    for workers in [1usize, 2, 4, 8] {
        let pool = ExecPool::new(workers);
        let ((out, attempts, _), ms) = timed(|| run(docs, &set, &pool, &vec![false; docs.len()]));
        assert_eq!(out, reference, "worker count changed the answer!");
        table.row(&[workers.to_string(), f1(ms), attempts.to_string(), out.len().to_string()]);
    }
    println!("worker sweep on ExecPool (output equal to sequential extract_all at every width):");
    table.print();

    // --- Fault injection sweep. --------------------------------------------
    let mut table =
        Table::new(&["failure rate", "wall ms", "tasks", "attempts", "failures", "exact"]);
    for rate in [0.0, 0.1, 0.3, 0.5] {
        let mut rng = StdRng::seed_from_u64(66);
        let doomed: Vec<bool> = docs.iter().map(|_| rng.gen_bool(rate)).collect();
        let ((out, attempts, failures), ms) = timed(|| run(docs, &set, &ExecPool::new(4), &doomed));
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
