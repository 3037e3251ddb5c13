//! E3 — §3.2: incremental, best-effort generation vs. one-shot extraction.
//!
//! A query workload needs attributes as it goes (temperatures first,
//! population later, ...). Incremental extraction pays only for what is
//! asked; one-shot pays everything up front. The crossover: if the workload
//! eventually touches every attribute, the costs converge; if it touches a
//! fraction, incremental wins by roughly that fraction.

use quarry_bench::{banner, f1, Table};
use quarry_core::IncrementalManager;
use quarry_corpus::{Corpus, CorpusConfig};
use quarry_lang::{ExecContext, ExtractorRegistry};
use quarry_storage::Database;

const ALL_ATTRS: [&str; 16] = [
    "state",
    "population",
    "founded",
    "area_sq_mi",
    "january_temp",
    "february_temp",
    "march_temp",
    "april_temp",
    "may_temp",
    "june_temp",
    "july_temp",
    "august_temp",
    "september_temp",
    "october_temp",
    "november_temp",
    "december_temp",
];

fn main() {
    banner(
        "E3 incremental extraction",
        "\"generate structured data incrementally, in a best-effort fashion, as the \
         user deems necessary (instead of generating all of them in one shot)\" (§3.2)",
    );
    let corpus =
        Corpus::generate(&CorpusConfig { seed: 3, n_cities: 120, ..CorpusConfig::default() });
    let extractors = [
        "infobox",
        "rules",
        "rule:monthly-temperature",
        "rule:population-of",
        "rule:founded-and-area",
    ];

    // One-shot baseline: everything up front.
    let registry = ExtractorRegistry::standard();
    let db = Database::in_memory();
    let mut ctx = ExecContext::new(&corpus.docs, &registry, &db);
    let mut oneshot = IncrementalManager::new("cities", "name");
    let s = oneshot.ensure(&ALL_ATTRS, &extractors, &mut ctx).unwrap().unwrap();
    let oneshot_cost = s.cost_units;
    println!("one-shot cost (all {} attributes): {:.0} units\n", ALL_ATTRS.len(), oneshot_cost);
    // The run is seeded, so its costs are exact: a change that moves one
    // (extraction, the optimizer, the materialization cache) fails here.
    assert_eq!(oneshot_cost, 2808.0, "one-shot cost moved");

    // A workload that needs attributes gradually; repeats are free.
    let workload: Vec<(&str, Vec<&str>)> = vec![
        ("avg July temperature", vec!["july_temp"]),
        ("July again (repeat)", vec!["july_temp"]),
        ("filter by population", vec!["population", "july_temp"]),
        ("founded before 1850", vec!["founded"]),
        ("January vs July", vec!["january_temp", "july_temp"]),
        ("area density", vec!["area_sq_mi", "population"]),
        (
            "full seasonal profile",
            vec![
                "february_temp",
                "march_temp",
                "april_temp",
                "may_temp",
                "june_temp",
                "august_temp",
                "september_temp",
                "october_temp",
                "november_temp",
                "december_temp",
            ],
        ),
        ("by state", vec!["state"]),
    ];

    let registry2 = ExtractorRegistry::standard();
    let db2 = Database::in_memory();
    let mut ctx2 = ExecContext::new(&corpus.docs, &registry2, &db2);
    let mut mgr = IncrementalManager::new("cities", "name");
    let mut table = Table::new(&["query", "new attrs", "marginal cost", "cumulative", "one-shot"]);
    let mut marginals = Vec::new();
    for (label, attrs) in &workload {
        let new: Vec<&str> = attrs.iter().copied().filter(|a| !mgr.covers(&[a])).collect();
        let marginal = match mgr.ensure(attrs, &extractors, &mut ctx2).unwrap() {
            Some(s) => s.cost_units,
            None => 0.0,
        };
        marginals.push(marginal);
        table.row(&[
            label.to_string(),
            new.len().to_string(),
            f1(marginal),
            f1(mgr.total_cost),
            f1(oneshot_cost),
        ]);
    }
    table.print();
    assert_eq!(
        marginals,
        [2184.0, 0.0, 312.0, 312.0, 0.0, 0.0, 0.0, 0.0],
        "marginal costs moved (repeats must be free)"
    );
    assert_eq!(
        mgr.total_cost, oneshot_cost,
        "a workload that touches every attribute costs one-shot"
    );

    println!(
        "\ncrossover: after the workload touched {}/{} attributes, incremental had spent \
         {:.0}% of the one-shot cost.",
        mgr.materialized().count() - 1, // minus the key attribute
        ALL_ATTRS.len(),
        100.0 * mgr.total_cost / oneshot_cost
    );
    println!("expected shape: early queries cost a fraction of one-shot; repeats are free;\nconvergence only if the workload eventually needs everything.");
}
