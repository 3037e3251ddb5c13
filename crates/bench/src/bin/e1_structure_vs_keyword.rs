//! E1 — §2: keyword search cannot answer structure-requiring questions;
//! structure extracted from the same pages can.
//!
//! Four query classes over a 200-city corpus. "Keyword answers" means the
//! *exact answer value* appears verbatim in a top-5 page (the most generous
//! possible reading — the user still has to find it by eye); for lookups it
//! means the top-1 hit is the right page. "Structured answers" means the
//! query over extracted structure returns exactly the ground-truth value.

use quarry_bench::{banner, f3, Table};
use quarry_corpus::{Corpus, CorpusConfig, NoiseConfig};
use quarry_lang::{compile, optimize, ExecContext, Executor, ExtractorRegistry};
use quarry_query::engine::{execute, AggFn, Predicate, Query};
use quarry_query::InvertedIndex;
use quarry_storage::{Database, Value};

fn main() {
    banner(
        "E1 structure-vs-keyword",
        "\"with keyword search we cannot ask ... 'find the average March–September \
         temperature in Madison'\" (§2)",
    );
    let corpus = Corpus::generate(&CorpusConfig {
        seed: 1,
        n_cities: 200,
        n_people: 50,
        n_companies: 20,
        n_publications: 20,
        duplicate_rate: 0.2,
        noise: NoiseConfig::none(),
    });
    let index = InvertedIndex::build(corpus.docs.iter());

    // Build structure once.
    let db = Database::in_memory();
    let registry = ExtractorRegistry::standard();
    let months = [
        "january",
        "february",
        "march",
        "april",
        "may",
        "june",
        "july",
        "august",
        "september",
        "october",
        "november",
        "december",
    ];
    let month_attrs: Vec<String> = months.iter().map(|m| format!("\"{m}_temp\"")).collect();
    let src = format!(
        "PIPELINE cities FROM corpus\nEXTRACT infobox, rules\nWHERE attribute IN (\"name\", \"state\", \"population\", {})\nRESOLVE BY name\nSTORE INTO cities KEY name",
        month_attrs.join(", ")
    );
    let plan = optimize(&compile("e1", &src, &registry, None).unwrap(), &registry);
    let mut ctx = ExecContext::new(&corpus.docs, &registry, &db);
    let stats = Executor::run(&plan, &mut ctx).expect("pipeline");
    println!("structure: {} extractions → {} rows\n", stats.extractions, stats.rows_stored);

    let cities: Vec<_> = corpus.truth.cities.iter().step_by(4).collect(); // 50 queries per class
    let mut table = Table::new(&["query class", "keyword", "structured", "n"]);

    // --- Class 1: lookup ("population of X"). -----------------------------
    let mut kw = 0;
    let mut st = 0;
    for c in &cities {
        let hits = index.search(&format!("population {}", c.name), 1);
        if hits.first().map(|h| h.doc) == Some(c.doc) {
            kw += 1;
        }
        let q = Query::scan("cities")
            .filter(vec![Predicate::Eq("name".into(), c.name.as_str().into())])
            .project(&["population"]);
        if let Ok(r) = execute(&db, &q) {
            if r.rows.first().map(|r| r[0].clone()) == Some(Value::Int(c.population as i64)) {
                st += 1;
            }
        }
    }
    let n = cities.len();
    table.row(&[
        "lookup (find the page/value)".into(),
        f3(kw as f64 / n as f64),
        f3(st as f64 / n as f64),
        n.to_string(),
    ]);

    // --- Class 2: aggregate (average March–September temperature). --------
    let mut kw = 0;
    let mut st = 0;
    for c in &cities {
        let truth = c.avg_temp(2, 8);
        // Keyword: does any top-5 page literally contain the averaged value?
        let hits = index.search(&format!("average march september temperature {}", c.name), 5);
        let answer_str = format!("{truth:.2}");
        if hits.iter().any(|h| corpus.docs[h.doc.index()].text.contains(&answer_str)) {
            kw += 1;
        }
        // Structured: average the seven monthly columns.
        let mut sum = 0.0;
        let mut ok = true;
        for m in &months[2..=8] {
            let q = Query::scan("cities")
                .filter(vec![Predicate::Eq("name".into(), c.name.as_str().into())])
                .aggregate(None, AggFn::Avg, &format!("{m}_temp"));
            match execute(&db, &q).ok().and_then(|r| r.scalar().and_then(Value::as_f64)) {
                Some(v) => sum += v,
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok && (sum / 7.0 - truth).abs() < 0.01 {
            st += 1;
        }
    }
    table.row(&[
        "aggregate (avg Mar–Sep temp)".into(),
        f3(kw as f64 / n as f64),
        f3(st as f64 / n as f64),
        n.to_string(),
    ]);

    // --- Class 3: comparison (which of two cities is warmer in July?). ----
    let mut kw = 0;
    let mut st = 0;
    let mut pairs = 0;
    for w in cities.chunks(2) {
        let [a, b] = w else { continue };
        pairs += 1;
        let truth_warmer =
            if a.monthly_temp_f[6] >= b.monthly_temp_f[6] { &a.name } else { &b.name };
        let hits = index.search(&format!("warmer july {} {}", a.name, b.name), 5);
        // Keyword can only "answer" if some page compares them (none does).
        if hits.iter().any(|h| {
            let t = &corpus.docs[h.doc.index()].text;
            t.contains(a.name.as_str()) && t.contains(b.name.as_str())
        }) {
            kw += 1;
        }
        let q = Query::scan("cities")
            .filter(vec![Predicate::In(
                "name".into(),
                vec![a.name.as_str().into(), b.name.as_str().into()],
            )])
            .project(&["name", "july_temp"]);
        if let Ok(r) = execute(&db, &q) {
            let mut best: Option<(&Value, f64)> = None;
            for row in &r.rows {
                if let Some(t) = row[1].as_f64() {
                    if best.is_none() || t > best.as_ref().unwrap().1 {
                        best = Some((&row[0], t));
                    }
                }
            }
            if best.map(|(name, _)| name.to_string()) == Some(truth_warmer.clone()) {
                st += 1;
            }
        }
    }
    table.row(&[
        "comparison (warmer in July)".into(),
        f3(kw as f64 / pairs as f64),
        f3(st as f64 / pairs as f64),
        pairs.to_string(),
    ]);

    // --- Class 4: ranking (top-3 most populous cities in a state). --------
    let mut kw = 0;
    let mut st = 0;
    let mut states: Vec<&str> = corpus.truth.cities.iter().map(|c| c.state.as_str()).collect();
    states.sort();
    states.dedup();
    for state in &states {
        let mut truth: Vec<(&str, u64)> = corpus
            .truth
            .cities
            .iter()
            .filter(|c| c.state == *state)
            .map(|c| (c.name.as_str(), c.population))
            .collect();
        truth.sort_by_key(|&(_, pop)| std::cmp::Reverse(pop));
        truth.truncate(3);
        let hits = index.search(&format!("most populous cities {state}"), 5);
        let top_pages: Vec<&str> =
            hits.iter().map(|h| corpus.docs[h.doc.index()].title.as_str()).collect();
        if truth.iter().all(|(name, _)| top_pages.iter().any(|t| t.starts_with(name))) {
            kw += 1;
        }
        let q = Query::scan("cities")
            .filter(vec![Predicate::Eq("state".into(), (*state).into())])
            .project(&["name", "population"]);
        if let Ok(r) = execute(&db, &q) {
            let mut got: Vec<(String, f64)> = r
                .rows
                .iter()
                .filter_map(|row| row[1].as_f64().map(|p| (row[0].to_string(), p)))
                .collect();
            got.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            got.truncate(3);
            if got.len() == truth.len() && got.iter().zip(&truth).all(|((gn, _), (tn, _))| gn == tn)
            {
                st += 1;
            }
        }
    }
    table.row(&[
        "ranking (top-3 by population)".into(),
        f3(kw as f64 / states.len() as f64),
        f3(st as f64 / states.len() as f64),
        states.len().to_string(),
    ]);

    table.print();
    println!(
        "\nexpected shape: keyword competitive only on page lookup; structured ≈ 1.0 everywhere."
    );
}
