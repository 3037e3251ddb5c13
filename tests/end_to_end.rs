//! Cross-crate integration: the full DGE cycle through the façade.

use quarry::core::{Quarry, QuarryConfig};
use quarry::corpus::{Corpus, CorpusConfig, NoiseConfig};
use quarry::hi::oracle::panel;
use quarry::hi::Crowd;
use quarry::query::engine::{AggFn, Predicate, Query};
use quarry::storage::Value;
use std::collections::HashMap;
use std::sync::Arc;

const PIPELINE: &str = r#"
PIPELINE city_facts
FROM corpus
EXTRACT infobox, rules
WHERE attribute IN ("name", "state", "population", "founded", "july_temp")
RESOLVE BY name
STORE INTO cities KEY name
"#;

fn boot(seed: u64) -> (Quarry, Corpus) {
    let corpus = Corpus::generate(&CorpusConfig {
        seed,
        noise: NoiseConfig::none(),
        ..CorpusConfig::default()
    });
    let mut q = Quarry::new(QuarryConfig::builder().build()).unwrap();
    q.ingest(corpus.docs.clone());
    (q, corpus)
}

#[test]
fn generation_then_exploitation_answers_ground_truth() {
    let (mut q, corpus) = boot(1);
    let stats = q.run_pipeline(PIPELINE).unwrap();
    assert!(stats.rows_stored >= corpus.truth.cities.len());

    // Every city's stored population matches ground truth (zero noise).
    // One read session covers the whole exploitation phase.
    let snap = q.snapshot();
    let mut correct = 0;
    for city in &corpus.truth.cities {
        let query = Query::scan("cities")
            .filter(vec![Predicate::Eq("name".into(), city.name.as_str().into())])
            .project(&["population"]);
        let r = snap.query(&query).unwrap();
        if r.rows.first().map(|row| row[0].clone()) == Some(Value::Int(city.population as i64)) {
            correct += 1;
        }
    }
    assert!(
        correct * 10 >= corpus.truth.cities.len() * 9,
        "{correct}/{} cities answered exactly",
        corpus.truth.cities.len()
    );

    // Aggregate over the derived structure matches an aggregate over truth.
    let query = Query::scan("cities").aggregate(None, AggFn::Max, "july_temp");
    let system_max = snap.query(&query).unwrap().scalar().cloned().unwrap();
    let true_max = corpus.truth.cities.iter().map(|c| c.monthly_temp_f[6]).max().unwrap();
    assert_eq!(system_max, Value::Int(true_max as i64));
}

#[test]
fn keyword_mode_cannot_answer_but_structured_mode_can() {
    let (mut q, corpus) = boot(2);
    q.run_pipeline(PIPELINE).unwrap();
    let city = &corpus.truth.cities[1];

    // Keyword search: pages, not answers. The top hit is (hopefully) the
    // right page, but the user still has to read it.
    let snap = q.snapshot();
    let (hits, candidates) = snap.keyword(&format!("average july_temp {}", city.name), 5);
    assert!(!hits.is_empty());

    // The suggested structured query actually computes the number.
    let top = candidates.first().expect("a candidate");
    let r = snap.query(&top.query).unwrap();
    let vals: Vec<&Value> = r.rows.iter().flatten().collect();
    assert!(
        vals.iter().any(|v| **v == Value::Int(city.monthly_temp_f[6] as i64)
            || v.as_f64() == Some(city.monthly_temp_f[6] as f64)),
        "expected {} in {vals:?}",
        city.monthly_temp_f[6]
    );
}

#[test]
fn hi_wired_through_the_facade() {
    let corpus = Corpus::generate(&CorpusConfig {
        seed: 3,
        n_people: 60,
        duplicate_rate: 0.6,
        noise: NoiseConfig { name_variant: 1.0, ..NoiseConfig::none() },
        ..CorpusConfig::default()
    });
    let person_entity: HashMap<_, _> =
        corpus.truth.people.iter().map(|p| (p.doc, p.entity)).collect();
    let mut q = Quarry::new(QuarryConfig::builder().build()).unwrap();
    q.ingest(corpus.docs.clone());
    q.set_hi(
        Crowd::new(panel(5, &[0.05], 7)),
        Arc::new(move |a, b| {
            person_entity.get(&a) == person_entity.get(&b) && person_entity.contains_key(&a)
        }),
    );
    let stats = q
        .run_pipeline(
            r#"PIPELINE people FROM corpus
EXTRACT infobox
WHERE attribute IN ("name", "birth_year", "employer", "residence")
RESOLVE BY name
CURATE BUDGET 300 VOTES 3
STORE INTO people KEY name"#,
        )
        .unwrap();
    assert!(stats.entities < stats.records, "duplicates merged");
    // Curation only runs when there is an uncertain band.
    if stats.uncertain_pairs > 0 {
        assert!(stats.questions_asked > 0);
        assert!(stats.hi_spent > 0);
    }
}

#[test]
fn lineage_and_audit_complete_the_loop() {
    let (mut q, _) = boot(4);
    q.run_pipeline(PIPELINE).unwrap();
    // Provenance: every stored cell is explained by the source STORE
    // recorded for it, read back at the snapshot's LSN.
    let snap = q.snapshot();
    let rows = snap.db().scan("cities").unwrap();
    for row in &rows {
        let explained = snap.explain("cities", &row[..1]).unwrap();
        assert_eq!(explained.cells.len(), row.iter().filter(|v| !v.is_null()).count());
        assert!(explained.cells.iter().all(|c| c.source.is_some()), "{explained}");
    }
    // Debugger: clean table → few or no flags.
    let flags = q.audit_table("cities").unwrap();
    assert!(flags.len() <= rows.len() / 5, "{} flags on clean data", flags.len());
    // Health: all green after activity.
    assert!(q.health_check().iter().all(|(_, s)| *s == quarry::debugger::HealthStatus::Healthy));
}

#[test]
fn dge_log_tells_the_story() {
    let (mut q, corpus) = boot(5);
    q.run_pipeline(PIPELINE).unwrap();
    let snap = q.snapshot();
    snap.keyword("population", 3);
    snap.query(&Query::scan("cities")).unwrap();
    let events = q.dge.events();
    assert!(events.len() >= 4);
    let rendered: Vec<String> = events.iter().map(|e| e.to_string()).collect();
    assert!(rendered[0].contains(&format!("{} docs", corpus.docs.len())));
    assert!(rendered.iter().any(|s| s.contains("pipeline city_facts")));
    assert!(rendered.iter().any(|s| s.contains("keyword")));
}
