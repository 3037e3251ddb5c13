//! E8 — §3.2 exploitation: guide keyword users to structured queries.
//!
//! For a workload of keyword renditions of known intents, measure whether
//! the translator's ranked candidates contain a query that computes the
//! ground-truth answer (hit@1 / hit@3), as the schema grows from one table
//! to four — and that a `_provenance` system table beside them, holding
//! the same names and values, is never proposed.

use quarry_bench::{banner, f3, Table};
use quarry_corpus::{Corpus, CorpusConfig, DocId, NoiseConfig};
use quarry_extract::Span;
use quarry_lang::provenance::{self, Cell, Source};
use quarry_query::engine::execute;
use quarry_query::Translator;
use quarry_storage::{Column, DataType, Database, TableSchema, Value};

fn build_db(corpus: &Corpus, tables: usize) -> Database {
    let db = Database::in_memory();
    // Table 1: cities.
    db.create_table(
        TableSchema::new(
            "cities",
            vec![
                Column::new("name", DataType::Text),
                Column::new("state", DataType::Text),
                Column::new("population", DataType::Int),
                Column::new("founded", DataType::Int),
            ],
            &["name"],
            &[],
        )
        .unwrap(),
    )
    .unwrap();
    for c in &corpus.truth.cities {
        db.insert_autocommit(
            "cities",
            vec![
                c.name.as_str().into(),
                c.state.as_str().into(),
                Value::Int(c.population as i64),
                Value::Int(c.founded as i64),
            ],
        )
        .unwrap();
    }
    if tables >= 2 {
        db.create_table(
            TableSchema::new(
                "temps",
                vec![
                    Column::new("city", DataType::Text),
                    Column::new("month", DataType::Text),
                    Column::new("temp", DataType::Int),
                ],
                &["city", "month"],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        let months = [
            "January",
            "February",
            "March",
            "April",
            "May",
            "June",
            "July",
            "August",
            "September",
            "October",
            "November",
            "December",
        ];
        for c in &corpus.truth.cities {
            for (m, t) in c.monthly_temp_f.iter().enumerate() {
                db.insert_autocommit(
                    "temps",
                    vec![c.name.as_str().into(), months[m].into(), Value::Int(*t as i64)],
                )
                .unwrap();
            }
        }
    }
    if tables >= 3 {
        db.create_table(
            TableSchema::new(
                "companies",
                vec![
                    Column::new("name", DataType::Text),
                    Column::new("headquarters", DataType::Text),
                    Column::new("industry", DataType::Text),
                ],
                &["name"],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        for c in &corpus.truth.companies {
            db.insert_autocommit(
                "companies",
                vec![
                    c.name.as_str().into(),
                    c.headquarters.as_str().into(),
                    c.industry.as_str().into(),
                ],
            )
            .unwrap();
        }
    }
    if tables >= 4 {
        db.create_table(
            TableSchema::new(
                "people",
                vec![
                    Column::new("name", DataType::Text),
                    Column::new("employer", DataType::Text),
                    Column::new("residence", DataType::Text),
                ],
                &["name"],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        for (i, p) in corpus.truth.people.iter().enumerate() {
            let _ = db.insert_autocommit(
                "people",
                vec![
                    format!("{} #{i}", p.name).into(),
                    p.employer.as_str().into(),
                    p.residence.as_str().into(),
                ],
            );
        }
    }
    db
}

/// One intent: keyword text + a checker for the correct answer.
struct Intent {
    keywords: String,
    expect: Box<dyn Fn(&quarry_query::QueryResult) -> bool>,
}

fn intents(corpus: &Corpus) -> Vec<Intent> {
    let mut out = Vec::new();
    for (i, c) in corpus.truth.cities.iter().step_by(5).take(20).enumerate() {
        let pop = Value::Int(c.population as i64);
        // Rotate through phrasings a real user might type: synonyms, filler
        // words, and vaguer attribute references.
        let phrasing = match i % 4 {
            0 => format!("population {}", c.name),
            1 => format!("how many inhabitants does {} have", c.name),
            2 => format!("residents of {}", c.name),
            _ => format!("what is the population of {}", c.name),
        };
        out.push(Intent {
            keywords: phrasing,
            expect: Box::new(move |r| r.rows.iter().flatten().any(|v| *v == pop)),
        });
        let avg: f64 = c.monthly_temp_f.iter().map(|&t| t as f64).sum::<f64>() / 12.0;
        let phrasing = match i % 3 {
            0 => format!("average temp {}", c.name),
            1 => format!("mean temperature in {}", c.name),
            _ => format!("what is the average temperature of {}", c.name),
        };
        out.push(Intent {
            keywords: phrasing,
            expect: Box::new(move |r| {
                r.scalar().and_then(Value::as_f64).is_some_and(|v| (v - avg).abs() < 0.01)
            }),
        });
        let max = Value::Int(*c.monthly_temp_f.iter().max().unwrap() as i64);
        let phrasing = match i % 2 {
            0 => format!("warmest temp {}", c.name),
            _ => format!("highest temperature recorded in {}", c.name),
        };
        out.push(Intent {
            keywords: phrasing,
            expect: Box::new(move |r| r.scalar() == Some(&max)),
        });
        // Founding-year lookup phrased with the alternate label.
        let founded = Value::Int(c.founded as i64);
        out.push(Intent {
            keywords: format!("when was {} established", c.name),
            expect: Box::new(move |r| r.rows.iter().flatten().any(|v| *v == founded)),
        });
    }
    out
}

/// Record a source for every cell of `cities` in `_provenance`, so the
/// system table holds the table's name, its column names and the text of
/// every value.
fn add_provenance(db: &Database) {
    provenance::ensure(db).unwrap();
    let schema = db.schema("cities").unwrap();
    let tx = db.begin();
    for (i, row) in db.snapshot().scan("cities").unwrap().into_iter().enumerate() {
        let key = provenance::key_text(&schema.key_of(&row));
        for (column, value) in schema.columns.iter().zip(&row) {
            let raw = value.to_string();
            let source = Source::Extracted {
                doc: DocId(i as u32),
                span: Span::new(0, raw.len()),
                extractor: "infobox".into(),
                confidence: 0.95,
                raw,
            };
            let cell = Cell { table: "cities", key: &key, column: &column.name };
            provenance::set(db, tx, cell, &source).unwrap();
        }
    }
    db.commit(tx).unwrap();
}

/// hit@1, hit@3 and the candidates proposed over a system table, on
/// `workload` against `db`.
fn measure(db: &Database, workload: &[Intent]) -> (usize, usize, usize) {
    let translator = Translator::from_snapshot(&db.snapshot());
    let (mut hit1, mut hit3, mut system) = (0, 0, 0);
    for intent in workload {
        let candidates = translator.translate(&intent.keywords, 3);
        system += candidates.iter().filter(|c| c.query.display().contains("FROM _")).count();
        for (rank, cand) in candidates.iter().enumerate() {
            if let Ok(r) = execute(db, &cand.query) {
                if (intent.expect)(&r) {
                    if rank == 0 {
                        hit1 += 1;
                    }
                    hit3 += 1;
                    break;
                }
            }
        }
    }
    (hit1, hit3, system)
}

fn main() {
    banner(
        "E8 keyword → structured translation",
        "\"'guess' and show the user several structured queries ... then ask the user \
         to select the appropriate one\" (§3.2)",
    );
    let corpus = Corpus::generate(&CorpusConfig {
        seed: 8,
        n_cities: 100,
        noise: NoiseConfig::none(),
        ..CorpusConfig::default()
    });
    let mut table = Table::new(&["schema size", "intents", "hit@1", "hit@3"]);
    let workload = intents(&corpus);
    let n = workload.len() as f64;
    for tables in [2usize, 3, 4] {
        let (hit1, hit3, _) = measure(&build_db(&corpus, tables), &workload);
        table.row(&[
            format!("{tables} tables"),
            workload.len().to_string(),
            f3(hit1 as f64 / n),
            f3(hit3 as f64 / n),
        ]);
    }
    table.print();
    let db = build_db(&corpus, 4);
    add_provenance(&db);
    let (hit1, hit3, system) = measure(&db, &workload);
    println!(
        "4 tables + _provenance ({} rows): hit@1 {}, hit@3 {}; candidates over a system table: {system}",
        db.row_count(provenance::TABLE).unwrap(),
        f3(hit1 as f64 / n),
        f3(hit3 as f64 / n),
    );
    println!("\nexpected shape: hit@3 above hit@1 — showing *several* candidate queries is the\npoint of the interaction; the value index keeps translation stable as the schema grows.");
}
