//! User-layer integration through the façade: forms, browsing, monitors,
//! corrections, and the incentive loop working together.

use quarry::core::{Correction, CorrectionStatus, Quarry, QuarryConfig, QuarryError, Snapshot};
use quarry::corpus::{Corpus, CorpusConfig, NoiseConfig};
use quarry::lang::provenance::Source;
use quarry::query::engine::AggFn;
use quarry::query::Query;
use quarry::storage::{Column, DataType, TableSchema, Value};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const PIPELINE: &str = r#"
PIPELINE cities FROM corpus
EXTRACT infobox, rules
WHERE attribute IN ("name", "state", "population")
RESOLVE BY name
STORE INTO cities KEY name
"#;

/// `boot`'s table is keyed by `name`; this program stores it by `state`.
const REKEYED: &str = r#"
PIPELINE by_state FROM corpus
EXTRACT infobox, rules
WHERE attribute IN ("name", "state", "population")
RESOLVE BY state
STORE INTO cities KEY state
"#;

/// `boot`'s pipeline with one attribute its table has no column for.
const WIDENED: &str = r#"
PIPELINE cities FROM corpus
EXTRACT infobox, rules
WHERE attribute IN ("name", "state", "population", "founded")
RESOLVE BY name
STORE INTO cities KEY name
"#;

fn boot() -> (Quarry, Corpus) {
    let corpus = Corpus::generate(&CorpusConfig {
        seed: 100,
        noise: NoiseConfig::none(),
        ..CorpusConfig::default()
    });
    let mut q = Quarry::new(QuarryConfig::builder().build()).unwrap();
    q.ingest(corpus.docs.clone());
    q.run_pipeline(PIPELINE).unwrap();
    (q, corpus)
}

#[test]
fn suggested_forms_are_editable_and_runnable() {
    let (q, corpus) = boot();
    let city = &corpus.truth.cities[0];
    let forms = q.snapshot().suggest_forms(&format!("population {}", city.name), 3);
    assert!(!forms.is_empty());
    let top = &forms[0];
    assert!(
        top.fields.iter().any(|f| f.prefill == city.name),
        "the city name should be a pre-filled field: {top:?}"
    );
}

#[test]
fn browse_card_reflects_corrections() {
    let (mut q, corpus) = boot();
    let city = &corpus.truth.cities[0];
    q.users.register("editor", false).unwrap();
    for _ in 0..20 {
        q.users.record_contribution("editor", true).unwrap();
    }
    let status = q
        .submit_correction(
            "editor",
            Correction {
                table: "cities".into(),
                key: vec![city.name.as_str().into()],
                column: "population".into(),
                value: Value::Int(777_777),
            },
        )
        .unwrap();
    assert_eq!(status, CorrectionStatus::Applied);
    let card = q.browse("cities", &[city.name.as_str().into()]).unwrap();
    assert!(card.contains("777777"), "{card}");
    // The contributor earned points and tops the leaderboard.
    let lb = q.users.leaderboard();
    assert_eq!(lb[0].0, "editor");
    assert!(lb[0].1 > 0);
}

/// The next automatic run keeps an applied correction: `STORE` leaves a
/// cell whose source is a user's as it is and counts it, and the cell's
/// explanation names the user.
#[test]
fn a_correction_survives_the_next_run() {
    let (mut q, corpus) = boot();
    let city = &corpus.truth.cities[0];
    let key = [Value::from(city.name.as_str())];
    let rows = q.db.row_count("cities").unwrap();
    q.users.register("editor", false).unwrap();
    for _ in 0..20 {
        q.users.record_contribution("editor", true).unwrap();
    }
    let correction = Correction {
        table: "cities".into(),
        key: key.to_vec(),
        column: "population".into(),
        value: Value::Int(777_777),
    };
    assert_eq!(q.submit_correction("editor", correction).unwrap(), CorrectionStatus::Applied);

    let again = q.run_pipeline(PIPELINE).unwrap();
    assert_eq!(again.cells_kept, 1);
    assert_eq!(again.rows_stored, rows);
    let card = q.browse("cities", &key).unwrap();
    assert!(card.contains("population = 777777"), "{card}");
    let explained = q.snapshot().explain("cities", &key).unwrap();
    let population = explained.cells.iter().find(|c| c.column == "population").unwrap();
    assert_eq!(population.value, Value::Int(777_777));
    let proposal = format!("cities[{}].population=777777", city.name);
    assert_eq!(population.source, Some(Source::User { user: "editor".into(), proposal }));
}

/// On a noise-free corpus every extracted source is exact: its page
/// mentions the row's key, and its span slices to the text recorded.
#[test]
fn every_extracted_source_is_exact() {
    let (q, corpus) = boot();
    let snap = q.snapshot();
    let rows = snap.db().scan("cities").unwrap();
    let mut extracted = 0;
    for row in &rows {
        let explained = snap.explain("cities", &row[..1]).unwrap();
        let name = row[0].to_string();
        for cell in &explained.cells {
            let Some(Source::Extracted { doc, span, raw, .. }) = &cell.source else {
                panic!("{explained}")
            };
            let text = &corpus.docs[doc.index()].text;
            assert!(text.contains(&name), "{doc} does not mention {name}: {explained}");
            assert_eq!(text.get(span.start..span.end), Some(raw.as_str()), "{explained}");
            extracted += 1;
        }
    }
    assert_eq!(extracted, snap.db().row_count("_provenance").unwrap());
    assert!(extracted > rows.len(), "{extracted} sources for {} rows", rows.len());
}

#[test]
fn monitor_fires_when_a_correction_moves_its_answer() {
    let (mut q, corpus) = boot();
    let city = &corpus.truth.cities[0];
    q.register_monitor("max-pop", Query::scan("cities").aggregate(None, AggFn::Max, "population"));
    q.check_monitors(); // arm with the current answer
    q.users.register("editor", false).unwrap();
    for _ in 0..20 {
        q.users.record_contribution("editor", true).unwrap();
    }
    // Push one city far above every other population.
    let status = q
        .submit_correction(
            "editor",
            Correction {
                table: "cities".into(),
                key: vec![city.name.as_str().into()],
                column: "population".into(),
                value: Value::Int(90_000_000),
            },
        )
        .unwrap();
    assert_eq!(status, CorrectionStatus::Applied);
    // submit_correction re-checks monitors internally; the fire is in the log.
    let fired = q
        .dge
        .events()
        .iter()
        .filter(|e| matches!(e, quarry::core::DgeEvent::MonitorFired { monitor, .. } if monitor == "max-pop"))
        .count();
    assert_eq!(fired, 2, "armed once, fired once on the correction");
}

#[test]
fn untrusted_corrections_stay_pending() {
    let (mut q, corpus) = boot();
    q.users.register("rando", false).unwrap();
    let city = &corpus.truth.cities[1];
    let status = q
        .submit_correction(
            "rando",
            Correction {
                table: "cities".into(),
                key: vec![city.name.as_str().into()],
                column: "population".into(),
                value: Value::Int(1),
            },
        )
        .unwrap();
    assert!(matches!(status, CorrectionStatus::Pending { .. }));
    assert_eq!(q.feedback.len(), 1);
    // The stored value is untouched.
    let tx = q.db.begin();
    let row = q.db.get(tx, "cities", &[city.name.as_str().into()]).unwrap();
    q.db.commit(tx).unwrap();
    let pi = q.db.schema("cities").unwrap().column_index("population").unwrap();
    assert_ne!(row[pi], Value::Int(1));
}

/// Browsing and auditing read a snapshot: neither waits for a transaction
/// another thread holds open, and neither sees what it has not committed.
#[test]
fn browse_and_audit_do_not_wait_for_an_open_transaction() {
    let (mut q, corpus) = boot();
    let name = corpus.truth.cities[0].name.as_str();
    let key = [Value::from(name)];
    let notes = TableSchema::new(
        "notes",
        vec![Column::new("id", DataType::Int), Column::new("city", DataType::Text)],
        &["id"],
        &[],
    )
    .unwrap();
    q.db.create_table(notes).unwrap();
    let (card, flags) = (q.browse("cities", &key).unwrap(), q.audit_table("cities").unwrap());

    // The open transaction links a note to the browsed city and adds a
    // city: both would show in the card and the audit once committed.
    let mut city = q.db.snapshot().scan("cities").unwrap()[0].clone();
    city[q.db.schema("cities").unwrap().key[0]] = "Atlantis".into();
    let db = Arc::clone(&q.db);
    let (held_tx, held) = mpsc::channel();
    let (release_tx, release) = mpsc::channel::<()>();
    let (read_tx, read) = mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(move || {
            let tx = db.begin();
            db.insert(tx, "notes", vec![Value::Int(1), name.into()]).unwrap();
            db.insert(tx, "cities", city).unwrap();
            held_tx.send(()).unwrap();
            let _ = release.recv();
            db.commit(tx).unwrap();
        });
        held.recv().unwrap();
        let (reader, key) = (&mut q, &key);
        s.spawn(move || {
            let _ = read_tx.send((reader.browse("cities", key), reader.audit_table("cities")));
        });
        let answered = read.recv_timeout(Duration::from_secs(5));
        // Release the writer before asserting, so a failure cannot hang.
        release_tx.send(()).unwrap();
        let (browsed, audited) = answered.expect("a read waited for the open transaction");
        assert_eq!(browsed.unwrap(), card);
        assert_eq!(audited.unwrap(), flags);
    });
    let committed = q.browse("cities", &key).unwrap();
    assert!(committed.contains("related in notes"), "{committed}");
}

/// The keyword-to-structured translator is cached by snapshot LSN, so a
/// table dropped since the last suggestion must move the LSN: otherwise
/// the cached vocabulary keeps offering a query over the dropped table,
/// and running it fails with `NoSuchTable`.
#[test]
fn a_dropped_table_is_not_suggested() {
    let q = Quarry::new(QuarryConfig::builder().build()).unwrap();
    let cities = TableSchema::new(
        "cities",
        vec![Column::new("name", DataType::Text), Column::new("population", DataType::Int)],
        &["name"],
        &[],
    )
    .unwrap();
    q.db.create_table(cities).unwrap();
    q.db.insert_autocommit("cities", vec!["Madison".into(), Value::Int(250_000)]).unwrap();
    let over_cities = |snap: &Snapshot| {
        let (_, candidates) = snap.keyword("population madison", 5);
        candidates.iter().any(|c| c.query.display().contains("FROM cities"))
    };
    let before = q.snapshot();
    assert!(over_cities(&before), "the live table is suggested");

    q.db.drop_table("cities").unwrap();
    let after = q.snapshot();
    assert!(after.lsn() > before.lsn(), "DROP TABLE moved no LSN");
    assert!(!over_cities(&after), "a dropped table is still suggested");
}

/// What a refused `STORE` must leave alone: the table's rows and the LSN.
fn stored(q: &Quarry) -> (Vec<Vec<Value>>, u64) {
    let snap = q.db.snapshot();
    (snap.scan("cities").unwrap(), snap.lsn())
}

/// QL008 reads the table's key from the database itself, so the check a
/// run makes refuses a `STORE` keyed otherwise before any document is read.
#[test]
fn a_store_keyed_unlike_its_table_is_refused_by_the_check() {
    let (mut q, _) = boot();
    let before = stored(&q);
    assert!(!before.0.is_empty());
    let report = q.check_program(REKEYED);
    let d = report.diagnostics.iter().find(|d| d.code == "QL008").expect("QL008 fires");
    assert_eq!(&report.source[d.span.start..d.span.end], "cities");
    assert!(d.message.contains("(name)") && d.message.contains("(state)"), "{}", d.message);
    match q.run_pipeline(REKEYED) {
        Err(QuarryError::Lint(report)) => {
            assert!(report.diagnostics.iter().any(|d| d.code == "QL008"))
        }
        other => panic!("expected a Lint refusal, got {other:?}"),
    }
    assert_eq!(stored(&q), before);
}

/// A `STORE` with a column its table lacks cannot apply: it is refused
/// with the column named, and nothing is written.
#[test]
fn a_store_wider_than_its_table_is_refused() {
    let (mut q, _) = boot();
    let before = stored(&q);
    assert!(q.check_program(WIDENED).is_clean(), "same key: the check passes it");
    let err = q.run_pipeline(WIDENED).unwrap_err();
    assert!(err.to_string().contains("extra column(s) founded"), "{err}");
    assert_eq!(stored(&q), before);
    // The table's own program still applies, as an upsert of every row.
    let again = q.run_pipeline(PIPELINE).unwrap();
    assert_eq!(again.rows_stored, before.0.len());
}
