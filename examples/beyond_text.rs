//! §6, "Beyond Unstructured Data": the same extract → verify → store shape
//! over *sensor* data.
//!
//! "Another example is sensor data from which we want to infer real-world
//! events (e.g., someone has entered the room). ... The end system then may
//! end up looking quite similar to the kind of systems we have discussed
//! for unstructured data."
//!
//! Extraction here is an event detector over motion streams (imperfect,
//! because sensors drop out and false-trigger); the HI loop verifies the
//! detector's uncertain events; the verified events land in the structured
//! store and are queried like any other structure.
//!
//! Run with: `cargo run --example beyond_text`

use quarry::corpus::sensor::{generate, SensorConfig, SensorData};
use quarry::hi::oracle::panel;
use quarry::hi::{curate, Crowd, CurateConfig, SelectionPolicy, UncertainItem};
use quarry::query::engine::{execute, AggFn, Query};
use quarry::storage::{Column, DataType, Database, TableSchema, Value};

/// A detected occupancy event with a detector confidence.
#[derive(Debug, Clone)]
struct Event {
    room: u32,
    enter: u32,
    leave: u32,
    confidence: f64,
}

/// Event extraction: a run of motion-positive samples becomes an occupancy
/// event; confidence reflects run length and dropout contamination — short
/// or gappy runs are exactly the ones worth human review.
fn detect(data: &SensorData, n_rooms: u32) -> Vec<Event> {
    let mut events = Vec::new();
    for room in 0..n_rooms {
        let readings: Vec<_> = data.room(room).collect();
        let mut run_start: Option<usize> = None;
        let mut dropouts = 0usize;
        for (i, r) in readings.iter().enumerate() {
            let active = match r.motion {
                Some(m) => m > 0,
                None => {
                    if run_start.is_some() {
                        dropouts += 1;
                    }
                    run_start.is_some() // a dropout inside a run keeps it open
                }
            };
            match (active, run_start) {
                (true, None) => {
                    run_start = Some(i);
                    dropouts = 0;
                }
                (false, Some(s)) => {
                    events.push(event_from_run(&readings, s, i, dropouts, room));
                    run_start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = run_start {
            events.push(event_from_run(&readings, s, readings.len(), dropouts, room));
        }
    }
    events
}

fn event_from_run(
    readings: &[&quarry::corpus::sensor::Reading],
    s: usize,
    e: usize,
    dropouts: usize,
    room: u32,
) -> Event {
    let len = e - s;
    // Long clean runs are confident; 1-sample blips are mostly false triggers.
    let confidence = (0.3 + 0.1 * len as f64 - 0.1 * dropouts as f64).clamp(0.05, 0.95);
    Event { room, enter: readings[s].t, leave: readings[e - 1].t + 1, confidence }
}

fn is_true_event(data: &SensorData, ev: &Event) -> bool {
    // An event is correct when it overlaps a true occupancy interval by
    // more than half of its own length.
    let overlap: u32 = data
        .truth
        .iter()
        .filter(|o| o.room == ev.room)
        .map(|o| ev.leave.min(o.leave).saturating_sub(ev.enter.max(o.enter)))
        .sum();
    overlap * 2 > ev.leave - ev.enter
}

fn main() {
    let cfg =
        SensorConfig { seed: 6, n_rooms: 8, samples: 600, dropout: 0.03, false_trigger: 0.03 };
    let data = generate(&cfg);
    println!(
        "sensor streams: {} rooms × {} samples, {} true occupancy intervals",
        cfg.n_rooms,
        cfg.samples,
        data.truth.len()
    );

    // --- Extract events (imperfect, like IE over text). --------------------
    let events = detect(&data, cfg.n_rooms as u32);
    let auto_correct = events.iter().filter(|e| is_true_event(&data, e)).count();
    println!(
        "detector: {} events extracted, {} correct ({:.1}% precision)",
        events.len(),
        auto_correct,
        100.0 * auto_correct as f64 / events.len() as f64
    );

    // --- HI verification of uncertain events (same loop as for text). ------
    let items: Vec<UncertainItem> = events
        .iter()
        .enumerate()
        .map(|(i, ev)| UncertainItem {
            id: i,
            prompt_left: format!("room {} t={}..{}", ev.room, ev.enter, ev.leave),
            prompt_right: "occupied?".into(),
            auto_decision: ev.confidence >= 0.5,
            auto_score: ev.confidence,
            truth: is_true_event(&data, ev),
        })
        .collect();
    let mut crowd = Crowd::new(panel(3, &[0.05], 4));
    let report = curate(
        &items,
        &mut crowd,
        CurateConfig {
            budget: (items.len() * 3) as u32,
            votes_per_question: 3,
            policy: SelectionPolicy::UncertaintyFirst { centre: 0.5 },
            reputation: None,
        },
    );
    let verified: Vec<&Event> =
        events.iter().zip(&report.decisions).filter(|(_, &keep)| keep).map(|(e, _)| e).collect();
    let kept_correct = verified.iter().filter(|e| is_true_event(&data, e)).count();
    println!(
        "after HI review ({} questions): {} events kept, {} correct ({:.1}% precision)",
        report.reviewed.len(),
        verified.len(),
        kept_correct,
        100.0 * kept_correct as f64 / verified.len().max(1) as f64
    );

    // --- Store and exploit, exactly like text-derived structure. -----------
    let db = Database::in_memory();
    db.create_table(
        TableSchema::new(
            "occupancy_events",
            vec![
                Column::new("room", DataType::Int),
                Column::new("enter_t", DataType::Int),
                Column::new("leave_t", DataType::Int),
                Column::new("duration", DataType::Int),
            ],
            &["room", "enter_t"],
            &[],
        )
        .expect("schema"),
    )
    .expect("ddl");
    for ev in &verified {
        let _ = db.insert_autocommit(
            "occupancy_events",
            vec![
                Value::Int(ev.room as i64),
                Value::Int(ev.enter as i64),
                Value::Int(ev.leave as i64),
                Value::Int((ev.leave - ev.enter) as i64),
            ],
        );
    }
    let q = Query::scan("occupancy_events").aggregate(Some("room"), AggFn::Sum, "duration");
    let r = execute(&db, &q).expect("query");
    println!("\nminutes occupied per room (from verified events):");
    for row in r.rows.iter().take(8) {
        println!("  room {}: {} minutes", row[0], row[1]);
    }
    let busiest = Query::scan("occupancy_events")
        .aggregate(Some("room"), AggFn::Sum, "duration")
        .sort("SUM(duration)", true, Some(1));
    let r = execute(&db, &busiest).expect("query");
    println!("busiest room: {} ({} minutes)", r.rows[0][0], r.rows[0][1]);
    println!("\nsame pipeline shape as for text: extract → verify with humans → store → query.");
}
