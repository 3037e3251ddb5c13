//! The DGE (data generation and exploitation) event log.
//!
//! §3 argues the community needs an explicit model of "how the data is
//! generated inside the system, who the users are, ... and how they
//! interact with the system". Quarry makes the model concrete as an event
//! log: every generation step (ingest, extract, integrate, curate) and
//! every exploitation step (keyword search, form choice, structured query,
//! feedback) appends an event. Experiments and the semantic debugger read
//! the log; so can a curious user.

use std::collections::VecDeque;
use std::fmt;

/// One DGE event.
#[derive(Debug, Clone, PartialEq)]
pub enum DgeEvent {
    /// Raw documents entered the system.
    Ingest {
        /// Documents ingested.
        docs: usize,
        /// Snapshot day / version.
        day: usize,
    },
    /// A QDL pipeline ran.
    PipelineRun {
        /// Pipeline name.
        name: String,
        /// Extractions produced.
        extractions: usize,
        /// Entities stored.
        entities: usize,
        /// HI questions asked during curation.
        questions: usize,
    },
    /// A user searched by keyword.
    KeywordQuery {
        /// The query text.
        query: String,
        /// Hits returned.
        hits: usize,
        /// Structured candidates suggested alongside.
        candidates: usize,
    },
    /// A user ran (or accepted a form for) a structured query.
    StructuredQuery {
        /// Rendered query.
        rendered: String,
        /// Result rows.
        rows: usize,
    },
    /// A user gave feedback (HI outside pipeline curation).
    Feedback {
        /// User name.
        user: String,
        /// What the feedback concerned.
        subject: String,
    },
    /// The semantic debugger flagged suspicious tuples.
    DebuggerFlag {
        /// Table checked.
        table: String,
        /// Cells flagged.
        flags: usize,
    },
    /// A standing query's answer changed (monitoring mode).
    MonitorFired {
        /// Monitor name.
        monitor: String,
        /// Rows in the new answer.
        rows: usize,
    },
    /// Structure for an attribute set was generated on demand (§3.2
    /// incremental, best-effort generation).
    IncrementalExtraction {
        /// Attributes materialized.
        attributes: Vec<String>,
        /// Documents processed.
        docs: usize,
    },
}

impl DgeEvent {
    /// Is this a generation-side event (vs. exploitation-side)?
    pub fn is_generation(&self) -> bool {
        matches!(
            self,
            DgeEvent::Ingest { .. }
                | DgeEvent::PipelineRun { .. }
                | DgeEvent::Feedback { .. }
                | DgeEvent::DebuggerFlag { .. }
                | DgeEvent::IncrementalExtraction { .. }
        )
    }
}

impl fmt::Display for DgeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DgeEvent::Ingest { docs, day } => write!(f, "ingest day {day}: {docs} docs"),
            DgeEvent::PipelineRun { name, extractions, entities, questions } => write!(
                f,
                "pipeline {name}: {extractions} extractions → {entities} entities ({questions} HI questions)"
            ),
            DgeEvent::KeywordQuery { query, hits, candidates } => {
                write!(f, "keyword \"{query}\": {hits} hits, {candidates} suggested queries")
            }
            DgeEvent::StructuredQuery { rendered, rows } => {
                write!(f, "structured {rendered}: {rows} rows")
            }
            DgeEvent::Feedback { user, subject } => write!(f, "feedback from {user} on {subject}"),
            DgeEvent::DebuggerFlag { table, flags } => {
                write!(f, "debugger flagged {flags} cells in {table}")
            }
            DgeEvent::MonitorFired { monitor, rows } => {
                write!(f, "monitor {monitor} fired: {rows} rows")
            }
            DgeEvent::IncrementalExtraction { attributes, docs } => {
                write!(f, "incremental extraction of {} over {docs} docs", attributes.join(", "))
            }
        }
    }
}

/// Events [`DgeLog`] retains. Every served read records one, so an
/// unbounded log grows with the request count; experiments and the
/// debugger only ever read the recent tail plus the split counters.
const DGE_LOG_CAPACITY: usize = 4096;

#[derive(Debug, Default)]
struct DgeRing {
    /// The newest [`DGE_LOG_CAPACITY`] events, oldest first.
    tail: VecDeque<DgeEvent>,
    /// Generation-side events ever recorded (evicted ones included).
    generation: usize,
    /// Exploitation-side events ever recorded (evicted ones included).
    exploitation: usize,
}

/// Bounded DGE event log: a ring of the newest events plus running
/// generation/exploitation totals over everything ever recorded.
///
/// Internally synchronized: recording takes `&self`, and clones share the
/// same underlying log. This is what lets read-only façade surfaces —
/// [`crate::Snapshot`] most of all — keep appending exploitation events
/// concurrently without an exclusive lock on the whole system (the
/// "candidate-recording side channel" that used to force `&mut self` on
/// the keyword/query hot paths).
#[derive(Debug, Clone, Default)]
pub struct DgeLog {
    events: std::sync::Arc<parking_lot::Mutex<DgeRing>>,
}

impl DgeLog {
    /// Empty log.
    pub fn new() -> DgeLog {
        DgeLog::default()
    }

    /// Append an event, evicting the oldest once the ring is full. Safe
    /// from any thread; appends interleave in arrival order.
    pub fn record(&self, e: DgeEvent) {
        let mut ring = self.events.lock();
        if e.is_generation() {
            ring.generation += 1;
        } else {
            ring.exploitation += 1;
        }
        if ring.tail.len() == DGE_LOG_CAPACITY {
            ring.tail.pop_front();
        }
        ring.tail.push_back(e);
    }

    /// The retained tail of the log (the newest events), in order.
    pub fn events(&self) -> Vec<DgeEvent> {
        self.events.lock().tail.iter().cloned().collect()
    }

    /// Count of generation-side vs. exploitation-side events ever
    /// recorded — exact, however many have left the ring.
    pub fn generation_exploitation_split(&self) -> (usize, usize) {
        let ring = self.events.lock();
        (ring.generation, ring.exploitation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_records_in_order_and_splits() {
        let log = DgeLog::new();
        log.record(DgeEvent::Ingest { docs: 10, day: 0 });
        log.record(DgeEvent::KeywordQuery { query: "x".into(), hits: 3, candidates: 2 });
        log.record(DgeEvent::Feedback { user: "u1".into(), subject: "match".into() });
        assert_eq!(log.events().len(), 3);
        assert_eq!(log.generation_exploitation_split(), (2, 1));
    }

    #[test]
    fn log_is_a_bounded_ring_with_exact_counters() {
        let log = DgeLog::new();
        let total = 10 * DGE_LOG_CAPACITY;
        for i in 0..total {
            if i % 4 == 0 {
                log.record(DgeEvent::Ingest { docs: 1, day: i });
            } else {
                log.record(DgeEvent::StructuredQuery { rendered: "q".into(), rows: i });
            }
        }
        let events = log.events();
        assert_eq!(events.len(), DGE_LOG_CAPACITY);
        assert_eq!(log.generation_exploitation_split(), (total / 4, total - total / 4));
        // The retained tail is the newest events, oldest first.
        for (event, i) in events.iter().zip(total - DGE_LOG_CAPACITY..) {
            match event {
                DgeEvent::Ingest { day, .. } => assert_eq!(*day, i),
                DgeEvent::StructuredQuery { rows, .. } => assert_eq!(*rows, i),
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn events_render() {
        let e = DgeEvent::PipelineRun {
            name: "cities".into(),
            extractions: 120,
            entities: 40,
            questions: 5,
        };
        let s = e.to_string();
        assert!(s.contains("cities"));
        assert!(s.contains("120 extractions"));
        assert!(e.is_generation());
        assert!(!DgeEvent::StructuredQuery { rendered: "q".into(), rows: 1 }.is_generation());
    }
}
