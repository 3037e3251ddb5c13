//! User contributions: ordinary users correcting the derived structure.
//!
//! §3.2 wants "not just developers, but also ordinary users" in the loop,
//! ideally "a multitude of users ... in a mass collaboration fashion". This
//! module is that path: any user may propose a correction to a stored cell;
//! proposals accumulate reputation-weighted support and apply to the store
//! once support clears a threshold. Accepted contributions pay incentive
//! points and raise the contributor's reputation; rejected ones lower it —
//! the flywheel the user layer's "incentive schemes" sentence describes.
//!
//! An applied correction records its cell's source as the user's
//! ([`Source::User`]) in the same transaction, and `STORE` never
//! overwrites such a cell: the next pipeline run keeps the correction.

use crate::users::UserDirectory;
use quarry_lang::provenance::{self, Cell, Source};
use quarry_storage::{is_system_table, Database, StorageError, Value};
use std::collections::BTreeMap;

/// A proposed cell correction.
#[derive(Debug, Clone, PartialEq)]
pub struct Correction {
    /// Target table.
    pub table: String,
    /// Primary-key values identifying the row.
    pub key: Vec<Value>,
    /// Column to change.
    pub column: String,
    /// Proposed new value.
    pub value: Value,
}

#[derive(Debug, Clone)]
struct Proposal {
    correction: Correction,
    /// Supporting user names with their reputation weight at vote time.
    supporters: Vec<(String, f64)>,
}

/// Outcome of processing one proposal.
#[derive(Debug, Clone, PartialEq)]
pub enum CorrectionStatus {
    /// Accumulating support; needs this much more weight.
    Pending {
        /// Weight still missing.
        missing: f64,
    },
    /// Applied to the store.
    Applied,
    /// Rejected (row vanished / value invalid for the column).
    Rejected {
        /// Why.
        reason: String,
    },
}

/// The correction queue.
#[derive(Debug, Default)]
pub struct FeedbackQueue {
    proposals: BTreeMap<String, Proposal>,
    /// Total reputation weight required to apply a correction.
    pub required_weight: f64,
}

fn proposal_key(c: &Correction) -> String {
    let key: Vec<String> = c.key.iter().map(Value::to_string).collect();
    format!("{}[{}].{}={}", c.table, key.join(","), c.column, c.value)
}

impl FeedbackQueue {
    /// A queue that applies corrections once supporting weight reaches
    /// `required_weight` (log-odds units, as produced by
    /// [`quarry_hi::ReputationTracker::weight`]).
    pub fn new(required_weight: f64) -> FeedbackQueue {
        FeedbackQueue { proposals: BTreeMap::new(), required_weight }
    }

    /// Number of open proposals.
    pub fn len(&self) -> usize {
        self.proposals.len()
    }

    /// True when no proposals are open.
    pub fn is_empty(&self) -> bool {
        self.proposals.is_empty()
    }

    /// A user proposes (or supports) a correction. Applies it immediately
    /// when the accumulated weight clears the threshold.
    ///
    /// The same user supporting the same proposal twice is a no-op.
    pub fn submit(
        &mut self,
        users: &mut UserDirectory,
        db: &Database,
        user: &str,
        correction: Correction,
    ) -> Result<CorrectionStatus, StorageError> {
        let weight = {
            let account = users
                .authenticate(user)
                .ok_or_else(|| StorageError::NotFound(format!("user {user}")))?;
            // Unknown users still get a minimal voice; reputation amplifies.
            users.reputation().weight(account.id).max(0.2)
        };
        let pk = proposal_key(&correction);
        let proposal = self
            .proposals
            .entry(pk.clone())
            .or_insert_with(|| Proposal { correction, supporters: Vec::new() });
        if !proposal.supporters.iter().any(|(u, _)| u == user) {
            proposal.supporters.push((user.to_string(), weight));
        }
        let total: f64 = proposal.supporters.iter().map(|(_, w)| w).sum();
        if total < self.required_weight {
            return Ok(CorrectionStatus::Pending { missing: self.required_weight - total });
        }

        // Threshold reached: apply, on behalf of whoever proposed it.
        let proposal = self.proposals.remove(&pk).expect("present");
        let proposer = proposal.supporters.first().map_or(user, |(u, _)| u.as_str());
        let outcome = apply(db, &proposal.correction, proposer);
        let accepted = outcome.is_ok();
        for (supporter, _) in &proposal.supporters {
            let _ = users.record_contribution(supporter, accepted);
        }
        match outcome {
            Ok(()) => Ok(CorrectionStatus::Applied),
            Err(e) => Ok(CorrectionStatus::Rejected { reason: e.to_string() }),
        }
    }
}

/// Apply `c`, proposed by `user`: the cell and its [`Source::User`]
/// provenance are written in one transaction, so a crash leaves both or
/// neither. `_provenance` is created first if absent, as its own unit. A
/// system table takes no corrections, and neither does a key column: a
/// row's sources are filed under its key, so re-keying a row would leave
/// its other cells' sources behind.
pub fn apply(db: &Database, c: &Correction, user: &str) -> Result<(), StorageError> {
    if is_system_table(&c.table) {
        return Err(StorageError::SchemaViolation(format!("{} is a system table", c.table)));
    }
    let schema = db.schema(&c.table)?;
    let ci = schema
        .column_index(&c.column)
        .ok_or_else(|| StorageError::SchemaViolation(format!("no column {}", c.column)))?;
    if schema.key.contains(&ci) {
        let msg = format!("{} is a key column of {}", c.column, c.table);
        return Err(StorageError::SchemaViolation(msg));
    }
    provenance::ensure(db)?;
    let source = Source::User { user: user.to_string(), proposal: proposal_key(c) };
    db.in_tx(|tx| {
        let mut row = db.get(tx, &c.table, &c.key)?;
        row[ci] = c.value.clone();
        let key = provenance::key_text(&schema.key_of(&row));
        db.update(tx, &c.table, &c.key, row)?;
        let cell = Cell { table: &c.table, key: &key, column: &c.column };
        provenance::set(db, tx, cell, &source)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quarry_storage::{Column, DataType, TableSchema};

    fn setup() -> (Database, UserDirectory, FeedbackQueue) {
        let db = Database::in_memory();
        db.create_table(
            TableSchema::new(
                "cities",
                vec![Column::new("name", DataType::Text), Column::new("population", DataType::Int)],
                &["name"],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        db.insert_autocommit("cities", vec!["Madison".into(), Value::Int(99)]).unwrap();
        let mut users = UserDirectory::new();
        users.register("trusted", false).unwrap();
        users.register("newbie", false).unwrap();
        // Trusted has a long history of accepted contributions.
        for _ in 0..20 {
            users.record_contribution("trusted", true).unwrap();
        }
        (db, users, FeedbackQueue::new(2.0))
    }

    fn correction() -> Correction {
        Correction {
            table: "cities".into(),
            key: vec!["Madison".into()],
            column: "population".into(),
            value: Value::Int(250_000),
        }
    }

    #[test]
    fn trusted_user_applies_alone() {
        let (db, mut users, mut q) = setup();
        let status = q.submit(&mut users, &db, "trusted", correction()).unwrap();
        assert_eq!(status, CorrectionStatus::Applied);
        let rows = db.snapshot().scan("cities").unwrap();
        assert_eq!(rows[0][1], Value::Int(250_000));
        // Points were paid.
        assert!(users.authenticate("trusted").unwrap().points > 0);
    }

    #[test]
    fn newbies_need_to_gang_up() {
        let (db, mut users, mut q) = setup();
        for i in 0..12 {
            users.register(&format!("u{i}"), false).unwrap();
        }
        let mut applied = false;
        for i in 0..12 {
            match q.submit(&mut users, &db, &format!("u{i}"), correction()).unwrap() {
                CorrectionStatus::Applied => {
                    applied = true;
                    break;
                }
                CorrectionStatus::Pending { missing } => assert!(missing > 0.0),
                CorrectionStatus::Rejected { reason } => panic!("{reason}"),
            }
        }
        assert!(applied, "enough small voices add up");
        assert_eq!(db.snapshot().scan("cities").unwrap()[0][1], Value::Int(250_000));
        // The cell's source names the proposer, not the last supporter.
        let explained = provenance::explain(&db.snapshot(), "cities", &["Madison".into()]).unwrap();
        let proposal = "cities[Madison].population=250000".to_string();
        let user = Source::User { user: "u0".into(), proposal };
        assert_eq!(explained.cells[1].source, Some(user));
        assert_eq!(explained.cells[0].source, None, "no STORE wrote the key cell");
    }

    #[test]
    fn a_system_table_takes_no_corrections() {
        let (db, mut users, mut q) = setup();
        let mut c = correction();
        c.table = provenance::TABLE.into();
        let status = q.submit(&mut users, &db, "trusted", c).unwrap();
        assert!(
            matches!(status, CorrectionStatus::Rejected { reason } if reason.contains("system"))
        );
        assert!(db.schema(provenance::TABLE).is_err(), "nothing was written");
    }

    #[test]
    fn a_key_column_takes_no_corrections() {
        let (db, mut users, mut q) = setup();
        let mut c = correction();
        (c.column, c.value) = ("name".into(), "Madisson".into());
        let status = q.submit(&mut users, &db, "trusted", c).unwrap();
        assert!(matches!(status, CorrectionStatus::Rejected { reason } if reason.contains("key")));
        let rows = db.snapshot().scan("cities").unwrap();
        assert_eq!(rows, vec![vec![Value::from("Madison"), Value::Int(99)]]);
        assert!(db.schema(provenance::TABLE).is_err(), "nothing was written");
    }

    #[test]
    fn duplicate_support_does_not_double_count() {
        let (db, mut users, mut q) = setup();
        let s1 = q.submit(&mut users, &db, "newbie", correction()).unwrap();
        let s2 = q.submit(&mut users, &db, "newbie", correction()).unwrap();
        assert_eq!(s1, s2, "same user, same proposal: no progress");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn rejected_corrections_punish_supporters() {
        let (db, mut users, mut q) = setup();
        let bad = Correction {
            table: "cities".into(),
            key: vec!["Atlantis".into()], // no such row
            column: "population".into(),
            value: Value::Int(1),
        };
        let status = q.submit(&mut users, &db, "trusted", bad).unwrap();
        assert!(matches!(status, CorrectionStatus::Rejected { .. }));
        let rep_after = users.reliability("trusted").unwrap();
        assert!(rep_after < 21.0 / 22.0, "a rejection must dent the reputation");
    }

    #[test]
    fn unknown_user_is_an_error() {
        let (db, mut users, mut q) = setup();
        assert!(q.submit(&mut users, &db, "ghost", correction()).is_err());
    }
}
