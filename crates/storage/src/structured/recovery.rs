//! What the log holds and which of it is history: the WAL record codec
//! and the one reader of committed units.
//!
//! **Records** ([`LogRecord`]) are binary-encoded through [`crate::codec`]
//! (one per WAL frame), prefixed with the format byte `0x01` (binary-v1) —
//! the only format written or read. Each kind has one encoder; the row
//! changes' encoders take borrowed parts, so the engine logs a change from
//! the row it is about to store, without building a record. Logs from
//! before the paged engine held JSON records; one of those (first byte
//! `{`) is refused by name, like any other unknown format byte.
//!
//! **Committed history** ([`UnitReader`]) is decided here and nowhere
//! else. Every writer enters the engine through one gate, so a log is a
//! sequence of whole, non-interleaved *units* — one transaction from its
//! `Begin` to its `Commit`, or one auto-committed DDL record — possibly
//! with units a dying writer left unclosed. The reader turns a record
//! sequence into the units to apply, in log order; open-time recovery
//! (`structured::checkpoint`) and replicas (`structured::replication`)
//! both feed it and hand what it yields to the single redo path in
//! `structured::overlay`. A sequence no gated engine can have written is
//! refused, never put into some order.

use crate::codec;
use crate::error::StorageError;
use crate::value::Value;
use crate::Result;

use super::table::{Row, RowId, TableSchema};

/// Format byte opening every binary-v1 record.
pub const BINARY_V1: u8 = 0x01;
/// First byte of every pre-paged-engine JSON record (`{`): recognized
/// only to refuse it by name.
const JSON_OPEN: u8 = b'{';

/// Record kind tags for the binary encoding.
const K_CREATE_TABLE: u8 = 0;
const K_DROP_TABLE: u8 = 1;
const K_CREATE_INDEX: u8 = 2;
const K_BEGIN: u8 = 3;
const K_INSERT: u8 = 4;
const K_UPDATE: u8 = 5;
const K_DELETE: u8 = 6;
const K_COMMIT: u8 = 7;
const K_ABORT: u8 = 8;

/// Everything the structured store writes to its WAL.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// DDL: a table was created (auto-committed).
    CreateTable {
        /// The new table's schema.
        schema: TableSchema,
    },
    /// DDL: a table was dropped (auto-committed).
    DropTable {
        /// Name of the dropped table.
        table: String,
    },
    /// DDL: a secondary index was created on an existing table
    /// (auto-committed; redo rebuilds the index from the recovered heap).
    CreateIndex {
        /// Table the index belongs to.
        table: String,
        /// Indexed column name.
        column: String,
    },
    /// Transaction start.
    Begin {
        /// Transaction id.
        tx: u64,
    },
    /// A row insert by `tx`.
    Insert {
        /// Transaction id.
        tx: u64,
        /// Target table.
        table: String,
        /// Heap row id assigned at runtime (re-used verbatim at redo).
        row_id: RowId,
        /// The inserted row.
        row: Row,
    },
    /// A full-row update by `tx`.
    Update {
        /// Transaction id.
        tx: u64,
        /// Target table.
        table: String,
        /// Heap row id.
        row_id: RowId,
        /// The new row image.
        row: Row,
    },
    /// A row deletion by `tx`.
    Delete {
        /// Transaction id.
        tx: u64,
        /// Target table.
        table: String,
        /// Heap row id.
        row_id: RowId,
    },
    /// Transaction commit — the durability point.
    Commit {
        /// Transaction id.
        tx: u64,
    },
    /// Transaction abort (informational; aborted work is never redone).
    Abort {
        /// Transaction id.
        tx: u64,
    },
}

/// Write the format byte and `kind`: how every record starts.
fn write_head(w: &mut Vec<u8>, kind: u8) {
    w.extend_from_slice(&[BINARY_V1, kind]);
}

/// Write a `Begin`, `Commit` or `Abort` record (`kind`) of `tx`.
fn write_mark(w: &mut Vec<u8>, kind: u8, tx: u64) -> Result<()> {
    write_head(w, kind);
    codec::write_u64(w, tx)
}

/// Write what every row change starts with; an `Insert` or `Update` goes
/// on with the row.
fn write_change(w: &mut Vec<u8>, kind: u8, tx: u64, table: &str, row_id: RowId) -> Result<()> {
    write_head(w, kind);
    codec::write_u64(w, tx)?;
    codec::write_str(w, table)?;
    codec::write_u64(w, row_id.0)
}

/// Write the `Insert` record of `row` from its borrowed parts: the one
/// encoder of the kind. The engine logs with it straight into the WAL's
/// frame buffer; [`LogRecord::encode`] is its owned-record caller.
pub(crate) fn write_insert(
    w: &mut Vec<u8>,
    tx: u64,
    table: &str,
    row_id: RowId,
    row: &[Value],
) -> Result<()> {
    write_change(w, K_INSERT, tx, table, row_id)?;
    codec::write_row(w, row)
}

/// Write the `Update` record of `row`; as [`write_insert`].
pub(crate) fn write_update(
    w: &mut Vec<u8>,
    tx: u64,
    table: &str,
    row_id: RowId,
    row: &[Value],
) -> Result<()> {
    write_change(w, K_UPDATE, tx, table, row_id)?;
    codec::write_row(w, row)
}

/// Write the `Delete` record of `row_id`; as [`write_insert`].
pub(crate) fn write_delete(w: &mut Vec<u8>, tx: u64, table: &str, row_id: RowId) -> Result<()> {
    write_change(w, K_DELETE, tx, table, row_id)
}

impl LogRecord {
    /// Serialize for a WAL frame.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Append the record's bytes to `w` — a WAL frame buffer, through
    /// [`crate::wal::Wal::append_with`]. A row change goes through the
    /// writer the engine logs it with, so each kind has one encoder.
    pub fn encode_into(&self, w: &mut Vec<u8>) -> Result<()> {
        match self {
            LogRecord::CreateTable { schema } => {
                write_head(w, K_CREATE_TABLE);
                codec::write_schema(w, schema)
            }
            LogRecord::DropTable { table } => {
                write_head(w, K_DROP_TABLE);
                codec::write_str(w, table)
            }
            LogRecord::CreateIndex { table, column } => {
                write_head(w, K_CREATE_INDEX);
                codec::write_str(w, table)?;
                codec::write_str(w, column)
            }
            LogRecord::Begin { tx } => write_mark(w, K_BEGIN, *tx),
            LogRecord::Insert { tx, table, row_id, row } => {
                write_insert(w, *tx, table, *row_id, row)
            }
            LogRecord::Update { tx, table, row_id, row } => {
                write_update(w, *tx, table, *row_id, row)
            }
            LogRecord::Delete { tx, table, row_id } => write_delete(w, *tx, table, *row_id),
            LogRecord::Commit { tx } => write_mark(w, K_COMMIT, *tx),
            LogRecord::Abort { tx } => write_mark(w, K_ABORT, *tx),
        }
    }

    /// Deserialize from a WAL frame payload.
    pub fn decode(bytes: &[u8]) -> Result<LogRecord> {
        match bytes.first() {
            Some(&BINARY_V1) => Self::decode_binary(&bytes[1..]),
            Some(&JSON_OPEN) => Err(StorageError::Corrupt(
                "log record looks like legacy JSON, which is no longer readable".into(),
            )),
            Some(&b) => {
                Err(StorageError::Corrupt(format!("unknown log record format byte {b:#04x}")))
            }
            None => Err(StorageError::Corrupt("empty log record".into())),
        }
    }

    fn decode_binary(data: &[u8]) -> Result<LogRecord> {
        let pos = &mut 0usize;
        let &kind = data
            .first()
            .ok_or_else(|| StorageError::Corrupt("log record missing kind byte".into()))?;
        *pos = 1;
        let rec = match kind {
            K_CREATE_TABLE => LogRecord::CreateTable { schema: codec::read_schema(data, pos)? },
            K_DROP_TABLE => LogRecord::DropTable { table: codec::read_str(data, pos)? },
            K_CREATE_INDEX => LogRecord::CreateIndex {
                table: codec::read_str(data, pos)?,
                column: codec::read_str(data, pos)?,
            },
            K_BEGIN => LogRecord::Begin { tx: codec::read_u64(data, pos)? },
            K_INSERT => LogRecord::Insert {
                tx: codec::read_u64(data, pos)?,
                table: codec::read_str(data, pos)?,
                row_id: RowId(codec::read_u64(data, pos)?),
                row: codec::read_row(data, pos)?,
            },
            K_UPDATE => LogRecord::Update {
                tx: codec::read_u64(data, pos)?,
                table: codec::read_str(data, pos)?,
                row_id: RowId(codec::read_u64(data, pos)?),
                row: codec::read_row(data, pos)?,
            },
            K_DELETE => LogRecord::Delete {
                tx: codec::read_u64(data, pos)?,
                table: codec::read_str(data, pos)?,
                row_id: RowId(codec::read_u64(data, pos)?),
            },
            K_COMMIT => LogRecord::Commit { tx: codec::read_u64(data, pos)? },
            K_ABORT => LogRecord::Abort { tx: codec::read_u64(data, pos)? },
            other => {
                return Err(StorageError::Corrupt(format!("unknown log record kind {other}")));
            }
        };
        if *pos != data.len() {
            return Err(StorageError::Corrupt(format!(
                "log record has {} trailing bytes",
                data.len() - *pos
            )));
        }
        Ok(rec)
    }

    /// The transaction this record belongs to, if any (DDL records are
    /// auto-committed and carry no transaction).
    pub fn tx(&self) -> Option<u64> {
        match self {
            LogRecord::Begin { tx }
            | LogRecord::Insert { tx, .. }
            | LogRecord::Update { tx, .. }
            | LogRecord::Delete { tx, .. }
            | LogRecord::Commit { tx }
            | LogRecord::Abort { tx } => Some(*tx),
            LogRecord::CreateTable { .. }
            | LogRecord::DropTable { .. }
            | LogRecord::CreateIndex { .. } => None,
        }
    }
}

/// The streaming reader of committed history: feed it a log's records in
/// order and it yields each unit to apply as its last record arrives.
///
/// - `Begin`, or a DDL record, starts a unit — and discards a unit still
///   open, whose writer died before closing it. A DDL record is a whole
///   unit by itself and is yielded at once.
/// - A change (`Insert`, `Update`, `Delete`) joins the open unit; `Commit`
///   yields it; `Abort` drops it.
/// - A change, `Commit` or `Abort` of any transaction but the open one is
///   [`StorageError::Corrupt`], naming the transaction: the gate cannot
///   have written it, and guessing an order for it is how a replica comes
///   to differ from its primary.
#[derive(Debug, Default)]
pub struct UnitReader {
    /// The open unit: its transaction and the changes read so far.
    open: Option<(u64, Vec<LogRecord>)>,
    /// Highest transaction id read, committed or not.
    max_tx: u64,
}

impl UnitReader {
    /// Read the next record; the unit it completes, if it completes one.
    pub fn push(&mut self, rec: LogRecord) -> Result<Option<Vec<LogRecord>>> {
        let Some(tx) = rec.tx() else {
            self.open = None;
            return Ok(Some(vec![rec])); // DDL
        };
        self.max_tx = self.max_tx.max(tx);
        if let LogRecord::Begin { .. } = rec {
            self.open = Some((tx, Vec::new()));
            return Ok(None);
        }
        let Some((_, changes)) = self.open.as_mut().filter(|(open, _)| *open == tx) else {
            let open = self.open.as_ref().map(|(open, _)| open);
            return Err(StorageError::Corrupt(format!(
                "log holds a record of transaction {tx} outside its unit (open: {open:?})"
            )));
        };
        match rec {
            LogRecord::Commit { .. } => return Ok(self.open.take().map(|(_, changes)| changes)),
            LogRecord::Abort { .. } => self.open = None,
            change => changes.push(change),
        }
        Ok(None)
    }

    /// The floor new transaction ids must clear.
    pub fn max_tx(&self) -> u64 {
        self.max_tx
    }

    /// True while a unit is open (its `Commit` has not been read).
    pub fn is_open(&self) -> bool {
        self.open.is_some()
    }

    /// Drop the open unit: its `Commit` will never arrive (a promotion),
    /// or the stream restarts elsewhere (a reseed).
    pub fn discard(&mut self) {
        self.open = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structured::table::Column;
    use crate::value::{DataType, Value};

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::Begin { tx: 1 },
            LogRecord::Insert {
                tx: 1,
                table: "t".into(),
                row_id: RowId(3),
                row: vec![Value::Int(1), Value::Text("x".into()), Value::Null],
            },
            LogRecord::Update {
                tx: 1,
                table: "t".into(),
                row_id: RowId(3),
                row: vec![Value::Float(2.5)],
            },
            LogRecord::Delete { tx: 1, table: "t".into(), row_id: RowId(3) },
            LogRecord::Commit { tx: 1 },
            LogRecord::Abort { tx: 2 },
            LogRecord::CreateTable {
                schema: TableSchema::new("t", vec![Column::new("a", DataType::Int)], &["a"], &[])
                    .unwrap(),
            },
            LogRecord::DropTable { table: "t".into() },
            LogRecord::CreateIndex { table: "t".into(), column: "a".into() },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for r in sample_records() {
            let bytes = r.encode().unwrap();
            assert_eq!(bytes[0], BINARY_V1);
            assert_eq!(LogRecord::decode(&bytes).unwrap(), r);
        }
    }

    #[test]
    fn tx_extraction() {
        assert_eq!(LogRecord::Begin { tx: 9 }.tx(), Some(9));
        assert_eq!(LogRecord::DropTable { table: "x".into() }.tx(), None);
    }

    #[test]
    fn garbage_decodes_to_corrupt_error() {
        assert!(matches!(LogRecord::decode(b"not json"), Err(StorageError::Corrupt(_))));
        assert!(matches!(LogRecord::decode(b""), Err(StorageError::Corrupt(_))));
        // Valid format byte, bogus kind.
        assert!(matches!(LogRecord::decode(&[BINARY_V1, 99]), Err(StorageError::Corrupt(_))));
        // Truncated binary insert.
        let full = LogRecord::Insert {
            tx: 7,
            table: "tab".into(),
            row_id: RowId(1),
            row: vec![Value::Int(5)],
        }
        .encode()
        .unwrap();
        for cut in 1..full.len() {
            assert!(
                matches!(LogRecord::decode(&full[..cut]), Err(StorageError::Corrupt(_))),
                "prefix of {cut} bytes must not decode"
            );
        }
        // Trailing bytes are rejected too.
        let mut padded = full;
        padded.push(0);
        assert!(matches!(LogRecord::decode(&padded), Err(StorageError::Corrupt(_))));
    }
}
