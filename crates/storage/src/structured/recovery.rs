//! What the log holds and which of it is history: the WAL record codec
//! and the one reader of committed units.
//!
//! **Records** ([`LogRecord`]) are binary-encoded through [`crate::codec`]
//! (one per WAL frame), prefixed with the format byte `0x01` (binary-v1) —
//! the only format written or read. Each kind has one layout, and a row
//! change's is written from borrowed parts — a head (`write_change`), then
//! its row — so the engine logs a change from the row it is about to
//! store, without building a record. A batch of inserts is logged by
//! `RunWriter` as `InsertRun` records — the transaction, table and first
//! row id once, then the rows — each sealed at [`RUN_BUDGET`] payload
//! bytes; a run of one row is sealed as an `Insert`, the bytes
//! [`LogRecord::encode`] writes for one. Logs from before the paged
//! engine held JSON records; one of those (first byte `{`) is refused by
//! name, like any other unknown format byte.
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
use crate::wal::{Frames, FRAME_HEADER};
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
const K_INSERT_RUN: u8 = 9;

/// Payload bytes at which `RunWriter` seals a run and starts the next:
/// a batch's frame holds at most this plus one row, so a replica's
/// shipping port, whose frame limit is far above it, takes every frame
/// the engine writes.
pub const RUN_BUDGET: usize = 64 * 1024;

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
    /// Rows inserted by `tx` in one batch, under consecutive row ids
    /// from `first_row_id` (a batch of one row is logged as an `Insert`).
    InsertRun {
        /// Transaction id.
        tx: u64,
        /// Target table.
        table: String,
        /// Heap row id of the first row; row `i` has `first_row_id + i`.
        first_row_id: RowId,
        /// The inserted rows, at least one.
        rows: Vec<Row>,
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

/// Write the `Insert` record of `row` from its borrowed parts, for
/// [`LogRecord::encode`]: the bytes [`RunWriter`] writes for a run of one
/// row.
fn write_insert(w: &mut Vec<u8>, tx: u64, table: &str, row_id: RowId, row: &[Value]) -> Result<()> {
    write_change(w, K_INSERT, tx, table, row_id)?;
    codec::write_row(w, row)
}

/// Write the `InsertRun` record of `rows`; as [`write_insert`].
fn write_insert_run(
    w: &mut Vec<u8>,
    tx: u64,
    table: &str,
    first_row_id: RowId,
    rows: &[Row],
) -> Result<()> {
    write_change(w, K_INSERT_RUN, tx, table, first_row_id)?;
    rows.iter().try_for_each(|row| codec::write_row(w, row))
}

/// Write the `Update` record of `row` from its borrowed parts: the one
/// encoder of the kind. The engine logs with it straight into the WAL's
/// frame buffer; [`LogRecord::encode`] is its owned-record caller.
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

/// Write the `Delete` record of `row_id`; as [`write_update`].
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
            LogRecord::InsertRun { tx, table, first_row_id, rows } => {
                write_insert_run(w, *tx, table, *first_row_id, rows)
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
            K_INSERT_RUN => Self::decode_run(data, pos)?,
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

    /// An `InsertRun`'s fields, read from `pos`; its rows run to the end of
    /// `data`. A run of no rows, a row of no values (what a stray zero
    /// byte after the last row reads as) and row ids past `u64` are
    /// refused: no engine writes them.
    fn decode_run(data: &[u8], pos: &mut usize) -> Result<LogRecord> {
        let (tx, table) = (codec::read_u64(data, pos)?, codec::read_str(data, pos)?);
        let first = codec::read_u64(data, pos)?;
        let mut rows = Vec::new();
        while *pos < data.len() {
            let row = codec::read_row(data, pos)?;
            if row.is_empty() {
                return Err(StorageError::Corrupt("insert run holds a row of no values".into()));
            }
            rows.push(row);
        }
        if rows.is_empty() {
            return Err(StorageError::Corrupt("insert run of no rows".into()));
        }
        if first.checked_add(rows.len() as u64).is_none() {
            return Err(StorageError::Corrupt(format!(
                "insert run of {} rows from row id {first} overflows the row ids",
                rows.len()
            )));
        }
        Ok(LogRecord::InsertRun { tx, table, first_row_id: RowId(first), rows })
    }

    /// The transaction this record belongs to, if any (DDL records are
    /// auto-committed and carry no transaction).
    pub fn tx(&self) -> Option<u64> {
        match self {
            LogRecord::Begin { tx }
            | LogRecord::Insert { tx, .. }
            | LogRecord::InsertRun { tx, .. }
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

/// Logs a batch of inserts of transaction `tx` into table `table` as runs,
/// straight from the rows the engine is about to store: [`RunWriter::push`]
/// each row under the id it gets, then [`RunWriter::finish`]. Rows with
/// consecutive ids share a run until its payload reaches [`RUN_BUDGET`];
/// a run that ends up with one row is sealed as an `Insert`, byte for
/// byte the record a single insert writes.
pub(crate) struct RunWriter<'a> {
    tx: u64,
    table: &'a str,
    /// Log the transaction's `Begin` before the first row.
    begin: bool,
    /// The run being written: where its frame starts, its first row id and
    /// the rows it holds.
    open: Option<(usize, u64, u64)>,
}

impl<'a> RunWriter<'a> {
    /// A writer for a batch; `begin` when the batch is its transaction's
    /// first change, whose `Begin` then precedes the first row. A batch
    /// that pushes no row writes nothing.
    pub(crate) fn new(tx: u64, table: &'a str, begin: bool) -> RunWriter<'a> {
        RunWriter { tx, table, begin, open: None }
    }

    /// Write `row`, which the table files under `row_id`.
    pub(crate) fn push(
        &mut self,
        frames: &mut Frames<'_>,
        row_id: RowId,
        row: &[Value],
    ) -> Result<()> {
        if std::mem::take(&mut self.begin) {
            let start = frames.open();
            write_mark(frames.buf(), K_BEGIN, self.tx)?;
            frames.seal(start)?;
        }
        let (start, first, rows) = match self.open {
            Some((start, first, rows)) if first + rows == row_id.0 => (start, first, rows),
            _ => {
                self.finish(frames)?;
                let start = frames.open();
                write_change(frames.buf(), K_INSERT_RUN, self.tx, self.table, row_id)?;
                (start, row_id.0, 0)
            }
        };
        codec::write_row(frames.buf(), row)?;
        self.open = Some((start, first, rows + 1));
        if frames.payload_len(start) >= RUN_BUDGET {
            self.finish(frames)?;
        }
        Ok(())
    }

    /// Seal the open run, if any: the last of the batch, or one that
    /// reached the budget.
    pub(crate) fn finish(&mut self, frames: &mut Frames<'_>) -> Result<()> {
        let Some((start, _, rows)) = self.open.take() else { return Ok(()) };
        if rows == 1 {
            // Past the frame header: the format byte, then the kind.
            if let Some(kind) = frames.buf().get_mut(start + FRAME_HEADER + 1) {
                *kind = K_INSERT;
            }
        }
        frames.seal(start)
    }
}

/// The streaming reader of committed history: feed it a log's records in
/// order and it yields each unit to apply as its last record arrives.
///
/// - `Begin`, or a DDL record, starts a unit — and discards a unit still
///   open, whose writer died before closing it. A DDL record is a whole
///   unit by itself and is yielded at once.
/// - A change (`Insert`, `InsertRun`, `Update`, `Delete`) joins the open
///   unit; `Commit` yields it; `Abort` drops it.
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
            LogRecord::InsertRun {
                tx: 1,
                table: "t".into(),
                first_row_id: RowId(4),
                rows: vec![vec![Value::Int(4)], vec![Value::Text("é".into()), Value::Null]],
            },
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

    fn run(first_row_id: u64, rows: Vec<Row>) -> Vec<u8> {
        let (tx, table) = (7, "tab".into());
        LogRecord::InsertRun { tx, table, first_row_id: RowId(first_row_id), rows }
            .encode()
            .unwrap()
    }

    /// A run's rows run to the end of its payload, so a hostile one can
    /// only be told by what it holds: every damaged or impossible run is
    /// `Corrupt`, and none panics.
    #[test]
    fn a_hostile_insert_run_decodes_to_corrupt() {
        let rows = || vec![vec![Value::Int(1), Value::Text("ab".into())], vec![Value::Int(2)]];
        let full = run(10, rows());
        assert!(matches!(LogRecord::decode(&full), Ok(LogRecord::InsertRun { .. })));
        let corrupt = |bytes: &[u8], what: &str| {
            let got = std::panic::catch_unwind(|| LogRecord::decode(bytes));
            assert!(matches!(got, Ok(Err(StorageError::Corrupt(_)))), "{what}: {got:?}");
        };
        // Empty: the head and no row at all.
        let head = full.len() - rows().iter().map(|r| encoded_row(r).len()).sum::<usize>();
        corrupt(&full[..head], "a run of no rows");
        // Every cut inside the rows is a truncated row.
        for cut in head + 1..full.len() {
            if cut != head + encoded_row(&rows()[0]).len() {
                corrupt(&full[..cut], &format!("cut at {cut}"));
            }
        }
        // Trailing bytes: a stray zero (a row of no values) or a row cut short.
        for tail in [&[0u8][..], &[1], &[2, 0]] {
            corrupt(&[&full[..], tail].concat(), &format!("trailing {tail:?}"));
        }
        // Row ids past `u64::MAX`: the last row's id would not fit.
        corrupt(&run(u64::MAX - 1, rows()), "first + 2 overflows");
        assert!(LogRecord::decode(&run(u64::MAX - 2, rows())).is_ok(), "first + 2 is u64::MAX");
        // Any single byte flipped or dropped decodes to something or is
        // refused, and never panics.
        for at in 0..full.len() {
            for damaged in [
                [&full[..at], &[full[at] ^ 0xFF], &full[at + 1..]].concat(),
                [&full[..at], &full[at + 1..]].concat(),
            ] {
                assert!(std::panic::catch_unwind(|| LogRecord::decode(&damaged)).is_ok(), "{at}");
            }
        }
    }

    fn encoded_row(row: &[Value]) -> Vec<u8> {
        let mut out = Vec::new();
        codec::write_row(&mut out, row).unwrap();
        out
    }

    /// Frames as [`RunWriter`] leaves them in a log buffer, decoded.
    fn written(batch: &[(u64, Row)]) -> Vec<(usize, LogRecord)> {
        let p = std::env::temp_dir().join(format!("quarry-runs-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let mut wal = crate::wal::Wal::open(&p).unwrap();
        wal.append_frames(|frames| {
            let mut run = RunWriter::new(3, "t", true);
            batch.iter().try_for_each(|(id, row)| run.push(frames, RowId(*id), row))?;
            run.finish(frames)
        })
        .unwrap();
        wal.sync().unwrap();
        let out = crate::wal::Wal::replay(&p)
            .unwrap()
            .iter()
            .map(|payload| (payload.len(), LogRecord::decode(payload).unwrap()))
            .collect();
        let _ = std::fs::remove_file(&p);
        out
    }

    /// One row is an `Insert`, byte for byte; consecutive ids share a run;
    /// a gap in the ids or the budget starts the next.
    #[test]
    fn a_run_writer_logs_begin_then_runs_sealed_at_the_budget() {
        let row = |i: u64| vec![Value::Int(i as i64), Value::Text("x".repeat(100))];
        let one = written(&[(5, row(5))]);
        let insert = LogRecord::Insert { tx: 3, table: "t".into(), row_id: RowId(5), row: row(5) };
        assert_eq!(
            one.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
            [LogRecord::Begin { tx: 3 }, insert.clone()]
        );
        assert_eq!(one[1].0, insert.encode().unwrap().len());

        let gap: Vec<(u64, Row)> = [1, 2, 3, 7, 8].map(|i| (i, row(i))).to_vec();
        let kinds: Vec<(u64, usize)> = written(&gap)
            .into_iter()
            .filter_map(|(_, rec)| match rec {
                LogRecord::InsertRun { first_row_id, rows, .. } => {
                    Some((first_row_id.0, rows.len()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(kinds, [(1, 3), (7, 2)]);

        let many: Vec<(u64, Row)> = (0..2_000).map(|i| (i, row(i))).collect();
        let runs = written(&many);
        assert!(runs.len() > 3, "{} frames", runs.len());
        let mut next = 0;
        for (bytes, rec) in &runs[1..] {
            let LogRecord::InsertRun { first_row_id, rows, .. } = rec else { panic!("{rec:?}") };
            assert_eq!(first_row_id.0, next);
            assert!(*bytes < RUN_BUDGET + 120, "a run of {bytes} bytes");
            next += rows.len() as u64;
        }
        assert_eq!(next, 2_000);
    }
}
