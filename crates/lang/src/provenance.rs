//! Cell provenance: the `_provenance` system table.
//!
//! Blueprint Part V provides "the provenance and explanation for the
//! derived structured data". `STORE` writes one row here per non-null
//! cell, keyed `(table, key, column)`, in the transaction that writes the
//! cell; an applied user correction writes its cell and a [`Source::User`]
//! row in one transaction too. Provenance is recorded when the value is,
//! never reconstructed afterwards, and it is on the database's own log:
//! it outlasts a new crawl and a restart, and is checkpointed and
//! replicated like any table. This module owns the table's schema, writes
//! and reads.

use quarry_corpus::DocId;
use quarry_extract::{Extraction, Span};
use quarry_storage::{
    Column, DataType, Database, DbSnapshot, Result, Row, ScanAccess, StorageError, TableSchema,
    TxId, Value,
};
use std::fmt;

/// The system table holding every stored cell's source.
pub const TABLE: &str = "_provenance";

/// `_provenance`'s columns: the key `(table, key, column)`, then an
/// extracted source's fields, then a user's (null when not that source).
const COLUMNS: [(&str, DataType); 11] = [
    ("table", DataType::Text),
    ("key", DataType::Text),
    ("column", DataType::Text),
    ("doc", DataType::Int),
    ("span_start", DataType::Int),
    ("span_end", DataType::Int),
    ("extractor", DataType::Text),
    ("confidence", DataType::Float),
    ("raw", DataType::Text),
    ("user", DataType::Text),
    ("proposal", DataType::Text),
];

/// Where one stored cell's value came from.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// Written by `STORE`: the extraction resolution picked for the cell.
    Extracted {
        /// The document read.
        doc: DocId,
        /// Where in the document the value was read.
        span: Span,
        /// The extractor that read it.
        extractor: String,
        /// The extractor's confidence.
        confidence: f64,
        /// The text at `span` the value was normalized from.
        raw: String,
    },
    /// Written by an applied correction; `STORE` never overwrites it.
    User {
        /// The user who proposed the correction.
        user: String,
        /// The proposal applied.
        proposal: String,
    },
}

impl Source {
    /// The source of a cell holding `e`'s value.
    pub fn extracted(e: &Extraction) -> Source {
        let (doc, span, confidence, raw) = (e.doc, e.span, e.confidence, e.raw.clone());
        Source::Extracted { doc, span, extractor: e.extractor.to_string(), confidence, raw }
    }
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Source::Extracted { doc, span, extractor, confidence, raw } => {
                let (start, end) = (span.start, span.end);
                write!(f, "{doc} [{start}..{end}): {raw:?} via {extractor}")?;
                write!(f, " (confidence {confidence:.2})")
            }
            Source::User { user, proposal } => write!(f, "corrected by {user} ({proposal})"),
        }
    }
}

/// One cell's address in `_provenance`.
#[derive(Debug, Clone, Copy)]
pub struct Cell<'a> {
    /// The table holding the cell.
    pub table: &'a str,
    /// The row's primary key, rendered by [`key_text`].
    pub key: &'a str,
    /// The cell's column.
    pub column: &'a str,
}

impl Cell<'_> {
    fn pk(&self) -> [Value; 3] {
        [self.table.into(), self.key.into(), self.column.into()]
    }
}

/// A row key as `_provenance` stores it: the key's values, rendered and
/// joined by the ASCII unit separator. A table's key columns have fixed
/// types, so within one table distinct keys render distinctly.
pub fn key_text(key: &[Value]) -> String {
    key.iter().map(Value::to_string).collect::<Vec<_>>().join("\u{1f}")
}

/// Create `_provenance` if the database does not hold it yet. DDL is its
/// own unit, so call this before opening the transaction that writes.
pub fn ensure(db: &Database) -> Result<()> {
    let Err(StorageError::NoSuchTable(_)) = db.schema(TABLE) else { return Ok(()) };
    let columns = COLUMNS.iter().enumerate().map(|(i, &(name, dtype))| match i {
        0..3 => Column::new(name, dtype),
        _ => Column::nullable(name, dtype),
    });
    db.create_table(TableSchema::new(TABLE, columns.collect(), &["table", "key", "column"], &[])?)
}

fn encode(cell: Cell<'_>, source: &Source) -> Row {
    let mut row: Row = cell.pk().into();
    match source {
        Source::Extracted { doc, span, extractor, confidence, raw } => row.extend([
            Value::Int(doc.0.into()),
            Value::Int(span.start as i64),
            Value::Int(span.end as i64),
            extractor.as_str().into(),
            Value::Float(*confidence),
            raw.as_str().into(),
            Value::Null,
            Value::Null,
        ]),
        Source::User { user, proposal } => {
            row.extend(std::iter::repeat_n(Value::Null, 6));
            row.extend([user.as_str().into(), proposal.as_str().into()]);
        }
    }
    row
}

fn decode(row: &[Value]) -> Result<Source> {
    use Value::{Float, Int, Null, Text};
    let index = |n: &i64| usize::try_from(*n).ok();
    match row.get(3..).unwrap_or_default() {
        [Int(doc), Int(start), Int(end), Text(extractor), Float(confidence), Text(raw), Null, Null] => {
            match (u32::try_from(*doc), index(start), index(end)) {
                (Ok(doc), Some(start), Some(end)) if start <= end => {
                    let (doc, span, confidence) = (DocId(doc), Span { start, end }, *confidence);
                    let (extractor, raw) = (extractor.clone(), raw.clone());
                    return Ok(Source::Extracted { doc, span, extractor, confidence, raw });
                }
                _ => {}
            }
        }
        [Null, Null, Null, Null, Null, Null, Text(user), Text(proposal)] => {
            return Ok(Source::User { user: user.clone(), proposal: proposal.clone() });
        }
        _ => {}
    }
    Err(StorageError::SchemaViolation(format!("malformed {TABLE} row {row:?}")))
}

/// The source recorded for `cell`, as transaction `tx` sees it; `None`
/// when there is none (or no `_provenance` yet).
pub fn get(db: &Database, tx: TxId, cell: Cell<'_>) -> Result<Option<Source>> {
    match db.get(tx, TABLE, &cell.pk()) {
        Ok(row) => decode(&row).map(Some),
        Err(StorageError::NotFound(_) | StorageError::NoSuchTable(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Record `source` for `cell` inside `tx`, replacing what was there, for
/// a caller that has not read the cell's source ([`replace`] is for one
/// that has). `_provenance` must exist ([`ensure`]).
pub fn set(db: &Database, tx: TxId, cell: Cell<'_>, source: &Source) -> Result<()> {
    let recorded = get(db, tx, cell)?;
    replace(db, tx, cell, recorded.is_some(), Some(source))
}

/// Replace `cell`'s source inside `tx` by `source` (`None` removes it),
/// where `recorded` says whether [`get`] found a source for the cell in
/// `tx`: the row is inserted, updated or deleted without a second look.
pub fn replace(
    db: &Database,
    tx: TxId,
    cell: Cell<'_>,
    recorded: bool,
    source: Option<&Source>,
) -> Result<()> {
    match (recorded, source) {
        (false, None) => Ok(()),
        (false, Some(source)) => db.insert(tx, TABLE, encode(cell, source)).map(drop),
        (true, Some(source)) => db.update(tx, TABLE, &cell.pk(), encode(cell, source)),
        (true, None) => db.delete(tx, TABLE, &cell.pk()),
    }
}

/// Delete every `_provenance` row of `table` inside `tx`, before any
/// other write of `tx`: a table created afresh must not inherit the
/// sources (user corrections above all) of a dropped table of its name.
pub fn forget_table(db: &Database, tx: TxId, table: &str) -> Result<()> {
    let (snap, name) = (db.snapshot(), Value::from(table));
    let Ok(view) = snap.table(TABLE) else { return Ok(()) };
    let (rows, _) = view.select(ScanAccess::Full, &mut |row| row.first() == Some(&name), None)?;
    rows.iter().try_for_each(|row| db.delete(tx, TABLE, row.get(..3).unwrap_or_default()))
}

/// One stored cell and the source recorded for it (`None` when no
/// `STORE` or correction wrote the cell).
#[derive(Debug, Clone, PartialEq)]
pub struct CellSource {
    /// The cell's column.
    pub column: String,
    /// The stored value.
    pub value: Value,
    /// Where the value came from.
    pub source: Option<Source>,
}

/// A stored row's explanation: its non-null cells in column order, each
/// with its source.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The row's table.
    pub table: String,
    /// The row's primary key.
    pub key: Vec<Value>,
    /// The row's non-null cells.
    pub cells: Vec<CellSource>,
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let key: Vec<String> = self.key.iter().map(Value::to_string).collect();
        write!(f, "row of {}: {}", self.table, key.join(", "))?;
        for CellSource { column, value, source } in &self.cells {
            let source = source.as_ref().map_or("no recorded source".into(), Source::to_string);
            write!(f, "\n  {column} = {value} <- {source}")?;
        }
        Ok(())
    }
}

/// Explain the row of `table` keyed `key` with the sources `_provenance`
/// holds at `snap`'s LSN. A missing row is `NotFound`.
pub fn explain(snap: &DbSnapshot, table: &str, key: &[Value]) -> Result<Explanation> {
    let (rows, _) = snap.select(table, ScanAccess::Pk { key }, &mut |_| true, None)?;
    let row = rows.into_iter().next();
    let row = row.ok_or_else(|| StorageError::NotFound(format!("{table} key {key:?}")))?;
    let key_text = key_text(key);
    let mut cells = Vec::new();
    for (column, value) in snap.schema(table)?.columns.into_iter().zip(row) {
        if value.is_null() {
            continue;
        }
        let pk = Cell { table, key: &key_text, column: &column.name }.pk();
        let source = match snap.select(TABLE, ScanAccess::Pk { key: &pk }, &mut |_| true, None) {
            Ok((found, _)) => found.first().map(|row| decode(row)).transpose()?,
            Err(StorageError::NoSuchTable(_)) => None,
            Err(e) => return Err(e),
        };
        cells.push(CellSource { column: column.name, value, source });
    }
    Ok(Explanation { table: table.to_string(), key: key.to_vec(), cells })
}
