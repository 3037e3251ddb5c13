//! Compact binary encoding for values, rows, and table schemas.
//!
//! The storage hot paths — WAL records, checkpoint heap pages, and the
//! persisted snapshot store — all encode through this module instead of
//! JSON (see `docs/storage.md` for the motivation and the byte-level
//! format). The encoding is length-prefixed throughout: integers are
//! LEB128 varints (signed values zigzag-encoded first), floats are their
//! IEEE-754 bits in little-endian order (so NaN payloads and signed zeros
//! round-trip exactly), and strings are a byte-length varint followed by
//! UTF-8 bytes. Nothing here is self-describing beyond a one-byte tag per
//! value; framing, versioning, and checksums belong to the callers
//! ([`crate::wal`], [`crate::page`], [`crate::snapshot`]).
//!
//! Writers are generic over [`std::io::Write`] so callers can stream
//! straight into a `BufWriter` without materializing the whole encoding;
//! readers work on in-memory slices with an explicit cursor and return
//! [`StorageError::Corrupt`] on any truncation, overlong varint, bad tag,
//! or invalid UTF-8.

use crate::error::StorageError;
use crate::structured::{Column, Row, TableSchema};
use crate::value::{DataType, Value, ValueRef};
use crate::Result;
use std::cmp::Ordering;
use std::io::Write;

/// Value tags. `Bool` gets two tags so every value is `tag + payload`
/// with no separate payload byte for booleans.
const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_TEXT: u8 = 5;

/// A `Corrupt` error, named for the codec. Cold, like every refusal of a
/// decoder that reads mostly valid bytes.
#[cold]
fn corrupt(what: &str) -> StorageError {
    StorageError::Corrupt(format!("binary codec: {what}"))
}

// ---------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------

/// Write an unsigned LEB128 varint (1–10 bytes).
pub fn write_u64<W: Write>(w: &mut W, mut v: u64) -> Result<()> {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            w.write_all(&[byte])?;
            return Ok(());
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Bytes [`write_u64`] writes for `v`.
pub(crate) fn u64_len(v: u64) -> usize {
    (u64::BITS - (v | 1).leading_zeros()).div_ceil(7) as usize
}

/// Read an unsigned LEB128 varint, advancing `pos` past every byte it
/// reads — on an error too, up to the byte that decided it. At most 10
/// bytes: the 10th carries bit 63 alone, so it must be 0 or 1. This runs
/// two or three times for every entry of a B-tree node the pool reads, so
/// a one-byte varint — nearly every length in a node — is decided by one
/// test inlined into the caller, and a longer one by a plain loop over
/// the bytes, free of iterator adaptors.
#[inline]
pub fn read_u64(data: &[u8], pos: &mut usize) -> Result<u64> {
    match data.get(*pos) {
        Some(&byte) if byte < 0x80 => {
            *pos += 1;
            Ok(u64::from(byte))
        }
        _ => read_long_u64(data, pos),
    }
}

/// [`read_u64`] past its one-byte case. Out of line, so that the case
/// every caller hits most is all that inlines into it.
#[inline(never)]
fn read_long_u64(data: &[u8], pos: &mut usize) -> Result<u64> {
    let mut out: u64 = 0;
    let mut shift = 0;
    while shift < 64 {
        let Some(&byte) = data.get(*pos) else {
            return Err(corrupt("truncated varint"));
        };
        *pos += 1;
        out |= u64::from(byte & 0x7F) << shift;
        if byte < 0x80 {
            if shift == 63 && byte > 1 {
                return Err(corrupt("varint overflows u64"));
            }
            return Ok(out);
        }
        shift += 7;
    }
    Err(corrupt("varint longer than 10 bytes"))
}

/// Write a signed integer, zigzag-encoded so small magnitudes stay small.
pub fn write_i64<W: Write>(w: &mut W, v: i64) -> Result<()> {
    write_u64(w, ((v << 1) ^ (v >> 63)) as u64)
}

/// Read a zigzag-encoded signed integer.
pub fn read_i64(data: &[u8], pos: &mut usize) -> Result<i64> {
    let z = read_u64(data, pos)?;
    Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
}

// ---------------------------------------------------------------------
// Strings and byte runs
// ---------------------------------------------------------------------

/// Write a length-prefixed string.
pub fn write_str<W: Write>(w: &mut W, s: &str) -> Result<()> {
    write_u64(w, s.len() as u64)?;
    w.write_all(s.as_bytes())?;
    Ok(())
}

/// Read `n` raw bytes, advancing `pos`.
fn read_exact<'d>(data: &'d [u8], pos: &mut usize, n: usize) -> Result<&'d [u8]> {
    let out = pos.checked_add(n).and_then(|end| data.get(*pos..end));
    let out = out.ok_or_else(|| corrupt("truncated byte run"))?;
    *pos += n;
    Ok(out)
}

/// Read a length-prefixed string.
pub fn read_str(data: &[u8], pos: &mut usize) -> Result<String> {
    Ok(read_str_ref(data, pos)?.to_string())
}

/// Read a length-prefixed string where it lies in `data`.
fn read_str_ref<'d>(data: &'d [u8], pos: &mut usize) -> Result<&'d str> {
    let len = read_u64(data, pos)?;
    let len = usize::try_from(len).map_err(|_| corrupt("string length overflows usize"))?;
    let bytes = read_exact(data, pos, len)?;
    std::str::from_utf8(bytes).map_err(|_| corrupt("string is not UTF-8"))
}

// ---------------------------------------------------------------------
// Values and rows
// ---------------------------------------------------------------------

/// Write one [`Value`] as `tag + payload`.
pub fn write_value<W: Write>(w: &mut W, v: &Value) -> Result<()> {
    match v {
        Value::Null => w.write_all(&[TAG_NULL])?,
        Value::Bool(false) => w.write_all(&[TAG_FALSE])?,
        Value::Bool(true) => w.write_all(&[TAG_TRUE])?,
        Value::Int(i) => {
            w.write_all(&[TAG_INT])?;
            write_i64(w, *i)?;
        }
        Value::Float(f) => {
            w.write_all(&[TAG_FLOAT])?;
            w.write_all(&f.to_bits().to_le_bytes())?;
        }
        Value::Text(s) => {
            w.write_all(&[TAG_TEXT])?;
            write_str(w, s)?;
        }
    }
    Ok(())
}

/// Read one [`Value`].
pub fn read_value(data: &[u8], pos: &mut usize) -> Result<Value> {
    Ok(read_value_ref(data, pos)?.to_value())
}

/// Read one value without copying it: text stays a `&str` into `data`.
fn read_value_ref<'d>(data: &'d [u8], pos: &mut usize) -> Result<ValueRef<'d>> {
    let &tag = data.get(*pos).ok_or_else(|| corrupt("truncated value tag"))?;
    *pos += 1;
    Ok(match tag {
        TAG_NULL => ValueRef::Null,
        TAG_FALSE => ValueRef::Bool(false),
        TAG_TRUE => ValueRef::Bool(true),
        TAG_INT => ValueRef::Int(read_i64(data, pos)?),
        TAG_FLOAT => {
            let mut bits = [0u8; 8];
            bits.copy_from_slice(read_exact(data, pos, 8)?);
            ValueRef::Float(f64::from_bits(u64::from_le_bytes(bits)))
        }
        TAG_TEXT => ValueRef::Text(read_str_ref(data, pos)?),
        other => return Err(corrupt(&format!("unknown value tag {other}"))),
    })
}

/// Write a row as `count + values`.
pub fn write_row<W: Write>(w: &mut W, row: &[Value]) -> Result<()> {
    write_u64(w, row.len() as u64)?;
    for v in row {
        write_value(w, v)?;
    }
    Ok(())
}

/// Write, as a row, the values `row` holds at `columns`, in that order.
pub(crate) fn write_columns<W: Write>(w: &mut W, row: &[Value], columns: &[usize]) -> Result<()> {
    write_u64(w, columns.len() as u64)?;
    for &column in columns {
        let value = row.get(column).ok_or_else(|| corrupt("row lacks a column asked of it"))?;
        write_value(w, value)?;
    }
    Ok(())
}

/// Read a row.
pub fn read_row(data: &[u8], pos: &mut usize) -> Result<Row> {
    let n = read_row_len(data, pos)?;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        row.push(read_value(data, pos)?);
    }
    Ok(row)
}

/// Read a row into `row`, replacing what it held and reusing what it can:
/// its allocation, and the buffer of each `Text` cell that decodes to text
/// again. A reader that decodes row after row into one `Row` allocates
/// only when a row is wider, or a text longer, than any before it. On an
/// error `row` holds some mix of the old and new cells.
pub fn read_row_into(data: &[u8], pos: &mut usize, row: &mut Row) -> Result<()> {
    let n = read_row_len(data, pos)?;
    row.truncate(n);
    for at in 0..n {
        let value = read_value_ref(data, pos)?;
        match (row.get_mut(at), value) {
            (Some(Value::Text(text)), ValueRef::Text(new)) => {
                text.clear();
                text.push_str(new);
            }
            (Some(cell), value) => *cell = value.to_value(),
            (None, value) => row.push(value.to_value()),
        }
    }
    Ok(())
}

/// A row's value count. Every value costs at least one tag byte, so a
/// count the rest of the input cannot hold is refused before anything is
/// sized by it.
fn read_row_len(data: &[u8], pos: &mut usize) -> Result<usize> {
    let n = read_u64(data, pos)?;
    let n = usize::try_from(n).map_err(|_| corrupt("row length overflows usize"))?;
    if n > data.len() - (*pos).min(data.len()) {
        return Err(corrupt("row length exceeds remaining input"));
    }
    Ok(n)
}

// ---------------------------------------------------------------------
// Comparing encodings
// ---------------------------------------------------------------------
//
// B-tree keys are compared on every probe of every binary search, so they
// are compared where they lie: values are read as [`ValueRef`]s (text
// stays a `&str` into the encoding) and ordered by the same total order
// owned [`Value`]s use. Each function reads *both* encodings to their end
// even once the order is decided, so it fails with `Corrupt` on exactly
// the inputs `read_value` / `read_row` would fail on.

/// Compare the value at `apos` in `a` with the one at `bpos` in `b`, as
/// `read_value(a).cmp(&read_value(b))` would, advancing both cursors.
pub(crate) fn compare_values(
    a: &[u8],
    apos: &mut usize,
    b: &[u8],
    bpos: &mut usize,
) -> Result<Ordering> {
    let (va, vb) = (read_value_ref(a, apos)?, read_value_ref(b, bpos)?);
    Ok(va.cmp(&vb))
}

/// Compare two encoded rows as `read_row(a).cmp(&read_row(b))` would:
/// value by value, a row that is a strict prefix of the other first.
pub(crate) fn compare_rows(
    a: &[u8],
    apos: &mut usize,
    b: &[u8],
    bpos: &mut usize,
) -> Result<Ordering> {
    let (na, nb) = (read_u64(a, apos)?, read_u64(b, bpos)?);
    let mut order = Ordering::Equal;
    for _ in 0..na.min(nb) {
        let next = compare_values(a, apos, b, bpos)?;
        order = order.then(next);
    }
    // The longer row's tail only has to decode. Every value is at least a
    // tag byte, so a hostile count runs out of input, not out of time.
    let (longer, pos) = if na > nb { (a, apos) } else { (b, bpos) };
    for _ in na.min(nb)..na.max(nb) {
        read_value_ref(longer, pos)?;
    }
    Ok(order.then(na.cmp(&nb)))
}

// ---------------------------------------------------------------------
// Schemas
// ---------------------------------------------------------------------

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Bool => 3,
    }
}

fn dtype_from_tag(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Text,
        3 => DataType::Bool,
        other => return Err(corrupt(&format!("unknown data-type tag {other}"))),
    })
}

/// Write a full [`TableSchema`]: name, columns, key column indexes, and
/// indexed column names.
pub fn write_schema<W: Write>(w: &mut W, schema: &TableSchema) -> Result<()> {
    write_str(w, &schema.name)?;
    write_u64(w, schema.columns.len() as u64)?;
    for col in &schema.columns {
        write_str(w, &col.name)?;
        w.write_all(&[dtype_tag(col.dtype), col.nullable as u8])?;
    }
    write_u64(w, schema.key.len() as u64)?;
    for &k in &schema.key {
        write_u64(w, k as u64)?;
    }
    write_u64(w, schema.indexes.len() as u64)?;
    for ix in &schema.indexes {
        write_str(w, ix)?;
    }
    Ok(())
}

/// Read a [`TableSchema`].
pub fn read_schema(data: &[u8], pos: &mut usize) -> Result<TableSchema> {
    let name = read_str(data, pos)?;
    let ncols = read_u64(data, pos)? as usize;
    let mut columns = Vec::new();
    for _ in 0..ncols {
        let cname = read_str(data, pos)?;
        let raw = read_exact(data, pos, 2)?;
        let dtype = dtype_from_tag(raw[0])?;
        let nullable = match raw[1] {
            0 => false,
            1 => true,
            other => return Err(corrupt(&format!("bad nullable byte {other}"))),
        };
        columns.push(if nullable {
            Column::nullable(&cname, dtype)
        } else {
            Column::new(&cname, dtype)
        });
    }
    let nkey = read_u64(data, pos)? as usize;
    let mut key = Vec::new();
    for _ in 0..nkey {
        let k = read_u64(data, pos)? as usize;
        if k >= columns.len() {
            return Err(corrupt(&format!("key column index {k} out of range")));
        }
        key.push(k);
    }
    let nix = read_u64(data, pos)? as usize;
    let mut indexes = Vec::new();
    for _ in 0..nix {
        indexes.push(read_str(data, pos)?);
    }
    // Re-resolve key/index names through the validating constructor so a
    // corrupt schema (dup columns, nullable key, ...) is rejected here.
    // Every key index was checked against `columns` above.
    let key_names: Vec<String> =
        key.iter().filter_map(|&k| columns.get(k)).map(|c| c.name.clone()).collect();
    let key_refs: Vec<&str> = key_names.iter().map(String::as_str).collect();
    let index_refs: Vec<&str> = indexes.iter().map(String::as_str).collect();
    TableSchema::new(&name, columns, &key_refs, &index_refs)
        .map_err(|e| corrupt(&format!("invalid schema: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rt_value(v: &Value) -> Value {
        let mut buf = Vec::new();
        write_value(&mut buf, v).unwrap();
        let mut pos = 0;
        let out = read_value(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len(), "no trailing bytes for {v:?}");
        out
    }

    #[test]
    fn varint_round_trip_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v).unwrap();
            let mut pos = 0;
            assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
            assert_eq!(u64_len(v), buf.len(), "{v}");
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300, 300] {
            let mut buf = Vec::new();
            write_i64(&mut buf, v).unwrap();
            let mut pos = 0;
            assert_eq!(read_i64(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn small_ints_encode_small() {
        let mut buf = Vec::new();
        write_i64(&mut buf, 42).unwrap();
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_i64(&mut buf, -42).unwrap();
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn special_floats_round_trip_bitwise() {
        for f in [0.0f64, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, f64::NAN] {
            match rt_value(&Value::Float(f)) {
                Value::Float(g) => assert_eq!(g.to_bits(), f.to_bits(), "{f:?}"),
                other => panic!("decoded {other:?}"),
            }
        }
    }

    #[test]
    fn values_and_rows_round_trip() {
        let row: Row = vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-7),
            Value::Float(2.5),
            Value::Text("héllo — ünïcode".into()),
            Value::Text(String::new()),
        ];
        let mut buf = Vec::new();
        write_row(&mut buf, &row).unwrap();
        let mut pos = 0;
        assert_eq!(read_row(&buf, &mut pos).unwrap(), row);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn schema_round_trip() {
        let schema = TableSchema::new(
            "cities",
            vec![
                Column::new("name", DataType::Text),
                Column::new("population", DataType::Int),
                Column::nullable("mayor", DataType::Text),
                Column::nullable("rainfall", DataType::Float),
                Column::new("coastal", DataType::Bool),
            ],
            &["name"],
            &["population", "mayor"],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_schema(&mut buf, &schema).unwrap();
        let mut pos = 0;
        assert_eq!(read_schema(&buf, &mut pos).unwrap(), schema);
        assert_eq!(pos, buf.len());
    }

    /// Corruption table for the codec itself: every case must surface as
    /// `StorageError::Corrupt`, never a panic or a wrong value (mirrors
    /// `wal::tests::frame_corruption_table`; the page-level cases live in
    /// `pager::tests`).
    #[test]
    fn decode_corruption_table() {
        struct Case {
            name: &'static str,
            bytes: Vec<u8>,
        }
        let unterminated = vec![TAG_INT, 0x80, 0x80, 0x80]; // continuation bits, then EOF
        let overlong = {
            let mut b = vec![TAG_INT];
            b.extend_from_slice(&[0x80; 10]);
            b.push(0x01); // an 11th varint byte
            b
        };
        let cases = [
            Case { name: "empty input", bytes: vec![] },
            Case { name: "unknown value tag", bytes: vec![9] },
            Case { name: "truncated varint (continuation bit at EOF)", bytes: unterminated },
            Case { name: "varint longer than 10 bytes", bytes: overlong },
            Case { name: "truncated float payload", bytes: vec![TAG_FLOAT, 1, 2, 3] },
            Case { name: "string length past EOF", bytes: vec![TAG_TEXT, 200, 1, b'x'] },
            Case { name: "string with invalid UTF-8", bytes: vec![TAG_TEXT, 2, 0xFF, 0xFE] },
        ];
        for case in &cases {
            let mut pos = 0;
            let got = read_value(&case.bytes, &mut pos);
            assert!(
                matches!(got, Err(StorageError::Corrupt(_))),
                "case {:?}: got {got:?}",
                case.name
            );
        }
        // A row whose declared length exceeds the input must fail before
        // allocating, not while reading values.
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX).unwrap();
        let mut pos = 0;
        assert!(matches!(read_row(&buf, &mut pos), Err(StorageError::Corrupt(_))));
    }

    /// The varint reader as it was, over a `step_by` iterator: the oracle
    /// for [`read_u64`]'s plain loop.
    fn read_u64_oracle(data: &[u8], pos: &mut usize) -> Result<u64> {
        let mut out: u64 = 0;
        for shift in (0..64).step_by(7) {
            let &byte = data.get(*pos).ok_or_else(|| corrupt("truncated varint"))?;
            *pos += 1;
            out |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                if shift == 63 && byte > 1 {
                    return Err(corrupt("varint overflows u64"));
                }
                return Ok(out);
            }
        }
        Err(corrupt("varint longer than 10 bytes"))
    }

    /// Both readers on `data` from `start`: the value or the error's text,
    /// and where each left `pos`.
    fn varint_verdicts(
        data: &[u8],
        start: usize,
    ) -> [(std::result::Result<u64, String>, usize); 2] {
        [read_u64, read_u64_oracle].map(|read| {
            let mut pos = start;
            (read(data, &mut pos).map_err(|e| e.to_string()), pos)
        })
    }

    #[track_caller]
    fn assert_same_varint_verdict(data: &[u8], start: usize) {
        let [got, want] = varint_verdicts(data, start);
        assert_eq!(got, want, "{data:02x?} from {start}");
    }

    /// Every length from 1 to 10 bytes, each with every final byte and
    /// with continuation bytes of several shapes (so non-minimal encodings
    /// like `80 00` are in), each also cut short at every byte; a 10th byte
    /// of 2..=0x7F; a run of 11 continuation bytes; and a trailing byte
    /// after each varint, which neither reader may consume.
    #[test]
    fn the_varint_loop_reads_every_encoding_like_the_iterator_it_replaced() {
        let mut cases = 0;
        for len in 1..=10usize {
            for lead in [0x80u8, 0x81, 0xC3, 0xFF] {
                for last in 0..=0x7Fu8 {
                    let mut bytes = vec![lead; len - 1];
                    bytes.push(last);
                    bytes.push(0x05);
                    for cut in 0..=bytes.len() {
                        assert_same_varint_verdict(&bytes[..cut], 0);
                        cases += 1;
                    }
                    assert_same_varint_verdict(&[&[0x01][..], &bytes].concat(), 1);
                }
            }
        }
        for tenth in 2..=0x7Fu8 {
            let mut bytes = vec![0xFF; 9];
            bytes.push(tenth);
            assert_same_varint_verdict(&bytes, 0);
            let [(got, pos), _] = varint_verdicts(&bytes, 0);
            assert_eq!(
                (got, pos),
                (Err("corrupt data: binary codec: varint overflows u64".into()), 10)
            );
        }
        for run in [&[0x80u8; 11][..], &[0xFF; 11], &[0x80; 12]] {
            assert_same_varint_verdict(run, 0);
            let [(got, pos), _] = varint_verdicts(run, 0);
            assert_eq!(
                (got, pos),
                (Err("corrupt data: binary codec: varint longer than 10 bytes".into()), 10)
            );
        }
        assert_same_varint_verdict(&[], 0);
        assert_same_varint_verdict(&[0x01], 1);
        assert_same_varint_verdict(&[0x01], 7);
        assert_eq!(cases, 4 * 128 * (3..=12).sum::<usize>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Random bytes from a random start: the same value or the same
        /// error text, and the same `pos`, for the loop and the oracle.
        #[test]
        fn prop_the_varint_loop_agrees_with_the_iterator_on_random_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..24),
            high in proptest::collection::vec(0x80u8..=0xFF, 0..12),
            start in 0usize..26,
        ) {
            // Random bytes rarely hold long varints; a run of continuation
            // bytes in front makes them common.
            for data in [&bytes, &[&high[..], &bytes].concat()] {
                let [got, want] = varint_verdicts(data, start.min(data.len() + 1));
                prop_assert_eq!(got, want);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_value_round_trip(
            picks in proptest::collection::vec(
                (0u8..6, any::<i64>(), -1.0e300f64..1.0e300, "[ -~]{0,24}"),
                0..12,
            )
        ) {
            let row: Row = picks
                .into_iter()
                .map(|(tag, i, f, s)| match tag {
                    0 => Value::Null,
                    1 => Value::Bool(false),
                    2 => Value::Bool(true),
                    3 => Value::Int(i),
                    4 => Value::Float(f),
                    _ => Value::Text(s),
                })
                .collect();
            let mut buf = Vec::new();
            write_row(&mut buf, &row).unwrap();
            let mut pos = 0;
            let decoded = read_row(&buf, &mut pos).unwrap();
            prop_assert_eq!(pos, buf.len());
            prop_assert_eq!(decoded, row);
        }

        /// Comparing two encodings equals decoding both and comparing the
        /// values, for single values and for rows of any arity — including
        /// Int against Float, signed zeros and both NaNs — and fails with
        /// `Corrupt` exactly when a decode would: each encoding is also
        /// tried cut short and with a tag no value has.
        #[test]
        fn prop_comparing_encodings_equals_comparing_values(
            picks in proptest::collection::vec(
                (0u8..14, any::<i64>(), "[a-c]{0,3}", any::<bool>()),
                0..10,
            ),
            split in 0usize..10,
            damage in (0usize..40, any::<bool>(), any::<bool>()),
        ) {
            let mut values: Vec<Value> = picks
                .into_iter()
                .map(|(tag, i, s, small)| {
                    let i = if small { i % 3 } else { i };
                    match tag {
                        0 => Value::Null,
                        1 => Value::Bool(small),
                        2..=4 => Value::Int(i),
                        5 => Value::Float(i as f64),
                        6 => Value::Float(f64::from_bits(i as u64)),
                        7 => Value::Float(if small { 0.0 } else { -0.0 }),
                        8 => Value::Float(if small { f64::NAN } else { -f64::NAN }),
                        9 => Value::Float(if small { f64::INFINITY } else { f64::NEG_INFINITY }),
                        10 => Value::Float(i as f64 + 0.5),
                        _ => Value::Text(s),
                    }
                })
                .collect();
            let right = values.split_off(split.min(values.len()));
            let (left, right) = (values, right);

            // Decode-then-compare: the definition the comparison must meet.
            let by_decoding = |a: &[u8], b: &[u8]| -> Result<Ordering> {
                Ok(read_row(a, &mut 0)?.cmp(&read_row(b, &mut 0)?))
            };
            let (mut a, mut b) = (Vec::new(), Vec::new());
            write_row(&mut a, &left).unwrap();
            write_row(&mut b, &right).unwrap();
            prop_assert_eq!(compare_rows(&a, &mut 0, &b, &mut 0).unwrap(), left.cmp(&right));
            prop_assert_eq!(compare_rows(&b, &mut 0, &a, &mut 0).unwrap(), right.cmp(&left));
            prop_assert_eq!(compare_rows(&a, &mut 0, &a, &mut 0).unwrap(), Ordering::Equal);

            // Value against value, every pair across the two rows.
            for x in &left {
                for y in &right {
                    let (mut ex, mut ey) = (Vec::new(), Vec::new());
                    write_value(&mut ex, x).unwrap();
                    write_value(&mut ey, y).unwrap();
                    let (px, py) = (&mut 0, &mut 0);
                    prop_assert_eq!(compare_values(&ex, px, &ey, py).unwrap(), x.cmp(y));
                    prop_assert_eq!((*px, *py), (ex.len(), ey.len()), "both cursors advance");
                }
            }

            // Damage one side: cut it short, or overwrite a byte with a tag
            // no value has. Both paths must agree, error or not — the
            // damaged byte may sit past where the order was decided, or
            // inside a string where it is only data.
            let (at, truncate, damage_left) = damage;
            let (hurt, other) = if damage_left { (&a, &b) } else { (&b, &a) };
            let mut bad = hurt.clone();
            let at = at % bad.len();
            if truncate {
                bad.truncate(at);
            } else {
                bad[at] = 0x7F;
            }
            for (x, y) in [(&bad, other), (other, &bad)] {
                match (compare_rows(x, &mut 0, y, &mut 0), by_decoding(x, y)) {
                    (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
                    (Err(StorageError::Corrupt(_)), Err(StorageError::Corrupt(_))) => {}
                    (got, want) => prop_assert!(false, "borrowed {got:?}, decoded {want:?}"),
                }
            }
        }

        /// Rows of any arity decoded one after another into one row read
        /// exactly as `read_row` reads each alone: no cell, text byte or
        /// trailing value of an earlier row survives into a later one.
        #[test]
        fn prop_read_row_into_reads_each_row_as_read_row_does(
            rows in proptest::collection::vec(
                proptest::collection::vec((0u8..4, any::<i64>(), 0usize..24), 0..6),
                1..12,
            ),
        ) {
            let mut scratch = Row::new();
            for cells in rows {
                let row: Row = cells
                    .into_iter()
                    .map(|(tag, i, len)| match tag {
                        0 => Value::Null,
                        1 => Value::Int(i),
                        _ => Value::Text("x".repeat(len)),
                    })
                    .collect();
                let mut buf = Vec::new();
                write_row(&mut buf, &row).unwrap();
                let (into, alone) = (&mut 0, &mut 0);
                read_row_into(&buf, into, &mut scratch).unwrap();
                prop_assert_eq!(&scratch, &read_row(&buf, alone).unwrap());
                prop_assert_eq!(*into, *alone);
            }
        }

        #[test]
        fn prop_varints_round_trip(vs in proptest::collection::vec(any::<u64>(), 0..64)) {
            let mut buf = Vec::new();
            for &v in &vs {
                write_u64(&mut buf, v).unwrap();
            }
            let mut pos = 0;
            for &v in &vs {
                prop_assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
            }
            prop_assert_eq!(pos, buf.len());
        }

        #[test]
        fn prop_truncated_rows_never_panic(
            row in proptest::collection::vec((0u8..6, any::<i64>()), 1..8),
            cut in 0usize..64,
        ) {
            let row: Row = row
                .into_iter()
                .map(|(tag, i)| match tag {
                    0 => Value::Null,
                    1 => Value::Bool(true),
                    2 => Value::Int(i),
                    3 => Value::Float(i as f64),
                    _ => Value::Text(format!("v{i}")),
                })
                .collect();
            let mut buf = Vec::new();
            write_row(&mut buf, &row).unwrap();
            let cut = cut.min(buf.len().saturating_sub(1));
            let mut pos = 0;
            // Any strict prefix decodes to Corrupt, never panics.
            let _ = read_row(&buf[..cut], &mut pos);
        }
    }
}
