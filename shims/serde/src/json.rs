//! The JSON reader and writer behind the serde shim, and [`Json`], the one
//! type that holds any JSON value.
//!
//! There is no tree in between: a type reads itself from a [`Reader`] over
//! the borrowed input and writes itself into the caller's buffer. `Json` is
//! one more type that does both, for callers that want a document to walk:
//! [`parse`] is its `Deserialize`, [`to_string`] its `Serialize`.
//!
//! The reader reads input that may be hostile (it is the wire decoder of
//! `quarry-serve`), so it promises three things whatever the bytes are:
//!
//! - **Linear time.** Every input byte is looked at a bounded number of
//!   times: a string is taken one run at a time (up to the next `"` or
//!   `\`), never one character at a time against the rest of the input.
//! - **Bounded stack.** Arrays and objects nest at most [`MAX_DEPTH`]
//!   deep, counted on every path, a value skipped under an unknown key
//!   included; beyond that the input is refused, not followed.
//! - **Bounded messages.** An error names an offset or a JSON kind
//!   ([`Reader::mismatch`]), never the offending text, so it stays short
//!   however large the input was.
//!
//! The writer is the mirror image: clean runs of a string are pushed
//! whole, and a number is formatted into the output, not into a string
//! of its own first.

use crate::{Deserialize, Serialize};
use std::borrow::Cow;
use std::io::Write as _;
use std::num::ParseIntError;

/// An owned JSON value.
///
/// Integers keep exact `i128` representation (covering the full `u64` and
/// `i64` ranges) so values round-trip losslessly; floats use `f64` with
/// shortest-round-trip formatting.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Number without fraction/exponent.
    Int(i128),
    /// Number with fraction or exponent.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; insertion-ordered (the writer emits in this order).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object entries, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(e) => Some(e),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The name of this value's JSON type, as a decode error names it.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) => "integer",
            Json::Float(_) => "float",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

impl Serialize for Json {
    fn serialize(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(b) => b.serialize(out),
            Json::Int(i) => write_int(out, *i),
            Json::Float(f) => write_f64(out, *f),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => items.serialize(out),
            Json::Obj(entries) => {
                out.push(b'{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_str(out, k);
                    out.push(b':');
                    v.serialize(out);
                }
                out.push(b'}');
            }
        }
    }
}

impl Deserialize for Json {
    fn deserialize(r: &mut Reader<'_>) -> Result<Json, String> {
        Ok(match r.peek()? {
            b'n' => r.null().map(|_| Json::Null)?,
            b't' | b'f' => Json::Bool(r.bool()?),
            b'"' => Json::Str(r.str()?.into_owned()),
            b'[' => Json::Arr(Vec::deserialize(r)?),
            b'{' => {
                let mut entries = Vec::new();
                r.object(|r, k| Json::deserialize(r).map(|v| entries.push((k.into_owned(), v))))?;
                Json::Obj(entries)
            }
            _ => match r.number("number")? {
                Number::Int(i) => Json::Int(i),
                Number::Float(f) => Json::Float(f),
            },
        })
    }
}

/// Render a value as compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = Vec::new();
    value.serialize(&mut out);
    String::from_utf8(out).expect("the writer emits UTF-8")
}

/// Read one `T` from `text`, which must hold that value and nothing else
/// but whitespace.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, String> {
    let mut r = Reader::new(text);
    let value = T::deserialize(&mut r)?;
    r.end()?;
    Ok(value)
}

/// Parse JSON text into a [`Json`] document.
pub fn parse(input: &str) -> Result<Json, String> {
    from_str(input)
}

// ---------- writer ----------

/// Append `n` in decimal.
#[inline]
pub(crate) fn write_int(out: &mut Vec<u8>, n: i128) {
    let Ok(mut rest) = u64::try_from(n.unsigned_abs()) else {
        let _ = write!(out, "{n}");
        return;
    };
    if n < 0 {
        out.push(b'-');
    }
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Append `f` so that it reads back as the same float.
#[inline]
pub(crate) fn write_f64(out: &mut Vec<u8>, f: f64) {
    if f.is_finite() {
        // `{:?}` is shortest-round-trip; ensure a fraction or exponent
        // survives so the reader reads a float back.
        let start = out.len();
        let _ = write!(out, "{f:?}");
        if !out[start..].iter().any(|c| matches!(c, b'.' | b'e' | b'E')) {
            out.extend_from_slice(b".0");
        }
    } else {
        // serde_json refuses non-finite; a shim can pick null.
        out.extend_from_slice(b"null");
    }
}

/// Append `s` as a quoted, escaped JSON string.
#[inline]
pub(crate) fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    // Everything escaped is one ASCII byte, so the runs between escapes
    // are whole characters and are pushed as they stand.
    let bytes = s.as_bytes();
    let mut clean = 0;
    for (i, &c) in bytes.iter().enumerate() {
        let escape: &[u8] = match c {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => b"",
            _ => continue,
        };
        out.extend_from_slice(&bytes[clean..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{c:04x}");
        } else {
            out.extend_from_slice(escape);
        }
        clean = i + 1;
    }
    out.extend_from_slice(&bytes[clean..]);
    out.push(b'"');
}

// ---------- reader ----------

/// Arrays and objects nested deeper than this are refused. A value is
/// read by recursion, once per level, so without a bound a few kilobytes
/// of `[` overflow the stack of whichever thread decodes them. The deepest
/// value this workspace encodes is a `Request` carrying a query tree, two
/// levels an operator: the cap is some sixty operators nested in one query.
pub const MAX_DEPTH: usize = 128;

/// A number as the input wrote it: one with no fraction or exponent is an
/// integer, kept exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// No `.`, `e`, `E`, `+` or inner `-`.
    Int(i128),
    /// Anything else that parses as an `f64`.
    Float(f64),
}

/// A pull reader over borrowed JSON text: each read takes the next value,
/// skipping the whitespace before it. A read that finds a value of another
/// kind consumes nothing and answers [`Reader::mismatch`].
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader { text, pos: 0, depth: 0 }
    }

    /// Refuse anything but whitespace after the value read.
    pub fn end(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing bytes at offset {}", self.pos))
        }
    }

    #[inline]
    fn skip_ws(&mut self) {
        let b = self.text.as_bytes();
        while self.pos < b.len() && matches!(b[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    /// The first byte of the next value, not consumed.
    #[inline]
    pub fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied().ok_or_else(|| "unexpected end of input".into())
    }

    fn unexpected(&self, c: u8) -> String {
        format!("unexpected byte {:?} at offset {}", c as char, self.pos)
    }

    /// The JSON kind of the next value, judged from how it starts.
    fn kind(&mut self) -> Result<&'static str, String> {
        Ok(match self.peek()? {
            b'n' => "null",
            b't' | b'f' => "bool",
            b'"' => "string",
            b'[' => "array",
            b'{' => "object",
            b'-' | b'0'..=b'9' if self.number_token().1 => "float",
            b'-' | b'0'..=b'9' => "integer",
            c => return Err(self.unexpected(c)),
        })
    }

    /// The error for a next value that is not what the caller `expected`,
    /// such as "expected integer, got string". Input that starts no value
    /// at all gets its syntax error instead.
    pub fn mismatch(&mut self, expected: &str) -> String {
        match self.kind() {
            Ok(kind) => format!("expected {expected}, got {kind}"),
            Err(e) => e,
        }
    }

    #[inline]
    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    /// Read a `null` if one is next; `Ok(false)`, reading nothing, if not.
    #[inline]
    pub fn null(&mut self) -> Result<bool, String> {
        if self.peek()? != b'n' {
            return Ok(false);
        }
        self.literal("null").map(|()| true)
    }

    /// Read `true` or `false`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, String> {
        match self.peek()? {
            b't' => self.literal("true").map(|()| true),
            b'f' => self.literal("false").map(|()| false),
            _ => Err(self.mismatch("bool")),
        }
    }

    /// The end of the number token at `pos`, and whether it is a float.
    #[inline]
    fn number_token(&self) -> (usize, bool) {
        let b = self.text.as_bytes();
        let mut end = self.pos;
        if b.get(end) == Some(&b'-') {
            end += 1;
        }
        let mut float = false;
        while let Some(&c) = b.get(end) {
            match c {
                b'0'..=b'9' => end += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    end += 1;
                }
                _ => break,
            }
        }
        (end, float)
    }

    /// Read a number, parsed where it lies; anything else is a mismatch
    /// with `expected`.
    #[inline]
    pub fn number(&mut self, expected: &str) -> Result<Number, String> {
        if !matches!(self.peek()?, b'-' | b'0'..=b'9') {
            return Err(self.mismatch(expected));
        }
        let start = self.pos;
        let (end, float) = self.number_token();
        self.pos = end;
        // The token is ASCII, so it is sliced out of the already-valid input
        // as it stands. A token that does not parse may be megabytes of
        // digits: the error gives its offset, not its text.
        let text = &self.text[start..end];
        let parsed = if float {
            text.parse().map(Number::Float).map_err(|e| e.to_string())
        } else {
            parse_int(text).map(Number::Int).map_err(|e| e.to_string())
        };
        parsed.map_err(|e| format!("bad number at offset {start}: {e}"))
    }

    /// Read a string. It is borrowed from the input unless it holds an
    /// escape, so matching a key or a variant tag allocates nothing.
    #[inline]
    pub fn str(&mut self) -> Result<Cow<'a, str>, String> {
        if self.peek()? != b'"' {
            return Err(self.mismatch("string"));
        }
        self.pos += 1;
        let (text, b) = (self.text, self.text.as_bytes());
        let mut unescaped: Option<String> = None;
        loop {
            // A run ends at a `"` or a `\`. Both are ASCII, so the run is a
            // whole number of characters of an input that is already valid
            // UTF-8: it is taken as it stands, and each byte is seen once.
            let run = b[self.pos..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .ok_or_else(|| "unterminated string".to_string())?;
            let clean = &text[self.pos..self.pos + run];
            self.pos += run;
            if b[self.pos] == b'"' {
                self.pos += 1;
                return Ok(match unescaped {
                    None => Cow::Borrowed(clean),
                    Some(mut out) => {
                        out.push_str(clean);
                        Cow::Owned(out)
                    }
                });
            }
            // The string unescaped is no longer than it is written, so one
            // allocation holds it.
            let out =
                unescaped.get_or_insert_with(|| String::with_capacity(run + raw_len(b, self.pos)));
            out.push_str(clean);
            self.pos += 1;
            match b.get(self.pos) {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let mut code = hex4(b, self.pos + 1)?;
                    self.pos += 4;
                    // Surrogate pair.
                    if (0xD800..0xDC00).contains(&code) && b[self.pos + 1..].starts_with(b"\\u") {
                        let low = hex4(b, self.pos + 3)?;
                        if (0xDC00..0xE000).contains(&low) {
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            self.pos += 6;
                        }
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                _ => return Err(format!("bad escape at offset {}", self.pos)),
            }
            self.pos += 1;
        }
    }

    /// Enter the array or object `open` begins, if it is next.
    #[inline]
    fn open(&mut self, open: u8) -> Result<bool, String> {
        if self.peek()? != open {
            return Ok(false);
        }
        if self.depth == MAX_DEPTH {
            return Err(format!("nested deeper than {MAX_DEPTH} at offset {}", self.pos));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(true)
    }

    /// Leave the open array or object if `close` is next.
    #[inline]
    fn close(&mut self, close: u8) -> bool {
        self.skip_ws();
        let closed = self.text.as_bytes().get(self.pos) == Some(&close);
        if closed {
            self.pos += 1;
            self.depth -= 1;
        }
        closed
    }

    /// After an item or an entry: `true` if a `,` announces another, `false`
    /// if `close` ends the array or object.
    #[inline]
    fn more(&mut self, close: u8) -> Result<bool, String> {
        if self.close(close) {
            return Ok(false);
        }
        if self.text.as_bytes().get(self.pos) == Some(&b',') {
            self.pos += 1;
            return Ok(true);
        }
        Err(format!("expected ',' or '{}' at offset {}", close as char, self.pos))
    }

    /// Read an array, handing `each` the reader at every item. `Ok(false)`,
    /// reading nothing, if the next value is not an array.
    #[inline]
    pub fn array(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<bool, String> {
        if !self.open(b'[')? {
            return Ok(false);
        }
        if !self.close(b']') {
            loop {
                each(self)?;
                if !self.more(b']')? {
                    break;
                }
            }
        }
        Ok(true)
    }

    /// Read an object, handing `each` every key and the reader at its
    /// value. `Ok(false)`, reading nothing, if the next value is not an
    /// object.
    #[inline]
    pub fn object(
        &mut self,
        mut each: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<bool, String> {
        if !self.open(b'{')? {
            return Ok(false);
        }
        if !self.close(b'}') {
            loop {
                let key = self.str()?;
                self.skip_ws();
                if self.text.as_bytes().get(self.pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {}", self.pos));
                }
                self.pos += 1;
                each(self, key)?;
                if !self.more(b'}')? {
                    break;
                }
            }
        }
        Ok(true)
    }

    /// Read past the next value, holding it to the same rules as any other
    /// (what is skipped is still JSON, and still at most [`MAX_DEPTH`]
    /// deep), and drop it.
    pub fn skip(&mut self) -> Result<(), String> {
        Json::deserialize(self).map(drop)
    }
}

/// Bytes from `at`, inside a string, to its closing quote (or the end of
/// the input): an escaped character is stepped over, whatever it is.
fn raw_len(b: &[u8], start: usize) -> usize {
    let mut at = start;
    while let Some(run) =
        b.get(at..).and_then(|rest| rest.iter().position(|&c| c == b'"' || c == b'\\'))
    {
        at += run;
        if b[at] == b'"' {
            return at - start;
        }
        at += 2;
    }
    b.len().saturating_sub(start)
}

/// `text.parse::<i128>()` for an integer token, without its cost when the
/// token is short enough that any digits fit an `i64`.
#[inline]
fn parse_int(text: &str) -> Result<i128, ParseIntError> {
    let digits = text.strip_prefix('-').unwrap_or(text);
    if !(1..=18).contains(&digits.len()) {
        return text.parse();
    }
    let n = digits.bytes().fold(0i64, |n, d| n * 10 + i64::from(d - b'0'));
    Ok(i128::from(if digits.len() < text.len() { -n } else { n }))
}

/// The four hex digits of a `\u` escape at `at`. Digits only:
/// `from_str_radix` would also take a sign, and `\u+041` is not `A`.
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let digits = b.get(at..at + 4).ok_or_else(|| "truncated \\u escape".to_string())?;
    digits
        .iter()
        .try_fold(0u32, |code, &c| Some(code * 16 + (c as char).to_digit(16)?))
        .ok_or_else(|| format!("bad \\u escape at offset {at}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        for src in ["null", "true", "false", "0", "-12", "3.5", "\"hi\""] {
            let v = parse(src).unwrap();
            assert_eq!(to_string(&v), src);
        }
    }

    #[test]
    fn round_trip_structures() {
        let src = r#"{"a":[1,2.5,"x\n"],"b":{"k":null}}"#;
        let v = parse(src).unwrap();
        assert_eq!(to_string(&v), src);
    }

    #[test]
    fn big_integers_survive() {
        let v = parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(v, Json::Int(u64::MAX as i128));
    }

    #[test]
    fn float_render_keeps_fraction_marker() {
        assert_eq!(to_string(&Json::Float(2.0)), "2.0");
        let back = parse("2.0").unwrap();
        assert_eq!(back, Json::Float(2.0));
    }

    #[test]
    fn unicode_and_escapes() {
        let v = parse(r#""café – ok""#).unwrap();
        assert_eq!(v, Json::Str("café – ok".to_string()));
    }

    #[test]
    fn garbage_rejected() {
        assert!(parse("not json").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
    }

    /// What the writer escapes, with multi-byte characters on either side
    /// of an escape so a run boundary falls next to one.
    #[test]
    fn writer_escapes_runs_exactly_as_it_did_characters() {
        for (text, json) in [
            ("", r#""""#),
            ("plain", r#""plain""#),
            ("\"", r#""\"""#),
            ("é\"中\\😀", r#""é\"中\\😀""#),
            ("a\nb\rc\td", r#""a\nb\rc\td""#),
            ("\u{0}\u{1}é\u{1f}\u{7f}\u{80}", "\"\\u0000\\u0001é\\u001f\u{7f}\u{80}\""),
            ("/ and \u{8} and \u{c}", "\"/ and \\u0008 and \\u000c\""),
        ] {
            let written = to_string(&Json::Str(text.to_string()));
            assert_eq!(written, json, "writing {text:?}");
            assert_eq!(parse(&written), Ok(Json::Str(text.to_string())), "reading {json}");
        }
        assert_eq!(to_string(&Json::Int(i128::from(u64::MAX))), u64::MAX.to_string());
        assert_eq!(to_string(&Json::Int(i128::from(i64::MIN))), i64::MIN.to_string());
        assert_eq!(to_string(&Json::Int(i128::from(i64::MIN) - 1)), "-9223372036854775809");
        assert_eq!(to_string(&Json::Float(0.1 + 0.2)), "0.30000000000000004");
        assert_eq!(to_string(&Json::Float(1e300)), "1e300");
        assert_eq!(to_string(&Json::Float(f64::NAN)), "null");
    }

    /// The scanner's escapes, case by case. Three behaviours are kept from
    /// before on purpose although strict JSON refuses them: a surrogate
    /// with no partner decodes to U+FFFD, a raw control character inside a
    /// string is taken as it stands, and so is any byte after a string's
    /// closing quote (the caller decides what may follow).
    #[test]
    fn string_escape_table() {
        let ok = |src: &str| {
            Reader::new(src).str().unwrap_or_else(|e| panic!("{src}: {e}")).into_owned()
        };
        assert_eq!(ok(r#""\u0041\u00e9\u4E2d""#), "Aé中");
        assert_eq!(ok(r#""\"\\\/\n\r\t\b\f""#), "\"\\/\n\r\t\u{8}\u{c}");
        assert_eq!(ok(r#""\ud83d\ude00""#), "😀");
        assert_eq!(ok(r#""é\ud83d\ude00中""#), "é😀中");
        // Kept: lone surrogates, either half, become U+FFFD.
        assert_eq!(ok(r#""\ud83d""#), "\u{FFFD}");
        assert_eq!(ok(r#""\ude00""#), "\u{FFFD}");
        assert_eq!(ok(r#""\ud83dx""#), "\u{FFFD}x");
        assert_eq!(ok(r#""\ud83d\u0041""#), "\u{FFFD}A");
        assert_eq!(ok(r#""\ud83d\ud83d\ude00""#), "\u{FFFD}😀");
        // Kept: raw control characters pass.
        assert_eq!(ok("\"a\nb\u{1}c\""), "a\nb\u{1}c");

        for bad in [
            // Four hex digits, nothing else: the parent read `\u+041` as `A`.
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u00g0""#,
            r#""\u00é""#,
            r#""\ud83d\u+e00""#,
            // Truncated escapes and unterminated strings.
            r#""\u00""#,
            r#""\u""#,
            r#""\ud83d\ude0""#,
            r#""\ud83d\u"#,
            r#""\"#,
            r#""\x""#,
            r#""abc"#,
            r#""abc\""#,
            "\"",
            "",
            "abc\"",
        ] {
            assert!(Reader::new(bad).str().is_err(), "{bad} was accepted");
        }
    }

    /// The scanner as it once was: it takes one character at a time,
    /// validating the whole rest of the input to find it, which is
    /// quadratic but plainly right. The differential below holds the
    /// run-taking scanner to it.
    fn parse_string_oracle(b: &[u8], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&b'"') {
            return Err("expected '\"'".to_string());
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let mut code =
                                u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            *pos += 4;
                            // Surrogate pair.
                            if (0xD800..0xDC00).contains(&code)
                                && b.get(*pos + 1) == Some(&b'\\')
                                && b.get(*pos + 2) == Some(&b'u')
                            {
                                if let Some(hex2) = b.get(*pos + 3..*pos + 7) {
                                    let hex2 =
                                        std::str::from_utf8(hex2).map_err(|e| e.to_string())?;
                                    let low =
                                        u32::from_str_radix(hex2, 16).map_err(|e| e.to_string())?;
                                    if (0xDC00..0xE000).contains(&low) {
                                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                        *pos += 6;
                                    }
                                }
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(format!("bad escape at offset {pos}")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    /// What the differential's strings are built from: clean runs of one
    /// to four bytes a character, every escape, both halves of a surrogate
    /// pair together and apart, escapes cut short at each length, and the
    /// quote that ends the string early. No `+`: the sign is the one input
    /// the two scanners disagree on (see `string_escape_table`).
    const FRAGMENTS: &[&str] = &[
        "a",
        "run of ascii",
        "é",
        "中",
        "😀",
        " ",
        "\u{1}",
        "\"",
        "\\\"",
        "\\\\",
        "\\/",
        "\\n",
        "\\b",
        "\\u0041",
        "\\u00E9",
        "\\u4e2d",
        "\\ud83d\\ude00",
        "\\ud83d",
        "\\ude00",
        "\\ud83d\\u0041",
        "\\ud83d\\ud83",
        "\\u00",
        "\\u0",
        "\\u",
        "\\u00g0",
        "\\",
        "\\x",
        "0",
        "d",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4000))]

        /// An opening quote, then up to a dozen fragments: most cases end
        /// unterminated or inside an escape, the rest at a quote somewhere
        /// in the middle, and both scanners must stop at the same byte
        /// with the same text or both refuse.
        #[test]
        fn scanner_agrees_with_the_character_at_a_time_oracle(
            picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..12)
        ) {
            let mut src = String::from("\"");
            src.extend(picks.iter().map(|&i| FRAGMENTS[i]));
            let mut oracle_pos = 0;
            let mut reader = Reader::new(&src);
            let got = reader.str().map(Cow::into_owned);
            let pos = reader.pos;
            let want = parse_string_oracle(src.as_bytes(), &mut oracle_pos);
            match (&got, &want) {
                (Ok(got), Ok(want)) => {
                    proptest::prop_assert_eq!(got, want, "scanning {}", src);
                    proptest::prop_assert_eq!(pos, oracle_pos, "scanning {}", src);
                }
                (Err(_), Err(_)) => {}
                _ => proptest::prop_assert!(false, "{src}: {got:?}, oracle {want:?}"),
            }
        }
    }

    #[test]
    fn nesting_is_followed_to_max_depth_and_refused_beyond() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"k\":".repeat(n), "}".repeat(n));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        for deep in [arrays(MAX_DEPTH + 1), objects(MAX_DEPTH + 1), "[{\"k\":".repeat(MAX_DEPTH)] {
            let e = parse(&deep).unwrap_err();
            assert!(e.starts_with("nested deeper than 128"), "{e}");
        }
        // Breadth is not depth: siblings do not count.
        assert!(parse(&format!("[{}[]]", "[[]],".repeat(10_000))).is_ok());
        // The frame that overflowed a session thread's stack at the parent
        // (`fatal runtime error: stack overflow`, the whole node gone).
        assert!(parse(&"[".repeat(20_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(20_000)).is_err());
    }

    /// Decode time is linear in the input. At the parent a 1 MiB string
    /// took 18 s (release) and time grew fourfold per doubling, so either
    /// 4 MiB input below took minutes; the bound is over a hundred times
    /// under that and several times over what a debug build needs.
    #[test]
    fn four_mebibytes_decode_in_linear_time() {
        const LEN: usize = 4 << 20;
        let one_string = format!("\"{}\"", "é".repeat(LEN / 2));
        let many_strings = format!("[{}\"a\"]", "\"a\",".repeat(LEN / 4));
        for (what, src) in
            [("one 4 MiB string", one_string), ("1 Mi one-char strings", many_strings)]
        {
            let start = std::time::Instant::now();
            let parsed = parse(&src);
            let took = start.elapsed();
            assert!(parsed.is_ok(), "{what}");
            assert!(took < std::time::Duration::from_secs(2), "{what} took {took:?}");
        }
    }

    #[test]
    fn errors_stay_short_whatever_the_input() {
        let mib = 1 << 20;
        for src in [
            "1".repeat(mib),
            format!("{}e", "1".repeat(mib)),
            format!("\"{}", "a".repeat(mib)),
            format!("\"{}\\x\"", "a".repeat(mib)),
            format!("[{}", "1,".repeat(mib / 2)),
            format!("{{\"{}\":}}", "k".repeat(mib)),
        ] {
            let e = parse(&src).unwrap_err();
            assert!(e.len() < 100, "{} bytes of message: {}...", e.len(), &e[..100]);
        }
    }
}
