//! The JSON tree, writer, and parser backing the serde shim.
//!
//! The parser reads input that may be hostile (it is the wire decoder of
//! `quarry-serve`), so it promises three things whatever the bytes are:
//!
//! - **Linear time.** Every input byte is looked at a bounded number of
//!   times: a string is copied one run at a time (up to the next `"` or
//!   `\`), never one character at a time against the rest of the input.
//! - **Bounded stack.** Arrays and objects nest at most [`MAX_DEPTH`]
//!   deep; beyond that the input is refused, not followed.
//! - **Bounded messages.** An error names an offset or a JSON kind
//!   ([`Json::kind`]), never the offending text, so it stays short
//!   however large the input was.
//!
//! The writer is the mirror image: clean runs of a string are pushed
//! whole, and a number is formatted into the output, not into a string
//! of its own first.

use std::fmt::Write as _;

/// An owned JSON value.
///
/// Integers keep exact `i128` representation (covering the full `u64` and
/// `i64` ranges) so WAL records round-trip losslessly; floats use `f64`
/// with shortest-round-trip formatting.
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

    /// The name of this value's JSON type: what a decode error says it got
    /// instead of rendering the value, which may be megabytes.
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

/// Render a JSON tree to a compact string.
pub fn to_string(v: &Json) -> String {
    let mut out = String::new();
    write_json(v, &mut out);
    out
}

fn write_json(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Json::Float(f) => {
            if f.is_finite() {
                // `{:?}` is shortest-round-trip; ensure a fraction or
                // exponent survives so the parser reads a Float back.
                let start = out.len();
                let _ = write!(out, "{f:?}");
                if !out[start..].contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                // serde_json refuses non-finite; a shim can pick null.
                out.push_str("null");
            }
        }
        Json::Str(s) => write_escaped(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(item, out);
            }
            out.push(']');
        }
        Json::Obj(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_json(val, out);
            }
            out.push('}');
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    // Everything escaped is one ASCII byte, so the runs between escapes
    // start and end on character boundaries and are pushed whole.
    let mut clean = 0;
    for (i, &c) in s.as_bytes().iter().enumerate() {
        let escape = match c {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{c:04x}");
        } else {
            out.push_str(escape);
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

/// Arrays and objects nested deeper than this are refused. The parser
/// recurses once per level, so without a bound a few kilobytes of `[`
/// overflow the stack of whichever thread decodes them. The deepest value
/// this workspace encodes is a `Request` carrying a query tree, two levels
/// an operator: the cap is some sixty operators nested in one query.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON string into a tree.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut pos = 0usize;
    let value = parse_value(input, &mut pos, 0)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos != input.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {pos}", c as char))
    }
}

/// Parse the value at `pos`, itself `depth` arrays and objects deep.
fn parse_value(s: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(s, pos).map(Json::Str),
        Some(b'[' | b'{') if depth == MAX_DEPTH => {
            Err(format!("nested deeper than {MAX_DEPTH} at offset {pos}"))
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(s, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(s, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(s, pos, depth + 1)?;
                entries.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(entries));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(s, pos),
        Some(c) => Err(format!("unexpected byte {:?} at offset {pos}", *c as char)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at offset {pos}"))
    }
}

fn parse_number(s: &str, pos: &mut usize) -> Result<Json, String> {
    let b = s.as_bytes();
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    // The token is ASCII, so it is sliced out of the already-valid input
    // as it stands. A token that does not parse may be megabytes of
    // digits: the error gives its offset, not its text.
    let text = &s[start..*pos];
    let parsed = if float {
        text.parse::<f64>().map(Json::Float).map_err(|e| e.to_string())
    } else {
        text.parse::<i128>().map(Json::Int).map_err(|e| e.to_string())
    };
    parsed.map_err(|e| format!("bad number at offset {start}: {e}"))
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

fn parse_string(s: &str, pos: &mut usize) -> Result<String, String> {
    let b = s.as_bytes();
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        // A run ends at a `"` or a `\`. Both are ASCII, so the run is a
        // whole number of characters of an input that is already valid
        // UTF-8: it is copied as it stands, and each byte is seen once.
        let run = b[*pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .ok_or_else(|| "unterminated string".to_string())?;
        out.push_str(&s[*pos..*pos + run]);
        *pos += run;
        if b[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
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
                let mut code = hex4(b, *pos + 1)?;
                *pos += 4;
                // Surrogate pair.
                if (0xD800..0xDC00).contains(&code) && b[*pos + 1..].starts_with(b"\\u") {
                    let low = hex4(b, *pos + 3)?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        *pos += 6;
                    }
                }
                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
            }
            _ => return Err(format!("bad escape at offset {pos}")),
        }
        *pos += 1;
    }
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
            let mut pos = 0;
            parse_string(src, &mut pos).unwrap_or_else(|e| panic!("{src}: {e}"))
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
            assert!(parse_string(bad, &mut 0).is_err(), "{bad} was accepted");
        }
    }

    /// The scanner of the parent commit, unchanged: it takes one character
    /// at a time, validating the whole rest of the input to find it, which
    /// is quadratic but plainly right. The differential below holds the
    /// run-copying scanner to it.
    fn parse_string_oracle(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
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
            let (mut pos, mut oracle_pos) = (0, 0);
            let got = parse_string(&src, &mut pos);
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
