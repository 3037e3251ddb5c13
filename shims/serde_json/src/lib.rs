//! Offline shim for `serde_json`, over the `serde` shim's JSON reader and
//! writer.

#![forbid(unsafe_code)]

use serde::json;
use serde::{Deserialize, Serialize};

/// JSON (de)serialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Serialize to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(json::to_string(value))
}

/// Serialize to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    let mut out = Vec::new();
    value.serialize(&mut out);
    Ok(out)
}

/// Deserialize from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    json::from_str(s).map_err(Error)
}

/// Deserialize from JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error(e.to_string()))?;
    from_str(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn string_round_trip() {
        let v = vec![vec![1u32, 2], vec![], vec![3]];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[[1,2],[],[3]]");
        let back: Vec<Vec<u32>> = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn map_round_trip() {
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), 3.25f64);
        let s = to_string(&m).unwrap();
        assert_eq!(s, r#"{"k":3.25}"#);
        let back: BTreeMap<String, f64> = from_str(&s).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn errors_are_reported() {
        let r: Result<Vec<u64>, Error> = from_str("{broken");
        assert!(r.is_err());
    }

    /// A value of the wrong shape is named by its JSON kind and a name the
    /// input chose is clipped, so a message is short however large the
    /// value: at the parent each of these rendered the whole subtree with
    /// `{:?}`, four bytes of message for every byte of input.
    #[test]
    fn decode_errors_name_the_kind_and_never_render_the_value() {
        #[derive(Debug, serde::Deserialize)]
        enum Ask {
            Ping,
            Run(String),
        }
        let ones = format!("[{}1]", "1,".repeat(500_000));
        let long = "é".repeat(500_000);
        let err = |r: Result<Ask, Error>| r.unwrap_err().to_string();

        assert_eq!(err(from_str(&format!("{{\"Run\":{ones}}}"))), "expected string, got array");
        assert_eq!(err(from_str(&ones)), "expected variant encoding for Ask, got array");
        let clipped = format!("unknown variant {:?} for Ask", "é".repeat(32));
        assert_eq!(err(from_str(&format!("\"{long}\""))), clipped);
        assert_eq!(err(from_str(&format!("{{\"{long}\":1}}"))), clipped);
        assert_eq!(err(from_str("\"Pong\"")), "unknown variant \"Pong\" for Ask");
        assert!(matches!(from_str("\"Ping\""), Ok(Ask::Ping)));
        assert!(matches!(from_str("{\"Run\":\"x\"}"), Ok(Ask::Run(x)) if x == "x"));

        // Map keys are strings, so a long one is a key like any other; the
        // value under it is what is wrong.
        let map: Result<BTreeMap<String, u32>, Error> = from_str(&format!("{{\"{long}\":{ones}}}"));
        assert_eq!(map.unwrap_err().to_string(), "expected integer, got array");
        let int: Result<u8, Error> = from_str(&format!("\"{long}\""));
        assert_eq!(int.unwrap_err().to_string(), "expected integer, got string");
    }

    /// What a decode accepts, and to what: whitespace anywhere, keys in any
    /// order, unknown keys skipped but still held to JSON's rules, the first
    /// of two equal keys, integral floats for integers and integers for
    /// floats, a variant object of exactly one entry, and nothing after the
    /// value.
    #[test]
    fn decodes_accept_what_the_format_allows_and_nothing_else() {
        #[derive(Debug, PartialEq, serde::Deserialize)]
        struct Row {
            id: u64,
            score: f64,
            #[serde(default)]
            tag: u64,
            pick: Pick,
        }
        #[derive(Debug, PartialEq, serde::Deserialize)]
        enum Pick {
            Unit,
            Int(i64),
        }
        let row = |id, score, tag, pick| Row { id, score, tag, pick };
        let ok = |s: &str| from_str::<Row>(s).unwrap_or_else(|e| panic!("{s}: {e}"));
        assert_eq!(
            ok(" {\n\"pick\" : {\"Int\":\t-3} , \"score\":7,\"id\":7.0e0,\"tag\":2 } "),
            row(7, 7.0, 2, Pick::Int(-3))
        );
        assert_eq!(
            ok(r#"{"id":1,"id":"x","score":0.5,"junk":{"a":[null,{"b":"A"}]},"pick":"Unit"}"#),
            row(1, 0.5, 0, Pick::Unit)
        );
        assert_eq!(ok(r#"{"id":1,"score":1,"pick":{"Int":2}}"#), row(1, 1.0, 0, Pick::Int(2)));

        let deep = format!("{}{}", "[".repeat(200), "]".repeat(200));
        for (bad, why) in [
            (r#"{"id":1.5,"score":0,"pick":"Unit"}"#.to_string(), "expected integer, got float"),
            (r#"{"id":-1,"score":0,"pick":"Unit"}"#.into(), "-1 out of range for u64"),
            (r#"{"id":"1","score":0,"pick":"Unit"}"#.into(), "expected integer, got string"),
            (r#"{"score":0,"pick":"Unit"}"#.into(), "missing field id for Row"),
            (r#"{"id":1,"score":0,"pick":"Unit"} x"#.into(), "trailing bytes at offset 33"),
            (
                r#"{"id":1,"score":0,"pick":{"Unit":null}}"#.into(),
                "unknown variant \"Unit\" for Pick",
            ),
            (r#"{"id":1,"score":0,"pick":"Int"}"#.into(), "unknown variant \"Int\" for Pick"),
            (
                r#"{"id":1,"score":0,"pick":{"Int":1,"Int":1}}"#.into(),
                "expected variant encoding for Pick, got object",
            ),
            (
                r#"{"id":1,"score":0,"pick":{}}"#.into(),
                "expected variant encoding for Pick, got object",
            ),
            (
                format!(r#"{{"id":1,"score":0,"pick":"Unit","junk":{deep}}}"#),
                "nested deeper than 128",
            ),
            (r#"{"id":1,"score":0,"pick":"Unit","junk":"\u+041"}"#.into(), "bad \\u escape"),
            (r#"[1,0,"Unit"]"#.into(), "missing field id for Row"),
        ] {
            let e = from_str::<Row>(&bad).unwrap_err().to_string();
            assert!(e.starts_with(why), "{bad}: {e}");
        }
    }
}
