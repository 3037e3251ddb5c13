//! Offline shim for `serde_json`, backed by the `serde` shim's JSON tree.

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
    Ok(json::to_string(&value.to_json()))
}

/// Serialize to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Deserialize from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let tree = json::parse(s).map_err(Error)?;
    T::from_json(&tree).map_err(Error)
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
        let v = vec![(1u32, "a".to_string()), (2, "b".to_string())];
        let s = to_string(&v).unwrap();
        assert_eq!(s, r#"[[1,"a"],[2,"b"]]"#);
        let back: Vec<(u32, String)> = from_str(&s).unwrap();
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

        let key: Result<BTreeMap<u32, u32>, Error> = from_str(&format!("{{\"{long}\":1}}"));
        assert!(key.unwrap_err().to_string().len() < 120);
        let int: Result<u8, Error> = from_str(&format!("\"{long}\""));
        assert_eq!(int.unwrap_err().to_string(), "expected integer, got string");
    }
}
