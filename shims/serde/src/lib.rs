//! Offline shim for `serde` — `Serialize`/`Deserialize` as traits over an
//! owned JSON tree ([`json::Json`]), plus the derive macros.
//!
//! This is *not* the serde data model: there is exactly one data format
//! (JSON), which is the only one this workspace uses (via `serde_json`).
//! Derived impls produce serde's externally-tagged enum representation so
//! the bytes on disk match what the real serde_json would write.
//!
//! `from_json` runs on trees parsed from the network, so its errors are
//! bounded like the parser's (see [`json`]): they name the JSON kind that
//! was found ([`json::Json::kind`]) or quote a [`clip`]ped name, never the
//! value itself.

#![forbid(unsafe_code)]

pub mod json;

pub use serde_derive::{Deserialize, Serialize};

use json::Json;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::Hash;

/// Serialize into a JSON tree.
pub trait Serialize {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Deserialize from a JSON tree.
pub trait Deserialize: Sized {
    /// Rebuild from JSON; `Err` carries a human-readable reason.
    fn from_json(v: &Json) -> Result<Self, String>;
}

/// `serde::de` namespace stub: the owned-deserialization marker alias.
pub mod de {
    /// In this shim every `Deserialize` is owned.
    pub use crate::Deserialize as DeserializeOwned;
}

/// The start of a name the input supplied (a variant tag, a map key), as
/// an error message quotes it: at most 64 bytes, because the name may be
/// the whole of a 16 MiB payload and the message travels back in a reply.
pub fn clip(name: &str) -> &str {
    &name[..name.floor_char_boundary(64)]
}

// ---------- primitive impls ----------

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i128)
            }
        }
        impl Deserialize for $t {
            fn from_json(v: &Json) -> Result<Self, String> {
                match v {
                    Json::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| format!("{i} out of range for {}", stringify!($t))),
                    Json::Float(f) if f.fract() == 0.0 => Ok(*f as $t),
                    other => Err(format!("expected integer, got {}", other.kind())),
                }
            }
        }
    )*};
}

int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Json {
                Json::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_json(v: &Json) -> Result<Self, String> {
                match v {
                    Json::Float(f) => Ok(*f as $t),
                    Json::Int(i) => Ok(*i as $t),
                    other => Err(format!("expected number, got {}", other.kind())),
                }
            }
        }
    )*};
}

float_impls!(f32, f64);

impl Serialize for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {}", other.kind())),
        }
    }
}

impl Serialize for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            other => Err(format!("expected string, got {}", other.kind())),
        }
    }
}

impl Serialize for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(format!("expected single-char string, got {}", other.kind())),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

/// `&'static str` deserializes by leaking — acceptable for a test shim,
/// and required because `Extraction.extractor` is a `&'static str` field.
impl Deserialize for &'static str {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Str(s) => Ok(Box::leak(s.clone().into_boxed_str())),
            other => Err(format!("expected string, got {}", other.kind())),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) => x.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_json(v: &Json) -> Result<Self, String> {
        T::from_json(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            other => Err(format!("expected array, got {}", other.kind())),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_json).collect())
    }
}

macro_rules! tuple_impls {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_json(&self) -> Json {
                Json::Arr(vec![$(self.$n.to_json()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_json(v: &Json) -> Result<Self, String> {
                match v {
                    Json::Arr(items) => {
                        let mut it = items.iter();
                        let out = ($(
                            $t::from_json(
                                it.next().ok_or_else(|| "tuple too short".to_string())?
                            )?,
                        )+);
                        if it.next().is_some() {
                            return Err("tuple too long".to_string());
                        }
                        Ok(out)
                    }
                    other => Err(format!("expected array (tuple), got {}", other.kind())),
                }
            }
        }
    )*};
}

tuple_impls! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

// ---------- map / set impls ----------

fn key_to_string<K: Serialize>(k: &K) -> String {
    match k.to_json() {
        Json::Str(s) => s,
        Json::Int(i) => i.to_string(),
        Json::Bool(b) => b.to_string(),
        other => panic!("unsupported JSON map key: {other:?}"),
    }
}

fn key_from_string<K: Deserialize>(s: &str) -> Result<K, String> {
    if let Ok(k) = K::from_json(&Json::Str(s.to_string())) {
        return Ok(k);
    }
    if let Ok(i) = s.parse::<i128>() {
        if let Ok(k) = K::from_json(&Json::Int(i)) {
            return Ok(k);
        }
    }
    if let Ok(b) = s.parse::<bool>() {
        if let Ok(k) = K::from_json(&Json::Bool(b)) {
            return Ok(k);
        }
    }
    Err(format!("cannot rebuild map key from {:?}", clip(s)))
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_json(&self) -> Json {
        // Deterministic output: sort by rendered key.
        let mut entries: Vec<(String, Json)> =
            self.iter().map(|(k, v)| (key_to_string(k), v.to_json())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Json::Obj(entries)
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Obj(entries) => entries
                .iter()
                .map(|(k, val)| Ok((key_from_string(k)?, V::from_json(val)?)))
                .collect(),
            other => Err(format!("expected object (map), got {}", other.kind())),
        }
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (key_to_string(k), v.to_json())).collect())
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Obj(entries) => entries
                .iter()
                .map(|(k, val)| Ok((key_from_string(k)?, V::from_json(val)?)))
                .collect(),
            other => Err(format!("expected object (map), got {}", other.kind())),
        }
    }
}

impl<T: Serialize, S> Serialize for HashSet<T, S> {
    fn to_json(&self) -> Json {
        let mut items: Vec<Json> = self.iter().map(Serialize::to_json).collect();
        items.sort_by_key(json::to_string);
        Json::Arr(items)
    }
}

impl<T: Deserialize + Eq + Hash> Deserialize for HashSet<T> {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            other => Err(format!("expected array (set), got {}", other.kind())),
        }
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            other => Err(format!("expected array (set), got {}", other.kind())),
        }
    }
}
