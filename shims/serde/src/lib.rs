//! Offline shim for `serde` — `Serialize`/`Deserialize` as traits that
//! write JSON straight into a byte buffer and read it straight out of a
//! [`json::Reader`], plus the derive macros.
//!
//! This is *not* the serde data model: there is exactly one data format
//! (JSON), which is the only one this workspace uses (via `serde_json`).
//! Derived impls produce serde's externally-tagged enum representation so
//! the bytes match what the real serde_json would write. No value passes
//! through a tree on either side: a decode allocates only for the strings
//! and vectors the value itself owns.
//!
//! Decoding runs on bytes from the network, so its errors are bounded like
//! the reader's (see [`json`]): they name the JSON kind that was found
//! ([`json::Reader::mismatch`]) or quote a [`clip`]ped name, never the
//! value itself.

#![forbid(unsafe_code)]

pub mod json;

pub use serde_derive::{Deserialize, Serialize};

use json::Reader;
use std::collections::BTreeMap;

/// Serialize as JSON.
pub trait Serialize {
    /// Append the JSON text of `self` to `out`.
    fn serialize(&self, out: &mut Vec<u8>);
}

/// Deserialize from JSON.
pub trait Deserialize: Sized {
    /// Read one value from `r`; `Err` carries a human-readable reason.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, String>;
}

/// What derived impls call: the pieces of reading a struct or an enum
/// that do not depend on its fields.
pub mod de {
    use super::{clip, Deserialize};
    use crate::json::Reader;

    /// Read a struct field's value into `slot`. A key that appears twice
    /// keeps its first value; the second is checked as JSON and dropped.
    pub fn field<T: Deserialize>(slot: &mut Option<T>, r: &mut Reader<'_>) -> Result<(), String> {
        match slot {
            None => T::deserialize(r).map(|v| *slot = Some(v)),
            Some(_) => r.skip(),
        }
    }

    /// The error for a field that is absent (or a struct that is not an
    /// object at all).
    pub fn missing(field: &str, owner: &str) -> String {
        format!("missing field {field} for {owner}")
    }

    /// Read an externally tagged enum: a unit variant is its name as a
    /// string, any other variant an object of exactly one entry from its
    /// name to its content. `unit` maps a name to its unit variant; `data`
    /// reads the content of the named variant, or answers `Ok(None)`,
    /// reading nothing, for a name that is not one of them.
    pub fn variant<'a, T>(
        r: &mut Reader<'a>,
        owner: &str,
        unit: impl FnOnce(&str) -> Option<T>,
        mut data: impl FnMut(&mut Reader<'a>, &str) -> Result<Option<T>, String>,
    ) -> Result<T, String> {
        let unknown = |tag: &str| format!("unknown variant {:?} for {owner}", clip(tag));
        let several = || format!("expected variant encoding for {owner}, got object");
        if r.peek()? == b'"' {
            let tag = r.str()?;
            return unit(&tag).ok_or_else(|| unknown(&tag));
        }
        let mut found = None;
        let object = r.object(|r, tag| {
            if found.is_some() {
                return Err(several());
            }
            let value = data(r, &tag)?;
            if value.is_none() {
                r.skip()?;
            }
            found = Some(value.ok_or_else(|| unknown(&tag)));
            Ok(())
        })?;
        match found {
            Some(result) => result,
            None if object => Err(several()),
            None => Err(r.mismatch(&format!("variant encoding for {owner}"))),
        }
    }
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
            #[inline]
            fn serialize(&self, out: &mut Vec<u8>) {
                json::write_int(out, *self as i128);
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, String> {
                match r.number("integer")? {
                    json::Number::Int(i) => <$t>::try_from(i)
                        .map_err(|_| format!("{i} out of range for {}", stringify!($t))),
                    json::Number::Float(f) if f.fract() == 0.0 => Ok(f as $t),
                    json::Number::Float(_) => Err("expected integer, got float".to_string()),
                }
            }
        }
    )*};
}

int_impls!(u8, u32, u64, usize, i64);

impl Serialize for f64 {
    #[inline]
    fn serialize(&self, out: &mut Vec<u8>) {
        json::write_f64(out, *self);
    }
}

impl Deserialize for f64 {
    #[inline]
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(match r.number("number")? {
            json::Number::Float(f) => f,
            json::Number::Int(i) => i as f64,
        })
    }
}

impl Serialize for bool {
    #[inline]
    fn serialize(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(if *self { b"true" } else { b"false" });
    }
}

impl Deserialize for bool {
    #[inline]
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, String> {
        r.bool()
    }
}

impl Serialize for String {
    #[inline]
    fn serialize(&self, out: &mut Vec<u8>) {
        json::write_str(out, self);
    }
}

impl Deserialize for String {
    #[inline]
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, String> {
        r.str().map(String::from)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        match self {
            Some(x) => x.serialize(out),
            None => out.extend_from_slice(b"null"),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, String> {
        if r.null()? {
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        (**self).serialize(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, String> {
        T::deserialize(r).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut Vec<u8>) {
        out.push(b'[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            item.serialize(out);
        }
        out.push(b']');
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, String> {
        let mut items = Vec::new();
        if r.array(|r| T::deserialize(r).map(|item| items.push(item)))? {
            Ok(items)
        } else {
            Err(r.mismatch("array"))
        }
    }
}

/// A map is an object, so its keys are strings. A key that appears twice
/// keeps its last value, as inserting the entries in order would.
impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self, out: &mut Vec<u8>) {
        out.push(b'{');
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            json::write_str(out, k);
            out.push(b':');
            v.serialize(out);
        }
        out.push(b'}');
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        if r.object(|r, k| V::deserialize(r).map(|v| drop(map.insert(k.into_owned(), v))))? {
            Ok(map)
        } else {
            Err(r.mismatch("object (map)"))
        }
    }
}
