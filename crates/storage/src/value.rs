//! The typed value model shared by the structured store, the query engine,
//! the schema manager, and the semantic debugger.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

impl DataType {
    /// Whether a value of type `from` can be widened losslessly to `self`.
    ///
    /// Used by schema evolution's retype operation: `Int → Float` and
    /// anything → `Text` are allowed; everything else is rejected.
    pub fn widens_from(self, from: DataType) -> bool {
        self == from
            || matches!((from, self), (DataType::Int, DataType::Float))
            || self == DataType::Text
    }
}

/// A dynamically typed cell value.
///
/// `Value` implements a *total* order (unlike `f64`): `Null < Bool < numeric
/// (Int/Float compared numerically, NaN greatest) < Text`. The total order is
/// what lets values key B-tree indexes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL-style NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Text(String),
}

impl Value {
    /// The type of this value, or `None` for `Null` (which fits any type).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
        }
    }

    /// True if this value may be stored in a column of type `t`.
    /// `Int` is accepted by `Float` columns (widening); `Null` fits anywhere.
    pub fn fits(&self, t: DataType) -> bool {
        match self.data_type() {
            None => true,
            Some(vt) => vt == t || (vt == DataType::Int && t == DataType::Float),
        }
    }

    /// Numeric view of the value, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Text view of the value, if it is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// True when the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Parse a string into the "most structured" value it can be: Int, then
    /// Float, then Bool, else Text. Used when loading extraction output.
    pub fn parse_lossy(s: &str) -> Value {
        let t = s.trim();
        if let Ok(i) = t.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = t.parse::<f64>() {
            return Value::Float(f);
        }
        match t {
            "true" | "TRUE" => Value::Bool(true),
            "false" | "FALSE" => Value::Bool(false),
            _ => Value::Text(t.to_string()),
        }
    }

    /// The same value with its text borrowed.
    pub(crate) fn borrowed(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Text(s) => ValueRef::Text(s),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => f.write_str(s),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.borrowed().cmp(&other.borrowed())
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.borrowed().rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            // Int and Float must hash identically when they compare equal.
            Value::Int(i) => total_f64(*i as f64).hash(state),
            Value::Float(f) => total_f64(*f).hash(state),
            Value::Text(s) => s.hash(state),
        }
    }
}

/// A [`Value`] whose text is borrowed from somewhere else — from an owned
/// value, or from its [`crate::codec`] encoding, so that B-tree keys are
/// ordered without being decoded. [`ValueRef::cmp`] is the one definition
/// of the total order; `Value`'s `Ord` delegates to it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ValueRef<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(&'a str),
}

impl ValueRef<'_> {
    fn rank(&self) -> u8 {
        match self {
            ValueRef::Null => 0,
            ValueRef::Bool(_) => 1,
            ValueRef::Int(_) | ValueRef::Float(_) => 2,
            ValueRef::Text(_) => 3,
        }
    }

    /// The same value, owning its text.
    pub(crate) fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Text(s) => Value::Text(s.to_string()),
        }
    }

    /// The total order documented on [`Value`].
    pub(crate) fn cmp(&self, other: &Self) -> Ordering {
        use ValueRef::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (Int(a), Float(b)) => total_f64(*a as f64).cmp(&total_f64(*b)),
            (Float(a), Int(b)) => total_f64(*a).cmp(&total_f64(*b as f64)),
            (Float(a), Float(b)) => total_f64(*a).cmp(&total_f64(*b)),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

/// Total-order key for f64 (IEEE totalOrder trick): orders all floats,
/// placing -NaN first and +NaN last, with -0.0 < +0.0.
fn total_f64(f: f64) -> i64 {
    let bits = f.to_bits() as i64;
    bits ^ ((((bits >> 63) as u64) >> 1) as i64)
}

/// Convenience conversions.
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn total_order_ranks_types() {
        let mut vs = [
            Value::Text("a".into()),
            Value::Int(3),
            Value::Null,
            Value::Bool(true),
            Value::Float(1.5),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Bool(true));
        assert_eq!(vs[4], Value::Text("a".into()));
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.9) < Value::Int(2));
    }

    #[test]
    fn equal_values_hash_equal_across_types() {
        assert_eq!(h(&Value::Int(7)), h(&Value::Float(7.0)));
    }

    #[test]
    fn nan_is_ordered_greatest_among_numerics() {
        assert!(Value::Float(f64::NAN) > Value::Float(f64::MAX));
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
    }

    #[test]
    fn fits_allows_widening_and_null() {
        assert!(Value::Int(1).fits(DataType::Float));
        assert!(!Value::Float(1.0).fits(DataType::Int));
        assert!(Value::Null.fits(DataType::Bool));
        assert!(Value::Text("x".into()).fits(DataType::Text));
    }

    #[test]
    fn parse_lossy_prefers_structure() {
        assert_eq!(Value::parse_lossy("42"), Value::Int(42));
        assert_eq!(Value::parse_lossy("42.5"), Value::Float(42.5));
        assert_eq!(Value::parse_lossy("true"), Value::Bool(true));
        assert_eq!(Value::parse_lossy(" hi "), Value::Text("hi".into()));
    }

    #[test]
    fn widens_from_rules() {
        assert!(DataType::Float.widens_from(DataType::Int));
        assert!(DataType::Text.widens_from(DataType::Float));
        assert!(!DataType::Int.widens_from(DataType::Float));
        assert!(DataType::Bool.widens_from(DataType::Bool));
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Text("hey".into()).to_string(), "hey");
    }
}
