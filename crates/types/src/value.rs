//! The dynamically-typed attribute value shared by every layer of the stack.
//!
//! IaC languages are weakly typed (paper §3.2): a Terraform attribute is "a
//! string" even when it semantically is a resource id. [`Value`] models that
//! IaC-level value space; the *semantic* typing the paper calls for is layered
//! on top by `cloudless-validate` without changing this representation.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Attribute map of a resource. `BTreeMap` keeps iteration (and therefore
/// serialization, diffing and hashing) deterministic across runs.
pub type Attrs = BTreeMap<String, Value>;

/// A dynamically-typed configuration value.
///
/// This is deliberately the same value space as JSON plus nothing else — the
/// lowest common denominator between HCL, provider APIs and state files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum Value {
    /// Absent / unset attribute.
    Null,
    /// Boolean.
    Bool(bool),
    /// Numbers are kept as `f64`, like HCL and JSON. Integral values
    /// round-trip exactly for |n| < 2^53, which covers every count, port and
    /// size that appears in cloud configurations.
    Num(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered list.
    List(Vec<Value>),
    /// String-keyed map with deterministic ordering.
    Map(BTreeMap<String, Value>),
}

/// The coarse *kind* of a [`Value`], used in error messages and schema checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ValueKind {
    Null,
    Bool,
    Num,
    Str,
    List,
    Map,
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueKind::Null => "null",
            ValueKind::Bool => "bool",
            ValueKind::Num => "number",
            ValueKind::Str => "string",
            ValueKind::List => "list",
            ValueKind::Map => "map",
        };
        f.write_str(s)
    }
}

impl Value {
    /// The kind of this value.
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Null => ValueKind::Null,
            Value::Bool(_) => ValueKind::Bool,
            Value::Num(_) => ValueKind::Num,
            Value::Str(_) => ValueKind::Str,
            Value::List(_) => ValueKind::List,
            Value::Map(_) => ValueKind::Map,
        }
    }

    /// `true` iff the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Borrow as `&str` if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as `f64` if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Borrow as `i64` if this is a number with an exact integral value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => Some(*n as i64),
            _ => None,
        }
    }

    /// Borrow as a list if this is a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as a map if this is a map.
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Index into a map value (`Null` and non-maps yield `None`).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map().and_then(|m| m.get(key))
    }

    /// "Truthiness" as used by HCL conditionals: `false`, `null`, `0`, `""`
    /// are falsy; everything else is truthy.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Num(n) => *n != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::List(v) => !v.is_empty(),
            Value::Map(m) => !m.is_empty(),
        }
    }

    /// Render the value the way it would appear inside a string
    /// interpolation (`"${...}"`) — strings are unquoted, everything else is
    /// its canonical display form.
    pub fn interpolate(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            other => other.to_string(),
        }
    }

    /// Deep size: the number of scalar leaves in this value, used by the
    /// porting optimizer's redundancy metric.
    pub fn leaf_count(&self) -> usize {
        match self {
            Value::List(v) => v.iter().map(Value::leaf_count).sum::<usize>().max(1),
            Value::Map(m) => m.values().map(Value::leaf_count).sum::<usize>().max(1),
            _ => 1,
        }
    }
}

impl fmt::Display for Value {
    /// Canonical HCL-ish rendering. Strings are quoted; maps render in key
    /// order; this output is deterministic and is used in diffs shown to the
    /// user.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Str(s) => write!(f, "{s:?}"),
            Value::List(v) => {
                f.write_str("[")?;
                for (i, item) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Map(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{k} = {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Num(n as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl<V: Into<Value>> From<Vec<V>> for Value {
    fn from(v: Vec<V>) -> Self {
        Value::List(v.into_iter().map(Into::into).collect())
    }
}

impl FromIterator<(String, Value)> for Value {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        Value::Map(iter.into_iter().collect())
    }
}

/// Convenience constructor for map values:
/// `vmap([("name", "x".into()), ("size", 4.into())])`.
pub fn vmap<K: Into<String>, I: IntoIterator<Item = (K, Value)>>(entries: I) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Convenience constructor for attribute maps.
pub fn attrs<K: Into<String>, I: IntoIterator<Item = (K, Value)>>(entries: I) -> Attrs {
    entries.into_iter().map(|(k, v)| (k.into(), v)).collect()
}

/// Whether a recorded attribute (`None`: the record has none) differs from
/// the value a program declares for it. An absent attribute reads as
/// `null`: the executor submits no null, so a declared `null` is never
/// recorded. The planner and the drift classifier both ask this.
pub fn attr_differs(recorded: Option<&Value>, declared: &Value) -> bool {
    recorded.unwrap_or(&Value::Null) != declared
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_reporting() {
        assert_eq!(Value::Null.kind(), ValueKind::Null);
        assert_eq!(Value::Bool(true).kind(), ValueKind::Bool);
        assert_eq!(Value::Num(1.5).kind(), ValueKind::Num);
        assert_eq!(Value::from("x").kind(), ValueKind::Str);
        assert_eq!(Value::List(vec![]).kind(), ValueKind::List);
        assert_eq!(Value::Map(BTreeMap::new()).kind(), ValueKind::Map);
    }

    #[test]
    fn int_round_trip() {
        assert_eq!(Value::from(42i64).as_int(), Some(42));
        assert_eq!(Value::Num(1.5).as_int(), None);
        assert_eq!(Value::Num(-3.0).as_int(), Some(-3));
    }

    #[test]
    fn truthiness_matches_hcl() {
        assert!(!Value::Null.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(!Value::Num(0.0).truthy());
        assert!(!Value::from("").truthy());
        assert!(Value::from("no").truthy());
        assert!(Value::Num(0.1).truthy());
    }

    #[test]
    fn display_is_canonical() {
        let v = vmap([("b", Value::from(vec![1i64, 2])), ("a", Value::from("hi"))]);
        // map renders in key order regardless of insertion order
        assert_eq!(v.to_string(), r#"{a = "hi", b = [1, 2]}"#);
        assert_eq!(Value::Num(3.0).to_string(), "3");
        assert_eq!(Value::Num(3.25).to_string(), "3.25");
    }

    #[test]
    fn interpolation_strips_quotes() {
        assert_eq!(Value::from("web").interpolate(), "web");
        assert_eq!(Value::Num(8.0).interpolate(), "8");
    }

    #[test]
    fn get_indexes_maps_only() {
        let v = vmap([("id", Value::from("i-123"))]);
        assert_eq!(v.get("id"), Some(&Value::from("i-123")));
        assert_eq!(v.get("nope"), None);
        assert_eq!(Value::from("str").get("id"), None);
    }

    #[test]
    fn leaf_count_counts_scalars() {
        assert_eq!(Value::Null.leaf_count(), 1);
        let v = vmap([
            ("a", Value::from(vec![1i64, 2, 3])),
            ("b", vmap([("c", Value::from("x"))])),
        ]);
        assert_eq!(v.leaf_count(), 4);
    }

    #[test]
    fn serde_round_trip() {
        let v = vmap([
            ("name", Value::from("vm")),
            ("count", Value::from(3i64)),
            ("tags", Value::from(vec!["a", "b"])),
        ]);
        let json = serde_json::to_string(&v).expect("serialize");
        let back: Value = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(v, back);
    }
}
