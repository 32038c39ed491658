//! The JSON value model.

use crate::number::Number;
use std::fmt;

/// An object is an insertion-ordered list of key/value pairs.
///
/// Insertion order is preserved because learning-module files are written and
/// reviewed by hand ("it can be easily done so on printed paper and reviewed",
/// §II of the paper); re-serializing a module must not shuffle its fields.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Create an empty object.
    pub fn new() -> Self {
        Map {
            entries: Vec::new(),
        }
    }

    /// Create an empty object with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Map {
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of key/value pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the object has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Get a value by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Get a mutable value by key.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// True when the key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Insert a key/value pair, replacing (in place) any existing value for the key.
    /// Returns the previous value if there was one.
    pub fn insert(&mut self, key: impl Into<String>, value: impl Into<Value>) -> Option<Value> {
        let key = key.into();
        let value = value.into();
        if let Some(slot) = self.get_mut(&key) {
            Some(std::mem::replace(slot, value))
        } else {
            self.entries.push((key, value));
            None
        }
    }

    /// Remove a key, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// Iterate over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterate over keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    /// Iterate over values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| v)
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut map = Map::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// The `null` literal.
    #[default]
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number (integer or float).
    Number(Number),
    /// A string.
    String(String),
    /// An array of values.
    Array(Vec<Value>),
    /// An object (insertion-ordered map).
    Object(Map),
}

impl Value {
    /// Shorthand for looking up a key on an object value.
    ///
    /// Returns `None` when `self` is not an object or the key is absent.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Shorthand for indexing into an array value.
    pub fn at(&self, index: usize) -> Option<&Value> {
        match self {
            Value::Array(a) => a.get(index),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as `usize`, if it is a non-negative integral number that fits.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Number(n) => n.as_usize(),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The value as a slice of values, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object map, if it is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The value as a mutable object map, if it is an object.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// A short name for the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Deep count of nodes in this value (itself plus all descendants).
    ///
    /// Used by the module validator to enforce size limits on untrusted files.
    pub fn node_count(&self) -> usize {
        match self {
            Value::Array(a) => 1 + a.iter().map(Value::node_count).sum::<usize>(),
            Value::Object(m) => 1 + m.values().map(Value::node_count).sum::<usize>(),
            _ => 1,
        }
    }

    /// Maximum nesting depth of this value (a scalar has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Value::Array(a) => 1 + a.iter().map(Value::depth).max().unwrap_or(0),
            Value::Object(m) => 1 + m.values().map(Value::depth).max().unwrap_or(0),
            _ => 1,
        }
    }

    /// Interpret an array-of-arrays of numbers as a dense row-major `u32` grid.
    ///
    /// This is the exact shape of the paper's `traffic_matrix` and
    /// `traffic_matrix_colors` fields. Returns `None` if the value is not an
    /// array of arrays of non-negative integers.
    pub fn as_u32_grid(&self) -> Option<Vec<Vec<u32>>> {
        let rows = self.as_array()?;
        let mut grid = Vec::with_capacity(rows.len());
        for row in rows {
            let cells = row.as_array()?;
            let mut out = Vec::with_capacity(cells.len());
            for c in cells {
                let v = c.as_u64()?;
                out.push(u32::try_from(v).ok()?);
            }
            grid.push(out);
        }
        Some(grid)
    }

    /// Interpret an array of strings as a `Vec<String>`.
    pub fn as_string_list(&self) -> Option<Vec<String>> {
        let items = self.as_array()?;
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            out.push(item.as_str()?.to_string());
        }
        Some(out)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::ser::to_string(self))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Number(Number::Int(v))
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Number(Number::Int(v as i64))
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Number(Number::Int(v as i64))
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Number(Number::from(v))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Number(Number::Float(v))
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}
impl From<Number> for Value {
    fn from(v: Number) -> Self {
        Value::Number(v)
    }
}
impl From<Map> for Value {
    fn from(v: Map) -> Self {
        Value::Object(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(v: &[T]) -> Self {
        Value::Array(v.iter().cloned().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_insertion_order() {
        let mut m = Map::new();
        m.insert("name", "Training");
        m.insert("size", "6x6");
        m.insert("author", "MIT");
        let keys: Vec<&str> = m.keys().collect();
        assert_eq!(keys, vec!["name", "size", "author"]);
    }

    #[test]
    fn map_insert_replaces_in_place() {
        let mut m = Map::new();
        m.insert("a", 1i64);
        m.insert("b", 2i64);
        let old = m.insert("a", 10i64);
        assert_eq!(old, Some(Value::from(1i64)));
        let keys: Vec<&str> = m.keys().collect();
        assert_eq!(keys, vec!["a", "b"], "replacement must not reorder keys");
        assert_eq!(m.get("a").unwrap().as_i64(), Some(10));
    }

    #[test]
    fn map_remove() {
        let mut m = Map::new();
        m.insert("x", 1i64);
        assert_eq!(m.remove("x").unwrap().as_i64(), Some(1));
        assert!(m.remove("x").is_none());
        assert!(m.is_empty());
    }

    #[test]
    fn value_accessors() {
        let v = Value::from(vec![1i64, 2, 3]);
        assert_eq!(v.at(1).unwrap().as_i64(), Some(2));
        assert_eq!(v.at(5), None);
        assert_eq!(v.type_name(), "array");
        assert_eq!(Value::Null.type_name(), "null");
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(2.5).as_f64(), Some(2.5));
    }

    #[test]
    fn u32_grid_extraction() {
        let v = Value::Array(vec![
            Value::from(vec![0i64, 1, 2]),
            Value::from(vec![2i64, 0, 1]),
        ]);
        let grid = v.as_u32_grid().unwrap();
        assert_eq!(grid, vec![vec![0, 1, 2], vec![2, 0, 1]]);
    }

    #[test]
    fn u32_grid_rejects_negative_and_non_numeric() {
        let neg = Value::Array(vec![Value::from(vec![-1i64])]);
        assert!(neg.as_u32_grid().is_none());
        let text = Value::Array(vec![Value::Array(vec![Value::from("x")])]);
        assert!(text.as_u32_grid().is_none());
    }

    #[test]
    fn string_list_extraction() {
        let v = Value::from(vec!["WS1", "WS2"]);
        assert_eq!(
            v.as_string_list().unwrap(),
            vec!["WS1".to_string(), "WS2".to_string()]
        );
        let mixed = Value::Array(vec![Value::from("WS1"), Value::from(1i64)]);
        assert!(mixed.as_string_list().is_none());
    }

    #[test]
    fn node_count_and_depth() {
        let mut obj = Map::new();
        obj.insert("a", Value::from(vec![1i64, 2]));
        obj.insert("b", Value::from("x"));
        let v = Value::Object(obj);
        // object + array + 2 numbers + string = 5
        assert_eq!(v.node_count(), 5);
        assert_eq!(v.depth(), 3);
        assert_eq!(Value::Null.depth(), 1);
    }
}
