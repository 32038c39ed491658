//! The dynamically-typed property value used by nodes, signals and the
//! GDScript-like interpreter — the engine's equivalent of Godot's `Variant`.

use std::collections::BTreeMap;
use std::fmt;

/// A dynamically-typed value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Variant {
    /// The absence of a value.
    #[default]
    Nil,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A string.
    Str(String),
    /// A 3-component vector (positions, sizes).
    Vector3(f64, f64, f64),
    /// An RGB color with components in `[0, 1]`.
    Color(f64, f64, f64),
    /// An ordered list of variants.
    Array(Vec<Variant>),
    /// A string-keyed dictionary (sorted for deterministic iteration).
    Dict(BTreeMap<String, Variant>),
    /// A reference to another node in the same tree, by node id.
    NodeRef(u64),
}

impl Variant {
    /// A short name of the variant's type.
    pub fn type_name(&self) -> &'static str {
        match self {
            Variant::Nil => "Nil",
            Variant::Bool(_) => "bool",
            Variant::Int(_) => "int",
            Variant::Float(_) => "float",
            Variant::Str(_) => "String",
            Variant::Vector3(..) => "Vector3",
            Variant::Color(..) => "Color",
            Variant::Array(_) => "Array",
            Variant::Dict(_) => "Dictionary",
            Variant::NodeRef(_) => "NodePath",
        }
    }

    /// As a boolean, using GDScript-like truthiness for convenience in scripts.
    pub fn truthy(&self) -> bool {
        match self {
            Variant::Nil => false,
            Variant::Bool(b) => *b,
            Variant::Int(i) => *i != 0,
            Variant::Float(f) => *f != 0.0,
            Variant::Str(s) => !s.is_empty(),
            Variant::Array(a) => !a.is_empty(),
            Variant::Dict(d) => !d.is_empty(),
            Variant::Vector3(..) | Variant::Color(..) | Variant::NodeRef(_) => true,
        }
    }

    /// As an `i64` if the variant is numeric.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Variant::Int(i) => Some(*i),
            Variant::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            _ => None,
        }
    }

    /// As an `f64` if the variant is numeric.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Variant::Int(i) => Some(*i as f64),
            Variant::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// As a string slice if the variant is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Variant::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As a boolean if the variant is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Variant::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// As an array slice if the variant is an array.
    pub fn as_array(&self) -> Option<&[Variant]> {
        match self {
            Variant::Array(a) => Some(a),
            _ => None,
        }
    }

    /// As a node reference id.
    pub fn as_node_ref(&self) -> Option<u64> {
        match self {
            Variant::NodeRef(id) => Some(*id),
            _ => None,
        }
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Variant::Nil => write!(f, "null"),
            Variant::Bool(b) => write!(f, "{b}"),
            Variant::Int(i) => write!(f, "{i}"),
            Variant::Float(x) => write!(f, "{x}"),
            Variant::Str(s) => write!(f, "{s}"),
            Variant::Vector3(x, y, z) => write!(f, "({x}, {y}, {z})"),
            Variant::Color(r, g, b) => write!(f, "Color({r}, {g}, {b})"),
            Variant::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Variant::Dict(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            Variant::NodeRef(id) => write!(f, "@node:{id}"),
        }
    }
}

impl From<bool> for Variant {
    fn from(v: bool) -> Self {
        Variant::Bool(v)
    }
}
impl From<i64> for Variant {
    fn from(v: i64) -> Self {
        Variant::Int(v)
    }
}
impl From<i32> for Variant {
    fn from(v: i32) -> Self {
        Variant::Int(v as i64)
    }
}
impl From<usize> for Variant {
    fn from(v: usize) -> Self {
        Variant::Int(v as i64)
    }
}
impl From<f64> for Variant {
    fn from(v: f64) -> Self {
        Variant::Float(v)
    }
}
impl From<&str> for Variant {
    fn from(v: &str) -> Self {
        Variant::Str(v.to_string())
    }
}
impl From<String> for Variant {
    fn from(v: String) -> Self {
        Variant::Str(v)
    }
}
impl<T: Into<Variant>> From<Vec<T>> for Variant {
    fn from(v: Vec<T>) -> Self {
        Variant::Array(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names_and_conversions() {
        assert_eq!(Variant::Nil.type_name(), "Nil");
        assert_eq!(Variant::from(3i64).as_int(), Some(3));
        assert_eq!(Variant::from(3.0).as_int(), Some(3));
        assert_eq!(Variant::from(3.5).as_int(), None);
        assert_eq!(Variant::from(3i64).as_float(), Some(3.0));
        assert_eq!(Variant::from("hi").as_str(), Some("hi"));
        assert_eq!(Variant::from(true).as_bool(), Some(true));
        assert_eq!(Variant::from(vec![1i64, 2]).as_array().unwrap().len(), 2);
        assert_eq!(Variant::NodeRef(7).as_node_ref(), Some(7));
        assert_eq!(Variant::from("x").as_node_ref(), None);
    }

    #[test]
    fn truthiness_follows_gdscript() {
        assert!(!Variant::Nil.truthy());
        assert!(!Variant::from(0i64).truthy());
        assert!(Variant::from(1i64).truthy());
        assert!(!Variant::from("").truthy());
        assert!(Variant::from("x").truthy());
        assert!(!Variant::Array(vec![]).truthy());
        assert!(Variant::Vector3(0.0, 0.0, 0.0).truthy());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Variant::from(vec![1i64, 2]).to_string(), "[1, 2]");
        assert_eq!(Variant::Vector3(1.0, 2.0, 3.0).to_string(), "(1, 2, 3)");
        let mut d = BTreeMap::new();
        d.insert("b".to_string(), Variant::from(2i64));
        d.insert("a".to_string(), Variant::from(1i64));
        assert_eq!(Variant::Dict(d).to_string(), "{a: 1, b: 2}");
    }

    #[test]
    fn default_is_nil() {
        assert_eq!(Variant::default(), Variant::Nil);
    }
}
