//! JSON number representation.
//!
//! Traffic-matrix cells are small non-negative integers (packet counts), but
//! module authors may also use floats (e.g. normalized traffic volumes), so
//! numbers preserve whether they were written as an integer or a float.

use std::cmp::Ordering;
use std::fmt;

/// A JSON number, either an integer (stored as `i64`) or a float (`f64`).
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// An integer literal without a fraction or exponent.
    Int(i64),
    /// Any literal with a fraction or exponent, or an integer outside `i64`.
    Float(f64),
}

impl Number {
    /// The value as `f64` (lossless for `Int` within 2^53).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::Int(i) => i as f64,
            Number::Float(f) => f,
        }
    }

    /// The value as `i64` if it is an integer (or a float with zero fraction).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::Int(i) => Some(i),
            Number::Float(f) => {
                if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 {
                    Some(f as i64)
                } else {
                    None
                }
            }
        }
    }

    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// The value as `usize` if it is a non-negative integer that fits.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|u| usize::try_from(u).ok())
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Number::Int(a), Number::Int(b)) => a == b,
            _ => self.as_f64() == other.as_f64(),
        }
    }
}

impl PartialOrd for Number {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.as_f64().partial_cmp(&other.as_f64())
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::Int(i) => write!(f, "{i}"),
            Number::Float(x) => {
                if x.is_finite() {
                    // Ensure floats serialize with a decimal point or exponent so
                    // they re-parse as floats.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        write!(f, "{x:.1}")
                    } else {
                        write!(f, "{x}")
                    }
                } else {
                    // JSON has no Inf/NaN; serialize as null-compatible 0 guard.
                    write!(f, "null")
                }
            }
        }
    }
}

impl From<i64> for Number {
    fn from(v: i64) -> Self {
        Number::Int(v)
    }
}
impl From<i32> for Number {
    fn from(v: i32) -> Self {
        Number::Int(v as i64)
    }
}
impl From<u32> for Number {
    fn from(v: u32) -> Self {
        Number::Int(v as i64)
    }
}
impl From<usize> for Number {
    fn from(v: usize) -> Self {
        match i64::try_from(v) {
            Ok(i) => Number::Int(i),
            Err(_) => Number::Float(v as f64),
        }
    }
}
impl From<f64> for Number {
    fn from(v: f64) -> Self {
        Number::Float(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_conversions() {
        let n = Number::from(42i64);
        assert_eq!(n.as_i64(), Some(42));
        assert_eq!(n.as_u64(), Some(42));
        assert_eq!(n.as_usize(), Some(42));
        assert_eq!(n.as_f64(), 42.0);
        assert!(matches!(n, Number::Int(42)));
    }

    #[test]
    fn negative_int_is_not_u64() {
        let n = Number::from(-3i64);
        assert_eq!(n.as_i64(), Some(-3));
        assert_eq!(n.as_u64(), None);
    }

    #[test]
    fn float_with_zero_fraction_converts() {
        let n = Number::from(7.0);
        assert_eq!(n.as_i64(), Some(7));
        assert!(!matches!(n, Number::Int(_)));
    }

    #[test]
    fn float_with_fraction_does_not_convert() {
        let n = Number::from(7.5);
        assert_eq!(n.as_i64(), None);
        assert_eq!(n.as_f64(), 7.5);
    }

    #[test]
    fn display_round_trips_kind() {
        assert_eq!(Number::from(3i64).to_string(), "3");
        assert_eq!(Number::from(3.0).to_string(), "3.0");
        assert_eq!(Number::from(2.5).to_string(), "2.5");
    }

    #[test]
    fn equality_across_kinds() {
        assert_eq!(Number::from(2i64), Number::from(2.0));
        assert_ne!(Number::from(2i64), Number::from(2.5));
        assert!(Number::from(1i64) < Number::from(1.5));
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Number::from(f64::NAN).to_string(), "null");
        assert_eq!(Number::from(f64::INFINITY).to_string(), "null");
    }
}
