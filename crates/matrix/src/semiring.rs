//! Semirings for GraphBLAS-style matrix operations.
//!
//! The GraphBLAS standard the paper's introduction cites expresses graph
//! algorithms as matrix operations over configurable semirings. A semiring
//! provides an "addition" (the reduction combining contributions to one output
//! cell, with an identity) and a "multiplication" (combining a matrix entry
//! with a vector/matrix entry).

/// A semiring over element type `T`.
pub trait Semiring<T: Copy> {
    /// Identity of the additive operation (e.g. `0` for plus, `-inf` for max).
    fn zero(&self) -> T;
    /// The additive (reduction) operation.
    fn add(&self, a: T, b: T) -> T;
    /// The multiplicative (combination) operation.
    fn mul(&self, a: T, b: T) -> T;
    /// True when a value equals the additive identity, allowing it to be
    /// dropped from sparse results.
    fn is_zero(&self, a: T) -> bool;
}

/// The conventional arithmetic semiring `(+, ×, 0)`: packet counting,
/// multi-hop traffic volume.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlusTimes;

impl Semiring<u64> for PlusTimes {
    fn zero(&self) -> u64 {
        0
    }
    fn add(&self, a: u64, b: u64) -> u64 {
        a.saturating_add(b)
    }
    fn mul(&self, a: u64, b: u64) -> u64 {
        a.saturating_mul(b)
    }
    fn is_zero(&self, a: u64) -> bool {
        a == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_times_u64_saturates() {
        let s = PlusTimes;
        assert_eq!(Semiring::<u64>::zero(&s), 0);
        assert_eq!(s.add(2u64, 3), 5);
        assert_eq!(s.mul(4u64, 5), 20);
        assert_eq!(s.add(u64::MAX, 1), u64::MAX);
        assert_eq!(s.mul(u64::MAX, 2), u64::MAX);
        assert!(Semiring::<u64>::is_zero(&s, 0));
        assert!(!Semiring::<u64>::is_zero(&s, 7));
    }
}
