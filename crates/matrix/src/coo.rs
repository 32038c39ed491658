//! Coordinate-list (COO) sparse matrices.
//!
//! COO is the natural construction format for traffic matrices built from
//! packet streams: every observed packet contributes a `(source, destination,
//! count)` triple, and duplicate coordinates are summed when the matrix is
//! finalized — the "hypersparse traffic matrix construction" workflow the
//! paper's introduction cites.

use crate::csr::CsrMatrix;

/// A sparse matrix stored as unordered `(row, col, value)` triples.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix<T> {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T: Copy + PartialEq + std::ops::Add<Output = T> + Default> CooMatrix<T> {
    /// An empty matrix with the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// An empty matrix with pre-allocated space for `capacity` entries.
    pub fn with_capacity(rows: usize, cols: usize, capacity: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// The shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored triples (including duplicates not yet coalesced).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// True when no triples are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append a triple without bounds checking against existing duplicates.
    ///
    /// Panics in debug builds when the coordinates are out of range.
    pub fn push(&mut self, row: usize, col: usize, value: T) {
        debug_assert!(
            row < self.rows && col < self.cols,
            "coordinate out of range"
        );
        self.entries.push((row, col, value));
    }

    /// The stored triples in insertion order.
    pub fn entries(&self) -> &[(usize, usize, T)] {
        &self.entries
    }

    /// Sum duplicate coordinates and drop entries equal to `T::default()`
    /// (zero for numeric types). Entries end up sorted by `(row, col)`.
    pub fn coalesce(&mut self) {
        if self.entries.is_empty() {
            return;
        }
        self.entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut write = 0usize;
        for read in 0..self.entries.len() {
            if write > 0
                && self.entries[write - 1].0 == self.entries[read].0
                && self.entries[write - 1].1 == self.entries[read].1
            {
                let v = self.entries[write - 1].2 + self.entries[read].2;
                self.entries[write - 1].2 = v;
            } else {
                self.entries[write] = self.entries[read];
                write += 1;
            }
        }
        self.entries.truncate(write);
        self.entries.retain(|&(_, _, v)| v != T::default());
    }

    /// Convert to CSR, coalescing duplicates first.
    pub fn to_csr(mut self) -> CsrMatrix<T> {
        self.coalesce();
        CsrMatrix::from_sorted_coo(self.rows, self.cols, self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_shape() {
        let mut m = CooMatrix::<u32>::with_capacity(4, 4, 8);
        m.push(0, 1, 3);
        m.push(2, 3, 1);
        assert_eq!(m.shape(), (4, 4));
        assert_eq!(m.nnz(), 2);
        assert!(!m.is_empty());
        assert_eq!(m.entries()[1], (2, 3, 1));
    }

    #[test]
    fn coalesce_sums_duplicates_and_drops_zeros() {
        let mut m = CooMatrix::<i64>::new(3, 3);
        m.push(1, 1, 2);
        m.push(0, 0, 5);
        m.push(1, 1, 3);
        m.push(2, 2, 4);
        m.push(2, 2, -4); // cancels to zero, must be dropped
        m.coalesce();
        assert_eq!(m.entries(), &[(0, 0, 5), (1, 1, 5)]);
    }

    #[test]
    fn coalesce_empty_is_noop() {
        let mut m = CooMatrix::<u32>::new(3, 3);
        m.coalesce();
        assert!(m.is_empty());
    }

    #[test]
    fn to_csr_round_trip_values() {
        let mut m = CooMatrix::<u32>::new(3, 4);
        m.push(0, 1, 2);
        m.push(2, 3, 7);
        m.push(0, 1, 1);
        let csr = m.to_csr();
        assert_eq!(csr.get(0, 1), 3);
        assert_eq!(csr.get(2, 3), 7);
        assert_eq!(csr.get(1, 1), 0);
        assert_eq!(csr.nnz(), 2);
    }
}
