//! Compressed sparse row (CSR) matrices.
//!
//! CSR is the workhorse format for the analytics side of the reproduction:
//! row-oriented traversal makes `mxv`, row reduction and degree computation a
//! single contiguous scan per row, which also parallelizes cleanly across rows.

use crate::error::{MatrixError, Result};

/// A sparse matrix in compressed sparse row format.
#[derive(Debug, PartialEq)]
pub struct CsrMatrix<T> {
    rows: usize,
    cols: usize,
    /// `row_ptr[r]..row_ptr[r+1]` indexes the entries of row `r`.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Clone> Clone for CsrMatrix<T> {
    fn clone(&self) -> Self {
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: self.values.clone(),
        }
    }

    /// Clones into `self`'s existing array allocations (`Vec::clone_from`),
    /// so repeatedly refreshing a matrix from a same-sized source — the
    /// delta-decode base in `tw-ingest`'s `DecodeScratch` — allocates
    /// nothing once the buffers have reached their high-water mark.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.row_ptr.clone_from(&source.row_ptr);
        self.col_idx.clone_from(&source.col_idx);
        self.values.clone_from(&source.values);
    }
}

impl<T: Copy + Default + PartialEq> CsrMatrix<T> {
    /// An empty matrix with the given shape.
    pub fn empty(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Build from triples that are already sorted by `(row, col)` with no
    /// duplicates (the post-condition of [`crate::coo::CooMatrix::coalesce`]).
    pub fn from_sorted_triples(rows: usize, cols: usize, triples: &[(usize, usize, T)]) -> Self {
        let mut row_ptr = vec![0usize; rows + 1];
        for &(r, _, _) in triples {
            row_ptr[r + 1] += 1;
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut col_idx = Vec::with_capacity(triples.len());
        let mut values = Vec::with_capacity(triples.len());
        for &(_, c, v) in triples {
            col_idx.push(c);
            values.push(v);
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Build from already-coalesced entries, consuming the vector.
    ///
    /// This is the hot-path constructor for the streaming ingest pipeline:
    /// the caller guarantees the entries are sorted by `(row, col)` with no
    /// duplicate coordinates (the post-condition of
    /// [`crate::coo::CooMatrix::coalesce`]), so the CSR arrays are filled in
    /// one pass with no re-sort and no intermediate copy of the triples.
    pub fn from_sorted_coo(rows: usize, cols: usize, entries: Vec<(usize, usize, T)>) -> Self {
        debug_assert!(
            entries
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "from_sorted_coo requires entries sorted by (row, col) with no duplicates"
        );
        let mut row_ptr = vec![0usize; rows + 1];
        for &(r, _, _) in &entries {
            row_ptr[r + 1] += 1;
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        for (_, c, v) in entries {
            col_idx.push(c);
            values.push(v);
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Build directly from pre-assembled CSR arrays.
    ///
    /// This is the zero-copy constructor for decoders (the `tw-ingest`
    /// window codec) and the ingest merge, which already produce the arrays
    /// in CSR layout: no intermediate triple buffer, no counting pass.
    ///
    /// The caller's contract is that columns rise strictly within each row
    /// (checked in debug builds), as in [`CsrMatrix::from_sorted_coo`].
    /// Under it the check costs O(rows), not O(nnz): `row_ptr` must be
    /// monotone from `0` to `nnz` with `rows + 1` entries, `col_idx` and
    /// `values` must have equal length, and each row's last (so largest)
    /// column must be below `cols`. Only the first row that fails is
    /// searched, for its first out-of-range column, so the error is the one
    /// a scan of every column would report.
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<T>,
    ) -> Result<Self> {
        if row_ptr.len() != rows + 1
            || col_idx.len() != values.len()
            || row_ptr.first() != Some(&0)
            || row_ptr.last() != Some(&col_idx.len())
            || row_ptr.windows(2).any(|w| w[0] > w[1])
        {
            return Err(MatrixError::DimensionMismatch(format!(
                "row_ptr ({} entries, last {:?}) does not describe {} rows with {} stored entries",
                row_ptr.len(),
                row_ptr.last(),
                rows,
                col_idx.len()
            )));
        }
        // An empty row re-checks the last column of the non-empty row before
        // it, which was checked first, so the row found is never empty; and
        // skipping only leading empty rows keeps the loop's branches
        // predictable on hypersparse windows.
        let bad_column = row_ptr
            .windows(2)
            .find(|span| span[1] > 0 && col_idx[span[1] - 1] >= cols)
            .and_then(|span| col_idx[span[0]..span[1]].iter().find(|&&c| c >= cols));
        if let Some(&bad) = bad_column {
            return Err(MatrixError::IndexOutOfBounds {
                index: bad,
                bound: cols,
                axis: "column",
            });
        }
        #[cfg(debug_assertions)]
        for r in 0..rows {
            debug_assert!(
                col_idx[row_ptr[r]..row_ptr[r + 1]]
                    .windows(2)
                    .all(|w| w[0] < w[1]),
                "from_raw_parts requires strictly increasing columns within row {r}"
            );
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// The shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The value at `(row, col)`, or `T::default()` when not stored.
    pub fn get(&self, row: usize, col: usize) -> T {
        if row >= self.rows {
            return T::default();
        }
        let (start, end) = (self.row_ptr[row], self.row_ptr[row + 1]);
        // Column indices within a row are sorted; binary search.
        match self.col_idx[start..end].binary_search(&col) {
            Ok(offset) => self.values[start + offset],
            Err(_) => T::default(),
        }
    }

    /// The `(column, value)` pairs of one row.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        let (start, end) = if row < self.rows {
            (self.row_ptr[row], self.row_ptr[row + 1])
        } else {
            (0, 0)
        };
        self.col_idx[start..end]
            .iter()
            .copied()
            .zip(self.values[start..end].iter().copied())
    }

    /// Number of stored entries in one row.
    pub fn row_nnz(&self, row: usize) -> usize {
        if row < self.rows {
            self.row_ptr[row + 1] - self.row_ptr[row]
        } else {
            0
        }
    }

    /// Iterate over all `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.rows).flat_map(move |r| self.row(r).map(move |(c, v)| (r, c, v)))
    }

    /// Internal row pointer array (exposed for parallel kernels and tests).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Internal column index array.
    pub fn col_indices(&self) -> &[usize] {
        &self.col_idx
    }

    /// Internal value array.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The transpose (CSC of the original, re-expressed as CSR).
    pub fn transpose(&self) -> CsrMatrix<T> {
        let mut triples: Vec<(usize, usize, T)> = self.iter().map(|(r, c, v)| (c, r, v)).collect();
        triples.sort_unstable_by_key(|&(r, c, _)| (r, c));
        CsrMatrix::from_sorted_triples(self.cols, self.rows, &triples)
    }

    /// Decompose into `(rows, cols, row_ptr, col_idx, values)`, the inverse
    /// of [`CsrMatrix::from_raw_parts`].
    ///
    /// This is the recycling half of the zero-copy decode loop: a consumer
    /// that is done with a decoded window hands its arrays back (e.g. to
    /// `tw-ingest`'s `DecodeScratch`) so the next decode builds into them
    /// instead of allocating.
    pub fn into_raw_parts(self) -> (usize, usize, Vec<usize>, Vec<usize>, Vec<T>) {
        (
            self.rows,
            self.cols,
            self.row_ptr,
            self.col_idx,
            self.values,
        )
    }

    /// The sparse cell changes that turn `self` into `other`.
    ///
    /// Changes are `(row, col, Some(new_value))` for cells stored in `other`
    /// with a value `self` does not store there, and `(row, col, None)` for
    /// cells stored in `self` but not in `other`. The list is sorted by
    /// `(row, col)` — exactly the contract [`CsrMatrix::apply_delta_into`]
    /// expects, so applying `self.diff(other)` to `self` reconstructs
    /// `other` cell for cell (including stored `T::default()` values, which
    /// survive as `Some(default)` upserts rather than collapsing into
    /// deletes).
    ///
    /// Both matrices must have the same shape.
    pub fn diff(&self, other: &CsrMatrix<T>) -> Result<Vec<(usize, usize, Option<T>)>> {
        if self.shape() != other.shape() {
            return Err(MatrixError::DimensionMismatch(format!(
                "diff requires equal shapes, got {:?} and {:?}",
                self.shape(),
                other.shape()
            )));
        }
        let mut changes = Vec::new();
        for r in 0..self.rows {
            let (a_start, a_end) = (self.row_ptr[r], self.row_ptr[r + 1]);
            let (b_start, b_end) = (other.row_ptr[r], other.row_ptr[r + 1]);
            let (mut a, mut b) = (a_start, b_start);
            while a < a_end || b < b_end {
                let ac = self.col_idx.get(a).copied().filter(|_| a < a_end);
                let bc = other.col_idx.get(b).copied().filter(|_| b < b_end);
                match (ac, bc) {
                    (Some(ca), Some(cb)) if ca == cb => {
                        if self.values[a] != other.values[b] {
                            changes.push((r, ca, Some(other.values[b])));
                        }
                        a += 1;
                        b += 1;
                    }
                    (Some(ca), Some(cb)) if ca < cb => {
                        changes.push((r, ca, None));
                        a += 1;
                    }
                    (Some(_), Some(cb)) => {
                        changes.push((r, cb, Some(other.values[b])));
                        b += 1;
                    }
                    (Some(ca), None) => {
                        changes.push((r, ca, None));
                        a += 1;
                    }
                    (None, Some(cb)) => {
                        changes.push((r, cb, Some(other.values[b])));
                        b += 1;
                    }
                    (None, None) => unreachable!("loop condition"),
                }
            }
        }
        Ok(changes)
    }

    /// Apply sorted cell changes (the output of [`CsrMatrix::diff`]) to
    /// `self`, building into caller-provided arrays.
    ///
    /// The arrays are cleared and refilled with a valid CSR layout for the
    /// patched matrix (`self` shape), reusing their allocations — this is
    /// the zero-allocation half of the delta-decode hot path; pass the
    /// result to [`CsrMatrix::from_raw_parts`] to finish. The merge is one
    /// ordered pass over `self` and the change list, `O(nnz + changes)`.
    pub fn apply_delta_into(
        &self,
        changes: &[(usize, usize, Option<T>)],
        row_ptr: &mut Vec<usize>,
        col_idx: &mut Vec<usize>,
        values: &mut Vec<T>,
    ) -> Result<()> {
        for w in changes.windows(2) {
            if (w[0].0, w[0].1) >= (w[1].0, w[1].1) {
                return Err(MatrixError::DimensionMismatch(format!(
                    "delta changes must be sorted strictly by (row, col); \
                     ({}, {}) does not precede ({}, {})",
                    w[0].0, w[0].1, w[1].0, w[1].1
                )));
            }
        }
        for &(r, c, _) in changes {
            if r >= self.rows {
                return Err(MatrixError::IndexOutOfBounds {
                    index: r,
                    bound: self.rows,
                    axis: "row",
                });
            }
            if c >= self.cols {
                return Err(MatrixError::IndexOutOfBounds {
                    index: c,
                    bound: self.cols,
                    axis: "column",
                });
            }
        }
        row_ptr.clear();
        col_idx.clear();
        values.clear();
        row_ptr.reserve(self.rows + 1);
        col_idx.reserve(self.col_idx.len() + changes.len());
        values.reserve(self.values.len() + changes.len());
        row_ptr.push(0);
        let mut next = 0usize;
        for r in 0..self.rows {
            let end = self.row_ptr[r + 1];
            let mut base = self.row_ptr[r];
            while next < changes.len() && changes[next].0 == r {
                let (_, c, change) = changes[next];
                while base < end && self.col_idx[base] < c {
                    col_idx.push(self.col_idx[base]);
                    values.push(self.values[base]);
                    base += 1;
                }
                if base < end && self.col_idx[base] == c {
                    base += 1; // superseded by the change
                }
                if let Some(v) = change {
                    col_idx.push(c);
                    values.push(v);
                }
                next += 1;
            }
            while base < end {
                col_idx.push(self.col_idx[base]);
                values.push(self.values[base]);
                base += 1;
            }
            row_ptr.push(col_idx.len());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CSR matrix of a dense row-major grid, dropping zero cells.
    fn from_grid(grid: &[Vec<u32>]) -> CsrMatrix<u32> {
        let triples: Vec<_> = (0..grid.len())
            .flat_map(|r| (0..grid[r].len()).map(move |c| (r, c)))
            .filter(|&(r, c)| grid[r][c] != 0)
            .map(|(r, c)| (r, c, grid[r][c]))
            .collect();
        CsrMatrix::from_sorted_triples(grid.len(), grid[0].len(), &triples)
    }

    /// `changes` applied to `a` through [`CsrMatrix::apply_delta_into`].
    fn patched(
        a: &CsrMatrix<u32>,
        changes: &[(usize, usize, Option<u32>)],
    ) -> Result<CsrMatrix<u32>> {
        let (mut row_ptr, mut col_idx, mut values) = (Vec::new(), Vec::new(), Vec::new());
        a.apply_delta_into(changes, &mut row_ptr, &mut col_idx, &mut values)?;
        CsrMatrix::from_raw_parts(a.rows(), a.cols(), row_ptr, col_idx, values)
    }

    fn sample() -> CsrMatrix<u32> {
        // 3x4:
        // [0 2 0 1]
        // [0 0 0 0]
        // [5 0 3 0]
        from_grid(&[vec![0, 2, 0, 1], vec![0, 0, 0, 0], vec![5, 0, 3, 0]])
    }

    #[test]
    fn shape_and_nnz() {
        let m = sample();
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_nnz(0), 2);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.row_nnz(2), 2);
        assert_eq!(m.row_nnz(99), 0);
    }

    #[test]
    fn get_and_row_iteration() {
        let m = sample();
        assert_eq!(m.get(0, 1), 2);
        assert_eq!(m.get(0, 0), 0);
        assert_eq!(m.get(2, 0), 5);
        assert_eq!(m.get(99, 0), 0);
        let row0: Vec<_> = m.row(0).collect();
        assert_eq!(row0, vec![(1, 2), (3, 1)]);
        assert_eq!(m.row(1).count(), 0);
        assert_eq!(m.row(7).count(), 0);
    }

    #[test]
    fn iter_and_to_dense_round_trip() {
        let m = sample();
        let mut dense = vec![vec![0; 4]; 3];
        for (r, c, v) in m.iter() {
            dense[r][c] = v;
        }
        assert_eq!(
            dense,
            vec![vec![0, 2, 0, 1], vec![0, 0, 0, 0], vec![5, 0, 3, 0]]
        );
        let rebuilt = from_grid(&dense);
        assert_eq!(rebuilt, m);
        assert_eq!(m.iter().count(), 4);
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (4, 3));
        assert_eq!(t.get(1, 0), 2);
        assert_eq!(t.get(0, 2), 5);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn from_sorted_coo_matches_from_sorted_triples() {
        let triples = vec![(0usize, 1usize, 2u32), (0, 3, 1), (2, 0, 5), (2, 2, 3)];
        let by_ref = CsrMatrix::from_sorted_triples(3, 4, &triples);
        let by_move = CsrMatrix::from_sorted_coo(3, 4, triples);
        assert_eq!(by_ref, by_move);
        assert_eq!(by_move, sample());
        let empty = CsrMatrix::<u32>::from_sorted_coo(3, 4, Vec::new());
        assert_eq!(empty.nnz(), 0);
        assert_eq!(empty.shape(), (3, 4));
    }

    #[test]
    fn from_raw_parts_builds_and_validates() {
        let m = sample();
        let rebuilt = CsrMatrix::from_raw_parts(
            3,
            4,
            m.row_ptr().to_vec(),
            m.col_indices().to_vec(),
            m.values().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, m);
        let empty = CsrMatrix::<u32>::from_raw_parts(2, 2, vec![0, 0, 0], vec![], vec![]).unwrap();
        assert_eq!(empty.nnz(), 0);

        // Wrong row_ptr length, non-monotone row_ptr, bad terminal, length
        // mismatch, and out-of-bounds columns are all rejected.
        assert!(CsrMatrix::<u32>::from_raw_parts(3, 4, vec![0, 1], vec![0], vec![1]).is_err());
        assert!(CsrMatrix::<u32>::from_raw_parts(2, 4, vec![0, 2, 1], vec![0], vec![1]).is_err());
        assert!(CsrMatrix::<u32>::from_raw_parts(1, 4, vec![0, 2], vec![0], vec![1]).is_err());
        assert!(CsrMatrix::<u32>::from_raw_parts(1, 4, vec![0, 1], vec![0], vec![1, 2]).is_err());
        assert_eq!(
            CsrMatrix::<u32>::from_raw_parts(1, 4, vec![0, 1], vec![9], vec![1]).unwrap_err(),
            MatrixError::IndexOutOfBounds {
                index: 9,
                bound: 4,
                axis: "column"
            }
        );
        // Only a row's last column is checked up front; the failing row is
        // then searched, so its first bad column is reported, not its last.
        assert_eq!(
            CsrMatrix::<u32>::from_raw_parts(2, 4, vec![0, 1, 4], vec![3, 1, 5, 6], vec![1; 4])
                .unwrap_err(),
            MatrixError::IndexOutOfBounds {
                index: 5,
                bound: 4,
                axis: "column"
            }
        );
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::<u32>::empty(5, 5);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.get(2, 2), 0);
        assert_eq!(m.iter().count(), 0);
        let m0 = CsrMatrix::<u32>::empty(0, 0);
        assert_eq!(m0.shape(), (0, 0));
    }

    #[test]
    fn internal_arrays_are_consistent() {
        let m = sample();
        assert_eq!(m.row_ptr(), &[0, 2, 2, 4]);
        assert_eq!(m.col_indices(), &[1, 3, 0, 2]);
        assert_eq!(m.values(), &[2, 1, 5, 3]);
    }

    #[test]
    fn raw_parts_round_trip() {
        let m = sample();
        let (rows, cols, row_ptr, col_idx, values) = m.clone().into_raw_parts();
        assert_eq!((rows, cols), (3, 4));
        let rebuilt = CsrMatrix::from_raw_parts(rows, cols, row_ptr, col_idx, values).unwrap();
        assert_eq!(rebuilt, m);
    }

    #[test]
    fn clone_from_reuses_buffers() {
        let m = sample();
        let mut target = CsrMatrix::<u32>::empty(3, 4);
        // Warm the target's buffers, then refresh from a different source:
        // the arrays must match without growing fresh allocations (observable
        // here only as correctness; the no-alloc property is capacity reuse).
        target.clone_from(&m);
        assert_eq!(target, m);
        let empty = CsrMatrix::<u32>::empty(2, 2);
        target.clone_from(&empty);
        assert_eq!(target, empty);
    }

    #[test]
    fn diff_and_apply_delta_round_trip() {
        let a = sample();
        // [0 2 0 1]      [0 2 0 0]   cell (0,3) deleted,
        // [0 0 0 0]  ->  [0 7 0 0]   cell (1,1) added,
        // [5 0 3 0]      [5 0 4 0]   cell (2,2) changed.
        let b = from_grid(&[vec![0, 2, 0, 0], vec![0, 7, 0, 0], vec![5, 0, 4, 0]]);
        let changes = a.diff(&b).unwrap();
        assert_eq!(
            changes,
            vec![(0, 3, None), (1, 1, Some(7)), (2, 2, Some(4))]
        );
        assert_eq!(patched(&a, &changes).unwrap(), b);
        // The reverse diff restores the original.
        let back = b.diff(&a).unwrap();
        assert_eq!(patched(&b, &back).unwrap(), a);
        // An empty diff is the identity.
        assert_eq!(a.diff(&a).unwrap(), vec![]);
        assert_eq!(patched(&a, &[]).unwrap(), a);
    }

    #[test]
    fn diff_preserves_stored_defaults() {
        // A stored zero is a real entry, distinct from an absent cell: the
        // diff must carry it as an upsert, not a delete.
        let a = CsrMatrix::from_sorted_triples(2, 2, &[(0usize, 0usize, 5u32)]);
        let b = CsrMatrix::from_sorted_triples(2, 2, &[(0usize, 0usize, 0u32)]);
        let changes = a.diff(&b).unwrap();
        assert_eq!(changes, vec![(0, 0, Some(0))]);
        let applied = patched(&a, &changes).unwrap();
        assert_eq!(applied, b);
        assert_eq!(applied.nnz(), 1, "the stored zero survives");
    }

    #[test]
    fn apply_delta_into_reuses_buffers() {
        let a = sample();
        let b = from_grid(&[vec![1, 0, 0, 1], vec![0, 0, 2, 0], vec![5, 0, 3, 9]]);
        let changes = a.diff(&b).unwrap();
        let (mut rp, mut ci, mut vs) = (vec![9usize; 50], vec![7usize; 50], vec![1u32; 50]);
        a.apply_delta_into(&changes, &mut rp, &mut ci, &mut vs)
            .unwrap();
        let rebuilt = CsrMatrix::from_raw_parts(3, 4, rp, ci, vs).unwrap();
        assert_eq!(rebuilt, b);
    }

    #[test]
    fn apply_delta_rejects_bad_changes() {
        let a = sample();
        // Unsorted, duplicate, and out-of-bounds change lists are rejected.
        assert!(patched(&a, &[(1, 1, Some(1)), (0, 0, Some(1))]).is_err());
        assert!(patched(&a, &[(0, 0, Some(1)), (0, 0, None)]).is_err());
        assert_eq!(
            patched(&a, &[(3, 0, Some(1))]).unwrap_err(),
            MatrixError::IndexOutOfBounds {
                index: 3,
                bound: 3,
                axis: "row"
            }
        );
        assert_eq!(
            patched(&a, &[(0, 4, Some(1))]).unwrap_err(),
            MatrixError::IndexOutOfBounds {
                index: 4,
                bound: 4,
                axis: "column"
            }
        );
        // Shape-mismatched diffs are rejected before any work.
        assert!(a.diff(&CsrMatrix::<u32>::empty(2, 2)).is_err());
        // Deleting an absent cell is a harmless no-op.
        assert_eq!(patched(&a, &[(1, 2, None)]).unwrap(), a);
    }
}
