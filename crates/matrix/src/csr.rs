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
    /// so repeatedly refreshing a matrix from a same-sized source allocates
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
    /// window codec), which already produce the arrays in CSR layout: no
    /// intermediate triple buffer, no counting pass.
    /// [`CsrMatrix::rebuild`] does the same in an existing matrix's
    /// storage.
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
        let mut matrix = CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        };
        matrix.rebuild(rows, cols, |_, _, _| Ok(()))?;
        Ok(matrix)
    }

    /// Rebuild this matrix in place as a `rows × cols` matrix: `fill`
    /// writes the three CSR arrays into this matrix's own storage, handed
    /// over as they are (so it clears or overwrites them), and they are
    /// checked as [`CsrMatrix::from_raw_parts`] checks them. Storage with
    /// room enough is reused, so a rebuild into a matrix at least as large
    /// allocates nothing: this is how a window producer builds each window
    /// in the storage of a retired one.
    ///
    /// When `fill` fails or its arrays are not a valid CSR matrix, the
    /// matrix is left empty and `0 × 0`, its storage kept, and the error is
    /// returned: nothing half-written stays readable.
    pub fn rebuild<E: From<MatrixError>>(
        &mut self,
        rows: usize,
        cols: usize,
        fill: impl FnOnce(&mut Vec<usize>, &mut Vec<usize>, &mut Vec<T>) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let filled = fill(&mut self.row_ptr, &mut self.col_idx, &mut self.values);
        (self.rows, self.cols) = (rows, cols);
        let built = filled.and_then(|()| Ok(self.check()?));
        if built.is_err() {
            self.row_ptr.clear();
            self.col_idx.clear();
            self.values.clear();
            self.row_ptr.push(0);
            (self.rows, self.cols) = (0, 0);
        }
        built
    }

    /// The check [`CsrMatrix::from_raw_parts`] documents.
    fn check(&self) -> Result<()> {
        let (rows, cols, row_ptr, col_idx) = (self.rows, self.cols, &self.row_ptr, &self.col_idx);
        if row_ptr.len() != rows + 1
            || col_idx.len() != self.values.len()
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
        Ok(())
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
        let (rows, cols) = m.shape();
        assert_eq!((rows, cols), (3, 4));
        let (row_ptr, col_idx, values) = (
            m.row_ptr().to_vec(),
            m.col_indices().to_vec(),
            m.values().to_vec(),
        );
        let rebuilt = CsrMatrix::from_raw_parts(rows, cols, row_ptr, col_idx, values).unwrap();
        assert_eq!(rebuilt, m);
    }

    #[test]
    fn rebuild_reuses_storage_and_empties_on_failure() {
        let m = sample();
        let mut target = m.clone();
        let storage = target.values().as_ptr();
        target
            .rebuild(2, 2, |row_ptr, col_idx, values| {
                assert_eq!(values.len(), m.nnz(), "handed over as they are");
                *row_ptr = vec![0, 1, 1];
                *col_idx = vec![1];
                values.clear();
                values.push(9);
                Ok::<_, MatrixError>(())
            })
            .unwrap();
        assert_eq!(target, CsrMatrix::from_sorted_triples(2, 2, &[(0, 1, 9)]));
        assert_eq!(target.values().as_ptr(), storage, "no new allocation");

        // A column out of bounds fails the check; a failing fill's error
        // comes back as is. Either way nothing half-written is left.
        let bad = target.rebuild(2, 2, |row_ptr, col_idx, values| {
            *row_ptr = vec![0, 1, 1];
            *col_idx = vec![2];
            *values = vec![9];
            Ok::<_, MatrixError>(())
        });
        assert!(matches!(bad, Err(MatrixError::IndexOutOfBounds { .. })));
        assert_eq!(target, CsrMatrix::empty(0, 0));
        let failed: std::result::Result<(), MatrixError> =
            target.rebuild(2, 2, |_, _, _| Err(MatrixError::Empty("fill")));
        assert_eq!(failed, Err(MatrixError::Empty("fill")));
        assert_eq!(target, CsrMatrix::empty(0, 0));
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
}
