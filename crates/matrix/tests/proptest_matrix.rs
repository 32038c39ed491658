//! Property-based tests over the matrix substrate's core invariants.

use proptest::prelude::*;
use tw_matrix::ops::{mxv, reduce_rows};
use tw_matrix::{
    CooMatrix, CsrMatrix, LabelSet, MatrixError, MatrixProfile, PlusTimes, TrafficMatrix,
};

/// Strategy for a small dense grid (n×n, n in 1..=12, values 0..15 as the paper suggests).
fn arb_grid() -> impl Strategy<Value = Vec<Vec<u32>>> {
    (1usize..=12)
        .prop_flat_map(|n| prop::collection::vec(prop::collection::vec(0u32..15, n..=n), n..=n))
}

fn arb_triples(n: usize) -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    prop::collection::vec((0..n, 0..n, 1u64..20), 0..(n * n))
}

fn csr_from(n: usize, triples: &[(usize, usize, u64)]) -> CsrMatrix<u64> {
    let mut coo = CooMatrix::new(n, n);
    for &(r, c, v) in triples {
        coo.push(r, c, v);
    }
    coo.to_csr()
}

/// Raw CSR rows over `cols` columns: each row a sorted set of distinct
/// columns, some rows empty, and about one draw in six out of range. Out-of-
/// range draws may be several per row and may be all of it; sorting puts
/// them after the row's in-range columns, as the strictly-rising contract of
/// `from_raw_parts` requires.
fn arb_raw_rows() -> impl Strategy<Value = (usize, Vec<Vec<usize>>)> {
    (0usize..=12).prop_flat_map(|cols| {
        let draw = (0u8..6, 0usize..64).prop_map(move |(kind, v)| {
            if kind == 0 || cols == 0 {
                cols + v % 5
            } else {
                v % cols
            }
        });
        let row = prop::collection::vec(draw, 0..=6).prop_map(|mut row| {
            row.sort_unstable();
            row.dedup();
            row
        });
        (Just(cols), prop::collection::vec(row, 0..=16))
    })
}

/// The column check `from_raw_parts` made before it relied on sorted rows:
/// every stored column, in storage order, against `cols`.
fn full_scan_columns(col_idx: &[usize], cols: usize) -> Result<(), MatrixError> {
    match col_idx.iter().find(|&&c| c >= cols) {
        Some(&index) => Err(MatrixError::IndexOutOfBounds {
            index,
            bound: cols,
            axis: "column",
        }),
        None => Ok(()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn from_raw_parts_matches_a_full_column_scan(raw in arb_raw_rows()) {
        let (cols, rows) = raw;
        let mut row_ptr = vec![0];
        let mut col_idx = Vec::new();
        for row in &rows {
            col_idx.extend_from_slice(row);
            row_ptr.push(col_idx.len());
        }
        let values: Vec<u64> = (1..=col_idx.len() as u64).collect();
        let expected = full_scan_columns(&col_idx, cols).map(|()| {
            (rows.len(), cols, row_ptr.clone(), col_idx.clone(), values.clone())
        });
        let built = CsrMatrix::from_raw_parts(rows.len(), cols, row_ptr, col_idx, values)
            .map(CsrMatrix::into_raw_parts);
        prop_assert_eq!(built, expected);
    }

    #[test]
    fn dense_grid_round_trips(grid in arb_grid()) {
        let labels = LabelSet::numeric(grid.len());
        let m = TrafficMatrix::from_grid(labels, &grid).unwrap();
        prop_assert_eq!(m.to_grid(), grid);
    }

    #[test]
    fn transpose_is_involution_and_preserves_totals(grid in arb_grid()) {
        let m = TrafficMatrix::from_grid(LabelSet::numeric(grid.len()), &grid).unwrap();
        let t = m.transpose();
        prop_assert_eq!(t.transpose(), m.clone());
        prop_assert_eq!(t.total_packets(), m.total_packets());
        prop_assert_eq!(t.out_degrees(), m.in_degrees());
        prop_assert_eq!(t.in_fanout(), m.out_fanout());
    }

    #[test]
    fn degrees_sum_to_total(grid in arb_grid()) {
        let m = TrafficMatrix::from_grid(LabelSet::numeric(grid.len()), &grid).unwrap();
        let out_sum: u64 = m.out_degrees().iter().sum();
        let in_sum: u64 = m.in_degrees().iter().sum();
        prop_assert_eq!(out_sum, m.total_packets());
        prop_assert_eq!(in_sum, m.total_packets());
    }

    #[test]
    fn dense_to_sparse_preserves_structure(grid in arb_grid()) {
        let m = TrafficMatrix::from_grid(LabelSet::numeric(grid.len()), &grid).unwrap();
        let mut coo = CooMatrix::new(m.dimension(), m.dimension());
        for (r, c, v) in m.iter_nonzero() {
            coo.push(r, c, v);
        }
        let csr = coo.to_csr();
        prop_assert_eq!(csr.nnz(), m.nonzero_count());
        for (r, c, v) in m.iter_nonzero() {
            prop_assert_eq!(csr.get(r, c), v);
        }
    }

    #[test]
    fn combine_is_commutative(grid_a in arb_grid(), grid_b in arb_grid()) {
        let n = grid_a.len().min(grid_b.len());
        let cut = |g: &Vec<Vec<u32>>| -> Vec<Vec<u32>> {
            g.iter().take(n).map(|row| row.iter().take(n).copied().collect()).collect()
        };
        let labels = LabelSet::numeric(n);
        let a = TrafficMatrix::from_grid(labels.clone(), &cut(&grid_a)).unwrap();
        let b = TrafficMatrix::from_grid(labels, &cut(&grid_b)).unwrap();
        prop_assert_eq!(a.combine(&b).unwrap(), b.combine(&a).unwrap());
    }

    #[test]
    fn profile_class_totals_sum_to_total_packets(grid in arb_grid()) {
        let n = grid.len();
        let labels = if n == 10 { LabelSet::paper_default_10() } else { LabelSet::numeric(n) };
        let m = TrafficMatrix::from_grid(labels, &grid).unwrap();
        let p = MatrixProfile::of(&m);
        let class_sum: u64 = p.packets_by_class.iter().sum();
        prop_assert_eq!(class_sum, m.total_packets());
    }

    #[test]
    fn coalesce_preserves_value_sums(n in 2usize..10, triples in arb_triples(9)) {
        let triples: Vec<_> = triples.into_iter().map(|(r, c, v)| (r % n, c % n, v)).collect();
        let total: u64 = triples.iter().map(|&(_, _, v)| v).sum();
        let mut coo = CooMatrix::new(n, n);
        for &(r, c, v) in &triples {
            coo.push(r, c, v);
        }
        coo.coalesce();
        let coalesced_total: u64 = coo.entries().iter().map(|&(_, _, v)| v).sum();
        prop_assert_eq!(coalesced_total, total);
        let csr = csr_from(n, &triples);
        prop_assert_eq!(csr.values().iter().sum::<u64>(), total);
    }

    #[test]
    fn mxv_distributes_over_unit_vectors(triples in arb_triples(8)) {
        // A·e_j is the j-th column of A.
        let a = csr_from(8, &triples);
        for j in 0..8 {
            let mut e = vec![0u64; 8];
            e[j] = 1;
            let col = mxv(&PlusTimes, &a, &e).unwrap();
            for (r, value) in col.iter().enumerate() {
                prop_assert_eq!(*value, a.get(r, j));
            }
        }
    }

    #[test]
    fn reduce_rows_and_cols_agree_with_total(triples in arb_triples(10)) {
        let a = csr_from(10, &triples);
        let row_total: u64 = reduce_rows(&PlusTimes, &a).iter().sum();
        let col_total: u64 = reduce_rows(&PlusTimes, &a.transpose()).iter().sum();
        prop_assert_eq!(row_total, col_total);
        prop_assert_eq!(row_total, a.values().iter().sum::<u64>());
    }
}
