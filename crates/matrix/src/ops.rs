//! GraphBLAS-lite operations over CSR matrices.
//!
//! Serial kernels mirroring the core GraphBLAS primitives the paper's
//! references build on: matrix-vector and matrix-matrix multiply over a
//! semiring, element-wise add/multiply, reductions, transpose and sub-matrix
//! extraction.

use crate::csr::CsrMatrix;
use crate::error::{MatrixError, Result};
use crate::semiring::Semiring;

/// Sparse matrix × dense vector over a semiring: `y[r] = ⊕_c mul(A[r,c], x[c])`.
pub fn mxv<T, S>(semiring: &S, a: &CsrMatrix<T>, x: &[T]) -> Result<Vec<T>>
where
    T: Copy + Default + PartialEq,
    S: Semiring<T>,
{
    if x.len() != a.cols() {
        return Err(MatrixError::DimensionMismatch(format!(
            "mxv: matrix has {} columns but vector has {} entries",
            a.cols(),
            x.len()
        )));
    }
    let mut y = Vec::with_capacity(a.rows());
    for r in 0..a.rows() {
        let mut acc = semiring.zero();
        for (c, v) in a.row(r) {
            acc = semiring.add(acc, semiring.mul(v, x[c]));
        }
        y.push(acc);
    }
    Ok(y)
}

/// Dense vector × sparse matrix over a semiring: `y[c] = ⊕_r mul(x[r], A[r,c])`.
pub fn vxm<T, S>(semiring: &S, x: &[T], a: &CsrMatrix<T>) -> Result<Vec<T>>
where
    T: Copy + Default + PartialEq,
    S: Semiring<T>,
{
    if x.len() != a.rows() {
        return Err(MatrixError::DimensionMismatch(format!(
            "vxm: matrix has {} rows but vector has {} entries",
            a.rows(),
            x.len()
        )));
    }
    let mut y = vec![semiring.zero(); a.cols()];
    for (r, &xr) in x.iter().enumerate() {
        for (c, v) in a.row(r) {
            y[c] = semiring.add(y[c], semiring.mul(xr, v));
        }
    }
    Ok(y)
}

/// Sparse matrix × sparse matrix over a semiring (row-by-row Gustavson).
pub fn mxm<T, S>(semiring: &S, a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Result<CsrMatrix<T>>
where
    T: Copy + Default + PartialEq,
    S: Semiring<T>,
{
    if a.cols() != b.rows() {
        return Err(MatrixError::DimensionMismatch(format!(
            "mxm: left has {} columns but right has {} rows",
            a.cols(),
            b.rows()
        )));
    }
    let mut triples = Vec::new();
    let mut accumulator: Vec<Option<T>> = vec![None; b.cols()];
    let mut touched: Vec<usize> = Vec::new();
    for r in 0..a.rows() {
        for (k, av) in a.row(r) {
            for (c, bv) in b.row(k) {
                let contribution = semiring.mul(av, bv);
                match accumulator[c] {
                    Some(existing) => accumulator[c] = Some(semiring.add(existing, contribution)),
                    None => {
                        accumulator[c] = Some(contribution);
                        touched.push(c);
                    }
                }
            }
        }
        touched.sort_unstable();
        for &c in &touched {
            if let Some(v) = accumulator[c].take() {
                if !semiring.is_zero(v) {
                    triples.push((r, c, v));
                }
            }
        }
        touched.clear();
    }
    Ok(CsrMatrix::from_sorted_triples(a.rows(), b.cols(), &triples))
}

/// Element-wise "add" (union of patterns) of two same-shape matrices.
pub fn ewise_add<T, S>(semiring: &S, a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Result<CsrMatrix<T>>
where
    T: Copy + Default + PartialEq,
    S: Semiring<T>,
{
    if a.shape() != b.shape() {
        return Err(MatrixError::DimensionMismatch(format!(
            "ewise_add: shapes {:?} and {:?} differ",
            a.shape(),
            b.shape()
        )));
    }
    let mut triples = Vec::with_capacity(a.nnz() + b.nnz());
    for r in 0..a.rows() {
        let mut ia = a.row(r).peekable();
        let mut ib = b.row(r).peekable();
        loop {
            match (ia.peek().copied(), ib.peek().copied()) {
                (Some((ca, va)), Some((cb, vb))) => {
                    if ca == cb {
                        let v = semiring.add(va, vb);
                        if !semiring.is_zero(v) {
                            triples.push((r, ca, v));
                        }
                        ia.next();
                        ib.next();
                    } else if ca < cb {
                        triples.push((r, ca, va));
                        ia.next();
                    } else {
                        triples.push((r, cb, vb));
                        ib.next();
                    }
                }
                (Some((ca, va)), None) => {
                    triples.push((r, ca, va));
                    ia.next();
                }
                (None, Some((cb, vb))) => {
                    triples.push((r, cb, vb));
                    ib.next();
                }
                (None, None) => break,
            }
        }
    }
    Ok(CsrMatrix::from_sorted_triples(a.rows(), a.cols(), &triples))
}

/// Element-wise "multiply" (intersection of patterns) of two same-shape matrices.
pub fn ewise_mul<T, S>(semiring: &S, a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Result<CsrMatrix<T>>
where
    T: Copy + Default + PartialEq,
    S: Semiring<T>,
{
    if a.shape() != b.shape() {
        return Err(MatrixError::DimensionMismatch(format!(
            "ewise_mul: shapes {:?} and {:?} differ",
            a.shape(),
            b.shape()
        )));
    }
    let mut triples = Vec::new();
    for r in 0..a.rows() {
        let mut ia = a.row(r).peekable();
        let mut ib = b.row(r).peekable();
        while let (Some(&(ca, va)), Some(&(cb, vb))) = (ia.peek(), ib.peek()) {
            if ca == cb {
                let v = semiring.mul(va, vb);
                if !semiring.is_zero(v) {
                    triples.push((r, ca, v));
                }
                ia.next();
                ib.next();
            } else if ca < cb {
                ia.next();
            } else {
                ib.next();
            }
        }
    }
    Ok(CsrMatrix::from_sorted_triples(a.rows(), a.cols(), &triples))
}

/// Reduce every row to a scalar with the semiring's additive operation.
pub fn reduce_rows<T, S>(semiring: &S, a: &CsrMatrix<T>) -> Vec<T>
where
    T: Copy + Default + PartialEq,
    S: Semiring<T>,
{
    (0..a.rows())
        .map(|r| {
            a.row(r)
                .fold(semiring.zero(), |acc, (_, v)| semiring.add(acc, v))
        })
        .collect()
}

/// Reduce every column to a scalar with the semiring's additive operation.
pub fn reduce_cols<T, S>(semiring: &S, a: &CsrMatrix<T>) -> Vec<T>
where
    T: Copy + Default + PartialEq,
    S: Semiring<T>,
{
    let mut out = vec![semiring.zero(); a.cols()];
    for (_, c, v) in a.iter() {
        out[c] = semiring.add(out[c], v);
    }
    out
}

/// Reduce the whole matrix to one scalar.
pub fn reduce_all<T, S>(semiring: &S, a: &CsrMatrix<T>) -> T
where
    T: Copy + Default + PartialEq,
    S: Semiring<T>,
{
    a.iter()
        .fold(semiring.zero(), |acc, (_, _, v)| semiring.add(acc, v))
}

/// Extract the sub-matrix selecting `row_idx` rows and `col_idx` columns
/// (GraphBLAS `extract`). Output row `i` corresponds to `row_idx[i]`.
pub fn extract<T>(a: &CsrMatrix<T>, row_idx: &[usize], col_idx: &[usize]) -> Result<CsrMatrix<T>>
where
    T: Copy + Default + PartialEq,
{
    for &r in row_idx {
        if r >= a.rows() {
            return Err(MatrixError::IndexOutOfBounds {
                index: r,
                bound: a.rows(),
                axis: "row",
            });
        }
    }
    for &c in col_idx {
        if c >= a.cols() {
            return Err(MatrixError::IndexOutOfBounds {
                index: c,
                bound: a.cols(),
                axis: "column",
            });
        }
    }
    // Map original column -> new position.
    let mut col_map = vec![usize::MAX; a.cols()];
    for (new, &old) in col_idx.iter().enumerate() {
        col_map[old] = new;
    }
    let mut triples = Vec::new();
    for (new_r, &old_r) in row_idx.iter().enumerate() {
        let mut row: Vec<(usize, T)> = a
            .row(old_r)
            .filter_map(|(c, v)| {
                let new_c = col_map[c];
                (new_c != usize::MAX).then_some((new_c, v))
            })
            .collect();
        row.sort_unstable_by_key(|&(c, _)| c);
        for (c, v) in row {
            triples.push((new_r, c, v));
        }
    }
    Ok(CsrMatrix::from_sorted_triples(
        row_idx.len(),
        col_idx.len(),
        &triples,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{MinPlus, OrAnd, PlusTimes};

    fn sample() -> CsrMatrix<u64> {
        // [1 0 2]
        // [0 3 0]
        // [4 0 0]
        CsrMatrix::from_dense(&[vec![1u64, 0, 2], vec![0, 3, 0], vec![4, 0, 0]]).unwrap()
    }

    #[test]
    fn mxv_plus_times() {
        let a = sample();
        let y = mxv(&PlusTimes, &a, &[1u64, 10, 100]).unwrap();
        assert_eq!(y, vec![201, 30, 4]);
        assert!(mxv(&PlusTimes, &a, &[1u64, 2]).is_err());
    }

    #[test]
    fn vxm_is_transpose_mxv() {
        let a = sample();
        let x = vec![1u64, 10, 100];
        let y1 = vxm(&PlusTimes, &x, &a).unwrap();
        let y2 = mxv(&PlusTimes, &a.transpose(), &x).unwrap();
        assert_eq!(y1, y2);
        assert!(vxm(&PlusTimes, &[1u64], &a).is_err());
    }

    #[test]
    fn mxm_matches_dense_multiplication() {
        let a = sample();
        let b = CsrMatrix::from_dense(&[vec![0u64, 1, 0], vec![2, 0, 0], vec![0, 0, 3]]).unwrap();
        let c = mxm(&PlusTimes, &a, &b).unwrap();
        // Dense check.
        let ad = a.to_dense();
        let bd = b.to_dense();
        for (r, ad_row) in ad.iter().enumerate() {
            for col in 0..3 {
                let expect: u64 = ad_row
                    .iter()
                    .zip(&bd)
                    .map(|(av, bd_row)| av * bd_row[col])
                    .sum();
                assert_eq!(c.get(r, col), expect, "mismatch at ({r},{col})");
            }
        }
        let bad = CsrMatrix::<u64>::empty(4, 4);
        assert!(mxm(&PlusTimes, &a, &bad).is_err());
    }

    #[test]
    fn mxm_boolean_reachability() {
        // Path 0→1→2 exists; squared adjacency should reveal the 2-hop edge 0→2.
        let a = CsrMatrix::from_dense(&[
            vec![false, true, false],
            vec![false, false, true],
            vec![false, false, false],
        ])
        .unwrap();
        let a2 = mxm(&OrAnd, &a, &a).unwrap();
        assert!(a2.get(0, 2));
        assert!(!a2.get(0, 1));
        assert_eq!(a2.nnz(), 1);
    }

    #[test]
    fn ewise_add_unions_patterns() {
        let a = sample();
        let b = CsrMatrix::from_dense(&[vec![0u64, 5, 0], vec![0, 1, 0], vec![0, 0, 7]]).unwrap();
        let c = ewise_add(&PlusTimes, &a, &b).unwrap();
        assert_eq!(c.get(0, 1), 5);
        assert_eq!(c.get(1, 1), 4);
        assert_eq!(c.get(2, 2), 7);
        assert_eq!(c.get(0, 0), 1);
        assert_eq!(c.nnz(), 6);
        assert!(ewise_add(&PlusTimes, &a, &CsrMatrix::<u64>::empty(2, 2)).is_err());
    }

    #[test]
    fn ewise_mul_intersects_patterns() {
        let a = sample();
        let b = CsrMatrix::from_dense(&[vec![10u64, 0, 0], vec![0, 2, 0], vec![0, 0, 9]]).unwrap();
        let c = ewise_mul(&PlusTimes, &a, &b).unwrap();
        assert_eq!(c.get(0, 0), 10);
        assert_eq!(c.get(1, 1), 6);
        assert_eq!(c.nnz(), 2, "only overlapping cells survive");
        assert!(ewise_mul(&PlusTimes, &a, &CsrMatrix::<u64>::empty(2, 2)).is_err());
    }

    #[test]
    fn reductions() {
        let a = sample();
        assert_eq!(reduce_rows(&PlusTimes, &a), vec![3, 3, 4]);
        assert_eq!(reduce_cols(&PlusTimes, &a), vec![5, 3, 2]);
        assert_eq!(reduce_all(&PlusTimes, &a), 10);
        let empty = CsrMatrix::<u64>::empty(2, 2);
        assert_eq!(reduce_all(&PlusTimes, &empty), 0);
    }

    #[test]
    fn min_plus_single_step_relaxation() {
        // Distances: direct edge 0→2 costs 10, path through 1 costs 3+4=7.
        let inf = f64::INFINITY;
        let a = CsrMatrix::from_sorted_triples(3, 3, &[(0, 1, 3.0f64), (0, 2, 10.0), (1, 2, 4.0)]);
        let dist0 = vec![0.0, inf, inf];
        // One relaxation step: dist1[c] = min_r (dist0[r] + A[r,c]).
        let dist1 = vxm(&MinPlus, &dist0, &a).unwrap();
        assert_eq!(dist1[1], 3.0);
        assert_eq!(dist1[2], 10.0);
        // Second step finds the cheaper 2-hop path.
        let mut best = dist1.clone();
        let dist2 = vxm(&MinPlus, &dist1, &a).unwrap();
        for (b, d) in best.iter_mut().zip(dist2) {
            *b = b.min(d);
        }
        assert_eq!(best[2], 7.0);
    }

    #[test]
    fn extract_submatrix() {
        let a = sample();
        let sub = extract(&a, &[0, 2], &[0, 2]).unwrap();
        assert_eq!(sub.shape(), (2, 2));
        assert_eq!(sub.get(0, 0), 1);
        assert_eq!(sub.get(0, 1), 2);
        assert_eq!(sub.get(1, 0), 4);
        assert_eq!(sub.get(1, 1), 0);
        assert!(extract(&a, &[5], &[0]).is_err());
        assert!(extract(&a, &[0], &[5]).is_err());
        // Column permutation is honoured.
        let perm = extract(&a, &[0], &[2, 0]).unwrap();
        assert_eq!(perm.get(0, 0), 2);
        assert_eq!(perm.get(0, 1), 1);
    }
}
