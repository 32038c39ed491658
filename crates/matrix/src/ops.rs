//! GraphBLAS-lite operations over CSR matrices.
//!
//! Serial kernels mirroring two core GraphBLAS primitives the paper's
//! references build on: matrix-vector multiply over a semiring and row
//! reduction. The scaling bench (E-S2) times both on large sparse matrices.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::PlusTimes;

    fn sample() -> CsrMatrix<u64> {
        // [1 0 2]
        // [0 3 0]
        // [4 0 0]
        CsrMatrix::from_sorted_triples(3, 3, &[(0, 0, 1u64), (0, 2, 2), (1, 1, 3), (2, 0, 4)])
    }

    #[test]
    fn mxv_plus_times() {
        let a = sample();
        let y = mxv(&PlusTimes, &a, &[1u64, 10, 100]).unwrap();
        assert_eq!(y, vec![201, 30, 4]);
        assert!(mxv(&PlusTimes, &a, &[1u64, 2]).is_err());
    }

    #[test]
    fn reductions() {
        let a = sample();
        assert_eq!(reduce_rows(&PlusTimes, &a), vec![3, 3, 4]);
        // Column sums are the row sums of the transpose.
        assert_eq!(reduce_rows(&PlusTimes, &a.transpose()), vec![5, 3, 2]);
        assert_eq!(reduce_rows(&PlusTimes, &a).iter().sum::<u64>(), 10);
        let empty = CsrMatrix::<u64>::empty(2, 2);
        assert_eq!(reduce_rows(&PlusTimes, &empty), vec![0, 0]);
    }
}
