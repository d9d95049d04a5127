//! Small dense linear solvers.
//!
//! The Levenberg–Marquardt refinement in `st-curve` solves 2×2 / 3×3 normal
//! equations thousands of times per experiment; these routines are exact,
//! allocation-light, and report singularity instead of producing NaNs.

use crate::Matrix;

/// Error from a linear solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The system matrix is singular (or numerically indistinguishable from
    /// singular) at the given pivot column.
    Singular { pivot: usize },
    /// The matrix is not square or the right-hand side has the wrong length.
    ShapeMismatch,
    /// Cholesky only: the matrix is not positive definite.
    NotPositiveDefinite { pivot: usize },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Singular { pivot } => write!(f, "singular matrix at pivot {pivot}"),
            SolveError::ShapeMismatch => write!(f, "shape mismatch in linear solve"),
            SolveError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix not positive definite at pivot {pivot}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

const PIVOT_TOL: f64 = 1e-12;

/// Solves `A x = b` by Gaussian elimination with partial pivoting.
///
/// `a` is consumed by value because the elimination is performed in place on
/// a copy anyway; pass `a.clone()` if the matrix is still needed.
pub fn gaussian_solve(mut a: Matrix, b: &[f64]) -> Result<Vec<f64>, SolveError> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(SolveError::ShapeMismatch);
    }
    let mut x = b.to_vec();

    for col in 0..n {
        // Partial pivot: pick the largest |entry| in this column.
        let mut pivot_row = col;
        let mut pivot_val = a[(col, col)].abs();
        for r in col + 1..n {
            let v = a[(r, col)].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < PIVOT_TOL {
            return Err(SolveError::Singular { pivot: col });
        }
        if pivot_row != col {
            for c in 0..n {
                let tmp = a[(col, c)];
                a[(col, c)] = a[(pivot_row, c)];
                a[(pivot_row, c)] = tmp;
            }
            x.swap(col, pivot_row);
        }
        let inv = 1.0 / a[(col, col)];
        // Eliminate below the pivot with contiguous row-slice axpys: split
        // the buffer so the pivot row (head) and the target rows (tail) can
        // be borrowed simultaneously.
        let (head, tail) = a.as_mut_slice().split_at_mut((col + 1) * n);
        let pivot_row = &head[col * n + col + 1..(col + 1) * n];
        for (off, row) in tail.chunks_exact_mut(n).enumerate() {
            let r = col + 1 + off;
            let factor = row[col] * inv;
            if factor == 0.0 {
                continue;
            }
            row[col] = 0.0;
            for (o, &v) in row[col + 1..].iter_mut().zip(pivot_row) {
                *o -= factor * v;
            }
            x[r] -= factor * x[col];
        }
    }

    // Back substitution.
    for col in (0..n).rev() {
        let mut acc = x[col];
        for c in col + 1..n {
            acc -= a[(col, c)] * x[c];
        }
        x[col] = acc / a[(col, col)];
    }
    Ok(x)
}

/// Solves `A x = b` for symmetric positive definite `A` via Cholesky
/// factorization (`A = L Lᵀ`).
pub fn cholesky_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, SolveError> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(SolveError::ShapeMismatch);
    }
    // Factor. The inner reduction streams two row prefixes of `L`
    // (row-major contiguous) instead of walking strided columns; the
    // subtraction order over `k` is unchanged.
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for (&x, &y) in l.row(i)[..j].iter().zip(&l.row(j)[..j]) {
                sum -= x * y;
            }
            if i == j {
                if sum <= PIVOT_TOL {
                    return Err(SolveError::NotPositiveDefinite { pivot: i });
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    // Forward substitution: L y = b.
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut acc = b[i];
        for k in 0..i {
            acc -= l[(i, k)] * y[k];
        }
        y[i] = acc / l[(i, i)];
    }
    // Back substitution: Lᵀ x = y.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut acc = y[i];
        for k in i + 1..n {
            acc -= l[(k, i)] * x[k];
        }
        x[i] = acc / l[(i, i)];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        let ax: Vec<f64> = (0..a.rows())
            .map(|r| crate::vector::dot(a.row(r), x))
            .collect();
        crate::vector::linf_norm(&crate::vector::sub(&ax, b))
    }

    #[test]
    fn gaussian_solves_identity() {
        let a = Matrix::identity(3);
        let b = vec![1., 2., 3.];
        assert_eq!(gaussian_solve(a, &b).unwrap(), b);
    }

    #[test]
    fn gaussian_solves_general_system() {
        let a = Matrix::from_vec(3, 3, vec![2., 1., -1., -3., -1., 2., -2., 1., 2.]);
        let b = vec![8., -11., -3.];
        let x = gaussian_solve(a.clone(), &b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-10);
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
        assert!((x[2] + 1.0).abs() < 1e-10);
    }

    #[test]
    fn gaussian_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_vec(2, 2, vec![0., 1., 1., 0.]);
        let x = gaussian_solve(a, &[3., 7.]).unwrap();
        assert_eq!(x, vec![7., 3.]);
    }

    #[test]
    fn gaussian_reports_singular() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 2., 4.]);
        assert!(matches!(
            gaussian_solve(a, &[1., 2.]),
            Err(SolveError::Singular { .. })
        ));
    }

    #[test]
    fn gaussian_rejects_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(gaussian_solve(a, &[1., 2.]), Err(SolveError::ShapeMismatch));
    }

    #[test]
    fn cholesky_matches_gaussian_on_spd() {
        let a = Matrix::from_vec(3, 3, vec![4., 1., 0., 1., 3., 1., 0., 1., 2.]);
        let b = vec![1., 2., 3.];
        let xc = cholesky_solve(&a, &b).unwrap();
        let xg = gaussian_solve(a.clone(), &b).unwrap();
        for (c, g) in xc.iter().zip(&xg) {
            assert!((c - g).abs() < 1e-10);
        }
        assert!(residual(&a, &xc, &b) < 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 2., 1.]);
        assert!(matches!(
            cholesky_solve(&a, &[1., 1.]),
            Err(SolveError::NotPositiveDefinite { .. })
        ));
    }
}
