//! Small dense linear algebra, implemented in-repo (no external math
//! crates): Gaussian elimination, linear least squares and symmetric
//! Jacobi eigendecomposition.
//!
//! Sized for the workspace's needs: detrending projections (a handful of
//! basis vectors), the motion fit's 6-parameter normal equations, and the
//! MUSIC algorithm's covariance eigendecompositions (tens of channels).

/// A dense row-major matrix of `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Row-major storage.
    pub data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// From rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Matrix { rows: r, cols: c, data: rows.concat() }
    }

    /// Matrix–vector product.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        (0..self.rows).map(|i| (0..self.cols).map(|j| self[(i, j)] * v[j]).sum()).collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–matrix product.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// A row operation of Gaussian elimination, as applied to the
/// right-hand side.
#[derive(Clone, Copy, Debug)]
enum RowOp {
    /// Exchange two rows (partial pivoting).
    Swap(usize, usize),
    /// `x[row] -= f * x[col]`.
    Eliminate { row: usize, col: usize, f: f64 },
}

/// Gaussian elimination with partial pivoting of a square `A`, recorded
/// so it can be replayed on any number of right-hand sides: the row
/// swaps, the elimination multipliers and the upper triangle depend only
/// on `A`.
#[derive(Clone, Debug)]
struct Elimination {
    /// The row operations in the order elimination performed them.
    ops: Vec<RowOp>,
    /// `A` after elimination; back substitution reads its upper triangle.
    upper: Matrix,
}

impl Elimination {
    /// `None` if `a` is (numerically) singular, or if a pivot column
    /// holds a NaN (which has no place in the pivot order).
    fn new(a: &Matrix) -> Option<Self> {
        let n = a.rows;
        let mut m = a.clone();
        let mut ops = Vec::new();
        for col in 0..n {
            // Pivot: the largest magnitude, the last of equals.
            if (col..n).any(|i| m[(i, col)].is_nan()) {
                return None;
            }
            let pivot =
                (col..n).max_by(|&i, &j| m[(i, col)].abs().total_cmp(&m[(j, col)].abs()))?;
            if m[(pivot, col)].abs() < 1e-12 {
                return None;
            }
            if pivot != col {
                for j in 0..n {
                    let tmp = m[(col, j)];
                    m[(col, j)] = m[(pivot, j)];
                    m[(pivot, j)] = tmp;
                }
                ops.push(RowOp::Swap(col, pivot));
            }
            // Eliminate below.
            for row in col + 1..n {
                let f = m[(row, col)] / m[(col, col)];
                if f == 0.0 {
                    continue;
                }
                for j in col..n {
                    m[(row, j)] -= f * m[(col, j)];
                }
                ops.push(RowOp::Eliminate { row, col, f });
            }
        }
        Some(Elimination { ops, upper: m })
    }

    /// Solve for one right-hand side: the recorded row operations, then
    /// back substitution.
    fn apply(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        for &op in &self.ops {
            match op {
                RowOp::Swap(a, b) => x.swap(a, b),
                RowOp::Eliminate { row, col, f } => x[row] -= f * x[col],
            }
        }
        for col in (0..x.len()).rev() {
            x[col] /= self.upper[(col, col)];
            for row in 0..col {
                x[row] -= self.upper[(row, col)] * x[col];
            }
        }
        x
    }
}

/// Solve `A x = b` by Gaussian elimination with partial pivoting.
/// Returns `None` if `A` is (numerically) singular or a pivot column
/// holds a NaN.
pub fn solve(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(a.rows, a.cols, "solve needs a square matrix");
    assert_eq!(b.len(), a.rows, "rhs length mismatch");
    Some(Elimination::new(a)?.apply(b))
}

/// Linear least squares against one fixed `A`: minimize `‖A x − b‖₂` via
/// the normal equations (adequate for the small, well-conditioned
/// systems used here). `Aᵀ` and the elimination of `AᵀA` are computed
/// once, so each right-hand side costs one product and one replay.
#[derive(Clone, Debug)]
pub struct LeastSquares {
    at: Matrix,
    normal: Elimination,
}

impl LeastSquares {
    /// `None` if `AᵀA` is (numerically) singular.
    pub fn new(a: &Matrix) -> Option<Self> {
        let at = a.transpose();
        let normal = Elimination::new(&at.matmul(a))?;
        Some(LeastSquares { at, normal })
    }

    /// The `x` minimizing `‖A x − b‖₂`.
    pub fn fit(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.at.cols, "rhs length mismatch");
        self.normal.apply(&self.at.matvec(b))
    }
}

/// Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.
/// Returns `(eigenvalues, eigenvectors)` sorted by descending eigenvalue;
/// eigenvectors are the *columns* of the returned matrix.
pub fn jacobi_eigen(a: &Matrix, max_sweeps: usize) -> (Vec<f64>, Matrix) {
    assert_eq!(a.rows, a.cols, "eigendecomposition needs a square matrix");
    let n = a.rows;
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    for _ in 0..max_sweeps {
        // Off-diagonal magnitude.
        let mut off = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                off += m[(i, j)] * m[(i, j)];
            }
        }
        if off.sqrt() < 1e-12 * (1.0 + m.frobenius()) {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply rotation to m (both sides) and accumulate in v.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m[(i, i)], i)).collect();
    // Descending; a NaN eigenvalue (from a NaN entry) sorts last. Not
    // `total_cmp`, which would order -0.0 below +0.0 and reorder ties.
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or_else(|| a.0.is_nan().cmp(&b.0.is_nan())));
    let eigenvalues: Vec<f64> = pairs.iter().map(|&(l, _)| l).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
        for k in 0..n {
            vectors[(k, new_col)] = v[(k, old_col)];
        }
    }
    (eigenvalues, vectors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_known_system() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the leading diagonal forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(solve(&a, &[1.0, 2.0]).is_none());
    }

    /// `solve` as it was before it became "factor, then apply": one
    /// elimination interleaving the matrix and the right-hand side.
    fn reference_solve(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
        let n = a.rows;
        let mut m = a.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            let pivot = (col..n)
                .max_by(|&i, &j| m[(i, col)].abs().partial_cmp(&m[(j, col)].abs()).unwrap())?;
            if m[(pivot, col)].abs() < 1e-12 {
                return None;
            }
            if pivot != col {
                for j in 0..n {
                    let tmp = m[(col, j)];
                    m[(col, j)] = m[(pivot, j)];
                    m[(pivot, j)] = tmp;
                }
                x.swap(col, pivot);
            }
            for row in col + 1..n {
                let f = m[(row, col)] / m[(col, col)];
                if f == 0.0 {
                    continue;
                }
                for j in col..n {
                    m[(row, j)] -= f * m[(col, j)];
                }
                x[row] -= f * x[col];
            }
        }
        for col in (0..n).rev() {
            x[col] /= m[(col, col)];
            for row in 0..col {
                let f = m[(row, col)];
                x[row] -= f * x[col];
                m[(row, col)] = 0.0;
            }
        }
        Some(x)
    }

    fn bits(x: Option<Vec<f64>>) -> Option<Vec<u64>> {
        x.map(|x| x.iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn solve_keeps_the_interleaved_elimination_bits() {
        let mut state = 99u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for case in 0..400 {
            let n = 1 + case % 7;
            let mut a = Matrix::zeros(n, n);
            for v in &mut a.data {
                // Exact zeros (skipped multipliers), ties in magnitude
                // (the last of equals pivots) and plain noise.
                *v = match case % 4 {
                    0 => [0.0, 1.0, -1.0, 2.0][(next() * 8.0).rem_euclid(4.0) as usize],
                    1 if next() < 0.0 => 0.0,
                    _ => next() * 10.0,
                };
            }
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            assert_eq!(bits(solve(&a, &b)), bits(reference_solve(&a, &b)), "case {case}: {a:?}");
        }
    }

    #[test]
    fn solve_refuses_a_nan_pivot_column() {
        let nan = f64::NAN;
        for a in [
            Matrix::from_rows(&[vec![nan, 1.0], vec![1.0, 2.0]]),
            Matrix::from_rows(&[vec![2.0, 1.0], vec![nan, 3.0]]),
            Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, nan]]),
            Matrix::from_rows(&[vec![nan; 3], vec![nan; 3], vec![nan; 3]]),
        ] {
            assert!(solve(&a, &vec![1.0; a.rows]).is_none(), "{a:?}");
        }
    }

    #[test]
    fn lstsq_fits_line() {
        // y = 2x + 1 with an outlier-free overdetermined system.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let a = Matrix::from_rows(&xs.iter().map(|&x| vec![x, 1.0]).collect::<Vec<_>>());
        let b: Vec<f64> = xs.iter().map(|&x| 2.0 * x + 1.0).collect();
        let coef = LeastSquares::new(&a).unwrap().fit(&b);
        assert!((coef[0] - 2.0).abs() < 1e-10);
        assert!((coef[1] - 1.0).abs() < 1e-10);
        // Two columns that are one: no unique fit.
        let flat = Matrix::from_rows(&xs.iter().map(|&x| vec![x, 2.0 * x]).collect::<Vec<_>>());
        assert!(LeastSquares::new(&flat).is_none());
    }

    #[test]
    fn lstsq_minimizes_residual() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0], vec![1.0, 2.0]]);
        let b = [1.0, 2.0, 2.0];
        let c = LeastSquares::new(&a).unwrap().fit(&b);
        let fit = a.matvec(&c);
        let res: f64 = fit.iter().zip(&b).map(|(f, y)| (f - y).powi(2)).sum();
        // Perturbing the coefficients must not reduce the residual.
        for d in [[0.01, 0.0], [0.0, 0.01], [-0.01, 0.0], [0.0, -0.01]] {
            let c2 = [c[0] + d[0], c[1] + d[1]];
            let fit2 = a.matvec(&c2);
            let res2: f64 = fit2.iter().zip(&b).map(|(f, y)| (f - y).powi(2)).sum();
            assert!(res2 >= res - 1e-12);
        }
    }

    #[test]
    fn jacobi_diagonalizes_known_matrix() {
        // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let (vals, vecs) = jacobi_eigen(&a, 50);
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 1.0).abs() < 1e-10);
        // A·v = λ·v for each column.
        for (col, &lambda) in vals.iter().enumerate() {
            let v: Vec<f64> = (0..2).map(|k| vecs[(k, col)]).collect();
            let av = a.matvec(&v);
            for k in 0..2 {
                assert!((av[k] - lambda * v[k]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn jacobi_larger_random_symmetric() {
        // Deterministic pseudo-random symmetric matrix; check A = VΛVᵀ.
        let n = 8;
        let mut a = Matrix::zeros(n, n);
        let mut state = 12345u64;
        for i in 0..n {
            for j in i..n {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let v = ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let (vals, vecs) = jacobi_eigen(&a, 100);
        // Eigenvalues sorted descending.
        for w in vals.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        // Reconstruct.
        let mut lam = Matrix::zeros(n, n);
        for i in 0..n {
            lam[(i, i)] = vals[i];
        }
        let rec = vecs.matmul(&lam).matmul(&vecs.transpose());
        let mut err = 0.0;
        for i in 0..n {
            for j in 0..n {
                err += (rec[(i, j)] - a[(i, j)]).powi(2);
            }
        }
        assert!(err.sqrt() < 1e-8, "reconstruction error {err}");
        // Eigenvectors orthonormal.
        let vtv = vecs.transpose().matmul(&vecs);
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((vtv[(i, j)] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn matrix_ops() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
        let at = a.transpose();
        assert_eq!(at[(0, 1)], 3.0);
        let aa = a.matmul(&Matrix::identity(2));
        assert_eq!(aa, a);
        assert!((a.frobenius() - (30.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn eigen_sort_puts_nan_last_and_keeps_signed_zero_ties() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, f64::NAN, 0.0],
            vec![0.0, 0.0, 2.0],
        ]);
        let (vals, vecs) = jacobi_eigen(&a, 4);
        assert_eq!(&vals[..2], &[2.0, 1.0]);
        assert!(vals[2].is_nan());
        assert_eq!(vecs[(1, 2)], 1.0, "the NaN's eigenvector moves with it");
        // -0.0 and +0.0 tie, so they keep their diagonal order.
        let z = Matrix::from_rows(&[vec![-0.0, 0.0], vec![0.0, 0.0]]);
        let (vals, _) = jacobi_eigen(&z, 4);
        let bits: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [(-0.0f64).to_bits(), 0.0f64.to_bits()]);
    }
}
