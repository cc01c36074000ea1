//! Dense `N x N` block matrices with LU factorisation.
//!
//! `N` is a const generic; the flow solvers instantiate `N = 6` (RANS:
//! density, three momenta, energy, turbulence working variable) and `N = 5`
//! (Euler). Storage is row-major and inline, so a `BlockMat<6>` is 288
//! bytes and lives happily inside per-point arrays without indirection.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// Error type for the dense kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinalgError {
    /// A pivot smaller than the singularity threshold was encountered.
    ///
    /// All indices refer to the *original* (unpivoted) matrix: partial
    /// pivoting permutes rows only, so `col` is both the elimination step
    /// and the original column whose pivot candidates all vanished, and
    /// `row` is the original row index that the permutation had brought to
    /// the pivot position when factorisation broke down. Solver
    /// diagnostics can therefore point at the right unknown (`col`) and
    /// the right equation (`row`) without undoing any permutation.
    Singular {
        /// Original column index at which factorisation broke down.
        col: usize,
        /// Original row index occupying the pivot position at breakdown.
        row: usize,
        /// Number of row swaps performed before the breakdown.
        swaps: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::Singular { col, row, swaps } => {
                write!(
                    f,
                    "singular block matrix (pivot underflow in original column {col}, \
                     original row {row}, after {swaps} row swaps)"
                )
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Dense row-major `N x N` matrix of `f64`.
#[derive(Clone, Copy, PartialEq)]
pub struct BlockMat<const N: usize> {
    a: [[f64; N]; N],
}

impl<const N: usize> fmt::Debug for BlockMat<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BlockMat<{N}> [")?;
        for r in 0..N {
            writeln!(f, "  {:?}", self.a[r])?;
        }
        write!(f, "]")
    }
}

impl<const N: usize> Default for BlockMat<N> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<const N: usize> BlockMat<N> {
    /// The zero matrix.
    #[inline]
    pub fn zero() -> Self {
        BlockMat { a: [[0.0; N]; N] }
    }

    /// The identity matrix.
    #[inline]
    pub fn identity() -> Self {
        let mut m = Self::zero();
        for i in 0..N {
            m.a[i][i] = 1.0;
        }
        m
    }

    /// A diagonal matrix with constant value `d`.
    #[inline]
    pub fn scaled_identity(d: f64) -> Self {
        let mut m = Self::zero();
        for i in 0..N {
            m.a[i][i] = d;
        }
        m
    }

    /// Build from a row-major closure.
    #[inline]
    pub fn from_fn(mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zero();
        for r in 0..N {
            for c in 0..N {
                m.a[r][c] = f(r, c);
            }
        }
        m
    }

    /// Element access.
    #[inline(always)]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.a[r][c]
    }

    /// Mutable element access.
    #[inline(always)]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.a[r][c]
    }

    /// Set an element.
    #[inline(always)]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.a[r][c] = v;
    }

    /// Add `v` to the diagonal (used to add `V/dt` terms to flux Jacobians).
    #[inline]
    pub fn add_diagonal(&mut self, v: f64) {
        for i in 0..N {
            self.a[i][i] += v;
        }
    }

    /// Matrix-vector product `y = A x`.
    #[inline]
    pub fn mul_vec(&self, x: &[f64; N]) -> [f64; N] {
        let mut y = [0.0; N];
        for r in 0..N {
            let mut s = 0.0;
            for c in 0..N {
                s += self.a[r][c] * x[c];
            }
            y[r] = s;
        }
        y
    }

    /// `y -= A x`, fused to avoid a temporary in the tridiagonal sweeps.
    #[inline]
    pub fn mul_vec_sub(&self, x: &[f64; N], y: &mut [f64; N]) {
        for r in 0..N {
            let mut s = 0.0;
            for c in 0..N {
                s += self.a[r][c] * x[c];
            }
            y[r] -= s;
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Self {
        Self::from_fn(|r, c| self.a[c][r])
    }

    /// LU factorisation with partial pivoting.
    ///
    /// Returns an error if a pivot underflows the singularity threshold
    /// (`1e-300`), which in the solvers indicates a catastrophically bad
    /// Jacobian (e.g. vacuum state).
    pub fn lu(&self) -> Result<BlockLu<N>, LinalgError> {
        let mut lu = self.a;
        let mut piv = [0usize; N];
        for (i, p) in piv.iter_mut().enumerate() {
            *p = i;
        }
        let mut swaps = 0usize;
        for k in 0..N {
            // Partial pivot: find the largest magnitude entry in column k.
            let mut pk = k;
            let mut pmax = lu[k][k].abs();
            for r in (k + 1)..N {
                let v = lu[r][k].abs();
                if v > pmax {
                    pmax = v;
                    pk = r;
                }
            }
            if pmax < 1e-300 {
                // Columns are never permuted, so k is the original column;
                // piv[k] is the original row the swaps parked here.
                return Err(LinalgError::Singular {
                    col: k,
                    row: piv[k],
                    swaps,
                });
            }
            if pk != k {
                lu.swap(k, pk);
                piv.swap(k, pk);
                swaps += 1;
            }
            let inv_pivot = 1.0 / lu[k][k];
            for r in (k + 1)..N {
                let m = lu[r][k] * inv_pivot;
                lu[r][k] = m;
                for c in (k + 1)..N {
                    lu[r][c] -= m * lu[k][c];
                }
            }
        }
        Ok(BlockLu { lu, piv })
    }

    /// Dense inverse via LU (convenience; the solvers keep the factorisation).
    pub fn inverse(&self) -> Result<BlockMat<N>, LinalgError> {
        let lu = self.lu()?;
        let mut inv = BlockMat::zero();
        for c in 0..N {
            let mut e = [0.0; N];
            e[c] = 1.0;
            let x = lu.solve(&e);
            for r in 0..N {
                inv.a[r][c] = x[r];
            }
        }
        Ok(inv)
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        let mut m = 0.0f64;
        for r in 0..N {
            for c in 0..N {
                m = m.max(self.a[r][c].abs());
            }
        }
        m
    }
}

impl<const N: usize> Add for BlockMat<N> {
    type Output = Self;
    #[inline]
    fn add(mut self, rhs: Self) -> Self {
        self += rhs;
        self
    }
}

impl<const N: usize> AddAssign for BlockMat<N> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        for r in 0..N {
            for c in 0..N {
                self.a[r][c] += rhs.a[r][c];
            }
        }
    }
}

impl<const N: usize> Sub for BlockMat<N> {
    type Output = Self;
    #[inline]
    fn sub(mut self, rhs: Self) -> Self {
        self -= rhs;
        self
    }
}

impl<const N: usize> SubAssign for BlockMat<N> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        for r in 0..N {
            for c in 0..N {
                self.a[r][c] -= rhs.a[r][c];
            }
        }
    }
}

impl<const N: usize> Mul for BlockMat<N> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        let mut out = Self::zero();
        for r in 0..N {
            for k in 0..N {
                let v = self.a[r][k];
                if v == 0.0 {
                    continue;
                }
                for c in 0..N {
                    out.a[r][c] += v * rhs.a[k][c];
                }
            }
        }
        out
    }
}

impl<const N: usize> Mul<f64> for BlockMat<N> {
    type Output = Self;
    #[inline]
    fn mul(mut self, s: f64) -> Self {
        for r in 0..N {
            for c in 0..N {
                self.a[r][c] *= s;
            }
        }
        self
    }
}

/// LU factorisation (with partial pivoting) of a [`BlockMat`].
#[derive(Clone, Copy, Debug)]
pub struct BlockLu<const N: usize> {
    lu: [[f64; N]; N],
    piv: [usize; N],
}

impl<const N: usize> BlockLu<N> {
    /// Solve `A x = b` using the stored factorisation.
    #[inline]
    pub fn solve(&self, b: &[f64; N]) -> [f64; N] {
        // Apply the row permutation while loading b.
        let mut x = [0.0; N];
        for r in 0..N {
            x[r] = b[self.piv[r]];
        }
        // Forward substitution, unit lower triangle.
        for r in 1..N {
            let mut s = x[r];
            for c in 0..r {
                s -= self.lu[r][c] * x[c];
            }
            x[r] = s;
        }
        // Backward substitution.
        for r in (0..N).rev() {
            let mut s = x[r];
            for c in (r + 1)..N {
                s -= self.lu[r][c] * x[c];
            }
            x[r] = s / self.lu[r][r];
        }
        x
    }

    /// Solve `A X = B` column-wise for a block right-hand side; used in the
    /// block-tridiagonal forward elimination.
    #[inline]
    pub fn solve_mat(&self, b: &BlockMat<N>) -> BlockMat<N> {
        let mut out = BlockMat::zero();
        for c in 0..N {
            let mut col = [0.0; N];
            for r in 0..N {
                col[r] = b.get(r, c);
            }
            let x = self.solve(&col);
            for r in 0..N {
                out.set(r, c, x[r]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_close<const N: usize>(a: &[f64; N], b: &[f64; N], tol: f64) -> bool {
        a.iter().zip(b.iter()).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn identity_solve_is_identity() {
        let m = BlockMat::<6>::identity();
        let lu = m.lu().unwrap();
        let b = [1.0, -2.0, 3.0, -4.0, 5.0, -6.0];
        assert_eq!(lu.solve(&b), b);
    }

    #[test]
    fn singular_matrix_reports_error() {
        let m = BlockMat::<3>::zero();
        assert!(matches!(m.lu(), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn rank_deficient_matrix_reports_error() {
        // Two identical rows.
        let m = BlockMat::<3>::from_fn(|r, c| if r < 2 { (c + 1) as f64 } else { 1.0 });
        assert!(m.lu().is_err());
    }

    #[test]
    fn singular_error_reports_original_indices_under_permutation() {
        // Column 2 is identically zero, so elimination must break down at
        // original column 2 no matter how the rows are ordered. Row 3
        // carries the dominant column-0 entry, forcing a swap at step 0.
        let base = |r: usize, c: usize| -> f64 {
            if c == 2 {
                0.0
            } else {
                [
                    [4.0, 1.0, 0.0, 0.5],
                    [1.0, 5.0, 0.0, 0.25],
                    [0.5, 0.5, 0.0, 6.0],
                    [9.0, 0.25, 0.0, 1.0],
                ][r][c]
            }
        };
        let m = BlockMat::<4>::from_fn(base);
        match m.lu() {
            Err(LinalgError::Singular { col, row, swaps }) => {
                assert_eq!(col, 2, "must name the original zero column");
                assert!(row < 4);
                assert!(swaps >= 1, "the dominant row 3 forces at least one swap");
            }
            other => panic!("expected singular, got {other:?}"),
        }
        // Identity ordering (no dominant off-diagonal rows): zero swaps,
        // and the unpermuted pivot row is reported.
        let id = BlockMat::<3>::from_fn(|r, c| {
            if c == 1 {
                0.0
            } else if r == c {
                3.0 + r as f64
            } else {
                0.1
            }
        });
        assert_eq!(
            id.lu().map(|_| ()),
            Err(LinalgError::Singular {
                col: 1,
                row: 1,
                swaps: 0
            })
        );
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let m = BlockMat::<4>::from_fn(|r, c| {
            if r == c {
                4.0
            } else {
                1.0 / (1.0 + (r + c) as f64)
            }
        });
        let inv = m.inverse().unwrap();
        let prod = inv * m;
        let id = BlockMat::<4>::identity();
        assert!((prod - id).max_abs() < 1e-12, "{prod:?}");
    }

    #[test]
    fn mul_vec_sub_matches_manual() {
        let m = BlockMat::<3>::from_fn(|r, c| (r * 3 + c) as f64);
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 10.0, 10.0];
        m.mul_vec_sub(&x, &mut y);
        let mv = m.mul_vec(&x);
        assert_eq!(y, [10.0 - mv[0], 10.0 - mv[1], 10.0 - mv[2]]);
    }

    #[test]
    fn add_diagonal_only_touches_diagonal() {
        let mut m = BlockMat::<5>::zero();
        m.add_diagonal(2.5);
        for r in 0..5 {
            for c in 0..5 {
                assert_eq!(m.get(r, c), if r == c { 2.5 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_twice_is_original() {
        let m = BlockMat::<6>::from_fn(|r, c| (r as f64) * 0.3 - (c as f64) * 1.7);
        assert_eq!(m.transpose().transpose(), m);
    }

    columbia_rt::props! {
        /// For diagonally dominant random matrices (always invertible),
        /// solving then multiplying recovers the right-hand side.
        fn prop_lu_solve_roundtrip(
            seed in columbia_rt::props::array::<_, 32>(-1.0f64..1.0),
            b in columbia_rt::props::array::<_, 6>(-10.0f64..10.0),
        ) {
            let mut m = BlockMat::<6>::from_fn(|r, c| seed[(r * 6 + c) % 32]);
            m.add_diagonal(8.0); // ensure diagonal dominance
            let lu = m.lu().unwrap();
            let x = lu.solve(&b);
            let back = m.mul_vec(&x);
            assert!(vec_close(&back, &b, 1e-9), "back={back:?} b={b:?}");
        }

        /// solve_mat agrees with column-by-column solve.
        fn prop_solve_mat_columns(seed in columbia_rt::props::array::<_, 16>(-1.0f64..1.0)) {
            let mut m = BlockMat::<4>::from_fn(|r, c| seed[r * 4 + c]);
            m.add_diagonal(6.0);
            let rhs = BlockMat::<4>::from_fn(|r, c| seed[(r + c * 4) % 16] * 2.0);
            let lu = m.lu().unwrap();
            let x = lu.solve_mat(&rhs);
            for c in 0..4 {
                let mut col = [0.0; 4];
                for r in 0..4 { col[r] = rhs.get(r, c); }
                let xc = lu.solve(&col);
                for r in 0..4 {
                    assert!((x.get(r, c) - xc[r]).abs() < 1e-12);
                }
            }
        }

        /// (A*B)x == A*(B*x)
        fn prop_matmul_assoc_with_vec(
            sa in columbia_rt::props::array::<_, 9>(-2.0f64..2.0),
            sb in columbia_rt::props::array::<_, 9>(-2.0f64..2.0),
            x in columbia_rt::props::array::<_, 3>(-5.0f64..5.0),
        ) {
            let a = BlockMat::<3>::from_fn(|r, c| sa[r * 3 + c]);
            let b = BlockMat::<3>::from_fn(|r, c| sb[r * 3 + c]);
            let lhs = (a * b).mul_vec(&x);
            let rhs = a.mul_vec(&b.mul_vec(&x));
            assert!(vec_close(&lhs, &rhs, 1e-9));
        }
    }
}
