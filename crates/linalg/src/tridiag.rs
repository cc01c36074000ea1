//! Block-tridiagonal LU solver (block Thomas algorithm).
//!
//! This is the computational core of NSU3D's line-implicit smoother: along
//! each implicit line of `n` grid points the linearised system couples each
//! point to its two line neighbours through dense `N x N` blocks
//!
//! ```text
//!   | D0 U0          | x0     b0
//!   | L1 D1 U1       | x1   = b1
//!   |    L2 D2 U2    | x2     b2
//!   |       ...      | ..     ..
//! ```
//!
//! The factorisation is the standard block forward elimination; no pivoting
//! across blocks is performed (the diagonal blocks carry a `V/dt` term that
//! makes them strongly dominant in practice), but each diagonal block is
//! factorised with partially pivoted LU internally.

use crate::block::{BlockLu, BlockMat, LinalgError};

/// Reusable block-tridiagonal system of variable length.
///
/// The struct owns growable storage so a single instance can be reused for
/// every line in the mesh without reallocating (lines are solved serially
/// within a partition, in line-length-sorted batches, mirroring NSU3D's
/// vectorisation strategy).
#[derive(Clone, Debug, Default)]
pub struct BlockTridiag<const N: usize> {
    lower: Vec<BlockMat<N>>,
    diag: Vec<BlockMat<N>>,
    upper: Vec<BlockMat<N>>,
    rhs: Vec<[f64; N]>,
    // Scratch for the factorisation.
    diag_lu: Vec<Option<BlockLu<N>>>,
    upper_mod: Vec<BlockMat<N>>,
    // Forward-substitution scratch, persistent so steady-state line
    // solves never touch the allocator.
    y: Vec<[f64; N]>,
}

impl<const N: usize> BlockTridiag<N> {
    /// Create an empty system.
    pub fn new() -> Self {
        Self {
            lower: Vec::new(),
            diag: Vec::new(),
            upper: Vec::new(),
            rhs: Vec::new(),
            diag_lu: Vec::new(),
            upper_mod: Vec::new(),
            y: Vec::new(),
        }
    }

    /// Heap bytes held by the system and its factorisation scratch.
    pub fn heap_bytes(&self) -> usize {
        let blocks = [&self.lower, &self.diag, &self.upper, &self.upper_mod];
        let blocks: usize = blocks.iter().map(|v| v.capacity()).sum();
        blocks * size_of::<BlockMat<N>>()
            + (self.rhs.capacity() + self.y.capacity()) * size_of::<[f64; N]>()
            + self.diag_lu.capacity() * size_of::<Option<BlockLu<N>>>()
    }

    /// Reset to a system of length `n` with zero blocks and zero RHS.
    pub fn reset(&mut self, n: usize) {
        self.lower.clear();
        self.diag.clear();
        self.upper.clear();
        self.rhs.clear();
        self.lower.resize(n, BlockMat::zero());
        self.diag.resize(n, BlockMat::zero());
        self.upper.resize(n, BlockMat::zero());
        self.rhs.resize(n, [0.0; N]);
    }

    /// Number of block rows.
    pub fn len(&self) -> usize {
        self.diag.len()
    }

    /// True when the system has no rows.
    pub fn is_empty(&self) -> bool {
        self.diag.is_empty()
    }

    /// Mutable access to the sub-diagonal block of row `i` (couples to `i-1`).
    pub fn lower_mut(&mut self, i: usize) -> &mut BlockMat<N> {
        &mut self.lower[i]
    }

    /// Mutable access to the diagonal block of row `i`.
    pub fn diag_mut(&mut self, i: usize) -> &mut BlockMat<N> {
        &mut self.diag[i]
    }

    /// Mutable access to the super-diagonal block of row `i` (couples to `i+1`).
    pub fn upper_mut(&mut self, i: usize) -> &mut BlockMat<N> {
        &mut self.upper[i]
    }

    /// Mutable access to the right-hand side of row `i`.
    pub fn rhs_mut(&mut self, i: usize) -> &mut [f64; N] {
        &mut self.rhs[i]
    }

    /// Solve the system in place, writing the solution through `out`.
    ///
    /// `out` must have length `self.len()`. The contents of the blocks are
    /// preserved (the factorisation uses internal scratch), so the system
    /// may be re-solved with a different RHS by mutating `rhs_mut` only.
    pub fn solve_into(&mut self, out: &mut [[f64; N]]) -> Result<(), LinalgError> {
        let n = self.len();
        assert_eq!(out.len(), n, "output slice length mismatch");
        if n == 0 {
            return Ok(());
        }
        self.diag_lu.clear();
        self.diag_lu.resize(n, None);
        self.upper_mod.clear();
        self.upper_mod.resize(n, BlockMat::zero());
        self.y.clear();
        self.y.resize(n, [0.0; N]);

        // Forward elimination:
        //   D'_0 = D_0
        //   U'_i = D'^-1_i U_i
        //   D'_i = D_i - L_i U'_{i-1}
        //   b'_i = b_i - L_i (D'^-1_{i-1} b'_{i-1})
        let lu0 = self.diag[0].lu()?;
        self.upper_mod[0] = lu0.solve_mat(&self.upper[0]);
        self.y[0] = lu0.solve(&self.rhs[0]);
        self.diag_lu[0] = Some(lu0);
        for i in 1..n {
            // D'_i = D_i - L_i * U'_{i-1}
            let mut dmod = self.diag[i];
            let li = self.lower[i];
            let uprev = self.upper_mod[i - 1];
            dmod -= li * uprev;
            let lui = dmod.lu()?;
            // b'_i = b_i - L_i y_{i-1}; y_i = D'^-1_i b'_i
            let mut b = self.rhs[i];
            li.mul_vec_sub(&self.y[i - 1], &mut b);
            self.y[i] = lui.solve(&b);
            if i + 1 < n {
                self.upper_mod[i] = lui.solve_mat(&self.upper[i]);
            }
            self.diag_lu[i] = Some(lui);
        }

        // Back substitution: x_n = y_n; x_i = y_i - U'_i x_{i+1}
        out[n - 1] = self.y[n - 1];
        for i in (0..n - 1).rev() {
            let mut x = self.y[i];
            let ui = self.upper_mod[i];
            let xi1 = out[i + 1];
            let corr = ui.mul_vec(&xi1);
            for k in 0..N {
                x[k] -= corr[k];
            }
            out[i] = x;
        }
        Ok(())
    }

    /// Compute the residual `b - A x` for verification purposes.
    pub fn residual(&self, x: &[[f64; N]]) -> Vec<[f64; N]> {
        let n = self.len();
        let mut r = self.rhs.clone();
        for i in 0..n {
            self.diag[i].mul_vec_sub(&x[i], &mut r[i]);
            if i > 0 {
                self.lower[i].mul_vec_sub(&x[i - 1], &mut r[i]);
            }
            if i + 1 < n {
                self.upper[i].mul_vec_sub(&x[i + 1], &mut r[i]);
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_abs<const N: usize>(r: &[[f64; N]]) -> f64 {
        r.iter()
            .flat_map(|row| row.iter())
            .fold(0.0f64, |m, v| m.max(v.abs()))
    }

    #[test]
    fn single_block_row_reduces_to_dense_solve() {
        let mut t = BlockTridiag::<3>::new();
        t.reset(1);
        *t.diag_mut(0) = BlockMat::from_fn(|r, c| if r == c { 5.0 } else { 1.0 });
        *t.rhs_mut(0) = [1.0, 2.0, 3.0];
        let mut x = vec![[0.0; 3]; 1];
        t.solve_into(&mut x).unwrap();
        assert!(max_abs(&t.residual(&x)) < 1e-12);
    }

    #[test]
    fn scalar_tridiagonal_matches_thomas() {
        // N = 1 degenerates to the scalar Thomas algorithm; compare to a
        // hand-rolled reference on a Poisson-like [-1 2 -1] system.
        let n = 50;
        let mut t = BlockTridiag::<1>::new();
        t.reset(n);
        for i in 0..n {
            t.diag_mut(i).set(0, 0, 2.0);
            if i > 0 {
                t.lower_mut(i).set(0, 0, -1.0);
            }
            if i + 1 < n {
                t.upper_mut(i).set(0, 0, -1.0);
            }
            t.rhs_mut(i)[0] = 1.0;
        }
        let mut x = vec![[0.0; 1]; n];
        t.solve_into(&mut x).unwrap();
        assert!(max_abs(&t.residual(&x)) < 1e-9);
        // Poisson with unit load: solution is a parabola, maximum near centre.
        let mid = x[n / 2][0];
        assert!(x[0][0] < mid && x[n - 1][0] < mid);
    }

    #[test]
    fn empty_system_is_ok() {
        let mut t = BlockTridiag::<6>::new();
        t.reset(0);
        let mut x: Vec<[f64; 6]> = vec![];
        t.solve_into(&mut x).unwrap();
    }

    #[test]
    fn reuse_across_resets_gives_fresh_system() {
        let mut t = BlockTridiag::<2>::new();
        t.reset(3);
        for i in 0..3 {
            *t.diag_mut(i) = BlockMat::scaled_identity(4.0);
            t.rhs_mut(i)[0] = 1.0;
        }
        let mut x = vec![[0.0; 2]; 3];
        t.solve_into(&mut x).unwrap();
        // Second, different system after reset: confirm no stale state.
        t.reset(2);
        for i in 0..2 {
            *t.diag_mut(i) = BlockMat::scaled_identity(2.0);
            t.rhs_mut(i)[1] = 2.0;
        }
        let mut x2 = vec![[0.0; 2]; 2];
        t.solve_into(&mut x2).unwrap();
        for row in &x2 {
            assert!((row[0] - 0.0).abs() < 1e-12 && (row[1] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_diag_errors() {
        let mut t = BlockTridiag::<2>::new();
        t.reset(2);
        *t.diag_mut(0) = BlockMat::identity();
        // diag(1) left zero and no coupling => singular
        let mut x = vec![[0.0; 2]; 2];
        assert!(t.solve_into(&mut x).is_err());
    }

    columbia_rt::props! {
        /// Random diagonally-dominant block tridiagonal systems solve to a
        /// small residual.
        fn prop_solve_residual_small(
            n in 1usize..12,
            seed in columbia_rt::props::array::<_, 32>(-1.0f64..1.0),
        ) {
            let mut t = BlockTridiag::<4>::new();
            t.reset(n);
            let mut s = 0usize;
            let mut next = || { s = (s * 31 + 7) % 32; seed[s] };
            for i in 0..n {
                let mut d = BlockMat::<4>::from_fn(|_, _| next());
                d.add_diagonal(10.0);
                *t.diag_mut(i) = d;
                if i > 0 {
                    *t.lower_mut(i) = BlockMat::from_fn(|_, _| next() * 0.5);
                }
                if i + 1 < n {
                    *t.upper_mut(i) = BlockMat::from_fn(|_, _| next() * 0.5);
                }
                *t.rhs_mut(i) = [next(), next(), next(), next()];
            }
            let mut x = vec![[0.0; 4]; n];
            t.solve_into(&mut x).unwrap();
            assert!(max_abs(&t.residual(&x)) < 1e-8);
        }
    }
}
