//! Lane-interleaved (structure-of-arrays) block storage and batched
//! SIMD-friendly kernels.
//!
//! The scalar kernels in [`crate::block`] and [`crate::tridiag`] operate on
//! one dense `N x N` block at a time; inside a block the data dependencies
//! (pivot search, triangular substitution) serialise the arithmetic, so the
//! compiler cannot vectorise them. This module stores `LANES` independent
//! blocks *interleaved*: element `(r, c)` of lane `l` lives at
//! `a[r][c][l]`, so each `[f64; LANES]` group is one cache-line-sized,
//! contiguous vector register's worth of data and the innermost loop of
//! every kernel runs over independent lanes. The dependency chains of the
//! LU factorisation and the tridiagonal sweeps then cross *iterations of
//! the outer loop only*, and the lane loop autovectorises (and provides
//! instruction-level parallelism even where it does not).
//!
//! # Bit-identity contract
//!
//! Every batched kernel performs, per lane, the *exact same floating-point
//! operations in the exact same order* as its scalar counterpart:
//!
//! - no cross-lane arithmetic, no reassociation, no FMA contraction;
//! - pivot selection replicates the scalar search (strict `>`, ties keep
//!   the earlier row) independently per lane, with the lanes searched in
//!   parallel;
//! - accumulate-then-subtract sequences (`mul_vec_sub`, the forward
//!   elimination update) keep the scalar's grouping;
//! - the forward substitution is fused into the factorisation: the
//!   right-hand sides ride through each lane's row swaps and take each
//!   multiplier as it is formed, so every entry receives the scalar
//!   solve's updates, with the same operands, in the same order;
//! - the scalar matmul's zero-multiplier skip is replicated where it is
//!   free: the forward elimination update skips a multiplier that is zero
//!   in *every* lane. A lane whose multiplier is zero while another's is
//!   not accumulates a `±0.0` product instead of skipping it, which is
//!   bit-identical when the other factor is finite: the accumulator
//!   starts at `+0.0`, a sum that starts there can never become `-0.0`
//!   (exact cancellation rounds to `+0.0`), and adding `±0.0` to anything
//!   else leaves it unchanged. Lanes already flagged singular are exempt
//!   (their output is garbage and must be discarded).
//!
//! `tests/kernel_parity.rs` and the unit tests below pin this contract
//! with exact `u64`-bit comparisons, which is what lets the solvers switch
//! the default kernel path to the batched kernels while keeping every
//! FNV-1a golden unchanged (the scalar path remains as the reference
//! oracle, selected in code with `KernelKind::Scalar`).
//!
//! # Singular lanes
//!
//! The scalar LU returns `Err` at the first vanishing pivot. A batch
//! cannot early-return one lane, so the batched factorisation flags the
//! lane in the returned `ok` flags, replaces the offending pivot with
//! `1.0` to keep the lane's arithmetic finite (protecting the *other*
//! lanes from NaN contamination is automatic — lanes never mix), and
//! carries on. Callers must discard flagged lanes, which is precisely
//! what the solvers' scalar paths do with `Err` results.

use crate::block::BlockMat;

/// Number of interleaved lanes per batch. Four `f64` lanes are 32 bytes —
/// half a cache line per element group, and wide enough to cover SSE2
/// (2 x f64) and AVX (4 x f64) registers while keeping the per-batch
/// working set of a 6x6 block system inside L1.
pub const LANES: usize = 4;

/// Batch of per-point `N`-vectors, lane-interleaved: entry `r` of lane `l`
/// is `v[r][l]`.
pub type VecBatch<const N: usize> = [[f64; LANES]; N];

/// An all-zero [`VecBatch`].
#[inline]
pub fn vec_batch_zero<const N: usize>() -> VecBatch<N> {
    [[0.0; LANES]; N]
}

/// `LANES` dense `N x N` matrices stored interleaved (`a[r][c][l]`).
#[derive(Clone, Copy, Debug)]
pub struct BlockBatch<const N: usize> {
    a: [[[f64; LANES]; N]; N],
}

impl<const N: usize> Default for BlockBatch<N> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<const N: usize> BlockBatch<N> {
    /// All lanes zero.
    #[inline]
    pub fn zero() -> Self {
        BlockBatch {
            a: [[[0.0; LANES]; N]; N],
        }
    }

    /// All lanes identity.
    #[inline]
    pub fn identity() -> Self {
        let mut b = Self::zero();
        for i in 0..N {
            for l in 0..LANES {
                b.a[i][i][l] = 1.0;
            }
        }
        b
    }

    /// Scatter a scalar block into lane `l`.
    #[inline]
    pub fn set_lane(&mut self, l: usize, m: &BlockMat<N>) {
        for r in 0..N {
            for c in 0..N {
                self.a[r][c][l] = m.get(r, c);
            }
        }
    }

    /// Set element `(r, c)` of lane `l`.
    #[inline(always)]
    pub fn set(&mut self, r: usize, c: usize, l: usize, v: f64) {
        self.a[r][c][l] = v;
    }

    /// Gather lane `l` back into a scalar block.
    #[inline]
    pub fn lane(&self, l: usize) -> BlockMat<N> {
        BlockMat::from_fn(|r, c| self.a[r][c][l])
    }

    /// Interleave up to `LANES` scalar blocks; unused lanes are identity
    /// (non-singular padding whose results the caller ignores).
    pub fn from_lanes(mats: &[BlockMat<N>]) -> Self {
        assert!(mats.len() <= LANES, "at most {LANES} lanes per batch");
        let mut b = Self::identity();
        for (l, m) in mats.iter().enumerate() {
            b.set_lane(l, m);
        }
        b
    }

    /// Element access (`(r, c)` of lane `l`).
    #[inline(always)]
    pub fn get(&self, r: usize, c: usize, l: usize) -> f64 {
        self.a[r][c][l]
    }

    /// Factorise in place and overwrite `rhs` with the solution of
    /// `A x = rhs`, per lane — the point-implicit solve. Returns per-lane
    /// success flags: where [`BlockMat::lu`] returns `Err` the lane comes
    /// back `false` and its `rhs` is garbage the caller must discard.
    /// Per lane, bit-identical to `BlockMat::lu` followed by
    /// [`crate::block::BlockLu::solve`].
    pub fn lu_solve(&mut self, rhs: &mut VecBatch<N>) -> [bool; LANES] {
        let mut ok = [true; LANES];
        self.factor_solve::<0>(&mut [[]; N], rhs, &mut ok);
        ok
    }

    /// The one batched LU: factorise `self` in place with per-lane partial
    /// pivoting and solve it for the `M` columns of `cols` and for `rhs`,
    /// overwriting both. Each lane's pivot search, row swap and
    /// elimination replicate [`BlockMat::lu`]; the forward substitution of
    /// [`crate::block::BlockLu::solve`] runs inside the elimination (see
    /// the module docs), and the back substitution sweeps all `M + 1`
    /// columns at once. Lanes that hit a vanishing pivot are cleared in
    /// `ok`.
    fn factor_solve<const M: usize>(
        &mut self,
        cols: &mut [[[f64; LANES]; M]; N],
        rhs: &mut VecBatch<N>,
        ok: &mut [bool; LANES],
    ) {
        let a = &mut self.a;
        for k in 0..N {
            let mut pmax = [0.0f64; LANES];
            let mut pk = [k; LANES];
            for l in 0..LANES {
                pmax[l] = a[k][k][l].abs();
            }
            for r in (k + 1)..N {
                for l in 0..LANES {
                    let v = a[r][k][l].abs();
                    if v > pmax[l] {
                        pmax[l] = v;
                        pk[l] = r;
                    }
                }
            }
            for l in 0..LANES {
                let p = pk[l];
                if pmax[l] < 1e-300 {
                    // Scalar path would return Err here; neutralise the
                    // lane with a unit pivot and let the caller discard it.
                    ok[l] = false;
                    a[k][k][l] = 1.0;
                } else if p != k {
                    for c in 0..N {
                        let t = a[k][c][l];
                        a[k][c][l] = a[p][c][l];
                        a[p][c][l] = t;
                    }
                    for c in 0..M {
                        let t = cols[k][c][l];
                        cols[k][c][l] = cols[p][c][l];
                        cols[p][c][l] = t;
                    }
                    let t = rhs[k][l];
                    rhs[k][l] = rhs[p][l];
                    rhs[p][l] = t;
                }
            }
            let mut inv_pivot = [0.0; LANES];
            for l in 0..LANES {
                inv_pivot[l] = 1.0 / a[k][k][l];
            }
            for r in (k + 1)..N {
                let mut m = [0.0; LANES];
                for l in 0..LANES {
                    m[l] = a[r][k][l] * inv_pivot[l];
                    a[r][k][l] = m[l];
                }
                for c in (k + 1)..N {
                    for l in 0..LANES {
                        a[r][c][l] -= m[l] * a[k][c][l];
                    }
                }
                for c in 0..M {
                    for l in 0..LANES {
                        cols[r][c][l] -= m[l] * cols[k][c][l];
                    }
                }
                for l in 0..LANES {
                    rhs[r][l] -= m[l] * rhs[k][l];
                }
            }
        }
        // Backward substitution (the final division matches the scalar
        // `s / lu[r][r]` — no reciprocal strength reduction).
        for r in (0..N).rev() {
            for c in (r + 1)..N {
                let u = a[r][c];
                for j in 0..M {
                    for l in 0..LANES {
                        cols[r][j][l] -= u[l] * cols[c][j][l];
                    }
                }
                for l in 0..LANES {
                    rhs[r][l] -= u[l] * rhs[c][l];
                }
            }
            let d = a[r][r];
            for j in 0..M {
                for l in 0..LANES {
                    cols[r][j][l] /= d[l];
                }
            }
            for l in 0..LANES {
                rhs[r][l] /= d[l];
            }
        }
    }

    /// `self -= a * b` per lane — the forward-elimination update
    /// `D'_i = D_i - L_i U'_{i-1}`.
    ///
    /// Accumulates the full product row into a temporary (ascending `k`,
    /// matching the scalar matmul's order) and subtracts once, exactly as
    /// the scalar `dmod -= li * uprev` does. A multiplier `a[r][k]` that
    /// is zero in every lane is skipped, as the scalar matmul skips it.
    fn mul_sub_assign(&mut self, a: &BlockBatch<N>, b: &BlockBatch<N>) {
        for r in 0..N {
            let mut acc = [[0.0; LANES]; N];
            for k in 0..N {
                let v = a.a[r][k];
                if v.iter().all(|&x| x == 0.0) {
                    continue;
                }
                for c in 0..N {
                    for l in 0..LANES {
                        acc[c][l] += v[l] * b.a[k][c][l];
                    }
                }
            }
            for c in 0..N {
                for l in 0..LANES {
                    self.a[r][c][l] -= acc[c][l];
                }
            }
        }
    }

    /// Per-lane matrix-vector product `y = A x` (accumulate order as
    /// [`BlockMat::mul_vec`]).
    pub fn mul_vec(&self, x: &VecBatch<N>) -> VecBatch<N> {
        let mut y = vec_batch_zero();
        for r in 0..N {
            let mut s = [0.0; LANES];
            for c in 0..N {
                for l in 0..LANES {
                    s[l] += self.a[r][c][l] * x[c][l];
                }
            }
            y[r] = s;
        }
        y
    }

    /// Per-lane fused `y -= A x` (accumulate-then-subtract, as
    /// [`BlockMat::mul_vec_sub`]).
    pub fn mul_vec_sub(&self, x: &VecBatch<N>, y: &mut VecBatch<N>) {
        for r in 0..N {
            let mut s = [0.0; LANES];
            for c in 0..N {
                for l in 0..LANES {
                    s[l] += self.a[r][c][l] * x[c][l];
                }
            }
            for l in 0..LANES {
                y[r][l] -= s[l];
            }
        }
    }
}

/// Row `i` of a streamed [`TridiagBatch::solve`], as its row closure sees
/// it: every lane arrives as a padding row (identity diagonal, zero RHS,
/// zero couplings) and the closure overwrites the lanes whose line has a
/// row `i`. On a line's last row it leaves the couplings alone.
pub struct BatchRow<'a, const N: usize> {
    /// Diagonal block `D_i`.
    pub diag: &'a mut BlockBatch<N>,
    /// Right-hand side `b_i`.
    pub rhs: &'a mut VecBatch<N>,
    /// Super-diagonal block `U_i` (couples row `i` to `i + 1`).
    pub upper: &'a mut BlockBatch<N>,
    /// Sub-diagonal block `L_{i+1}` of the next row (couples `i + 1` to
    /// `i`).
    pub next_lower: &'a mut BlockBatch<N>,
}

/// Batched block-tridiagonal solve: up to `LANES` lines in lockstep, each
/// lane bit-identical to [`crate::tridiag::BlockTridiag::solve_into`].
///
/// The system is *streamed*: a row closure writes row `i`'s blocks just
/// before row `i` is eliminated, and only `U'_i` (here) and `y_i` (in the
/// caller's output) are kept for the back substitution. Implicit lines
/// are vertex-disjoint, so solving several at once, in any order, is
/// bit-safe — NSU3D's vectorisation strategy, here realised with lane
/// interleaving.
///
/// **Padding.** Lines of different lengths share a batch, aligned at row
/// 0. A lane whose line ends at row `m` keeps its padding rows from `m`
/// on: identity diagonal, zero couplings, zero RHS. Its last real row
/// solves `U'_{m-1} = D'^{-1} 0`, finite signed zeros; each padding row
/// then eliminates to exactly `y = +0` and `U' = +0` and back-substitutes
/// to `x = +0`; so the last real row gets `x = y - U'_{m-1} (+0) =
/// y - (+0) = y`, the scalar's `x_{m-1} = y_{m-1}` bit for bit (for
/// finite data). Lanes beyond the caller's lines are all padding.
#[derive(Clone, Debug, Default)]
pub struct TridiagBatch<const N: usize> {
    /// `U'_i` per row: grown to the longest batch seen, never cleared.
    upper: Vec<BlockBatch<N>>,
}

impl<const N: usize> TridiagBatch<N> {
    /// Create an empty solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes of the row scratch.
    pub fn heap_bytes(&self) -> usize {
        self.upper.capacity() * size_of::<BlockBatch<N>>()
    }

    /// Solve one batch of `out.len()` rows, writing lane-interleaved
    /// solutions through `out`. `row(i, ..)` fills row `i` (see
    /// [`BatchRow`]) and is called once per row, in order.
    ///
    /// Returns per-lane success flags: where the scalar solve returns
    /// `Err` (leaving the line un-updated), the lane comes back `false`
    /// and its output is garbage the caller must discard.
    pub fn solve(
        &mut self,
        out: &mut [VecBatch<N>],
        mut row: impl FnMut(usize, BatchRow<'_, N>),
    ) -> [bool; LANES] {
        let n = out.len();
        let mut ok = [true; LANES];
        if self.upper.len() < n {
            self.upper.resize(n, BlockBatch::zero());
        }
        let (mut lower, mut next_lower) = (BlockBatch::zero(), BlockBatch::zero());
        // Forward elimination (per lane):
        //   D'_i = D_i - L_i U'_{i-1};  b'_i = b_i - L_i y_{i-1}
        //   U'_i = D'^-1_i U_i;         y_i = D'^-1_i b'_i
        for i in 0..n {
            let (done, rest) = self.upper.split_at_mut(i);
            let (ys, y) = out.split_at_mut(i);
            let (upper, y) = (&mut rest[0], &mut y[0]);
            let mut diag = BlockBatch::identity();
            *upper = BlockBatch::zero();
            *y = vec_batch_zero();
            row(
                i,
                BatchRow {
                    diag: &mut diag,
                    rhs: y,
                    upper,
                    next_lower: &mut next_lower,
                },
            );
            if i > 0 {
                diag.mul_sub_assign(&lower, &done[i - 1]);
                lower.mul_vec_sub(&ys[i - 1], y);
            }
            if i + 1 < n {
                diag.factor_solve(&mut upper.a, y, &mut ok);
            } else {
                diag.factor_solve::<0>(&mut [[]; N], y, &mut ok);
            }
            lower = std::mem::take(&mut next_lower);
        }
        // Back substitution: x_n = y_n; x_i = y_i - U'_i x_{i+1}
        for i in (0..n.saturating_sub(1)).rev() {
            let corr = self.upper[i].mul_vec(&out[i + 1]);
            for (x, c) in out[i].iter_mut().zip(&corr) {
                for l in 0..LANES {
                    x[l] -= c[l];
                }
            }
        }
        ok
    }
}

/// Plain structure-of-arrays state storage: `N` contiguous component
/// planes of `len` points each (`plane(k)[i]` is component `k` of point
/// `i`). This is the *resident* representation of solver state: the RANS
/// and Euler levels keep `u`/`res`/forcing/gradients in these planes,
/// the halo exchange packs and unpacks entries straight out of them
/// (`columbia_comm`'s `HaloField`), and the cache-blocked sweeps stream
/// over plane chunks. Per-point access goes through [`SoaStates::get`] /
/// [`SoaStates::set`] / [`SoaStates::point_mut`], which gather a block
/// `[f64; N]` in component order — reading a gathered block and operating
/// on it is bit-identical to the old AoS access, so kernels migrated from
/// `Vec<[f64; N]>` keep their digests.
///
/// The logical length may be shorter than the storage
/// ([`SoaStates::set_len`]): the planes then lie stride `len` apart at
/// the front of the buffer, and every method sees only those `N * len`
/// values. A scratch buffer handed between hierarchy levels of different
/// sizes changes length without being rewritten.
#[derive(Clone, Debug, Default)]
pub struct SoaStates<const N: usize> {
    data: Vec<f64>,
    len: usize,
}

impl<const N: usize> SoaStates<N> {
    /// Zero-initialised storage for `len` points.
    pub fn zeros(len: usize) -> Self {
        SoaStates {
            data: vec![0.0; N * len],
            len,
        }
    }

    /// Transpose back into array-of-blocks layout.
    pub fn to_aos(&self) -> Vec<[f64; N]> {
        let mut out = vec![[0.0; N]; self.len];
        for (i, blk) in out.iter_mut().enumerate() {
            for (k, v) in blk.iter_mut().enumerate() {
                *v = self.data[k * self.len + i];
            }
        }
        out
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the container holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set the number of points. Storage grows (zero-filled) when `len`
    /// needs more and never shrinks; plane contents after a change of
    /// length are unspecified.
    pub fn set_len(&mut self, len: usize) {
        if N * len > self.data.len() {
            self.data.resize(N * len, 0.0);
        }
        self.len = len;
    }

    /// Heap bytes held, the storage beyond the logical length included.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f64>()
    }

    /// Component plane `k` (contiguous over points).
    pub fn plane(&self, k: usize) -> &[f64] {
        &self.data[k * self.len..(k + 1) * self.len]
    }

    /// Mutable component plane `k`.
    pub fn plane_mut(&mut self, k: usize) -> &mut [f64] {
        &mut self.data[k * self.len..(k + 1) * self.len]
    }

    /// `self += a x` over every component plane. Element-wise, so the
    /// result is bit-identical to the AoS AXPY regardless of traversal
    /// order; the layouts differ only in memory-stream behaviour.
    pub fn axpy(&mut self, a: f64, x: &SoaStates<N>) {
        assert_eq!(self.len, x.len, "SoA axpy length mismatch");
        crate::vecops::axpy_flat(a, &x.data[..N * x.len], &mut self.data[..N * self.len]);
    }

    /// Gather point `i` as a block, in component order.
    #[inline]
    pub fn get(&self, i: usize) -> [f64; N] {
        debug_assert!(i < self.len);
        let mut out = [0.0; N];
        for (k, v) in out.iter_mut().enumerate() {
            *v = self.data[k * self.len + i];
        }
        out
    }

    /// Scatter a block into point `i`, in component order.
    #[inline]
    pub fn set(&mut self, i: usize, v: &[f64; N]) {
        debug_assert!(i < self.len);
        for (k, x) in v.iter().enumerate() {
            self.data[k * self.len + i] = *x;
        }
    }

    /// Component `k` of point `i`.
    #[inline]
    pub fn at(&self, k: usize, i: usize) -> f64 {
        debug_assert!(k < N && i < self.len);
        self.data[k * self.len + i]
    }

    /// Mutable component `k` of point `i`.
    #[inline]
    pub fn at_mut(&mut self, k: usize, i: usize) -> &mut f64 {
        debug_assert!(k < N && i < self.len);
        &mut self.data[k * self.len + i]
    }

    /// Set every point to the same block (freestream init).
    pub fn fill_with(&mut self, v: &[f64; N]) {
        for k in 0..N {
            self.plane_mut(k).fill(v[k]);
        }
    }

    /// Zero every plane.
    pub fn fill_zero(&mut self) {
        self.data[..N * self.len].fill(0.0);
    }

    /// Plane-wise memcpy from another container of the same length.
    pub fn copy_from(&mut self, other: &SoaStates<N>) {
        assert_eq!(self.len, other.len, "SoA copy length mismatch");
        self.data[..N * self.len].copy_from_slice(&other.data[..N * other.len]);
    }

    /// All `N` planes at once as disjoint mutable slices, for sweeps that
    /// update several components per pass without re-borrowing.
    pub fn planes_mut(&mut self) -> [&mut [f64]; N] {
        let len = self.len;
        let mut out: [&mut [f64]; N] = [(); N].map(|_| Default::default());
        if len == 0 {
            return out;
        }
        for (k, chunk) in self.data[..N * len].chunks_exact_mut(len).enumerate() {
            out[k] = chunk;
        }
        out
    }

    /// Per-point mutable view for boundary fixups: load/store the whole
    /// block or poke single components without exposing the planes.
    #[inline]
    pub fn point_mut(&mut self, i: usize) -> PointMut<'_, N> {
        debug_assert!(i < self.len);
        PointMut { states: self, i }
    }

    /// Gather the indexed points (ghost lists) into a block buffer, in
    /// index order.
    pub fn gather(&self, idx: &[u32], out: &mut [[f64; N]]) {
        assert_eq!(idx.len(), out.len(), "SoA gather length mismatch");
        for (o, &i) in out.iter_mut().zip(idx.iter()) {
            *o = self.get(i as usize);
        }
    }

    /// Scatter block values into the indexed points, in index order.
    pub fn scatter(&mut self, idx: &[u32], vals: &[[f64; N]]) {
        assert_eq!(idx.len(), vals.len(), "SoA scatter length mismatch");
        for (v, &i) in vals.iter().zip(idx.iter()) {
            self.set(i as usize, v);
        }
    }
}

/// Mutable view of one point of a [`SoaStates`]: the per-vertex boundary
/// fixups (BC rows, positivity clamps) load the block, edit components,
/// and store it back — the same component-ordered reads and writes the
/// AoS `&mut [f64; N]` access performed.
pub struct PointMut<'a, const N: usize> {
    states: &'a mut SoaStates<N>,
    i: usize,
}

impl<const N: usize> PointMut<'_, N> {
    /// Gather the point's block.
    #[inline]
    pub fn load(&self) -> [f64; N] {
        self.states.get(self.i)
    }

    /// Scatter a block back into the point.
    #[inline]
    pub fn store(&mut self, v: &[f64; N]) {
        self.states.set(self.i, v);
    }

    /// Component `k`.
    #[inline]
    pub fn get(&self, k: usize) -> f64 {
        self.states.at(k, self.i)
    }

    /// Overwrite component `k`.
    #[inline]
    pub fn set(&mut self, k: usize, v: f64) {
        *self.states.at_mut(k, self.i) = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::LinalgError;
    use crate::tridiag::BlockTridiag;

    impl<const N: usize> SoaStates<N> {
        /// Transpose from array-of-blocks layout.
        fn from_aos(aos: &[[f64; N]]) -> Self {
            let mut s = Self::zeros(aos.len());
            for (i, blk) in aos.iter().enumerate() {
                for k in 0..N {
                    s.data[k * s.len + i] = blk[k];
                }
            }
            s
        }
    }

    fn bits<const N: usize>(v: &[f64; N]) -> [u64; N] {
        let mut out = [0u64; N];
        for (o, x) in out.iter_mut().zip(v.iter()) {
            *o = x.to_bits();
        }
        out
    }

    fn seeded_mat<const N: usize>(seed: u64) -> BlockMat<N> {
        let mut s = seed;
        BlockMat::from_fn(|_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (s >> 11) as f64 / (1u64 << 53) as f64;
            2.0 * u - 1.0
        })
    }

    #[test]
    fn lane_roundtrip_preserves_bits() {
        let m = seeded_mat::<6>(7);
        let mut b = BlockBatch::<6>::zero();
        b.set_lane(2, &m);
        assert_eq!(b.lane(2), m);
    }

    /// Interleave per-lane right-hand sides.
    fn rhs_batch<const N: usize>(rhs: &[[f64; N]]) -> VecBatch<N> {
        let mut out = vec_batch_zero();
        for (l, b) in rhs.iter().enumerate() {
            for r in 0..N {
                out[r][l] = b[r];
            }
        }
        out
    }

    #[test]
    fn batched_lu_solve_is_bit_identical_per_lane() {
        // Every lane count, so under-full batches (identity padding) too.
        for nl in 1..=LANES {
            let mats: Vec<BlockMat<6>> = (0..nl as u64)
                .map(|s| {
                    let mut m = seeded_mat::<6>(s + 1);
                    m.add_diagonal(6.0);
                    m
                })
                .collect();
            let rhs_scalar: Vec<[f64; 6]> = (0..nl)
                .map(|l| std::array::from_fn(|k| (l as f64 + 1.0) * 0.37 - k as f64))
                .collect();
            let mut x = rhs_batch(&rhs_scalar);
            let ok = BlockBatch::from_lanes(&mats).lu_solve(&mut x);
            assert_eq!(ok, [true; LANES], "{nl} lanes");
            for l in 0..nl {
                let xs = mats[l].lu().unwrap().solve(&rhs_scalar[l]);
                let xb: [f64; 6] = std::array::from_fn(|r| x[r][l]);
                assert_eq!(bits(&xs), bits(&xb), "lane {l} of {nl} diverged");
            }
        }
    }

    #[test]
    fn pivoting_lanes_diverge_independently() {
        // Lane 0 needs a row swap at column 0; lane 1 does not.
        let mut m0 = BlockMat::<3>::from_fn(|r, c| if r == c { 1.0 } else { 0.1 });
        m0.set(0, 0, 1e-8);
        m0.set(2, 0, 5.0); // forces pivot row 2 in lane 0
        let m1 = BlockMat::<3>::from_fn(|r, c| if r == c { 3.0 } else { 0.2 });
        let b = [1.0, 2.0, 3.0];
        let mut x = rhs_batch(&[b, b]);
        let ok = BlockBatch::from_lanes(&[m0, m1]).lu_solve(&mut x);
        assert!(ok[0] && ok[1]);
        for (l, m) in [m0, m1].iter().enumerate() {
            let xs = m.lu().unwrap().solve(&b);
            for r in 0..3 {
                assert_eq!(xs[r].to_bits(), x[r][l].to_bits(), "lane {l} row {r}");
            }
        }
    }

    #[test]
    fn singular_lane_is_flagged_and_others_unharmed() {
        let good = {
            let mut m = seeded_mat::<4>(11);
            m.add_diagonal(5.0);
            m
        };
        // Column 1 identically zero => singular at elimination column 1.
        let bad = BlockMat::<4>::from_fn(|r, c| if c == 1 { 0.0 } else { (r + c) as f64 + 1.0 });
        assert!(matches!(bad.lu(), Err(LinalgError::Singular { .. })));
        let b = [1.0, -2.0, 3.0, -4.0];
        let mut x = rhs_batch(&[b, b]);
        let ok = BlockBatch::from_lanes(&[good, bad]).lu_solve(&mut x);
        assert!(ok[0] && !ok[1]);
        let xs = good.lu().unwrap().solve(&b);
        for r in 0..4 {
            assert_eq!(xs[r].to_bits(), x[r][0].to_bits(), "good lane polluted");
            assert!(x[r][1].is_finite(), "flagged lane must stay finite");
        }
    }

    /// One line system: per row its diagonal block and RHS, and for all
    /// but the last row the couplings `(U_i, L_{i+1})`.
    struct LineSys<const N: usize> {
        diag: Vec<BlockMat<N>>,
        rhs: Vec<[f64; N]>,
        couple: Vec<(BlockMat<N>, BlockMat<N>)>,
    }

    /// Solve up to `LANES` lines of any lengths as one streamed, padded
    /// batch and each alone through the scalar oracle: the lane flags
    /// must equal the scalar `is_ok`s and every solved lane must match
    /// bit for bit. Returns the flags. The batch is solved twice, lanes
    /// reversed first, so the checked solve runs on dirty scratch as a
    /// level's reused solver does, and `+0.0` coupling entries are left
    /// to the solver's reset.
    fn check_against_scalar<const N: usize>(lines: &[LineSys<N>]) -> [bool; LANES] {
        let n = lines.iter().map(|s| s.diag.len()).max().unwrap_or(0);
        let mut xb = vec![vec_batch_zero::<N>(); n];
        let mut tb = TridiagBatch::new();
        let mut ok = [true; LANES];
        for reversed in [true, false] {
            ok = tb.solve(&mut xb, |i, row| {
                for (l, s) in lines.iter().enumerate().filter(|(_, s)| i < s.diag.len()) {
                    let l = if reversed { LANES - 1 - l } else { l };
                    row.diag.set_lane(l, &s.diag[i]);
                    for k in 0..N {
                        row.rhs[k][l] = s.rhs[i][k];
                    }
                    // Couplings are written sparsely, as the RANS
                    // assembly skips its structural zeros.
                    let Some((u, lo)) = s.couple.get(i) else {
                        continue;
                    };
                    for r in 0..N {
                        for c in 0..N {
                            if u.get(r, c).to_bits() != 0 {
                                row.upper.set(r, c, l, u.get(r, c));
                            }
                            if lo.get(r, c).to_bits() != 0 {
                                row.next_lower.set(r, c, l, lo.get(r, c));
                            }
                        }
                    }
                }
            });
        }
        let mut scalar = BlockTridiag::<N>::new();
        for (l, s) in lines.iter().enumerate() {
            let m = s.diag.len();
            scalar.reset(m);
            for i in 0..m {
                *scalar.diag_mut(i) = s.diag[i];
                *scalar.rhs_mut(i) = s.rhs[i];
            }
            for (i, (u, lo)) in s.couple.iter().enumerate() {
                *scalar.upper_mut(i) = *u;
                *scalar.lower_mut(i + 1) = *lo;
            }
            let mut xs = vec![[0.0; N]; m];
            let solved = scalar.solve_into(&mut xs).is_ok();
            assert_eq!(ok[l], solved, "lane {l} flag");
            for i in (0..m).filter(|_| solved) {
                for k in 0..N {
                    assert_eq!(
                        xs[i][k].to_bits(),
                        xb[i][k][l].to_bits(),
                        "lane {l} row {i} comp {k}"
                    );
                }
            }
        }
        ok
    }

    /// A seeded line of `m` dominant 4x4 rows.
    fn seeded_line(m: usize, seed: u64) -> LineSys<4> {
        let seed = seed * 1000;
        let diag = (0..m as u64)
            .map(|i| {
                let mut d = seeded_mat::<4>(seed + i + 1);
                d.add_diagonal(9.0);
                d
            })
            .collect();
        let rhs = (0..m)
            .map(|i| std::array::from_fn(|k| (i as f64 - k as f64) * 0.21 + seed as f64))
            .collect();
        let couple = (1..m as u64)
            .map(|i| (seeded_mat(seed + i + 200), seeded_mat(seed + i + 100)))
            .collect();
        LineSys { diag, rhs, couple }
    }

    #[test]
    fn tridiag_batch_matches_scalar_bitwise() {
        // Every lane count, so under-full batches (padding lanes) too.
        for nl in 1..=LANES as u64 {
            let lines: Vec<_> = (0..nl).map(|l| seeded_line(9, l)).collect();
            assert_eq!(check_against_scalar(&lines), [true; LANES], "{nl} lanes");
        }
    }

    #[test]
    fn tridiag_singular_lane_flags_only_that_lane() {
        // Lane 1: zero diagonal at row 1 => singular; its neighbours have
        // other lengths, so padding rows run beside the flagged lane.
        let mut bad = seeded_line(2, 1);
        bad.diag[1] = BlockMat::zero();
        bad.couple[0].1 = BlockMat::zero();
        let lines = [seeded_line(5, 0), bad, seeded_line(3, 2)];
        assert_eq!(check_against_scalar(&lines), [true, false, true, true]);
    }

    /// The forward-elimination update skips a multiplier that is zero in
    /// every lane, as the scalar matmul does, so an infinite `U'` entry
    /// facing it stays out of `D'` (accumulating `0 * inf` would make it
    /// NaN).
    #[test]
    fn all_lanes_zero_multiplier_skips_a_non_finite_entry() {
        let line = |u: f64| LineSys::<1> {
            diag: vec![BlockMat::identity(); 2],
            rhs: vec![[1.0], [2.0]],
            couple: vec![(BlockMat::scaled_identity(u), BlockMat::zero())],
        };
        check_against_scalar(&[line(f64::INFINITY), line(0.5)]);
    }

    /// The seven structural zeros of a RANS flux-Jacobian block.
    const STRUCTURAL_ZEROS: [(usize, usize); 7] =
        [(0, 4), (0, 5), (1, 5), (2, 5), (3, 5), (4, 5), (5, 4)];

    /// A Jacobian-shaped block: `+0.0` at the structural zeros, one entry
    /// in eight a signed zero (a wall vertex's zero velocity), the rest in
    /// `±scale / 2`, plus `d` on the diagonal.
    fn jacobian_block(rng: &mut columbia_rt::Pcg32, scale: f64, d: f64) -> BlockMat<6> {
        let mut m = BlockMat::from_fn(|r, c| match rng.gen_range(0u32..16) {
            _ if STRUCTURAL_ZEROS.contains(&(r, c)) => 0.0,
            0 => 0.0,
            1 => -0.0,
            _ => scale * (rng.gen_f64() - 0.5),
        });
        m.add_diagonal(d);
        m
    }

    #[test]
    fn soa_roundtrip_and_axpy_match_aos_bits() {
        let n = 37;
        let aos_x: Vec<[f64; 5]> = (0..n)
            .map(|i| {
                let mut b = [0.0; 5];
                for (k, v) in b.iter_mut().enumerate() {
                    *v = (i as f64 * 1.7 - k as f64 * 0.3).sin();
                }
                b
            })
            .collect();
        let mut aos_y: Vec<[f64; 5]> = aos_x.iter().map(|b| b.map(|v| v * 0.5 + 1.0)).collect();
        let sx = SoaStates::<5>::from_aos(&aos_x);
        let mut sy = SoaStates::<5>::from_aos(&aos_y);
        assert_eq!(sx.to_aos(), aos_x);
        let a = 0.731;
        crate::vecops::axpy(a, &aos_x, &mut aos_y);
        sy.axpy(a, &sx);
        let back = sy.to_aos();
        for i in 0..n {
            for k in 0..5 {
                assert_eq!(back[i][k].to_bits(), aos_y[i][k].to_bits());
            }
        }
    }

    /// A container shortened below its storage behaves as one of the
    /// shorter length: planes, bulk fills, copies and AXPY see only the
    /// first `N * len` values, and growing back keeps the storage.
    #[test]
    fn logical_length_below_storage_is_honoured_by_every_method() {
        let aos: Vec<[f64; 3]> = (0..5).map(|i| [i as f64, -(i as f64), 0.5]).collect();
        let mut s = SoaStates::<3>::zeros(11);
        s.fill_with(&[7.0; 3]);
        let bytes = s.heap_bytes();
        s.set_len(5);
        assert_eq!((s.len(), s.heap_bytes()), (5, bytes));
        assert!((0..3).all(|k| s.plane(k).len() == 5));
        s.copy_from(&SoaStates::from_aos(&aos));
        assert_eq!(s.to_aos(), aos);
        s.axpy(2.0, &SoaStates::from_aos(&aos));
        assert_eq!(s.get(4), [12.0, -12.0, 1.5]);
        assert!(s.planes_mut().iter().all(|p| p.len() == 5));
        s.fill_zero();
        assert!(s.to_aos().iter().flatten().all(|&x| x == 0.0));
        // Values past the logical end were not touched.
        assert_eq!(s.data[15..], [7.0; 18]);
        s.set_len(11);
        assert_eq!(s.heap_bytes(), bytes);
        s.set_len(12);
        assert_eq!((s.len(), s.data.len()), (12, 36));
    }

    /// Deterministic edge lengths: empty and shorter-than-LANES containers
    /// must round-trip, gather, scatter, and bulk-fill without panicking
    /// or perturbing a bit.
    #[test]
    fn soa_len_zero_and_sub_lane_lengths() {
        for len in [0usize, 1, 2, LANES - 1] {
            let aos: Vec<[f64; 6]> = (0..len)
                .map(|i| {
                    let mut b = [0.0; 6];
                    for (k, v) in b.iter_mut().enumerate() {
                        *v = (i as f64 * 2.9 + k as f64 * 0.7).cos();
                    }
                    b
                })
                .collect();
            let mut s = SoaStates::<6>::from_aos(&aos);
            assert_eq!(s.len(), len);
            assert_eq!(s.is_empty(), len == 0);
            assert_eq!(s.to_aos(), aos);
            let planes = s.planes_mut();
            for p in planes.iter() {
                assert_eq!(p.len(), len);
            }
            let idx: Vec<u32> = (0..len as u32).rev().collect();
            let mut gathered = vec![[0.0; 6]; len];
            s.gather(&idx, &mut gathered);
            for (g, &i) in gathered.iter().zip(idx.iter()) {
                assert_eq!(bits(g), bits(&aos[i as usize]));
            }
            let mut t = SoaStates::<6>::zeros(len);
            t.scatter(&idx, &gathered);
            assert_eq!(t.to_aos(), aos);
            t.fill_with(&[3.25, -1.5, 0.0, 7.0, -0.125, 2.0]);
            for i in 0..len {
                assert_eq!(t.get(i), [3.25, -1.5, 0.0, 7.0, -0.125, 2.0]);
            }
            t.fill_zero();
            assert_eq!(t.to_aos(), vec![[0.0; 6]; len]);
        }
    }

    columbia_rt::props! {
        /// Streamed, padded batches of 1-4 Jacobian-shaped lines of mixed
        /// lengths match the scalar oracle lane by lane, bit for bit.
        fn prop_padded_jacobian_batches_match_scalar_bits(
            lens in columbia_rt::props::array::<_, LANES>(2usize..41),
            nlanes in 1usize..(LANES + 1),
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = columbia_rt::Pcg32::seed_from_u64(seed);
            let lines: Vec<LineSys<6>> = lens[..nlanes]
                .iter()
                .map(|&m| LineSys {
                    diag: (0..m).map(|_| jacobian_block(&mut rng, 1.0, 4.0)).collect(),
                    rhs: (0..m)
                        .map(|_| std::array::from_fn(|_| match rng.gen_range(0u32..8) {
                            0 => -0.0,
                            1 => 0.0,
                            _ => rng.gen_f64() - 0.5,
                        }))
                        .collect(),
                    couple: (1..m)
                        .map(|_| (jacobian_block(&mut rng, 0.25, -0.1), jacobian_block(&mut rng, 0.25, -0.1)))
                        .collect(),
                })
                .collect();
            let ok = check_against_scalar(&lines);
            assert!(ok[..nlanes].iter().all(|&b| b), "dominant lines must solve");
        }

        /// Remainder-lane lengths (0, < LANES, non-multiples of LANES):
        /// from_aos/to_aos round-trips, gather/scatter of every point, the
        /// per-point views, and AXPY are all bit-identical to the AoS
        /// reference at any length.
        fn prop_soa_remainder_lane_bit_identity(
            len in 0usize..(3 * LANES + 3),
            seed in columbia_rt::props::array::<_, 16>(-4.0f64..4.0),
            a in -2.0f64..2.0,
        ) {
            let aos_x: Vec<[f64; 5]> = (0..len)
                .map(|i| {
                    let mut b = [0.0; 5];
                    for (k, v) in b.iter_mut().enumerate() {
                        *v = seed[(i * 5 + k) % 16] * (1.0 + i as f64 * 0.01);
                    }
                    b
                })
                .collect();
            let mut aos_y: Vec<[f64; 5]> =
                aos_x.iter().map(|b| b.map(|v| v * 0.5 - 0.25)).collect();
            let sx = SoaStates::<5>::from_aos(&aos_x);
            let mut sy = SoaStates::<5>::from_aos(&aos_y);

            // Round-trip.
            assert_eq!(sx.to_aos(), aos_x);

            // Gather/scatter round-trip over a shuffled ghost list.
            let idx: Vec<u32> =
                (0..len as u32).map(|i| (i * 7 + 3) % len.max(1) as u32).collect();
            let mut gathered = vec![[0.0; 5]; len];
            sx.gather(&idx, &mut gathered);
            for (g, &i) in gathered.iter().zip(idx.iter()) {
                assert_eq!(bits(g), bits(&aos_x[i as usize]));
            }
            let mut scat = SoaStates::<5>::zeros(len);
            scat.scatter(&idx, &gathered);
            for &i in &idx {
                assert_eq!(bits(&scat.get(i as usize)), bits(&aos_x[i as usize]));
            }

            // Per-point views agree with AoS indexing.
            for (i, blk) in aos_x.iter().enumerate() {
                assert_eq!(bits(&sx.get(i)), bits(blk));
                for (k, v) in blk.iter().enumerate() {
                    assert_eq!(sx.at(k, i).to_bits(), v.to_bits());
                }
            }

            // AXPY matches the AoS reference bit-for-bit.
            crate::vecops::axpy(a, &aos_x, &mut aos_y);
            sy.axpy(a, &sx);
            let back = sy.to_aos();
            for (b, r) in back.iter().zip(aos_y.iter()) {
                assert_eq!(bits(b), bits(r));
            }
        }
    }
}
