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
//!   the earlier row) independently per lane;
//! - accumulate-then-subtract sequences (`mul_vec_sub`, the forward
//!   elimination update) keep the scalar's grouping;
//! - the scalar matmul's zero-multiplier skip is *not* replicated: the
//!   batch accumulates every term. For finite inputs this is bit-identical
//!   (the accumulator starts at `+0.0` and adding a `±0.0` product never
//!   changes it), so the contract holds on finite data; lanes that have
//!   already been flagged singular are exempt (their output is garbage and
//!   must be discarded).
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
//! cannot early-return one lane, so [`BlockBatch::lu`] flags the lane in
//! [`BlockLuBatch::ok`], replaces the offending pivot with `1.0` to keep
//! the lane's arithmetic finite (protecting the *other* lanes from NaN
//! contamination is automatic — lanes never mix), and carries on. Callers
//! must discard flagged lanes, which is precisely what the solvers'
//! scalar paths do with `Err` results.

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

    /// Batched LU factorisation with per-lane partial pivoting.
    ///
    /// Per lane the pivot search, row swap and elimination replicate
    /// [`BlockMat::lu`] operation-for-operation; see the module docs for
    /// the singular-lane convention.
    pub fn lu(&self) -> BlockLuBatch<N> {
        let mut lu = self.a;
        let mut piv = [[0usize; N]; LANES];
        for lane in piv.iter_mut() {
            for (i, p) in lane.iter_mut().enumerate() {
                *p = i;
            }
        }
        let mut ok = [true; LANES];
        for k in 0..N {
            // Pivot search and swap are inherently per-lane (data-dependent
            // row exchange); the scalar search is replicated exactly:
            // strict `>` keeps the earliest maximal row.
            for l in 0..LANES {
                let mut pk = k;
                let mut pmax = lu[k][k][l].abs();
                for r in (k + 1)..N {
                    let v = lu[r][k][l].abs();
                    if v > pmax {
                        pmax = v;
                        pk = r;
                    }
                }
                if pmax < 1e-300 {
                    // Scalar path would return Err here; neutralise the
                    // lane with a unit pivot and let the caller discard it.
                    ok[l] = false;
                    lu[k][k][l] = 1.0;
                    continue;
                }
                if pk != k {
                    for c in 0..N {
                        let t = lu[k][c][l];
                        lu[k][c][l] = lu[pk][c][l];
                        lu[pk][c][l] = t;
                    }
                    piv[l].swap(k, pk);
                }
            }
            // Lane-parallel elimination: the inner loops run over lanes.
            let mut inv_pivot = [0.0; LANES];
            for l in 0..LANES {
                inv_pivot[l] = 1.0 / lu[k][k][l];
            }
            for r in (k + 1)..N {
                let mut m = [0.0; LANES];
                for l in 0..LANES {
                    m[l] = lu[r][k][l] * inv_pivot[l];
                    lu[r][k][l] = m[l];
                }
                for c in (k + 1)..N {
                    for l in 0..LANES {
                        lu[r][c][l] -= m[l] * lu[k][c][l];
                    }
                }
            }
        }
        BlockLuBatch { lu, piv, ok }
    }

    /// `self -= a * b` per lane — the forward-elimination update
    /// `D'_i = D_i - L_i U'_{i-1}`.
    ///
    /// Accumulates the full product row into a temporary (ascending `k`,
    /// matching the scalar matmul's order) and subtracts once, exactly as
    /// the scalar `dmod -= li * uprev` does.
    pub fn mul_sub_assign(&mut self, a: &BlockBatch<N>, b: &BlockBatch<N>) {
        for r in 0..N {
            let mut acc = [[0.0; LANES]; N];
            for k in 0..N {
                for c in 0..N {
                    for l in 0..LANES {
                        acc[c][l] += a.a[r][k][l] * b.a[k][c][l];
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

/// Batched LU factorisation: per-lane factors, permutations and success
/// flags. Lanes with `ok[l] == false` hold garbage that the caller must
/// discard (the scalar path's `Err`).
#[derive(Clone, Copy, Debug)]
pub struct BlockLuBatch<const N: usize> {
    lu: [[[f64; LANES]; N]; N],
    piv: [[usize; N]; LANES],
    ok: [bool; LANES],
}

impl<const N: usize> BlockLuBatch<N> {
    /// Per-lane success flags.
    #[inline]
    pub fn ok(&self) -> &[bool; LANES] {
        &self.ok
    }

    /// True when every live lane factorised successfully.
    pub fn all_ok(&self, nlanes: usize) -> bool {
        self.ok[..nlanes].iter().all(|&b| b)
    }

    /// Per-lane triangular solve, operation-for-operation identical to
    /// [`crate::block::BlockLu::solve`].
    pub fn solve(&self, b: &VecBatch<N>) -> VecBatch<N> {
        let mut x = vec_batch_zero();
        // Apply each lane's row permutation while loading b.
        for r in 0..N {
            for l in 0..LANES {
                x[r][l] = b[self.piv[l][r]][l];
            }
        }
        // Forward substitution, unit lower triangle. The scalar kernel
        // accumulates `s = x[r]; s -= ...; x[r] = s`; successive in-place
        // subtractions are the same operation sequence.
        for r in 1..N {
            for c in 0..r {
                for l in 0..LANES {
                    x[r][l] -= self.lu[r][c][l] * x[c][l];
                }
            }
        }
        // Backward substitution (the final division matches the scalar
        // `s / lu[r][r]` — no reciprocal strength reduction).
        for r in (0..N).rev() {
            for c in (r + 1)..N {
                for l in 0..LANES {
                    x[r][l] -= self.lu[r][c][l] * x[c][l];
                }
            }
            for l in 0..LANES {
                x[r][l] /= self.lu[r][r][l];
            }
        }
        x
    }

    /// Per-lane block right-hand-side solve, column-wise as
    /// [`crate::block::BlockLu::solve_mat`].
    pub fn solve_mat(&self, b: &BlockBatch<N>) -> BlockBatch<N> {
        let mut out = BlockBatch::zero();
        for c in 0..N {
            let mut col = vec_batch_zero();
            for r in 0..N {
                for l in 0..LANES {
                    col[r][l] = b.a[r][c][l];
                }
            }
            let x = self.solve(&col);
            for r in 0..N {
                for l in 0..LANES {
                    out.a[r][c][l] = x[r][l];
                }
            }
        }
        out
    }
}

/// Batched block-tridiagonal system: `LANES` equal-length lines solved in
/// lockstep, mirroring [`crate::tridiag::BlockTridiag`] per lane.
///
/// Implicit lines are vertex-disjoint, so solving several at once (and in
/// any order) is bit-safe; the solver groups lines of equal length into
/// batches — NSU3D's classic vectorisation strategy, here realised with
/// lane interleaving. Padding lanes (beyond `nlanes`) carry identity
/// diagonals and zero RHS so they factorise trivially and are ignored.
#[derive(Clone, Debug, Default)]
pub struct TridiagBatch<const N: usize> {
    lower: Vec<BlockBatch<N>>,
    diag: Vec<BlockBatch<N>>,
    upper: Vec<BlockBatch<N>>,
    rhs: Vec<VecBatch<N>>,
    // Scratch for the factorisation.
    upper_mod: Vec<BlockBatch<N>>,
    y: Vec<VecBatch<N>>,
    nlanes: usize,
}

impl<const N: usize> TridiagBatch<N> {
    /// Create an empty system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset to `n` block rows with `nlanes` live lanes. Diagonals start
    /// as identity in every lane (live lanes are overwritten row by row;
    /// padding lanes must stay non-singular), couplings and RHS as zero.
    pub fn reset(&mut self, n: usize, nlanes: usize) {
        assert!(
            (1..=LANES).contains(&nlanes),
            "nlanes must be in 1..={LANES}"
        );
        self.lower.clear();
        self.diag.clear();
        self.upper.clear();
        self.rhs.clear();
        self.lower.resize(n, BlockBatch::zero());
        self.diag.resize(n, BlockBatch::identity());
        self.upper.resize(n, BlockBatch::zero());
        self.rhs.resize(n, vec_batch_zero());
        self.nlanes = nlanes;
    }

    /// Number of block rows.
    pub fn len(&self) -> usize {
        self.diag.len()
    }

    /// True when the system has no rows.
    pub fn is_empty(&self) -> bool {
        self.diag.is_empty()
    }

    /// Number of live lanes.
    pub fn nlanes(&self) -> usize {
        self.nlanes
    }

    /// Set the diagonal block of row `i`, lane `l`.
    pub fn set_diag(&mut self, i: usize, l: usize, m: &BlockMat<N>) {
        self.diag[i].set_lane(l, m);
    }

    /// Set the sub-diagonal block of row `i`, lane `l` (couples to `i-1`).
    pub fn set_lower(&mut self, i: usize, l: usize, m: &BlockMat<N>) {
        self.lower[i].set_lane(l, m);
    }

    /// Set the super-diagonal block of row `i`, lane `l` (couples to `i+1`).
    pub fn set_upper(&mut self, i: usize, l: usize, m: &BlockMat<N>) {
        self.upper[i].set_lane(l, m);
    }

    /// The two blocks line edge `i` couples through — `(upper_i,
    /// lower_{i+1})` — for entry-wise assembly straight into a lane
    /// ([`BlockBatch::set`]), with no scalar-block round trip.
    #[inline]
    pub fn couplings_mut(&mut self, i: usize) -> (&mut BlockBatch<N>, &mut BlockBatch<N>) {
        (&mut self.upper[i], &mut self.lower[i + 1])
    }

    /// Set the right-hand side of row `i`, lane `l`.
    pub fn set_rhs(&mut self, i: usize, l: usize, b: &[f64; N]) {
        for r in 0..N {
            self.rhs[i][r][l] = b[r];
        }
    }

    /// Solve all lanes, writing lane-interleaved solutions through `out`.
    ///
    /// Returns per-lane success flags: where the scalar
    /// [`crate::tridiag::BlockTridiag::solve_into`] returns `Err` (leaving
    /// the line un-updated), the corresponding lane comes back `false` and
    /// its output is garbage the caller must discard. The forward
    /// elimination and back substitution replicate the scalar kernel's
    /// operation order per lane; see the module docs.
    pub fn solve_into(&mut self, out: &mut [VecBatch<N>]) -> [bool; LANES] {
        let n = self.len();
        assert_eq!(out.len(), n, "output slice length mismatch");
        let mut ok = [true; LANES];
        if n == 0 {
            return ok;
        }
        self.upper_mod.clear();
        self.upper_mod.resize(n, BlockBatch::zero());
        self.y.clear();
        self.y.resize(n, vec_batch_zero());

        // Forward elimination (per lane):
        //   U'_i = D'^-1_i U_i
        //   D'_i = D_i - L_i U'_{i-1}
        //   b'_i = b_i - L_i y_{i-1};  y_i = D'^-1_i b'_i
        let lu0 = self.diag[0].lu();
        and_flags(&mut ok, lu0.ok());
        self.upper_mod[0] = lu0.solve_mat(&self.upper[0]);
        self.y[0] = lu0.solve(&self.rhs[0]);
        for i in 1..n {
            let mut dmod = self.diag[i];
            dmod.mul_sub_assign(&self.lower[i], &self.upper_mod[i - 1]);
            let lui = dmod.lu();
            and_flags(&mut ok, lui.ok());
            let mut b = self.rhs[i];
            self.lower[i].mul_vec_sub(&self.y[i - 1], &mut b);
            self.y[i] = lui.solve(&b);
            if i + 1 < n {
                self.upper_mod[i] = lui.solve_mat(&self.upper[i]);
            }
        }

        // Back substitution: x_n = y_n; x_i = y_i - U'_i x_{i+1}
        out[n - 1] = self.y[n - 1];
        for i in (0..n - 1).rev() {
            let mut x = self.y[i];
            let corr = self.upper_mod[i].mul_vec(&out[i + 1]);
            for k in 0..N {
                for l in 0..LANES {
                    x[k][l] -= corr[k][l];
                }
            }
            out[i] = x;
        }
        ok
    }
}

#[inline]
fn and_flags(acc: &mut [bool; LANES], flags: &[bool; LANES]) {
    for l in 0..LANES {
        acc[l] &= flags[l];
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
#[derive(Clone, Debug)]
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

    /// Transpose from array-of-blocks layout.
    pub fn from_aos(aos: &[[f64; N]]) -> Self {
        let mut s = Self::zeros(aos.len());
        for (i, blk) in aos.iter().enumerate() {
            for k in 0..N {
                s.data[k * s.len + i] = blk[k];
            }
        }
        s
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
        crate::vecops::axpy_flat(a, &x.data, &mut self.data);
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
        self.data.fill(0.0);
    }

    /// Plane-wise memcpy from another container of the same length.
    pub fn copy_from(&mut self, other: &SoaStates<N>) {
        assert_eq!(self.len, other.len, "SoA copy length mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// All `N` planes at once as disjoint mutable slices, for sweeps that
    /// update several components per pass without re-borrowing.
    pub fn planes_mut(&mut self) -> [&mut [f64]; N] {
        let len = self.len;
        let mut out: [&mut [f64]; N] = [(); N].map(|_| Default::default());
        if len == 0 {
            return out;
        }
        for (k, chunk) in self.data.chunks_exact_mut(len).enumerate() {
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

    #[test]
    fn batched_lu_solve_is_bit_identical_per_lane() {
        let mats: Vec<BlockMat<6>> = (0..LANES as u64)
            .map(|s| {
                let mut m = seeded_mat::<6>(s + 1);
                m.add_diagonal(6.0);
                m
            })
            .collect();
        let rhs_scalar: Vec<[f64; 6]> = (0..LANES)
            .map(|l| {
                let mut b = [0.0; 6];
                for (k, v) in b.iter_mut().enumerate() {
                    *v = (l as f64 + 1.0) * 0.37 - k as f64;
                }
                b
            })
            .collect();
        let batch = BlockBatch::from_lanes(&mats);
        let mut rhs = vec_batch_zero::<6>();
        for (l, b) in rhs_scalar.iter().enumerate() {
            for r in 0..6 {
                rhs[r][l] = b[r];
            }
        }
        let lu = batch.lu();
        assert!(lu.all_ok(LANES));
        let x = lu.solve(&rhs);
        for l in 0..LANES {
            let xs = mats[l].lu().unwrap().solve(&rhs_scalar[l]);
            let mut xb = [0.0; 6];
            for r in 0..6 {
                xb[r] = x[r][l];
            }
            assert_eq!(bits(&xs), bits(&xb), "lane {l} diverged");
        }
    }

    #[test]
    fn pivoting_lanes_diverge_independently() {
        // Lane 0 needs a row swap at column 0; lane 1 does not.
        let mut m0 = BlockMat::<3>::from_fn(|r, c| if r == c { 1.0 } else { 0.1 });
        m0.set(0, 0, 1e-8);
        m0.set(2, 0, 5.0); // forces pivot row 2 in lane 0
        let m1 = BlockMat::<3>::from_fn(|r, c| if r == c { 3.0 } else { 0.2 });
        let batch = BlockBatch::from_lanes(&[m0, m1]);
        let lu = batch.lu();
        assert!(lu.all_ok(2));
        let b = [1.0, 2.0, 3.0];
        let mut rb = vec_batch_zero::<3>();
        for l in 0..2 {
            for r in 0..3 {
                rb[r][l] = b[r];
            }
        }
        let x = lu.solve(&rb);
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
        let batch = BlockBatch::from_lanes(&[good, bad]);
        let lu = batch.lu();
        assert!(lu.ok()[0] && !lu.ok()[1]);
        let b = [1.0, -2.0, 3.0, -4.0];
        let mut rb = vec_batch_zero::<4>();
        for r in 0..4 {
            rb[r][0] = b[r];
            rb[r][1] = b[r];
        }
        let x = lu.solve(&rb);
        let xs = good.lu().unwrap().solve(&b);
        for r in 0..4 {
            assert_eq!(xs[r].to_bits(), x[r][0].to_bits(), "good lane polluted");
            assert!(x[r][1].is_finite(), "flagged lane must stay finite");
        }
    }

    #[test]
    fn tridiag_batch_matches_scalar_bitwise() {
        let n = 9;
        let nlanes = 3; // deliberately under-full: padding lane in play
        let mut scalar = BlockTridiag::<4>::new();
        let mut batch = TridiagBatch::<4>::new();
        batch.reset(n, nlanes);
        let mut scalar_x: Vec<Vec<[f64; 4]>> = Vec::new();
        for l in 0..nlanes {
            scalar.reset(n);
            for i in 0..n {
                let mut d = seeded_mat::<4>((l * n + i) as u64 + 1);
                d.add_diagonal(9.0);
                *scalar.diag_mut(i) = d;
                batch.set_diag(i, l, &d);
                if i > 0 {
                    let lo = seeded_mat::<4>((l * n + i) as u64 + 101);
                    *scalar.lower_mut(i) = lo;
                    batch.set_lower(i, l, &lo);
                }
                if i + 1 < n {
                    let up = seeded_mat::<4>((l * n + i) as u64 + 201);
                    *scalar.upper_mut(i) = up;
                    batch.set_upper(i, l, &up);
                }
                let mut b = [0.0; 4];
                for (k, v) in b.iter_mut().enumerate() {
                    *v = (i as f64 - k as f64) * 0.21 + l as f64;
                }
                *scalar.rhs_mut(i) = b;
                batch.set_rhs(i, l, &b);
            }
            let mut x = vec![[0.0; 4]; n];
            scalar.solve_into(&mut x).unwrap();
            scalar_x.push(x);
        }
        let mut xb = vec![vec_batch_zero::<4>(); n];
        let ok = batch.solve_into(&mut xb);
        assert!(ok[..nlanes].iter().all(|&b| b));
        for (l, xs) in scalar_x.iter().enumerate() {
            for i in 0..n {
                for k in 0..4 {
                    assert_eq!(
                        xs[i][k].to_bits(),
                        xb[i][k][l].to_bits(),
                        "lane {l} row {i} comp {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn tridiag_singular_lane_flags_only_that_lane() {
        let mut batch = TridiagBatch::<2>::new();
        batch.reset(2, 2);
        // Lane 0: healthy. Lane 1: zero diagonal at row 1 => singular.
        let d = BlockMat::<2>::scaled_identity(4.0);
        for i in 0..2 {
            batch.set_diag(i, 0, &d);
            batch.set_rhs(i, 0, &[1.0, 2.0]);
        }
        batch.set_diag(0, 1, &d);
        batch.set_diag(1, 1, &BlockMat::zero());
        let mut x = vec![vec_batch_zero::<2>(); 2];
        let ok = batch.solve_into(&mut x);
        assert!(ok[0] && !ok[1]);
        for row in &x {
            for k in 0..2 {
                assert!((row[k][0] - [0.25, 0.5][k]).abs() < 1e-12);
            }
        }
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
