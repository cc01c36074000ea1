//! Input sets and runners for the `--kernels` roofline section: the
//! SoA/SIMD batch kernels of `columbia_linalg::soa` against their scalar
//! references, at several working-set sizes spanning the
//! `columbia-machine` cache model's L3 crossover.
//!
//! Four kernels, matching the solvers' hot loops:
//!
//! * **point_lu6** — per-point 6x6 block factorise + solve, the RANS
//!   point-implicit update (`RansLevel::solve_points_*`);
//! * **line_tridiag6** — block-tridiagonal line solves of length 32, the
//!   RANS line-implicit smoother (`RansLevel::solve_lines_*`);
//! * **rk_axpy** — 5-wide state AXPY, the Cart3D Runge-Kutta stage
//!   update (`EulerLevel::apply_stage`);
//! * **resident_sweep6** — full `RansLevel::smooth_sweep` passes on a
//!   wing mesh with plane-resident state.
//!
//! Every scalar/batch runner pair is bit-identical by construction (the
//! batch kernels replay the scalar operation order per lane), so the
//! section pins FNV digests of both outputs and asserts they match. How
//! fast the kernels run in the solvers is `bench_e2e`'s business.

use columbia_linalg::soa::vec_batch_zero;
use columbia_linalg::{BlockBatch, BlockMat, BlockTridiag, TridiagBatch, LANES};
use columbia_machine::MachineConfig;
use columbia_rans::level::SolverParams;
use columbia_rans::state::NVARS;
use columbia_rans::RansLevel;
use columbia_rt::env::KernelKind;
use columbia_rt::{derive_seed, fnv, Pcg32};

/// Block size: the RANS mean-flow + turbulence system (6 variables).
pub const NB: usize = 6;
/// Euler state width for the AXPY kernel.
pub const NVARS5: usize = 5;
/// Implicit-line length for the tridiagonal kernel (a paper-typical
/// boundary-layer line).
pub const LINE_LEN: usize = 32;

/// Point counts for `point_lu6`: ~384 B/point, so the sweep crosses the
/// columbia cache model's 9 MB L3 between 32768 (~12 MB in flight with
/// LU scratch) and 262144.
pub const POINT_SIZES: [usize; 4] = [512, 4096, 32768, 262144];
/// Line counts for `line_tridiag6` (each line ~30 KB of blocks).
pub const LINE_COUNTS: [usize; 3] = [16, 128, 1024];
/// Cell counts for `rk_axpy` (80 B/cell touched).
pub const AXPY_SIZES: [usize; 3] = [4096, 65536, 1_048_576];

/// FNV-1a over the raw bits of a state array; the parity digest.
pub fn digest_states<const N: usize>(xs: &[[f64; N]]) -> u64 {
    xs.iter()
        .flatten()
        .fold(fnv::OFFSET, |h, v| fnv::word(h, v.to_bits()))
}

/// Roofline-predicted sustained GFLOP/s of one Columbia CPU at the given
/// working-set size (the machine model's logistic L3 transition).
pub fn predicted_gflops(working_set_bytes: f64) -> f64 {
    MachineConfig::columbia_vortex().effective_rate(working_set_bytes) / 1e9
}

fn random_state<const N: usize>(rng: &mut Pcg32, scale: f64) -> [f64; N] {
    std::array::from_fn(|_| scale * (rng.gen_f64() - 0.5))
}

/// A random diagonally dominant block: always comfortably non-singular,
/// so both paths take the success branch on every point.
fn dominant_block(rng: &mut Pcg32, dominance: f64) -> BlockMat<NB> {
    let mut m = BlockMat::from_fn(|_, _| rng.gen_f64() - 0.5);
    m.add_diagonal(dominance);
    m
}

// ---------------------------------------------------------------------------
// point_lu6
// ---------------------------------------------------------------------------

/// Input set for the point-implicit kernel.
pub struct PointSet {
    /// Per-point diagonal blocks.
    pub blocks: Vec<BlockMat<NB>>,
    /// Per-point right-hand sides.
    pub rhs: Vec<[f64; NB]>,
}

impl PointSet {
    /// Bytes a single pass touches: block + rhs + solution per point.
    pub fn working_set_bytes(&self) -> u64 {
        (self.blocks.len() * (NB * NB + 2 * NB) * 8) as u64
    }
}

/// Deterministically seeded point set.
pub fn point_set(n: usize, seed: u64) -> PointSet {
    let mut rng = Pcg32::seed_from_u64(derive_seed(seed, 1));
    let blocks = (0..n).map(|_| dominant_block(&mut rng, 4.0)).collect();
    let rhs = (0..n).map(|_| random_state(&mut rng, 1.0)).collect();
    PointSet { blocks, rhs }
}

/// Scalar reference: factorise and solve each point independently.
pub fn point_lu_scalar(set: &PointSet, out: &mut [[f64; NB]]) {
    for ((b, r), x) in set.blocks.iter().zip(&set.rhs).zip(out.iter_mut()) {
        let lu = b.lu().expect("dominant block must factorise");
        *x = lu.solve(r);
    }
}

/// Batched path: gather lanes of [`LANES`] points, factorise and solve
/// lane-parallel, scatter. Bit-identical to the scalar path per lane.
pub fn point_lu_simd(set: &PointSet, out: &mut [[f64; NB]]) {
    let n = set.blocks.len();
    let mut c = 0;
    while c < n {
        let nl = LANES.min(n - c);
        let mut batch = BlockBatch::from_lanes(&set.blocks[c..c + nl]);
        let mut x = vec_batch_zero::<NB>();
        for (l, r) in set.rhs[c..c + nl].iter().enumerate() {
            for (row, &v) in x.iter_mut().zip(r.iter()) {
                row[l] = v;
            }
        }
        let ok = batch.lu_solve(&mut x);
        assert!(ok[..nl].iter().all(|&o| o), "dominant block must factorise");
        for l in 0..nl {
            for k in 0..NB {
                out[c + l][k] = x[k][l];
            }
        }
        c += nl;
    }
}

// ---------------------------------------------------------------------------
// line_tridiag6
// ---------------------------------------------------------------------------

/// Input set for the line-implicit kernel: `nlines` block-tridiagonal
/// lines, all of length [`LINE_LEN`].
pub struct LineSet {
    /// `lower[line][row]`, rows `1..LINE_LEN` used.
    pub lower: Vec<Vec<BlockMat<NB>>>,
    /// `diag[line][row]`.
    pub diag: Vec<Vec<BlockMat<NB>>>,
    /// `upper[line][row]`, rows `0..LINE_LEN - 1` used.
    pub upper: Vec<Vec<BlockMat<NB>>>,
    /// `rhs[line][row]`.
    pub rhs: Vec<Vec<[f64; NB]>>,
}

impl LineSet {
    /// Bytes a single pass touches: three block diagonals + rhs +
    /// solution per row.
    pub fn working_set_bytes(&self) -> u64 {
        (self.diag.len() * LINE_LEN * (3 * NB * NB + 2 * NB) * 8) as u64
    }
}

/// Deterministically seeded line set: dominant diagonal blocks with
/// weaker couplings, so every Schur complement stays well conditioned.
pub fn line_set(nlines: usize, seed: u64) -> LineSet {
    let mut rng = Pcg32::seed_from_u64(derive_seed(seed, 2));
    let mut set = LineSet {
        lower: Vec::with_capacity(nlines),
        diag: Vec::with_capacity(nlines),
        upper: Vec::with_capacity(nlines),
        rhs: Vec::with_capacity(nlines),
    };
    for _ in 0..nlines {
        set.diag.push(
            (0..LINE_LEN)
                .map(|_| dominant_block(&mut rng, 8.0))
                .collect(),
        );
        set.lower.push(
            (0..LINE_LEN)
                .map(|_| BlockMat::from_fn(|_, _| 0.25 * (rng.gen_f64() - 0.5)))
                .collect(),
        );
        set.upper.push(
            (0..LINE_LEN)
                .map(|_| BlockMat::from_fn(|_, _| 0.25 * (rng.gen_f64() - 0.5)))
                .collect(),
        );
        set.rhs
            .push((0..LINE_LEN).map(|_| random_state(&mut rng, 1.0)).collect());
    }
    set
}

/// Scalar reference: the sequential `BlockTridiag` solve, line by line.
pub fn line_tridiag_scalar(
    set: &LineSet,
    scratch: &mut BlockTridiag<NB>,
    out: &mut [Vec<[f64; NB]>],
) {
    for (line, x) in out.iter_mut().enumerate().take(set.diag.len()) {
        scratch.reset(LINE_LEN);
        for i in 0..LINE_LEN {
            *scratch.diag_mut(i) = set.diag[line][i];
            *scratch.rhs_mut(i) = set.rhs[line][i];
            if i > 0 {
                *scratch.lower_mut(i) = set.lower[line][i];
            }
            if i + 1 < LINE_LEN {
                *scratch.upper_mut(i) = set.upper[line][i];
            }
        }
        scratch.solve_into(x).expect("dominant line must solve");
    }
}

/// Batched path: [`LANES`] lines solved lane-parallel per streamed
/// Thomas sweep, each row written as the sweep reaches it. Bit-identical
/// to the scalar path per lane.
pub fn line_tridiag_simd(
    set: &LineSet,
    scratch: &mut TridiagBatch<NB>,
    out: &mut [Vec<[f64; NB]>],
) {
    let nlines = set.diag.len();
    let mut x = vec![vec_batch_zero::<NB>(); LINE_LEN];
    let mut c = 0;
    while c < nlines {
        let nl = LANES.min(nlines - c);
        let ok = scratch.solve(&mut x, |i, row| {
            for l in 0..nl {
                let line = c + l;
                row.diag.set_lane(l, &set.diag[line][i]);
                for (k, &v) in set.rhs[line][i].iter().enumerate() {
                    row.rhs[k][l] = v;
                }
                if i + 1 < LINE_LEN {
                    row.upper.set_lane(l, &set.upper[line][i]);
                    row.next_lower.set_lane(l, &set.lower[line][i + 1]);
                }
            }
        });
        assert!(ok.iter().take(nl).all(|&o| o), "dominant line must solve");
        for l in 0..nl {
            for i in 0..LINE_LEN {
                for k in 0..NB {
                    out[c + l][i][k] = x[i][k][l];
                }
            }
        }
        c += nl;
    }
}

/// Digest of a per-line solution set: [`digest_states`] of the lines laid
/// end to end.
pub fn digest_lines(out: &[Vec<[f64; NB]>]) -> u64 {
    digest_states(&out.concat())
}

// ---------------------------------------------------------------------------
// rk_axpy
// ---------------------------------------------------------------------------

/// Input set for the Runge-Kutta stage AXPY.
pub struct AxpySet {
    /// Residual-like operand.
    pub x: Vec<[f64; NVARS5]>,
    /// Initial state the pass updates a copy of.
    pub y0: Vec<[f64; NVARS5]>,
}

impl AxpySet {
    /// Bytes a single pass touches: read `x`, read-modify-write `y`.
    pub fn working_set_bytes(&self) -> u64 {
        (self.x.len() * 2 * NVARS5 * 8) as u64
    }
}

/// Deterministically seeded AXPY operands.
pub fn axpy_set(n: usize, seed: u64) -> AxpySet {
    let mut rng = Pcg32::seed_from_u64(derive_seed(seed, 3));
    let x = (0..n).map(|_| random_state(&mut rng, 1.0)).collect();
    let y0 = (0..n).map(|_| random_state(&mut rng, 1.0)).collect();
    AxpySet { x, y0 }
}

/// Scalar reference: the seed solvers' straight-line per-cell update.
pub fn axpy_scalar(a: f64, x: &[[f64; NVARS5]], y: &mut [[f64; NVARS5]]) {
    for (xi, yi) in x.iter().zip(y.iter_mut()) {
        for k in 0..NVARS5 {
            yi[k] += a * xi[k];
        }
    }
}

/// Chunked path: `vecops::axpy` over the flattened planes. Element-wise,
/// so trivially bit-identical to the scalar reference.
pub fn axpy_simd(a: f64, x: &[[f64; NVARS5]], y: &mut [[f64; NVARS5]]) {
    columbia_linalg::vecops::axpy(a, x, y);
}

// ---------------------------------------------------------------------------
// resident_sweep6
// ---------------------------------------------------------------------------

/// Target point counts for `resident_sweep6`: one comfortably in-cache
/// size and one at the paper's per-CPU working set (~100k vertices,
/// tens of MB of level state — well past the L3 crossover).
pub const SWEEP_POINTS: [usize; 2] = [8_000, 100_000];
/// Smoothing sweeps per pass.
pub const SWEEP_PASSES: usize = 2;

/// A freshly initialised RANS level on the jitter-free wing mesh, batched
/// kernel path.
pub fn sweep_level(target_points: usize) -> RansLevel {
    let params = SolverParams {
        kernel: Some(KernelKind::Simd),
        ..crate::mach_half()
    };
    let mut lvl = RansLevel::new(crate::wing(target_points), params);
    lvl.apply_bcs();
    lvl
}

/// Rewind a level to its post-construction state so every pass starts
/// from identical inputs (and identical FP history).
pub fn sweep_reset(lvl: &mut RansLevel) {
    let fs = lvl.fs;
    lvl.u.fill_with(&fs);
    lvl.forcing.fill_zero();
    lvl.cfl_now = lvl.params.cfl_start.min(lvl.params.cfl);
    lvl.apply_bcs();
}

/// Plane-resident pass: [`SWEEP_PASSES`] smoothing sweeps straight on the
/// level's resident `SoaStates` planes. No conversions anywhere.
pub fn sweep_resident(lvl: &mut RansLevel) {
    for _ in 0..SWEEP_PASSES {
        lvl.smooth_sweep();
    }
}

/// Bytes one smoothing sweep touches: per vertex the four state fields,
/// the gradients, the 8-word primitive cache, the diagonal block and
/// lamsum; plus the edge list.
pub fn sweep_working_set_bytes(lvl: &RansLevel) -> u64 {
    let nv = lvl.mesh.nvertices() as u64;
    let ne = lvl.mesh.nedges() as u64;
    nv * ((4 * NVARS as u64 + 9 + 8 + NVARS as u64 * NVARS as u64 + 1) * 8) + ne * 40
}

/// Nominal FLOPs of one resident pass, measured off the level's own
/// counter (the sweep mixes too many phases for a closed form).
pub fn sweep_pass_flops(lvl: &mut RansLevel) -> u64 {
    sweep_reset(lvl);
    lvl.flops.take();
    sweep_resident(lvl);
    lvl.flops.take()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_lu_paths_are_bit_identical() {
        for &n in &[7usize, 64] {
            let set = point_set(n, 42);
            let mut a = vec![[0.0; NB]; n];
            let mut b = vec![[0.0; NB]; n];
            point_lu_scalar(&set, &mut a);
            point_lu_simd(&set, &mut b);
            assert_eq!(digest_states(&a), digest_states(&b));
        }
    }

    #[test]
    fn line_tridiag_paths_are_bit_identical() {
        let nlines = 6; // one full batch + one partial
        let set = line_set(nlines, 42);
        let mut a = vec![vec![[0.0; NB]; LINE_LEN]; nlines];
        let mut b = vec![vec![[0.0; NB]; LINE_LEN]; nlines];
        let mut scalar_scratch = BlockTridiag::new();
        let mut batch_scratch = TridiagBatch::new();
        line_tridiag_scalar(&set, &mut scalar_scratch, &mut a);
        line_tridiag_simd(&set, &mut batch_scratch, &mut b);
        assert_eq!(digest_lines(&a), digest_lines(&b));
    }

    #[test]
    fn axpy_paths_are_bit_identical() {
        let set = axpy_set(1003, 42);
        let mut a = set.y0.clone();
        let mut b = set.y0.clone();
        axpy_scalar(0.37, &set.x, &mut a);
        axpy_simd(0.37, &set.x, &mut b);
        assert_eq!(digest_states(&a), digest_states(&b));
    }

    #[test]
    fn predicted_rate_shows_the_cache_crossover() {
        let small = predicted_gflops(64.0 * 1024.0);
        let big = predicted_gflops(128.0 * 1024.0 * 1024.0);
        assert!(small > big, "in-cache rate must exceed streaming rate");
    }
}
