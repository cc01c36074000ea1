//! One multigrid level of the solver: mesh data, state, residual assembly,
//! and the point-/line-implicit smoothers.
//!
//! Solver state is **plane-resident**: `u`, `res`, the FAS fields, and the
//! Green-Gauss gradient accumulators live in [`SoaStates`] component
//! planes, and the residual/gradient sweeps stream over cache-sized plane
//! chunks ([`EDGE_BLOCK`] edges / [`VBLOCK`] vertices per block). Per-edge
//! physics (Rusanov fluxes, Jacobians) reads the endpoints' primitives
//! from a per-vertex cache that [`RansLevel::begin_residual`] refreshes
//! from `u` (see `crate::prim`) and gathers the conservative blocks in
//! component order — bit-identical to the historical per-edge AoS
//! evaluation — so every digest pinned against the AoS goldens still
//! holds, on either kernel path (`KernelKind::Scalar` keeps the
//! one-block-at-a-time LU/tridiagonal oracle).

use crate::flops::{self, FlopCounter};
use crate::prim::{half_jacobian_shifted, prim_of, vel, EdgeScalars, Prim};
use crate::state::{freestream, sa, State, GAMMA, NVARS};
use columbia_comm::HaloField;
use columbia_linalg::soa::{vec_batch_zero, BlockBatch, SoaStates, TridiagBatch, VecBatch, LANES};
use columbia_linalg::{BlockMat, BlockTridiag};
use columbia_mesh::{extract_lines, BoundaryKind, UnstructuredMesh};
use columbia_rt::env::KernelKind;
use std::cell::Cell;
use std::fmt;

/// Edges per cache block of the plane-major Green-Gauss sweep: the
/// gathered per-edge average-velocity and normal scratch (48 bytes/edge,
/// ~24 KiB per block) stays cache-resident while the six gradient
/// component planes stream over it one at a time.
pub const EDGE_BLOCK: usize = 512;

/// Vertices per cache block of the gradient-finalisation sweep: the
/// inverse control volumes (8 KiB per block) are computed once and reused
/// by all six plane passes.
pub const VBLOCK: usize = 1024;

/// The velocity gradients `(i, j)` = `d v_i / d x_j` kept, one plane each
/// in this order: the off-diagonal six, all the vorticity reads.
const GRAD_PLANES: [(usize, usize); 6] = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)];

/// Physical and numerical parameters shared by all levels.
#[derive(Clone, Copy, Debug)]
pub struct SolverParams {
    /// Free-stream Mach number (paper's benchmark: 0.75).
    pub mach: f64,
    /// Angle of attack in radians.
    pub alpha: f64,
    /// Reynolds number based on the chord (paper: 3e6).
    pub reynolds: f64,
    /// Target CFL number of the implicit smoother.
    pub cfl: f64,
    /// Starting CFL; the solver ramps geometrically from here to `cfl`
    /// over the first cycles (impulsive starts are where implicit schemes
    /// blow up).
    pub cfl_start: f64,
    /// Under-relaxation of the prolonged coarse-grid correction.
    pub prolong_relax: f64,
    /// Anisotropy threshold for implicit-line extraction.
    pub line_threshold: f64,
    /// Free-stream turbulence variable as a multiple of laminar viscosity.
    pub nu_t_inf_ratio: f64,
    /// Dense-kernel path: `None` selects the lane-interleaved SIMD
    /// batches ([`KernelKind::Simd`]).
    /// Both paths are bit-identical (pinned by `tests/kernel_parity.rs`);
    /// [`KernelKind::Scalar`] keeps the one-block-at-a-time oracle.
    pub kernel: Option<KernelKind>,
}

impl Default for SolverParams {
    fn default() -> Self {
        SolverParams {
            mach: 0.75,
            alpha: 0.0,
            reynolds: 3.0e6,
            cfl: 6.0,
            cfl_start: 1.0,
            prolong_relax: 0.75,
            line_threshold: 10.0,
            nu_t_inf_ratio: 3.0,
            kernel: None,
        }
    }
}

impl SolverParams {
    /// Non-dimensional laminar dynamic viscosity `rho_inf q_inf c / Re`.
    pub fn mu_laminar(&self) -> f64 {
        self.mach / self.reynolds
    }

    /// Free-stream conservative state.
    pub fn freestream(&self) -> State {
        freestream(
            self.mach,
            self.alpha,
            self.nu_t_inf_ratio * self.mu_laminar(),
        )
    }
}

/// Off-diagonal Jacobian blocks for the line edge `le` joining `vi` to
/// the next line vertex `vj`: the entries of the `(upper_i, lower_{i+1})`
/// pair go to the `upper` and `lower` sinks. Shared by the scalar and the
/// batched line solvers so the assembly arithmetic is one piece of code;
/// a free function so the callers can hold disjoint borrows of the
/// level's other fields. Lines are vertex-disjoint, so the cached
/// sweep-start primitives and `rho` of `vi`/`vj` are still current when
/// their line is assembled.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn line_edge_blocks(
    mesh: &UnstructuredMesh,
    prim: &[Prim],
    rho: &[f64],
    mu: f64,
    (vi, vj): (usize, usize),
    (ei, sign): (u32, f64),
    upper: impl FnMut(usize, usize, f64),
    lower: impl FnMut(usize, usize, f64),
) {
    let e = &mesh.edges[ei as usize];
    let s = e.normal * sign; // oriented vi -> vj
    let (pi, pj) = (&prim[vi], &prim[vj]);
    let es = EdgeScalars::new(pi, pj, s, e.length, mu);
    let d = 0.5 * es.lam + es.visc(rho[vi], rho[vj]);
    // dN_i/du_j = 0.5 A(u_j, S_out) - (0.5 lam + visc) I.
    half_jacobian_shifted(pj, s, -d, upper);
    // dN_{i+1}/du_i with outward normal -S.
    half_jacobian_shifted(pi, -s, -d, lower);
}

/// Solve the block-tridiagonal system along one line and update. All
/// operands are disjoint borrows of the level's fields.
#[allow(clippy::too_many_arguments)]
fn solve_line_scalar(
    mesh: &UnstructuredMesh,
    prim: &[Prim],
    mu: f64,
    u: &mut SoaStates<NVARS>,
    diag: &[BlockMat<NVARS>],
    res: &SoaStates<NVARS>,
    tridiag: &mut BlockTridiag<NVARS>,
    line_x: &mut Vec<State>,
    fc: &mut FlopCounter,
    line: &[u32],
    les: &[(u32, f64)],
) {
    let m = line.len();
    tridiag.reset(m);
    for (i, &v) in line.iter().enumerate() {
        *tridiag.diag_mut(i) = diag[v as usize];
        *tridiag.rhs_mut(i) = res.get(v as usize);
    }
    for (i, &le) in les.iter().enumerate() {
        let ends = (line[i] as usize, line[i + 1] as usize);
        let (mut upper, mut lower) = (BlockMat::zero(), BlockMat::zero());
        let (up, lo) = (|r, c, v| upper.set(r, c, v), |r, c, v| lower.set(r, c, v));
        line_edge_blocks(mesh, prim, u.plane(0), mu, ends, le, up, lo);
        *tridiag.upper_mut(i) = upper;
        *tridiag.lower_mut(i + 1) = lower;
    }
    line_x.resize(m, [0.0; NVARS]);
    if tridiag.solve_into(line_x).is_ok() {
        for (i, &v) in line.iter().enumerate() {
            for k in 0..NVARS {
                *u.at_mut(k, v as usize) += line_x[i][k];
            }
        }
    }
    fc.add(m as u64 * flops::TRIDIAG_ROW);
}

/// Why [`RansLevel::with_lines`] refused a line set. The batched line
/// solve reorders lines and pads them into shared batches, which leaves
/// every result bit-identical only when the lines are vertex-disjoint,
/// name mesh vertices, and walk mesh edges. Line indices count the input
/// lines, including the ones of fewer than two vertices that are dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineError {
    /// Line `line` names `vertex`, which is not a mesh vertex.
    OutOfRange { line: usize, vertex: u32 },
    /// `vertex` of line `line` is already in a line (an earlier one, or
    /// earlier in the same line).
    SharedVertex { line: usize, vertex: u32 },
    /// Consecutive vertices `from`, `to` of line `line` share no mesh edge.
    MissingEdge { line: usize, from: u32, to: u32 },
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::OutOfRange { line, vertex } => write!(f, "line {line}: no vertex {vertex}"),
            Self::SharedVertex { line, vertex } => write!(f, "line {line}: {vertex} is shared"),
            Self::MissingEdge { line, from, to } => write!(f, "line {line}: no edge {from}-{to}"),
        }
    }
}

impl std::error::Error for LineError {}

/// The per-sweep scratch of a level: the gradient accumulators, the
/// primitive cache, the implicit diagonal and the time-step sums. Every
/// sweep and every residual evaluation writes these before it reads them
/// ([`RansLevel::begin_residual`] and the edge pass), and only one level
/// of a hierarchy is ever being smoothed, so a hierarchy holds one
/// scratch and lends it down through restriction ([`RansLevel::borrow_scratch`]).
/// The vertex arrays keep the length of the largest level they served
/// and are sliced to the current level; none is rewritten on a hand-over.
#[derive(Default)]
pub(crate) struct SweepScratch {
    /// Green-Gauss velocity-gradient accumulators, one plane per
    /// [`GRAD_PLANES`] component.
    grad: SoaStates<6>,
    /// Per-vertex primitive cache (64 B/vertex), valid from
    /// [`RansLevel::begin_residual`] until `u` is next written; every edge
    /// kernel reads it instead of re-deriving primitives per edge.
    prim: Vec<Prim>,
    diag: Vec<BlockMat<NVARS>>,
    lamsum: Vec<f64>,
    /// Test builds: NaN the scratch at every hand-over.
    #[cfg(test)]
    pub(crate) poison: bool,
}

impl SweepScratch {
    /// Fit to a level of `n` vertices: the gradient takes length `n`.
    /// Arrays shorter than `n` are replaced by fresh zero-filled ones, not
    /// resized: a zeroed allocation from a fresh mapping costs no page until
    /// a sweep first writes it. Nothing shrinks.
    fn fit(&mut self, n: usize) -> &mut Self {
        if self.prim.len() < n {
            self.grad = SoaStates::zeros(n);
            self.prim = vec![[0.0; 8]; n];
            self.diag = vec![BlockMat::zero(); n];
            self.lamsum = vec![0.0; n];
        }
        self.grad.set_len(n);
        self
    }
}

/// Heap bytes of a vector's allocation.
fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Heap bytes of a vector of vectors, inner allocations included.
fn nested_bytes<T>(v: &Vec<Vec<T>>) -> usize {
    vec_bytes(v) + v.iter().map(vec_bytes).sum::<usize>()
}

/// One solver level: the mesh dual plus all per-vertex solver state, held
/// in resident [`SoaStates`] component planes.
pub struct RansLevel {
    /// The level's mesh (finest: generated; coarser: agglomerated).
    pub mesh: UnstructuredMesh,
    /// Implicit lines (multi-vertex only).
    pub lines: Vec<Vec<u32>>,
    /// Per line: the edge index joining consecutive line vertices, and the
    /// sign of its stored normal relative to the walk direction.
    line_edges: Vec<Vec<(u32, f64)>>,
    in_line: Vec<bool>,
    /// Conservative state, one plane per component.
    pub u: SoaStates<NVARS>,
    /// FAS forcing. Empty until the first restriction that targets this
    /// level sizes it, so the finest level never carries one; an empty
    /// plane reads as zero.
    pub forcing: SoaStates<NVARS>,
    /// State stored at restriction time (for the coarse-grid correction);
    /// sized with `forcing`, so empty on the finest level.
    pub restricted_u: SoaStates<NVARS>,
    /// Residual scratch `r = forcing - N(u)`.
    pub res: SoaStates<NVARS>,
    /// The sweep scratch while this level holds it: a `Cell`, so
    /// `prolong_from` can take it back from the coarse level it only
    /// borrows shared. Empty until lent or first used.
    pub(crate) scratch: Cell<SweepScratch>,
    /// Rotating vertex of the debug cache-freshness check.
    probe: usize,
    tridiag: BlockTridiag<NVARS>,
    line_x: Vec<State>,
    /// Resolved dense-kernel path (params override, else SIMD).
    pub kernel: KernelKind,
    /// Line indices in (length, index) order: each run of [`LANES`]
    /// consecutive lines is one SIMD batch, padded to its longest line.
    /// Lines are vertex-disjoint (checked by [`Self::with_lines`]), so
    /// solving them in this order is bit-identical to the construction
    /// order.
    line_order: Vec<u32>,
    tridiag_batch: TridiagBatch<NVARS>,
    /// Batch solution rows, as long as the longest line.
    line_x_batch: Vec<VecBatch<NVARS>>,
    /// Per-block scratch of the plane-major gradient sweep: gathered edge
    /// average velocities and normals ([`EDGE_BLOCK`] entries, persistent
    /// so steady-state sweeps allocate nothing).
    edge_avg: Vec<[f64; 3]>,
    edge_nrm: Vec<[f64; 3]>,
    /// Per-block inverse control volumes of the finalisation sweep.
    vol_inv: Vec<f64>,
    /// Pack buffer of the scratch route of the diagonal exchange
    /// ([`Self::pack_diag_scratch`]): empty until that route first runs.
    /// The solver's own sweeps never size it; they exchange the blocks in
    /// place through [`DiagHalo`].
    diag_pack: Vec<[f64; 37]>,
    /// Solver parameters.
    pub params: SolverParams,
    /// Free-stream state (BC and initialisation).
    pub fs: State,
    /// Current CFL (ramped by the solver driver from `params.cfl_start`
    /// towards `params.cfl`).
    pub cfl_now: f64,
    /// Map from this level's vertices to the next coarser level (if any).
    pub to_coarse: Option<Vec<u32>>,
    /// Software FLOP counter.
    pub flops: FlopCounter,
    /// Vertices this instance is responsible for updating. All-true for the
    /// serial solver; the domain-decomposed solver marks ghosts inactive.
    pub active: Vec<bool>,
    /// Test builds: NaN ghost rows after each add exchange (`parallel::tests`).
    #[cfg(test)]
    pub(crate) poison_ghosts: bool,
}

impl RansLevel {
    /// Build a level from a mesh. Lines are extracted here; state starts at
    /// free stream.
    pub fn new(mesh: UnstructuredMesh, params: SolverParams) -> Self {
        let lines = extract_lines(&mesh, params.line_threshold).lines;
        Self::with_lines(mesh, params, lines)
            .expect("extract_lines yields vertex-disjoint lines along mesh edges")
    }

    /// Build a level with an explicitly supplied line set (the
    /// domain-decomposed solver passes the restriction of the *global*
    /// lines so every rank smooths exactly what the serial solver would).
    /// Lines of fewer than two vertices are point solves and are dropped;
    /// the rest must be vertex-disjoint, name mesh vertices, and join each
    /// consecutive pair by a mesh edge ([`LineError`]).
    pub fn with_lines(
        mesh: UnstructuredMesh,
        params: SolverParams,
        lines: Vec<Vec<u32>>,
    ) -> Result<Self, LineError> {
        let n = mesh.nvertices();
        let ve = mesh.vertex_edges();
        let mut in_line = vec![false; n];
        let mut kept = Vec::with_capacity(lines.len());
        let mut line_edges = Vec::with_capacity(lines.len());
        for (li, line) in lines.into_iter().enumerate().filter(|(_, l)| l.len() >= 2) {
            for &vertex in &line {
                let seen = in_line.get_mut(vertex as usize);
                let seen = seen.ok_or(LineError::OutOfRange { line: li, vertex })?;
                if std::mem::replace(seen, true) {
                    return Err(LineError::SharedVertex { line: li, vertex });
                }
            }
            // Pre-resolve the edge joining each consecutive line pair.
            let mut les = Vec::with_capacity(line.len() - 1);
            for w in line.windows(2) {
                let Some(r) = ve.of(w[0] as usize).iter().find(|r| r.other == w[1]) else {
                    let (from, to) = (w[0], w[1]);
                    return Err(LineError::MissingEdge { line: li, from, to });
                };
                les.push((r.edge, r.sign));
            }
            line_edges.push(les);
            kept.push(line);
        }
        let lines = kept;
        let fs = params.freestream();
        let mut line_order: Vec<u32> = (0..lines.len() as u32).collect();
        line_order.sort_by_key(|&i| (lines[i as usize].len(), i));
        let kernel = params.kernel.unwrap_or(KernelKind::Simd);
        let mut u = SoaStates::zeros(n);
        u.fill_with(&fs);
        let longest = lines.iter().map(Vec::len).max().unwrap_or(0);
        Ok(RansLevel {
            line_x_batch: vec![vec_batch_zero(); longest],
            lines,
            line_edges,
            in_line,
            kernel,
            line_order,
            tridiag_batch: TridiagBatch::new(),
            u,
            forcing: SoaStates::zeros(0),
            restricted_u: SoaStates::zeros(0),
            res: SoaStates::zeros(n),
            scratch: Cell::default(),
            probe: 0,
            tridiag: BlockTridiag::new(),
            line_x: Vec::new(),
            edge_avg: vec![[0.0; 3]; EDGE_BLOCK],
            edge_nrm: vec![[0.0; 3]; EDGE_BLOCK],
            vol_inv: vec![0.0; VBLOCK],
            diag_pack: Vec::new(),
            cfl_now: params.cfl_start.min(params.cfl),
            params,
            fs,
            to_coarse: None,
            mesh,
            flops: FlopCounter::default(),
            active: vec![true; n],
            #[cfg(test)]
            poison_ghosts: false,
        })
    }

    /// Number of vertices.
    pub fn nvertices(&self) -> usize {
        self.mesh.nvertices()
    }

    /// Heap bytes this level holds, one `(array, bytes)` row per array or
    /// group of arrays, from capacities: what the allocator handed out.
    /// The four sweep-scratch rows are non-zero only on the level that
    /// holds the hierarchy's scratch.
    pub fn resident_bytes(&self) -> Vec<(&'static str, usize)> {
        let m = &self.mesh;
        let mesh = vec_bytes(&m.points)
            + vec_bytes(&m.edges)
            + vec_bytes(&m.volumes)
            + vec_bytes(&m.bc)
            + vec_bytes(&m.wall_distance);
        let lines = nested_bytes(&self.lines) + nested_bytes(&self.line_edges);
        let line_solve = self.tridiag.heap_bytes()
            + self.tridiag_batch.heap_bytes()
            + vec_bytes(&self.line_x)
            + vec_bytes(&self.line_x_batch);
        let edge_blocks =
            vec_bytes(&self.edge_avg) + vec_bytes(&self.edge_nrm) + vec_bytes(&self.vol_inv);
        let sc = self.scratch.take();
        let scratch = [
            ("grad", sc.grad.heap_bytes()),
            ("prim", vec_bytes(&sc.prim)),
            ("diag", vec_bytes(&sc.diag)),
            ("lamsum", vec_bytes(&sc.lamsum)),
        ];
        self.scratch.set(sc);
        let mut rows = vec![
            ("mesh", mesh),
            ("lines", lines + vec_bytes(&self.line_order)),
            ("in_line", vec_bytes(&self.in_line)),
            ("active", vec_bytes(&self.active)),
            ("to_coarse", self.to_coarse.as_ref().map_or(0, vec_bytes)),
            ("u", self.u.heap_bytes()),
            ("res", self.res.heap_bytes()),
            ("forcing", self.forcing.heap_bytes()),
            ("restricted_u", self.restricted_u.heap_bytes()),
        ];
        rows.extend(scratch);
        rows.extend([
            ("line_solve", line_solve),
            ("edge_blocks", edge_blocks),
            ("diag_pack", vec_bytes(&self.diag_pack)),
        ]);
        rows
    }

    /// Fraction of vertices covered by implicit lines.
    pub fn line_coverage(&self) -> f64 {
        self.in_line.iter().filter(|&&b| b).count() as f64 / self.nvertices().max(1) as f64
    }

    /// SIMD lane occupancy of the line solves: live line rows over
    /// [`LANES`] times the padded rows of the batches (0 without lines).
    /// Fixed at construction.
    pub fn line_occupancy(&self) -> f64 {
        let len = |li: &u32| self.lines[*li as usize].len();
        let (mut live, mut padded) = (0, 0);
        for chunk in self.line_order.chunks(LANES) {
            live += chunk.iter().map(len).sum::<usize>();
            padded += LANES * chunk.last().map_or(0, len);
        }
        live as f64 / padded.max(1) as f64
    }

    /// Assemble the full residual `r = forcing - N(u)` into `self.res`.
    ///
    /// `N(u)` = convective + viscous edge fluxes minus sources. Rows
    /// governed by strong boundary conditions are zeroed.
    ///
    /// The four phases are public so the domain-decomposed solver can
    /// interleave ghost exchanges between them.
    pub fn compute_residual(&mut self) {
        self.begin_residual();
        self.accumulate_gradients();
        self.finalize_gradients();
        self.accumulate_fluxes();
        self.finalize_residual();
    }

    /// Phase 1: clear the residual and gradient accumulators and refresh
    /// the primitive cache from `u`. Contract: every other phase up to and
    /// including the line assembly of [`Self::solve_implicit`] reads the
    /// cache, so `u` must not be written between this call and them.
    pub fn begin_residual(&mut self) {
        let n = self.nvertices();
        let s = self.scratch.get_mut().fit(n);
        self.res.fill_zero();
        s.grad.fill_zero();
        let mu = self.params.mu_laminar();
        for (v, p) in s.prim[..n].iter_mut().enumerate() {
            *p = prim_of(&self.u.get(v), mu);
        }
    }

    /// Size this level's own sweep scratch for `n` vertices, so the
    /// allocation happens on the calling thread (DESIGN §16).
    pub(crate) fn reserve_scratch(&mut self, n: usize) {
        self.scratch.get_mut().fit(n);
    }

    /// Swap sweep scratch with `other`: restriction lends the finer
    /// level's scratch to the coarse one, prolongation takes it back, so
    /// one scratch serves a whole hierarchy. `other` is borrowed shared
    /// because `prolong_from` sees the coarse level that way.
    pub(crate) fn borrow_scratch(&mut self, other: &Self) {
        self.scratch.swap(&other.scratch);
        #[cfg(test)]
        tests::poison_scratch(self);
    }

    /// Debug builds re-derive one cache entry per reader kernel (rotating
    /// over the vertices) and compare bits, so a write to `u` after
    /// [`Self::begin_residual`] trips here instead of smoothing with
    /// stale primitives.
    fn debug_assert_cache_fresh(&mut self) {
        let n = self.nvertices();
        if cfg!(debug_assertions) && n > 0 {
            let v = (self.probe + 1) % n;
            self.probe = v;
            let fresh = prim_of(&self.u.get(v), self.params.mu_laminar());
            let cached = self.scratch.get_mut().fit(n).prim[v];
            let stale = fresh.map(f64::to_bits) != cached.map(f64::to_bits);
            assert!(
                !stale,
                "primitive cache of vertex {v} is stale: u written after begin_residual"
            );
        }
    }

    /// Phase 2: accumulate raw Green-Gauss velocity-gradient sums
    /// (not yet divided by the control volume).
    ///
    /// The SIMD path is a cache-blocked plane-major sweep: per
    /// [`EDGE_BLOCK`] of edges it gathers the average edge velocity and
    /// normal once, then streams each of the six gradient planes over
    /// the block. Every accumulator still receives its incident-edge
    /// contributions in global edge order and each product is computed
    /// exactly once, so the result is bit-identical to the scalar
    /// edge-at-a-time oracle.
    pub fn accumulate_gradients(&mut self) {
        self.debug_assert_cache_fresh();
        let n = self.nvertices();
        let Self {
            mesh,
            scratch,
            edge_avg,
            edge_nrm,
            kernel,
            flops: fc,
            ..
        } = self;
        let SweepScratch { prim, grad, .. } = scratch.get_mut().fit(n);
        match *kernel {
            KernelKind::Scalar => {
                for e in &mesh.edges {
                    let (a, b) = (e.a as usize, e.b as usize);
                    let avg = (vel(&prim[a]) + vel(&prim[b])) * 0.5;
                    let s = e.normal;
                    let comp = [avg.x, avg.y, avg.z];
                    let sv = [s.x, s.y, s.z];
                    for (k, &(i, j)) in GRAD_PLANES.iter().enumerate() {
                        let c = comp[i] * sv[j];
                        *grad.at_mut(k, a) += c;
                        *grad.at_mut(k, b) -= c;
                    }
                }
            }
            KernelKind::Simd => {
                for chunk in mesh.edges.chunks(EDGE_BLOCK) {
                    for (t, e) in chunk.iter().enumerate() {
                        let avg = (vel(&prim[e.a as usize]) + vel(&prim[e.b as usize])) * 0.5;
                        edge_avg[t] = [avg.x, avg.y, avg.z];
                        edge_nrm[t] = [e.normal.x, e.normal.y, e.normal.z];
                    }
                    for (k, &(i, j)) in GRAD_PLANES.iter().enumerate() {
                        let p = grad.plane_mut(k);
                        for (t, e) in chunk.iter().enumerate() {
                            let c = edge_avg[t][i] * edge_nrm[t][j];
                            p[e.a as usize] += c;
                            p[e.b as usize] -= c;
                        }
                    }
                }
            }
        }
        fc.add(mesh.nedges() as u64 * flops::GRADIENT_EDGE);
    }

    /// Phase 3: divide gradient sums by the control volumes. The SIMD
    /// path computes [`VBLOCK`] inverse volumes once per block and reuses
    /// them across all six plane passes — the same single divide per
    /// vertex the scalar path performs.
    pub fn finalize_gradients(&mut self) {
        let n = self.nvertices();
        let Self {
            mesh,
            scratch,
            vol_inv,
            kernel,
            ..
        } = self;
        let grad = &mut scratch.get_mut().fit(n).grad;
        match *kernel {
            KernelKind::Scalar => {
                for v in 0..n {
                    let inv = 1.0 / mesh.volumes[v];
                    for k in 0..GRAD_PLANES.len() {
                        *grad.at_mut(k, v) *= inv;
                    }
                }
            }
            KernelKind::Simd => {
                let mut start = 0;
                while start < n {
                    let end = (start + VBLOCK).min(n);
                    for v in start..end {
                        vol_inv[v - start] = 1.0 / mesh.volumes[v];
                    }
                    for k in 0..GRAD_PLANES.len() {
                        let p = grad.plane_mut(k);
                        for v in start..end {
                            p[v] *= vol_inv[v - start];
                        }
                    }
                    start = end;
                }
            }
        }
    }

    /// Direct access to the raw gradient planes (ghost exchange), as the
    /// last [`Self::begin_residual`] sized them.
    pub fn grad_mut(&mut self) -> &mut SoaStates<6> {
        &mut self.scratch.get_mut().grad
    }

    /// Phase 4: accumulate convective and diffusive edge fluxes into
    /// `res = -N` (flux part), for residual-only evaluations.
    pub fn accumulate_fluxes(&mut self) {
        self.edge_pass::<true, false>();
    }

    /// Phase 4 and diagonal phase 1 in one edge pass, bit-identical to
    /// [`Self::accumulate_fluxes`] then [`Self::accumulate_diagonal`].
    pub fn accumulate_fluxes_and_diagonal(&mut self) {
        self.edge_pass::<true, true>();
    }

    /// The one edge loop of the flux and diagonal accumulations: one
    /// primitive gather and one [`EdgeScalars`] per edge serve both.
    /// `res` and `diag`/`lamsum` are disjoint accumulators, each still fed
    /// in global edge order (DESIGN §16, rule 2). `diag` and `lamsum` are
    /// zeroed first; the seven structural zeros of `A` off the diagonal
    /// are never touched, as they would only ever receive `+0.0`.
    fn edge_pass<const FLUX: bool, const DIAG: bool>(&mut self) {
        self.debug_assert_cache_fresh();
        let n = self.nvertices();
        let Self {
            mesh,
            u,
            res,
            scratch,
            params,
            flops: fc,
            ..
        } = self;
        let SweepScratch {
            prim, diag, lamsum, ..
        } = scratch.get_mut().fit(n);
        if DIAG {
            diag[..n].fill(BlockMat::zero());
            lamsum[..n].fill(0.0);
        }
        let mu = params.mu_laminar();
        let rho = u.plane(0);
        let mut rp = res.planes_mut();
        for e in &mesh.edges {
            let (a, b) = (e.a as usize, e.b as usize);
            let s = e.normal;
            let (pa, pb) = (&prim[a], &prim[b]);
            let es = EdgeScalars::new(pa, pb, s, e.length, mu);
            if FLUX {
                let (ua, ub) = (u.get(a), u.get(b));
                let (f, d) = es.fluxes((pa, &ua), (pb, &ub), s, mu);
                for (k, rk) in rp.iter_mut().enumerate() {
                    // res = -N: flux out of a decreases res[a].
                    rk[a] -= f[k];
                    rk[b] += f[k];
                }
                // Edge-based diffusion (viscous + turbulence transport): the
                // diffusive flux out of a is -d, so N[a] -= d.
                for (k, rk) in rp[1..].iter_mut().enumerate() {
                    rk[a] += d[k];
                    rk[b] -= d[k];
                }
            }
            if DIAG {
                let visc = es.visc(rho[a], rho[b]);
                let d = 0.5 * es.lam + visc;
                // Row a: +0.5 A(u_a, S) + (0.5 lam + visc) I.
                let da = &mut diag[a];
                half_jacobian_shifted(pa, s, d, |r, c, v| *da.get_mut(r, c) += v);
                // Row b: outward normal is -S.
                let db = &mut diag[b];
                half_jacobian_shifted(pb, -s, d, |r, c, v| *db.get_mut(r, c) += v);
                lamsum[a] += es.lam + visc;
                lamsum[b] += es.lam + visc;
            }
        }
        let per_edge =
            FLUX as u64 * (flops::FLUX + flops::VISCOUS) + DIAG as u64 * flops::JACOBIAN_EDGE;
        fc.add(mesh.nedges() as u64 * per_edge);
    }

    /// Phase 5: turbulence sources, FAS forcing, boundary-row zeroing.
    /// Inactive (ghost) rows are zeroed — their flux contributions have
    /// already been shipped to the owning rank.
    pub fn finalize_residual(&mut self) {
        let n = self.nvertices();
        let Self {
            mesh,
            u,
            res,
            scratch,
            forcing,
            active,
            flops: fc,
            ..
        } = self;
        let grad = &scratch.get_mut().fit(n).grad;
        let forced = !forcing.is_empty();
        let mut rp = res.planes_mut();
        for v in 0..n {
            if !active[v] {
                for rk in rp.iter_mut() {
                    rk[v] = 0.0;
                }
                continue;
            }
            let vol = mesh.volumes[v];
            match mesh.bc[v] {
                BoundaryKind::FarField => {
                    for rk in rp.iter_mut() {
                        rk[v] = 0.0;
                    }
                    continue;
                }
                BoundaryKind::Wall => {
                    // Strongly enforced momentum and turbulence rows.
                    for k in 1..4 {
                        rp[k][v] = 0.0;
                    }
                    rp[5][v] = 0.0;
                }
                BoundaryKind::Interior => {
                    // Vorticity from the off-diagonal velocity gradients
                    // (planes in `GRAD_PLANES` order).
                    let wx = grad.at(5, v) - grad.at(3, v);
                    let wy = grad.at(1, v) - grad.at(4, v);
                    let wz = grad.at(2, v) - grad.at(0, v);
                    let omega = (wx * wx + wy * wy + wz * wz).sqrt();
                    let rho = u.at(0, v);
                    let rnt = u.at(5, v).max(0.0);
                    let nt = rnt / rho;
                    let d = mesh.wall_distance[v].max(1e-12);
                    let prod = sa::CB1 * omega * rnt;
                    let dest = sa::CW1 * rho * (nt / d) * (nt / d);
                    // res = -N and N includes -(P - D)*V.
                    rp[5][v] += (prod - dest) * vol;
                }
            }
            // An empty forcing (finest level) adds a literal +0.0: the same
            // operation as the zero plane, so a -0.0 row still turns +0.0.
            for (k, rk) in rp.iter_mut().enumerate() {
                rk[v] += if forced { forcing.at(k, v) } else { 0.0 };
            }
            // BC rows of the forcing must not leak into constrained rows.
            match mesh.bc[v] {
                BoundaryKind::Wall => {
                    for k in 1..4 {
                        rp[k][v] = 0.0;
                    }
                    rp[5][v] = 0.0;
                }
                BoundaryKind::FarField => {
                    for rk in rp.iter_mut() {
                        rk[v] = 0.0;
                    }
                }
                BoundaryKind::Interior => {}
            }
        }
        fc.add(n as u64 * flops::SOURCE);
    }

    /// Sum of squares and entry count of the residual over active rows
    /// (no recompute; parallel ranks combine these with an allreduce).
    /// Vertex-outer, component-inner — the historical AoS summation
    /// order, so the floating-point sum is unchanged.
    pub fn residual_sumsq(&self) -> (f64, usize) {
        let mut ss = 0.0;
        let mut cnt = 0usize;
        for v in 0..self.res.len() {
            if self.active[v] {
                for k in 0..NVARS {
                    let x = self.res.at(k, v);
                    ss += x * x;
                }
                cnt += NVARS;
            }
        }
        (ss, cnt)
    }

    /// RMS norm of the current residual (recomputed, active rows only).
    pub fn residual_rms(&mut self) -> f64 {
        self.compute_residual();
        let (ss, cnt) = self.residual_sumsq();
        if cnt == 0 {
            0.0
        } else {
            (ss / cnt as f64).sqrt()
        }
    }

    /// Enforce strong boundary conditions on the state (per-vertex
    /// load/store views over the planes; same component read/write order
    /// as the AoS path).
    pub fn apply_bcs(&mut self) {
        for v in 0..self.nvertices() {
            let mut p = self.u.point_mut(v);
            match self.mesh.bc[v] {
                BoundaryKind::Wall => {
                    p.set(1, 0.0);
                    p.set(2, 0.0);
                    p.set(3, 0.0);
                    p.set(5, 0.0);
                }
                BoundaryKind::FarField => {
                    p.store(&self.fs);
                }
                BoundaryKind::Interior => {}
            }
            // Positivity guards: keep the implicit updates out of vacuum.
            let mut u = p.load();
            u[0] = u[0].clamp(0.05, 20.0);
            u[5] = u[5].max(0.0);
            let q2 = (u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) / u[0];
            let pr = (GAMMA - 1.0) * (u[4] - 0.5 * q2);
            let pmin = 0.02 / GAMMA;
            if pr < pmin {
                u[4] = pmin / (GAMMA - 1.0) + 0.5 * q2;
            }
            p.store(&u);
        }
    }

    /// One implicit smoothing sweep: residual and diagonal assembly (one
    /// edge pass; `finalize_diagonal` reads neither `res` nor the
    /// gradients), block-diagonal (and block-tridiagonal along lines)
    /// solve, state update, BCs.
    pub fn smooth_sweep(&mut self) {
        self.begin_residual();
        self.accumulate_gradients();
        self.finalize_gradients();
        self.accumulate_fluxes_and_diagonal();
        self.finalize_residual();
        self.finalize_diagonal();
        self.solve_implicit();
    }

    /// The implicit solve + update of a sweep, given `res` and `diag` are
    /// assembled (the parallel solver assembles them with exchanges first).
    ///
    /// Dispatches on [`Self::kernel`]: the scalar path solves one block /
    /// one line at a time (the reference oracle); the SIMD path batches up
    /// to [`LANES`] point blocks, and runs of [`LANES`] lines padded to the
    /// longest, through the lane-interleaved kernels in
    /// `columbia_linalg::soa`. The two paths are bit-identical, so every
    /// golden holds under either. All scratch (tridiagonal systems, batch
    /// buffers) is level-owned, so the steady state allocates nothing
    /// (asserted by `tests/kernel_parity.rs`).
    pub fn solve_implicit(&mut self) {
        // The scratch steps out of its cell for the solve, so the solve's
        // helpers can borrow the level whole beside it.
        let n = self.nvertices();
        let sc = std::mem::take(self.scratch.get_mut().fit(n));
        match self.kernel {
            KernelKind::Scalar => {
                let Self {
                    mesh,
                    lines,
                    line_edges,
                    tridiag,
                    line_x,
                    res,
                    u,
                    params,
                    flops: fc,
                    ..
                } = self;
                let (prim, diag, mu) = (&sc.prim, &sc.diag, params.mu_laminar());
                for (line, les) in lines.iter().zip(line_edges.iter()) {
                    solve_line_scalar(mesh, prim, mu, u, diag, res, tridiag, line_x, fc, line, les);
                }
                self.solve_points_scalar(&sc);
            }
            KernelKind::Simd => {
                self.solve_lines_simd(&sc);
                self.solve_points_simd(&sc);
            }
        }
        *self.scratch.get_mut() = sc;
        self.apply_bcs();
    }

    /// Point-implicit update for everything not in a line, one block at a
    /// time. Vertices with no incident edges (possible on degenerate
    /// coarsest levels) have no physics to advance and are skipped.
    fn solve_points_scalar(&mut self, sc: &SweepScratch) {
        for v in 0..self.nvertices() {
            if !self.point_eligible(v, &sc.lamsum) {
                continue;
            }
            if let Ok(lu) = sc.diag[v].lu() {
                let du = lu.solve(&self.res.get(v));
                for (k, d) in du.iter().enumerate() {
                    *self.u.at_mut(k, v) += d;
                }
            }
            self.flops.add(flops::LU_SOLVE + flops::UPDATE);
        }
    }

    #[inline]
    fn point_eligible(&self, v: usize, lamsum: &[f64]) -> bool {
        !(self.in_line[v]
            || !self.active[v]
            || lamsum[v] <= 0.0
            || self.mesh.bc[v] == BoundaryKind::FarField)
    }

    /// Point-implicit update batching up to [`LANES`] eligible vertices
    /// (in the same ascending order the scalar path visits them) through
    /// one interleaved LU factorise + solve. Point updates touch only
    /// their own vertex, so batching cannot change any result bit; lanes
    /// whose block is singular are discarded exactly as the scalar path
    /// skips `Err` factorisations.
    fn solve_points_simd(&mut self, sc: &SweepScratch) {
        let n = self.nvertices();
        let mut batch = [0usize; LANES];
        let mut count = 0usize;
        for v in 0..n {
            if !self.point_eligible(v, &sc.lamsum) {
                continue;
            }
            batch[count] = v;
            count += 1;
            if count == LANES {
                self.flush_point_batch(&batch[..count], &sc.diag);
                count = 0;
            }
        }
        if count > 0 {
            self.flush_point_batch(&batch[..count], &sc.diag);
        }
    }

    fn flush_point_batch(&mut self, vs: &[usize], diag: &[BlockMat<NVARS>]) {
        let mut mats = BlockBatch::<NVARS>::identity();
        let mut du = vec_batch_zero::<NVARS>();
        for (l, &v) in vs.iter().enumerate() {
            mats.set_lane(l, &diag[v]);
            let r = self.res.get(v);
            for (k, row) in du.iter_mut().enumerate() {
                row[l] = r[k];
            }
        }
        let ok = mats.lu_solve(&mut du);
        for (l, &v) in vs.iter().enumerate() {
            if ok[l] {
                for (k, row) in du.iter().enumerate() {
                    *self.u.at_mut(k, v) += row[l];
                }
            }
            self.flops.add(flops::LU_SOLVE + flops::UPDATE);
        }
    }

    /// Line-implicit solves in (length, index) order: [`LANES`]
    /// consecutive lines per streamed batch, padded to its longest line.
    /// Each row is assembled straight into the live lanes as the solve
    /// reaches it — `diag[v]`, `res`, and the line edge's couplings from
    /// [`line_edge_blocks`]. Lines are vertex-disjoint (checked by
    /// [`Self::with_lines`]), so neither the reordering nor the batching
    /// changes any line's arithmetic, and padding rows leave a shorter
    /// line's solution bit-identical.
    fn solve_lines_simd(&mut self, sc: &SweepScratch) {
        let Self {
            mesh,
            lines,
            line_edges,
            line_order,
            tridiag_batch,
            line_x_batch,
            res,
            u,
            params,
            flops: fc,
            ..
        } = self;
        let (prim, diag) = (&sc.prim, &sc.diag);
        let mu = params.mu_laminar();
        for chunk in line_order.chunks(LANES) {
            // Length-sorted: the chunk's last line is its longest.
            let out = &mut line_x_batch[..lines[chunk[chunk.len() - 1] as usize].len()];
            let rho = u.plane(0);
            let ok = tridiag_batch.solve(out, |i, row| {
                for (l, &li) in chunk.iter().enumerate() {
                    let line = &lines[li as usize];
                    let Some(&v) = line.get(i) else { continue };
                    row.diag.set_lane(l, &diag[v as usize]);
                    for (k, x) in res.get(v as usize).into_iter().enumerate() {
                        row.rhs[k][l] = x;
                    }
                    if let Some(&le) = line_edges[li as usize].get(i) {
                        let ends = (v as usize, line[i + 1] as usize);
                        let up = |r, c, x| row.upper.set(r, c, l, x);
                        let lo = |r, c, x| row.next_lower.set(r, c, l, x);
                        line_edge_blocks(mesh, prim, rho, mu, ends, le, up, lo);
                    }
                }
            });
            for (l, &li) in chunk.iter().enumerate() {
                let line = &lines[li as usize];
                if ok[l] {
                    for (i, &v) in line.iter().enumerate() {
                        for k in 0..NVARS {
                            *u.at_mut(k, v as usize) += out[i][k][l];
                        }
                    }
                }
                fc.add(line.len() as u64 * flops::TRIDIAG_ROW);
            }
        }
    }

    /// Diagonal phase 1 alone: per-edge Jacobian contributions and
    /// time-step sums (the replay runs it; a sweep runs
    /// [`Self::accumulate_fluxes_and_diagonal`]).
    pub fn accumulate_diagonal(&mut self) {
        self.edge_pass::<false, true>();
    }

    /// Diagonal phase 2: time-step and source-Jacobian terms.
    pub fn finalize_diagonal(&mut self) {
        let n = self.nvertices();
        let Self {
            mesh,
            u,
            scratch,
            cfl_now,
            ..
        } = self;
        let SweepScratch { diag, lamsum, .. } = scratch.get_mut().fit(n);
        for v in 0..n {
            // V/dt = lamsum / CFL.
            let vdt = lamsum[v] / *cfl_now;
            diag[v].add_diagonal(vdt.max(1e-300));
            // Turbulence destruction Jacobian (stabilising, positive).
            let rho = u.at(0, v);
            let nt = (u.at(5, v) / rho).max(0.0);
            let d = mesh.wall_distance[v].max(1e-12);
            let dj = 2.0 * sa::CW1 * nt / (d * d) * mesh.volumes[v];
            *diag[v].get_mut(5, 5) += dj;
        }
    }

    /// The raw gradient, the residual and the implicit diagonal as halo
    /// fields (6 + 6 + 37 values per vertex), borrowed together so one
    /// coalesced add carries all the ghost contributions of a sweep.
    pub fn residual_halo(&mut self) -> (&mut SoaStates<6>, &mut SoaStates<NVARS>, DiagHalo<'_>) {
        let n = self.nvertices();
        let SweepScratch {
            grad, diag, lamsum, ..
        } = self.scratch.get_mut().fit(n);
        let halo = DiagHalo {
            diag: &mut diag[..n],
            lamsum: &mut lamsum[..n],
        };
        (grad, &mut self.res, halo)
    }

    /// Copy the diagonal into a flat per-vertex buffer in the [`DiagHalo`]
    /// wire layout, sized on first use. The solver exchanges the blocks in
    /// place; this scratch route and its two companions stay public only
    /// for `bench_e2e`'s sweep replay, and go when the benchmark reads
    /// spans recorded inside the crates instead (ROADMAP.md).
    pub fn pack_diag_scratch(&mut self) {
        let n = self.nvertices();
        let sc = self.scratch.get_mut().fit(n);
        self.diag_pack.resize(n, [0.0; 37]);
        for (v, row) in self.diag_pack.iter_mut().enumerate() {
            for (k, x) in row[..36].iter_mut().enumerate() {
                *x = sc.diag[v].get(k / NVARS, k % NVARS);
            }
            row[36] = sc.lamsum[v];
        }
    }

    /// Inverse of [`Self::pack_diag_scratch`] (kept for the replay only).
    pub fn unpack_diag_scratch(&mut self) {
        let n = self.nvertices();
        let sc = self.scratch.get_mut().fit(n);
        let (diag, lamsum) = (&mut sc.diag[..n], &mut sc.lamsum[..n]);
        let mut halo = DiagHalo { diag, lamsum };
        for (v, row) in self.diag_pack.iter().enumerate() {
            halo.set_entry(v, row);
        }
    }

    /// The scratch route's buffer as a mutable slice (kept for the replay
    /// only); empty until [`Self::pack_diag_scratch`] first runs.
    pub fn diag_pack_mut(&mut self) -> &mut [[f64; 37]] {
        &mut self.diag_pack
    }
}

/// A level's implicit diagonal blocks and time-step sums seen as one halo
/// field ([`RansLevel::residual_halo`]): per vertex the 36 block entries
/// row-major, then `lamsum` — 37 values, the wire format the exchange has
/// always carried.
pub struct DiagHalo<'a> {
    diag: &'a mut [BlockMat<NVARS>],
    lamsum: &'a mut [f64],
}

impl HaloField for DiagHalo<'_> {
    const WIDTH: usize = NVARS * NVARS + 1;

    fn pack_entry(&self, i: usize, buf: &mut Vec<f64>) {
        buf.extend((0..NVARS * NVARS).map(|k| self.diag[i].get(k / NVARS, k % NVARS)));
        buf.push(self.lamsum[i]);
    }

    fn set_entry(&mut self, i: usize, vals: &[f64]) {
        self.diag[i] = BlockMat::from_fn(|r, c| vals[r * NVARS + c]);
        self.lamsum[i] = vals[NVARS * NVARS];
    }

    fn add_entry(&mut self, i: usize, vals: &[f64]) {
        for (k, x) in vals[..NVARS * NVARS].iter().enumerate() {
            *self.diag[i].get_mut(k / NVARS, k % NVARS) += x;
        }
        self.lamsum[i] += vals[NVARS * NVARS];
    }

    fn zero_entry(&mut self, i: usize) {
        self.diag[i] = BlockMat::zero();
        self.lamsum[i] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{
        flux_jacobian, fv1, nu_tilde, pressure, rusanov, spectral_radius, velocity,
    };
    use columbia_mesh::{isotropic_box_mesh, wing_mesh, Edge, Vec3, WingMeshSpec};
    use columbia_rt::props::array;

    /// The level's sweep scratch, fitted to it.
    fn scratch(lvl: &mut RansLevel) -> &mut SweepScratch {
        let n = lvl.nvertices();
        lvl.scratch.get_mut().fit(n)
    }

    /// With the scratch's `poison` set, overwrite every row the level
    /// sees with NaN (`parallel_mg::tests`).
    pub(super) fn poison_scratch(lvl: &mut RansLevel) {
        let n = lvl.nvertices();
        let s = scratch(lvl);
        if s.poison {
            s.grad.fill_with(&[f64::NAN; 6]);
            s.prim[..n].fill([f64::NAN; 8]);
            s.diag[..n].fill(BlockMat::from_fn(|_, _| f64::NAN));
            s.lamsum[..n].fill(f64::NAN);
        }
    }

    fn small_wing() -> RansLevel {
        let spec = WingMeshSpec {
            ni: 16,
            nj: 4,
            nk: 10,
            nk_bl: 5,
            jitter: 0.0,
            ..Default::default()
        };
        RansLevel::new(
            wing_mesh(&spec),
            SolverParams {
                mach: 0.5,
                cfl: 10.0,
                ..Default::default()
            },
        )
    }

    #[test]
    fn freestream_is_near_steady_on_isotropic_box() {
        // With state == freestream everywhere, interior convective residuals
        // involve identical states: Rusanov dissipation vanishes and the
        // central fluxes telescope except for metric closure at boundaries
        // (all far-field here, so zeroed). Residual must be ~machine zero.
        let mesh = isotropic_box_mesh(6, 6, 6);
        let mut lvl = RansLevel::new(
            mesh,
            SolverParams {
                mach: 0.5,
                ..Default::default()
            },
        );
        let r = lvl.residual_rms();
        assert!(r < 1e-10, "freestream residual {r}");
    }

    #[test]
    fn wall_disturbs_freestream() {
        let mut lvl = small_wing();
        lvl.apply_bcs(); // zero wall momentum
        let r = lvl.residual_rms();
        assert!(r > 1e-8, "wall should generate residual, got {r}");
    }

    #[test]
    fn smoothing_reduces_residual() {
        let mut lvl = small_wing();
        lvl.apply_bcs();
        let r0 = lvl.residual_rms();
        for _ in 0..30 {
            lvl.smooth_sweep();
        }
        let r1 = lvl.residual_rms();
        assert!(
            r1 < 0.5 * r0,
            "smoother failed to reduce residual: {r0} -> {r1}"
        );
        // State must stay physical.
        for u in lvl.u.to_aos() {
            assert!(u[0] > 0.0 && pressure(&u) > 0.0);
            assert!(u.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn lines_cover_boundary_layer() {
        let lvl = small_wing();
        assert!(
            lvl.line_coverage() > 0.3,
            "line coverage {} too small",
            lvl.line_coverage()
        );
    }

    #[test]
    fn flop_counter_grows_with_sweeps() {
        let mut lvl = small_wing();
        lvl.smooth_sweep();
        let f1 = lvl.flops.total();
        lvl.smooth_sweep();
        let f2 = lvl.flops.total();
        assert!(f1 > 0);
        assert!(f2 > f1);
    }

    #[test]
    fn wall_bcs_enforced_after_sweep() {
        let mut lvl = small_wing();
        for _ in 0..3 {
            lvl.smooth_sweep();
        }
        for v in 0..lvl.nvertices() {
            if lvl.mesh.bc[v] == BoundaryKind::Wall {
                assert_eq!(lvl.u.at(1, v), 0.0);
                assert_eq!(lvl.u.at(2, v), 0.0);
                assert_eq!(lvl.u.at(3, v), 0.0);
                assert_eq!(lvl.u.at(5, v), 0.0);
            }
            if lvl.mesh.bc[v] == BoundaryKind::FarField {
                assert_eq!(lvl.u.get(v), lvl.fs);
            }
        }
    }

    /// The scalar lazy-AoS-view sweeps and the cache-blocked plane sweeps
    /// must agree bit for bit on every phase output after several full
    /// smoothing sweeps (the global parity suite pins the same property on
    /// partitioned meshes; this is the fast in-crate check).
    #[test]
    fn blocked_plane_sweeps_match_scalar_bits() {
        let mk = |kernel| {
            let spec = WingMeshSpec {
                ni: 16,
                nj: 4,
                nk: 10,
                nk_bl: 5,
                jitter: 0.0,
                ..Default::default()
            };
            let mut lvl = RansLevel::new(
                wing_mesh(&spec),
                SolverParams {
                    mach: 0.5,
                    cfl: 10.0,
                    kernel: Some(kernel),
                    ..Default::default()
                },
            );
            lvl.apply_bcs();
            for _ in 0..4 {
                lvl.smooth_sweep();
            }
            lvl.compute_residual();
            lvl
        };
        let a = mk(KernelKind::Scalar);
        let b = mk(KernelKind::Simd);
        for v in 0..a.nvertices() {
            for k in 0..NVARS {
                assert_eq!(
                    a.u.at(k, v).to_bits(),
                    b.u.at(k, v).to_bits(),
                    "u mismatch at v={v} k={k}"
                );
                assert_eq!(
                    a.res.at(k, v).to_bits(),
                    b.res.at(k, v).to_bits(),
                    "res mismatch at v={v} k={k}"
                );
            }
        }
    }
    /// The uncached per-edge formulation the kernels evaluated before the
    /// primitive cache, written against the public `state.rs` definitions:
    /// the oracle of the bitwise suite below.
    struct EdgeOracle {
        lam: f64,
        visc: f64,
        flux: State,
        diffusion: [f64; NVARS - 1],
        grad: [f64; 6],
    }

    fn edge_oracle(ua: &State, ub: &State, s: Vec3, length: f64, mu: f64) -> EdgeOracle {
        let mt = |uv: &State| {
            let nt = nu_tilde(uv).max(0.0);
            uv[0] * nt * fv1(nt, mu / uv[0])
        };
        let me = mu + 0.5 * (mt(ua) + mt(ub));
        let coef = s.norm() / length;
        let dv = velocity(ub) - velocity(ua);
        let ha = (ua[4] + pressure(ua)) / ua[0];
        let hb = (ub[4] + pressure(ub)) / ub[0];
        let mtr = mu + 0.5 * (ua[5].max(0.0) + ub[5].max(0.0));
        let avg = (velocity(ua) + velocity(ub)) * 0.5;
        let (comp, sv) = ([avg.x, avg.y, avg.z], [s.x, s.y, s.z]);
        EdgeOracle {
            lam: spectral_radius(ua, s).max(spectral_radius(ub, s)),
            visc: me * coef / ua[0].min(ub[0]),
            flux: rusanov(ua, ub, s),
            diffusion: [
                me * coef * dv.x,
                me * coef * dv.y,
                me * coef * dv.z,
                me * coef * (hb - ha),
                mtr / sa::SIGMA * coef * (ub[5] / ub[0] - ua[5] / ua[0]),
            ],
            grad: GRAD_PLANES.map(|(i, j)| comp[i] * sv[j]),
        }
    }

    /// `0.5 A(u, s) + d I` as the dense temporaries used to build it.
    fn shifted_half_jacobian(u: &State, s: Vec3, d: f64) -> BlockMat<NVARS> {
        let mut j = flux_jacobian(u, s) * 0.5;
        j.add_diagonal(d);
        j
    }

    fn block_bits(m: &BlockMat<NVARS>) -> Vec<u64> {
        (0..NVARS * NVARS)
            .map(|i| m.get(i / NVARS, i % NVARS).to_bits())
            .collect()
    }

    /// A physical conservative state from `(rho, velocity, p, nu_tilde)`;
    /// `wall` zeroes momentum and the turbulence variable as `apply_bcs` does.
    fn state_from(rho: f64, v: [f64; 3], p: f64, nt: f64, wall: bool) -> State {
        let v = if wall { [0.0; 3] } else { v };
        let q2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
        let e = p / (GAMMA - 1.0) + 0.5 * rho * q2;
        let rnt = if wall { 0.0 } else { rho * nt };
        [rho, rho * v[0], rho * v[1], rho * v[2], e, rnt]
    }

    /// One interior edge `0 -> 1`, carrying the line `[0, 1]` or `[1, 0]`.
    fn one_edge_level(s: Vec3, length: f64, reversed: bool, kernel: KernelKind) -> RansLevel {
        let mesh = UnstructuredMesh {
            points: vec![Vec3::ZERO, Vec3::new(length, 0.0, 0.0)],
            edges: vec![Edge {
                a: 0,
                b: 1,
                normal: s,
                length,
            }],
            volumes: vec![1.0, 1.0],
            bc: vec![BoundaryKind::Interior; 2],
            wall_distance: vec![0.5, 0.5],
        };
        let params = SolverParams {
            kernel: Some(kernel),
            ..Default::default()
        };
        let line = if reversed { vec![1, 0] } else { vec![0, 1] };
        RansLevel::with_lines(mesh, params, vec![line]).expect("one edge, one line")
    }

    /// Endpoints `(rho, velocity, p, nu_tilde)` of a drawn edge.
    type DrawnEnds = [(f64, [f64; 3], f64, f64); 2];

    /// The one-edge level of a drawn case, its endpoint states and its
    /// normal. `pick` bits: wall state at a / b (2, 3), the zeroed
    /// component of `s` (`pick & 3`; 3 = none), line orientation (4),
    /// kernel path (5).
    fn drawn_edge_level(
        ends: DrawnEnds,
        s: [f64; 3],
        length: f64,
        pick: u32,
    ) -> (RansLevel, [State; 2], Vec3) {
        let mut sv = s;
        if pick & 3 < 3 {
            sv[(pick & 3) as usize] = 0.0;
        }
        let s = Vec3::new(sv[0], sv[1], sv[2] + if sv == [0.0; 3] { 0.5 } else { 0.0 });
        let states = [0, 1].map(|i| {
            let (rho, v, p, nt) = ends[i];
            state_from(rho, v, p, nt, pick >> (2 + i) & 1 == 1)
        });
        let reversed = pick >> 4 & 1 == 1;
        let kernel = if pick >> 5 & 1 == 1 {
            KernelKind::Scalar
        } else {
            KernelKind::Simd
        };
        let mut lvl = one_edge_level(s, length, reversed, kernel);
        lvl.u.set(0, &states[0]);
        lvl.u.set(1, &states[1]);
        (lvl, states, s)
    }

    /// `res`, `diag` and `lamsum` bits and the flop count of one edge-pass
    /// route (`fused` or flux-then-diagonal), run from a dirty diagonal so
    /// a pass that skips or misplaces the zeroing shows.
    fn edge_pass_bits(lvl: &mut RansLevel, fused: bool) -> [Vec<u64>; 4] {
        let sc = scratch(lvl);
        sc.diag.fill(BlockMat::scaled_identity(-7.0));
        sc.lamsum.fill(3.0);
        lvl.begin_residual();
        lvl.flops.take();
        if fused {
            lvl.accumulate_fluxes_and_diagonal();
        } else {
            lvl.accumulate_fluxes();
            lvl.accumulate_diagonal();
        }
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let res = (0..NVARS).flat_map(|k| bits(lvl.res.plane(k))).collect();
        let flops = vec![lvl.flops.total()];
        let sc = scratch(lvl);
        [
            res,
            sc.diag.iter().flat_map(block_bits).collect(),
            bits(&sc.lamsum),
            flops,
        ]
    }

    fn assert_one_edge_pass_equals_two(lvl: &mut RansLevel) {
        let two = edge_pass_bits(lvl, false);
        let one = edge_pass_bits(lvl, true);
        for (name, (a, b)) in ["res", "diag", "lamsum", "flops"]
            .iter()
            .zip(one.iter().zip(&two))
        {
            assert_eq!(a, b, "{name}: fused pass differs from flux then diagonal");
        }
    }

    columbia_rt::props! {
        /// `accumulate_fluxes_and_diagonal` equals `accumulate_fluxes`
        /// then `accumulate_diagonal` bit for bit on one edge: all six
        /// `res` planes, all 36 entries of both `diag` blocks (signed
        /// zeros included), `lamsum` and the flop counter — over both
        /// orientations, ν̃ < 0, wall states and zero normal components.
        fn prop_one_edge_pass_equals_two(
            ends in array::<_, 2>((0.3f64..3.0, array::<_, 3>(-1.5f64..1.5), 0.05f64..3.0, -2e-4f64..1e-3)),
            s in array::<_, 3>(-1.0f64..1.0),
            length in 1e-3f64..1.0,
            pick in 0u32..128,
        ) {
            let (mut lvl, _, _) = drawn_edge_level(ends, s, length, pick);
            assert_one_edge_pass_equals_two(&mut lvl);
        }
    }

    #[test]
    fn one_edge_pass_equals_two_on_the_wing_after_three_sweeps() {
        let mut lvl = small_wing();
        lvl.apply_bcs();
        for _ in 0..3 {
            lvl.smooth_sweep();
        }
        assert_one_edge_pass_equals_two(&mut lvl);
    }

    columbia_rt::props! {
        /// Every output of the cached edge kernels — Rusanov flux, the five
        /// diffusion terms, `lam`, `visc`, the gradient products, all 36
        /// entries of both diagonal contributions and of the line's
        /// `(upper, lower)` pair — equals the uncached `state.rs`
        /// formulation bit for bit, on either kernel path.
        fn prop_cached_edge_kernels_match_state_oracle_bits(
            ends in array::<_, 2>((0.3f64..3.0, array::<_, 3>(-1.5f64..1.5), 0.05f64..3.0, -2e-4f64..1e-3)),
            s in array::<_, 3>(-1.0f64..1.0),
            length in 1e-3f64..1.0,
            pick in 0u32..128,
        ) {
            let (mut lvl, [ua, ub], s) = drawn_edge_level(ends, s, length, pick);
            let mu = lvl.params.mu_laminar();
            lvl.begin_residual();
            lvl.accumulate_gradients();
            lvl.accumulate_fluxes();
            lvl.accumulate_diagonal();
            let sc = std::mem::take(scratch(&mut lvl));

            let want = edge_oracle(&ua, &ub, s, length, mu);
            let es = EdgeScalars::new(&sc.prim[0], &sc.prim[1], s, length, mu);
            assert_eq!(es.lam.to_bits(), want.lam.to_bits(), "lam");
            assert_eq!(es.visc(ua[0], ub[0]).to_bits(), want.visc.to_bits(), "visc");
            let (flux, diff) = es.fluxes((&sc.prim[0], &ua), (&sc.prim[1], &ub), s, mu);
            assert_eq!(flux.map(f64::to_bits), want.flux.map(f64::to_bits), "rusanov");
            assert_eq!(diff.map(f64::to_bits), want.diffusion.map(f64::to_bits), "diffusion");

            // The kernels' own accumulators (each starts at +0.0).
            for k in 0..NVARS {
                let d = if k == 0 { 0.0 } else { want.diffusion[k - 1] };
                let (ra, rb) = (0.0 - want.flux[k], 0.0 + want.flux[k]);
                let (ra, rb) = if k == 0 { (ra, rb) } else { (ra + d, rb - d) };
                assert_eq!(lvl.res.at(k, 0).to_bits(), ra.to_bits(), "res[a][{k}]");
                assert_eq!(lvl.res.at(k, 1).to_bits(), rb.to_bits(), "res[b][{k}]");
            }
            for k in 0..GRAD_PLANES.len() {
                assert_eq!(sc.grad.at(k, 0).to_bits(), (0.0 + want.grad[k]).to_bits(), "grad {k}");
                assert_eq!(sc.grad.at(k, 1).to_bits(), (0.0 - want.grad[k]).to_bits(), "grad {k}");
            }
            let d = 0.5 * want.lam + want.visc;
            let mut ja = BlockMat::zero();
            ja += shifted_half_jacobian(&ua, s, d);
            let mut jb = BlockMat::zero();
            jb += shifted_half_jacobian(&ub, -s, d);
            assert_eq!(block_bits(&sc.diag[0]), block_bits(&ja), "diag[a]");
            assert_eq!(block_bits(&sc.diag[1]), block_bits(&jb), "diag[b]");
            for v in 0..2 {
                assert_eq!(sc.lamsum[v].to_bits(), (0.0 + (want.lam + want.visc)).to_bits());
            }

            // Line couplings, oriented line[0] -> line[1].
            let (vi, vj) = (lvl.lines[0][0] as usize, lvl.lines[0][1] as usize);
            let le = lvl.line_edges[0][0];
            let so = s * le.1;
            let (ui, uj) = (lvl.u.get(vi), lvl.u.get(vj));
            let lam = spectral_radius(&ui, so).max(spectral_radius(&uj, so));
            let (mut upper, mut lower) = (BlockMat::zero(), BlockMat::zero());
            line_edge_blocks(
                &lvl.mesh, &sc.prim, lvl.u.plane(0), mu, (vi, vj), le,
                |r, c, v| upper.set(r, c, v),
                |r, c, v| lower.set(r, c, v),
            );
            let shift = -(0.5 * lam + want.visc);
            assert_eq!(block_bits(&upper), block_bits(&shifted_half_jacobian(&uj, so, shift)), "upper");
            assert_eq!(block_bits(&lower), block_bits(&shifted_half_jacobian(&ui, -so, shift)), "lower");
        }
    }

    #[test]
    fn cache_entry_is_64_bytes() {
        assert_eq!(std::mem::size_of::<Prim>(), 64);
    }

    /// The sparse diagonal accumulate rests on this: the seven structural
    /// zeros of `A` off the diagonal stay `+0.0` in every `diag[v]`.
    #[test]
    fn structural_zeros_of_the_diagonal_stay_positive_zero() {
        let mut lvl = small_wing();
        lvl.apply_bcs();
        for _ in 0..3 {
            lvl.smooth_sweep();
        }
        lvl.begin_residual();
        lvl.accumulate_diagonal();
        for (v, d) in scratch(&mut lvl).diag.iter().enumerate() {
            for (r, c) in [(0, 4), (0, 5), (1, 5), (2, 5), (3, 5), (4, 5), (5, 4)] {
                assert_eq!(d.get(r, c).to_bits(), 0, "diag[{v}]({r},{c})");
            }
            assert!(d.get(0, 1) != 0.0 || d.get(0, 2) != 0.0 || d.get(0, 3) != 0.0);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale")]
    fn writing_u_after_begin_residual_trips_the_freshness_check() {
        let mut lvl = small_wing();
        lvl.begin_residual();
        for v in 0..lvl.nvertices() {
            *lvl.u.at_mut(0, v) *= 1.01;
        }
        lvl.accumulate_diagonal();
    }

    /// `with_lines` is public: lines without an edge are dropped on entry
    /// instead of underflowing `len() - 1`.
    #[test]
    fn with_lines_drops_empty_and_single_vertex_lines() {
        let lvl = one_edge_level(Vec3::new(1.0, 0.0, 0.0), 1.0, false, KernelKind::Simd);
        let (mesh, params) = (lvl.mesh.clone(), lvl.params);
        let lines = vec![vec![], vec![1], vec![0, 1]];
        let mut lvl = RansLevel::with_lines(mesh, params, lines).expect("valid lines");
        assert_eq!(lvl.lines, vec![vec![0, 1]]);
        lvl.smooth_sweep();
        assert!(lvl.u.to_aos().iter().flatten().all(|x| x.is_finite()));
    }

    fn box_level_error(lines: Vec<Vec<u32>>) -> Option<LineError> {
        let mesh = isotropic_box_mesh(3, 3, 3);
        RansLevel::with_lines(mesh, SolverParams::default(), lines).err()
    }

    #[test]
    fn with_lines_rejects_a_vertex_outside_the_mesh() {
        let n = isotropic_box_mesh(3, 3, 3).nvertices() as u32;
        let err = box_level_error(vec![vec![0, n]]);
        assert_eq!(err, Some(LineError::OutOfRange { line: 0, vertex: n }));
    }

    /// Line indices count the dropped short lines too.
    #[test]
    fn with_lines_rejects_a_vertex_in_two_lines() {
        let e = isotropic_box_mesh(3, 3, 3).edges[0];
        let (a, b) = (e.a, e.b);
        let err = box_level_error(vec![vec![a], vec![a, b], vec![b, a]]);
        assert_eq!(err, Some(LineError::SharedVertex { line: 2, vertex: b }));
        let err = box_level_error(vec![vec![a, b, a]]);
        assert_eq!(err, Some(LineError::SharedVertex { line: 0, vertex: a }));
    }

    #[test]
    fn with_lines_rejects_a_pair_without_a_mesh_edge() {
        let mesh = isotropic_box_mesh(3, 3, 3);
        let far = mesh.nvertices() as u32 - 1;
        assert!(mesh
            .edges
            .iter()
            .all(|e| (e.a, e.b) != (0, far) && (e.b, e.a) != (0, far)));
        let err = box_level_error(vec![vec![0, far]]);
        assert_eq!(
            err,
            Some(LineError::MissingEdge {
                line: 0,
                from: 0,
                to: far
            })
        );
    }

    /// Padding every batch to [`LANES`] lines fills more lanes than
    /// batching equal-length runs only, on every level of the 8k-point
    /// test wing.
    #[test]
    fn padded_line_batches_fill_the_lanes_on_every_level() {
        let mesh = wing_mesh(&WingMeshSpec {
            jitter: 0.0,
            ..WingMeshSpec::with_target_points(8_000)
        });
        let params = SolverParams {
            mach: 0.5,
            ..Default::default()
        };
        let solver = crate::RansSolver::new(mesh, params, 5);
        for (l, lvl) in solver.levels.iter().enumerate() {
            let mut lens: Vec<usize> = lvl.lines.iter().map(Vec::len).collect();
            lens.sort_unstable();
            let (mut live, mut padded) = (0, 0);
            for run in lens.chunk_by(|a, b| a == b) {
                for batch in run.chunks(LANES) {
                    live += batch.iter().sum::<usize>();
                    padded += LANES * batch[0];
                }
            }
            let equal_length = live as f64 / padded.max(1) as f64;
            let occ = lvl.line_occupancy();
            assert!(occ >= equal_length, "L{l}: {occ} < {equal_length}");
        }
        let fine = solver.levels[0].line_occupancy();
        assert!(fine >= 0.9, "finest level occupancy {fine}");
    }
}
