//! One multigrid level: cut-cell mesh + state + residual + RK smoother.

use crate::prim::{self, prim_of, Prim};
use crate::state::{pressure, State5, GAMMA, NVARS5};
use columbia_cartesian::CartMesh;
use columbia_linalg::soa::{SoaStates, LANES};
use columbia_rt::env::KernelKind;

/// Jameson-style five-stage Runge-Kutta coefficients.
pub const RK5: [f64; 5] = [0.25, 1.0 / 6.0, 0.375, 0.5, 1.0];

/// Software FLOP estimates per kernel (MADD = 2, as in the paper's
/// methodology with the Itanium counters).
pub mod flops {
    /// Per interior face (two flux evals + spectral radii + blend).
    pub const FACE: u64 = 120;
    /// Per boundary or wall closure evaluation.
    pub const BOUNDARY: u64 = 70;
    /// Per cell per RK stage (update + time step).
    pub const STAGE: u64 = 30;
}

/// One Euler solver level.
pub struct EulerLevel {
    /// Mesh geometry (fine: extracted; coarse: SFC-coarsened).
    pub mesh: CartMesh,
    /// Conservative state, one plane per component.
    pub u: SoaStates<NVARS5>,
    /// FAS forcing: empty until the first `restrict_into` that targets
    /// this level sizes it, so the finest level never carries one; an
    /// empty plane reads as zero.
    pub forcing: SoaStates<NVARS5>,
    /// Restricted state stored at restriction time, sized with `forcing`
    /// (the finest level never reads one).
    pub restricted_u: SoaStates<NVARS5>,
    /// Residual scratch `r = forcing - N(u)`.
    pub res: SoaStates<NVARS5>,
    /// `u^n` storage for the RK stages.
    pub u0: SoaStates<NVARS5>,
    /// Spectral-radius accumulator for local time steps. Exchanged as a
    /// width-1 `HaloField` plane, coalesced with the residual planes.
    pub lam: Vec<f64>,
    /// Free-stream state.
    pub fs: State5,
    /// CFL number per RK cycle.
    pub cfl: f64,
    /// Under-relaxation of the prolonged correction.
    pub prolong_relax: f64,
    /// Map to the next coarser level (if any).
    pub to_coarse: Option<Vec<u32>>,
    /// Software FLOP counter.
    pub flops: u64,
    /// Calls of [`Self::guard_state`] that clamped a density or floored a
    /// pressure since the last [`crate::EulerSolver::guard_trips`].
    pub guard_trips: u64,
    /// Ownership mask (ghosts are inactive in the parallel solver).
    pub active: Vec<bool>,
    /// Dense-kernel path for the RK stage updates, [`KernelKind::Simd`]
    /// at construction; both paths are bit-identical
    /// (`tests/kernel_parity.rs`), the field is public so harnesses can
    /// pin one explicitly.
    pub kernel: KernelKind,
    /// Per-cell primitives of `u`, refreshed by every
    /// [`Self::accumulate_residual`] before its face loops read them.
    prim: Vec<Prim>,
    /// `[sum vol * u, sum r]` per cell of this level while the next finer
    /// level restricts into it; sized by the first restriction.
    pub(crate) restrict_acc: Vec<[State5; 2]>,
}

impl EulerLevel {
    /// Build a level with the given free stream.
    pub fn new(mesh: CartMesh, fs: State5, cfl: f64) -> Self {
        let n = mesh.ncells();
        let mut filled = SoaStates::zeros(n);
        filled.fill_with(&fs);
        EulerLevel {
            u: filled.clone(),
            forcing: SoaStates::zeros(0),
            restricted_u: SoaStates::zeros(0),
            res: SoaStates::zeros(n),
            u0: filled,
            lam: vec![0.0; n],
            fs,
            cfl,
            prolong_relax: 0.75,
            to_coarse: None,
            flops: 0,
            guard_trips: 0,
            active: vec![true; n],
            kernel: KernelKind::Simd,
            prim: vec![[0.0; 5]; n],
            restrict_acc: Vec::new(),
            mesh,
        }
    }

    /// Number of cells.
    pub fn ncells(&self) -> usize {
        self.mesh.ncells()
    }

    /// Assemble `res = forcing - N(u)` and the spectral-radius sums.
    /// Split into accumulation and finalisation so the parallel solver can
    /// exchange ghost contributions in between.
    pub fn compute_residual(&mut self) {
        self.accumulate_residual();
        self.finalize_residual();
    }

    /// Face-loop accumulation of `-N(u)` (flux part) and spectral radii.
    /// Refreshes the primitive cache from `u` first, so callers keep the
    /// one contract they had: `u` (ghosts included) is current on entry.
    pub fn accumulate_residual(&mut self) {
        let Self {
            mesh,
            u,
            res,
            lam,
            fs,
            active,
            prim,
            flops: fc,
            ..
        } = self;
        let n = mesh.ncells();
        res.fill_zero();
        for l in lam.iter_mut() {
            *l = 0.0;
        }
        for (c, p) in prim.iter_mut().enumerate() {
            *p = prim_of(&u.get(c));
        }
        let pfs = prim_of(fs);
        let mut rp = res.planes_mut();
        for f in &mesh.faces {
            let a = f.a as usize;
            let snorm = f.normal.norm();
            let ua = u.get(a);
            let (fa, la) = prim::side(&ua, &prim[a], f.normal, snorm);
            if f.is_boundary() {
                // Far-field characteristic state via the upwind flux.
                let (ff, lf) = prim::side(fs, &pfs, f.normal, snorm);
                let fb = prim::blend(la.max(lf), (&ua, &fa), (fs, &ff));
                for (k, rk) in rp.iter_mut().enumerate() {
                    rk[a] -= fb[k];
                }
                lam[a] += la;
                *fc += flops::BOUNDARY;
                continue;
            }
            let b = f.b as usize;
            let ub = u.get(b);
            let (fb, lb) = prim::side(&ub, &prim[b], f.normal, snorm);
            let l2 = la.max(lb);
            let fx = prim::blend(l2, (&ua, &fa), (&ub, &fb));
            for (k, rk) in rp.iter_mut().enumerate() {
                rk[a] -= fx[k];
                rk[b] += fx[k];
            }
            lam[a] += l2;
            lam[b] += l2;
            *fc += flops::FACE;
        }
        // Wall closure fluxes (cut cells). Only the owning rank evaluates
        // a cell's wall term — ghosts would double-count after exchange.
        for c in 0..n {
            if !active[c] {
                continue;
            }
            let w = mesh.wall_normal[c];
            if w.norm2() > 0.0 {
                let (fw, lw) = prim::wall(&prim[c], w);
                for (k, rk) in rp.iter_mut().enumerate() {
                    rk[c] -= fw[k];
                }
                lam[c] += lw;
                *fc += flops::BOUNDARY;
            }
        }
    }

    /// Add forcing and zero inactive rows. An empty forcing (finest level)
    /// adds a literal +0.0: the same operation as the zero plane.
    pub fn finalize_residual(&mut self) {
        let Self {
            mesh,
            res,
            forcing,
            active,
            ..
        } = self;
        let forced = !forcing.is_empty();
        let mut rp = res.planes_mut();
        for c in 0..mesh.ncells() {
            if !active[c] {
                for rk in rp.iter_mut() {
                    rk[c] = 0.0;
                }
                continue;
            }
            for (k, rk) in rp.iter_mut().enumerate() {
                rk[c] += if forced { forcing.at(k, c) } else { 0.0 };
            }
        }
    }

    /// RMS of the active residual rows.
    pub fn residual_rms(&mut self) -> f64 {
        self.compute_residual();
        let (ss, cnt) = self.residual_sumsq();
        if cnt == 0 {
            0.0
        } else {
            (ss / cnt as f64).sqrt()
        }
    }

    /// Sum of squares and count over active rows (no recompute).
    pub fn residual_sumsq(&self) -> (f64, usize) {
        let mut ss = 0.0;
        let mut cnt = 0;
        for c in 0..self.res.len() {
            if self.active[c] {
                for k in 0..NVARS5 {
                    let x = self.res.at(k, c);
                    ss += x * x;
                }
                cnt += NVARS5;
            }
        }
        (ss, cnt)
    }

    /// Apply one RK stage with coefficient `alpha`, given `res` and `lam`
    /// are assembled for the current `u` and `u0` holds the stage-0 state.
    ///
    /// The SIMD path processes runs of [`LANES`] consecutive active cells
    /// with the per-cell arithmetic unchanged (`u0 + (alpha * dt_v) * res`
    /// element-wise, then the positivity guard) — the stage update is
    /// cell-local, so chunking is bit-identical by construction.
    pub fn apply_stage(&mut self, alpha: f64) {
        let n = self.ncells();
        let mut trips = 0;
        match self.kernel {
            KernelKind::Scalar => {
                for c in 0..n {
                    if !self.active[c] {
                        continue;
                    }
                    trips += u64::from(self.stage_cell(c, alpha));
                }
            }
            KernelKind::Simd => {
                let mut c = 0;
                while c + LANES <= n {
                    if self.active[c..c + LANES].iter().all(|&a| a) {
                        let mut dt_v = [0.0; LANES];
                        for (l, d) in dt_v.iter_mut().enumerate() {
                            *d = self.cfl / self.lam[c + l].max(1e-300);
                        }
                        for k in 0..NVARS5 {
                            let u0p = self.u0.plane(k);
                            let rp = self.res.plane(k);
                            let up = self.u.plane_mut(k);
                            for l in 0..LANES {
                                up[c + l] = u0p[c + l] + alpha * dt_v[l] * rp[c + l];
                            }
                        }
                        for l in 0..LANES {
                            trips += u64::from(guard(&mut self.u, c + l));
                        }
                        c += LANES;
                    } else {
                        if self.active[c] {
                            trips += u64::from(self.stage_cell(c, alpha));
                        }
                        c += 1;
                    }
                }
                for c in c..n {
                    if self.active[c] {
                        trips += u64::from(self.stage_cell(c, alpha));
                    }
                }
            }
        }
        self.guard_trips += trips;
        self.flops += n as u64 * flops::STAGE;
    }

    /// Scalar stage update of one cell (shared by both kernel paths);
    /// true when the guard altered the new state.
    #[inline]
    fn stage_cell(&mut self, c: usize, alpha: f64) -> bool {
        let dt_v = self.cfl / self.lam[c].max(1e-300); // dt / V
        for k in 0..NVARS5 {
            *self.u.at_mut(k, c) = self.u0.at(k, c) + alpha * dt_v * self.res.at(k, c);
        }
        guard(&mut self.u, c)
    }

    /// One full multistage RK smoothing step (serial path).
    pub fn rk_step(&mut self) {
        self.u0.copy_from(&self.u);
        for &alpha in RK5.iter() {
            self.compute_residual();
            self.apply_stage(alpha);
        }
    }

    /// Positivity guard on cell `c`; a call that clamps the density or
    /// floors the pressure is one [`Self::guard_trips`].
    pub fn guard_state(&mut self, c: usize) {
        self.guard_trips += u64::from(guard(&mut self.u, c));
    }

    /// Free-stream consistency defect: with `u == fs` everywhere, `N(u)`
    /// reduces to `F(fs) . (closure defect)`, which must vanish on a
    /// geometrically closed mesh up to the wall pressure terms.
    pub fn freestream_defect(&mut self) -> f64 {
        let saved = self.u.clone();
        let fs = self.fs;
        self.u.fill_with(&fs);
        let rms = self.residual_rms();
        self.u = saved;
        rms
    }

    /// Surface pressure force vector (sum of p * wall closure).
    pub fn wall_force(&self) -> columbia_mesh::Vec3 {
        let mut f = columbia_mesh::Vec3::ZERO;
        for c in 0..self.ncells() {
            let w = self.mesh.wall_normal[c];
            if w.norm2() > 0.0 {
                f += w * pressure(&self.u.get(c));
            }
        }
        f
    }
}

/// Positivity guard on cell `c` of `u`: density clamped to `[0.05, 20]`,
/// pressure floored at `0.02 / GAMMA`. True when it altered the state; the
/// per-cell loops sum that in a register and add it to
/// [`EulerLevel::guard_trips`] once, which costs the stage update and the
/// prolongation half of what a counter store per cell does.
#[inline]
pub(crate) fn guard(u: &mut SoaStates<NVARS5>, c: usize) -> bool {
    let mut view = u.point_mut(c);
    let mut u = view.load();
    let mut tripped = u[0] < 0.05 || u[0] > 20.0;
    u[0] = u[0].clamp(0.05, 20.0);
    let q2 = (u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) / u[0];
    let p = (GAMMA - 1.0) * (u[4] - 0.5 * q2);
    let pmin = 0.02 / GAMMA;
    if p < pmin {
        u[4] = pmin / (GAMMA - 1.0) + 0.5 * q2;
        tripped = true;
    }
    view.store(&u);
    tripped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{freestream5, rusanov, spectral_radius, wall_flux};
    use columbia_cartesian::{
        build_octree, extract_mesh, CartFace, CellKind, CutCellConfig, Geometry, TriMesh,
    };
    use columbia_mesh::Vec3;
    use columbia_rt::props::array;
    use columbia_sfc::CurveKind;

    fn sphere_level(max_level: u32, mach: f64) -> EulerLevel {
        let prof: Vec<(f64, f64)> = (0..=12)
            .map(|i| {
                let t = std::f64::consts::PI * i as f64 / 12.0;
                (-0.3 * t.cos(), 0.3 * t.sin())
            })
            .collect();
        let geom = Geometry::new(&[TriMesh::body_of_revolution(&prof, 12)]);
        let config = CutCellConfig {
            min_level: 3,
            max_level,
            origin: Vec3::new(-1.0, -1.0, -1.0),
            size: 2.0,
        };
        let tree = build_octree(&geom, &config);
        let mesh = extract_mesh(&tree, &geom, CurveKind::Hilbert, 0.1);
        EulerLevel::new(mesh, freestream5(mach, 0.0, 0.0), 1.5)
    }

    #[test]
    fn freestream_defect_is_pressure_closure_only() {
        // At u = fs the convective parts telescope; only wall pressure
        // terms on cut cells remain, and they are balanced by the momentum
        // flux difference — the defect must be small relative to the
        // free-stream flux scale but nonzero (the body disturbs the flow).
        let mut lvl = sphere_level(4, 0.5);
        let d = lvl.freestream_defect();
        assert!(d.is_finite());
        assert!(d > 0.0, "a body must disturb the free stream");
    }

    #[test]
    fn rk_smoothing_reduces_residual() {
        let mut lvl = sphere_level(4, 0.5);
        let r0 = lvl.residual_rms();
        for _ in 0..40 {
            lvl.rk_step();
        }
        let r1 = lvl.residual_rms();
        assert!(r1 < 0.5 * r0, "residual {r0} -> {r1}");
        for u in lvl.u.to_aos() {
            assert!(u.iter().all(|x| x.is_finite()));
            assert!(pressure(&u) > 0.0);
        }
    }

    #[test]
    fn wall_force_points_downstream_for_supersonic_flow() {
        // Blunt body drag: after smoothing, pressure force x-component
        // must be positive (drag) for supersonic flow along +x.
        let mut lvl = sphere_level(4, 2.0);
        for _ in 0..60 {
            lvl.rk_step();
        }
        let f = lvl.wall_force();
        assert!(f.x > 0.0, "drag should be positive, got {f:?}");
        // Symmetric body at zero incidence: lift ~ 0 relative to drag.
        assert!(f.y.abs() < 0.2 * f.x.abs(), "asymmetric force {f:?}");
    }

    #[test]
    fn uniform_grid_preserves_freestream_exactly() {
        let g = Geometry::new(&[]);
        let config = CutCellConfig {
            min_level: 3,
            max_level: 3,
            origin: Vec3::ZERO,
            size: 1.0,
        };
        let tree = build_octree(&g, &config);
        let mesh = extract_mesh(&tree, &g, CurveKind::Morton, 0.1);
        let mut lvl = EulerLevel::new(mesh, freestream5(0.8, 0.1, 0.05), 1.5);
        // Without a body the scheme must hold the free stream to round-off.
        assert!(lvl.residual_rms() < 1e-12);
        lvl.rk_step();
        for u in lvl.u.to_aos() {
            for k in 0..NVARS5 {
                assert!((u[k] - lvl.fs[k]).abs() < 1e-12);
            }
        }
    }

    /// `accumulate_residual` as it was before the cache: `res` and `lam`
    /// of `lvl.u` from `state::{rusanov, spectral_radius, wall_flux}` only,
    /// in the same loop order.
    fn uncached_residual(lvl: &EulerLevel) -> (Vec<State5>, Vec<f64>) {
        let n = lvl.ncells();
        let (mut res, mut lam) = (vec![[0.0; NVARS5]; n], vec![0.0; n]);
        for f in &lvl.mesh.faces {
            let a = f.a as usize;
            let ua = lvl.u.get(a);
            if f.is_boundary() {
                let fb = rusanov(&ua, &lvl.fs, f.normal);
                for k in 0..NVARS5 {
                    res[a][k] -= fb[k];
                }
                lam[a] += spectral_radius(&ua, f.normal);
                continue;
            }
            let b = f.b as usize;
            let ub = lvl.u.get(b);
            let fx = rusanov(&ua, &ub, f.normal);
            for k in 0..NVARS5 {
                res[a][k] -= fx[k];
                res[b][k] += fx[k];
            }
            let l2 = spectral_radius(&ua, f.normal).max(spectral_radius(&ub, f.normal));
            lam[a] += l2;
            lam[b] += l2;
        }
        for c in 0..n {
            let w = lvl.mesh.wall_normal[c];
            if lvl.active[c] && w.norm2() > 0.0 {
                let uc = lvl.u.get(c);
                let fw = wall_flux(&uc, w);
                for k in 0..NVARS5 {
                    res[c][k] -= fw[k];
                }
                lam[c] += spectral_radius(&uc, w);
            }
        }
        (res, lam)
    }

    fn assert_residual_matches_uncached_bits(lvl: &mut EulerLevel) {
        let (res, lam) = uncached_residual(lvl);
        lvl.accumulate_residual();
        for c in 0..lvl.ncells() {
            for k in 0..NVARS5 {
                assert_eq!(
                    lvl.res.at(k, c).to_bits(),
                    res[c][k].to_bits(),
                    "res[{c}][{k}]"
                );
            }
            assert_eq!(lvl.lam[c].to_bits(), lam[c].to_bits(), "lam[{c}]");
        }
    }

    /// Cells 0 and 1 joined by one interior face `s`, one far-field face
    /// `sb` on cell `far`, the wall closure `w` on cell `cut`; cell 1 is an
    /// inactive ghost when `ghost`.
    fn two_cell_level(
        [s, sb, w]: [Vec3; 3],
        far: u32,
        cut: usize,
        ghost: bool,
        fs: State5,
    ) -> EulerLevel {
        let mut mesh = CartMesh::default();
        for c in 0..2 {
            mesh.centers.push(Vec3::new(c as f64, 0.0, 0.0));
            mesh.volumes.push(1.0);
            mesh.kinds.push(if c == cut {
                CellKind::Cut
            } else {
                CellKind::Full
            });
            mesh.weights.push(1.0);
            mesh.wall_normal.push(if c == cut { w } else { Vec3::ZERO });
            mesh.sfc_keys.push(c as u64);
            mesh.levels.push(0);
            mesh.coords.push([c as u32, 0, 0]);
        }
        let face = |a, b, normal| CartFace { a, b, normal };
        mesh.faces = vec![face(0, 1, s), face(far, u32::MAX, sb)];
        let mut lvl = EulerLevel::new(mesh, fs, 1.5);
        lvl.active[1] = !ghost;
        lvl
    }

    columbia_rt::props! {
        /// Every plane of `res` and `lam` from the cached face loops equals
        /// the uncached `state.rs` formulation bit for bit: interior face,
        /// far-field face and wall closure, over near-vacuum densities,
        /// negative pressures (where `sound_speed`'s floor decides `c`),
        /// supersonic and reversed normal velocities, area vectors with
        /// zero components, axis-aligned ones (every mesh face, coarse
        /// levels included) and general ones.
        fn prop_cached_face_loops_match_state_oracle_bits(
            cells in array::<_, 2>((1e-3f64..3.0, array::<_, 3>(-3.0f64..3.0), -0.2f64..2.0)),
            vecs in array::<_, 3>(array::<_, 3>(-1.0f64..1.0)),
            wind in (0.3f64..3.0, -0.2f64..0.2, -0.1f64..0.1),
            pick in 0u32..320,
        ) {
            // `pick`: near-vacuum cell 0 / 1, far-field cell, cut cell,
            // ghost, then the shape of the three area vectors (0..2: that
            // component zero, 3: general, 4: axis-aligned along x).
            let bit = |i: u32| pick >> i & 1 == 1;
            let shape = (pick >> 5) as usize % 5;
            let vecs = vecs.map(|mut v| {
                match shape {
                    0..=2 => v[shape] = 0.0,
                    3 => {}
                    _ => v = [if v[0] == 0.0 { 0.5 } else { v[0] }, 0.0, 0.0],
                }
                Vec3::new(v[0], v[1], v[2])
            });
            let fs = freestream5(wind.0, wind.1, wind.2);
            let mut lvl = two_cell_level(vecs, u32::from(bit(2)), usize::from(bit(3)), bit(4), fs);
            for (c, &(rho, v, p)) in cells.iter().enumerate() {
                let rho = if bit(c as u32) { 1e-9 * rho } else { rho };
                let q2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
                let e = p / (GAMMA - 1.0) + 0.5 * rho * q2;
                lvl.u.set(c, &[rho, rho * v[0], rho * v[1], rho * v[2], e]);
            }
            assert_residual_matches_uncached_bits(&mut lvl);
        }
    }

    #[test]
    fn cached_residual_matches_uncached_on_a_smoothed_sphere() {
        let mut lvl = sphere_level(4, 0.8);
        for _ in 0..5 {
            lvl.rk_step();
        }
        assert_residual_matches_uncached_bits(&mut lvl);
    }

    #[test]
    fn cache_entry_is_forty_bytes() {
        assert_eq!(std::mem::size_of::<Prim>(), 40);
    }

    #[test]
    fn guard_counts_the_calls_that_alter_a_state() {
        let mut lvl = sphere_level(4, 0.5);
        for _ in 0..10 {
            lvl.rk_step();
        }
        assert_eq!(
            lvl.guard_trips, 0,
            "a converging run stays inside the guard"
        );
        let fs = lvl.fs;
        lvl.u.set(3, &[1e-3, fs[1], fs[2], fs[3], fs[4]]);
        lvl.u.set(7, &[fs[0], fs[1], fs[2], fs[3], 0.0]);
        lvl.u.set(9, &[25.0, fs[1], fs[2], fs[3], -1.0]);
        for c in [3, 5, 7, 9] {
            lvl.guard_state(c);
        }
        assert_eq!(
            lvl.guard_trips, 3,
            "cell 5 was clean; a call that trips both limits is one trip"
        );
        assert_eq!(lvl.u.at(0, 3), 0.05);
        assert_eq!(lvl.u.at(0, 9), 20.0);
        for c in [3, 7, 9] {
            assert!((pressure(&lvl.u.get(c)) - 0.02 / GAMMA).abs() < 1e-12);
        }
    }
}
