//! Multigrid driver, hierarchy construction and force integration.

use crate::level::{guard, EulerLevel};
use crate::state::{freestream5, pressure, State5, NVARS5};
use columbia_cartesian::{CartHierarchy, CartMesh};
use columbia_comm::ExecContext;
use columbia_linalg::soa::SoaStates;
use columbia_mesh::Vec3;
use columbia_mg::{fas_cycle, ConvergenceHistory, CycleParams, MultigridLevel};
use std::sync::Arc;

/// Flow and numerical parameters of a Cart3D-style analysis.
#[derive(Clone, Copy, Debug)]
pub struct EulerParams {
    /// Free-stream Mach number.
    pub mach: f64,
    /// Angle of attack (radians).
    pub alpha: f64,
    /// Sideslip angle (radians).
    pub beta: f64,
    /// RK CFL number.
    pub cfl: f64,
    /// Multigrid levels to build.
    pub nlevels: usize,
}

impl Default for EulerParams {
    fn default() -> Self {
        EulerParams {
            mach: 0.5,
            alpha: 0.0,
            beta: 0.0,
            cfl: 1.5,
            nlevels: 4,
        }
    }
}

/// Integrated aerodynamic loads (pressure only; inviscid flow).
#[derive(Clone, Copy, Debug, Default)]
pub struct Forces {
    /// Force vector (freestream dynamic-pressure normalised coefficients
    /// are left to the caller, who knows the reference area).
    pub force: Vec3,
    /// Moment about the origin.
    pub moment: Vec3,
}

impl MultigridLevel for EulerLevel {
    fn smooth(&mut self, sweeps: usize) {
        for _ in 0..sweeps {
            self.rk_step();
        }
    }

    fn residual_norm(&mut self) -> f64 {
        self.residual_rms()
    }

    fn restrict_into(&mut self, coarse: &mut Self) {
        self.compute_residual();
        let map = self
            .to_coarse
            .as_ref()
            .expect("level has no coarse map; cannot restrict");
        let nc = coarse.ncells();
        if coarse.forcing.len() == nc {
            coarse.forcing.fill_zero();
            coarse.restricted_u.fill_zero();
        } else {
            coarse.forcing = SoaStates::zeros(nc);
            coarse.restricted_u = SoaStates::zeros(nc);
        }
        // `sum vol u` accumulates into the coarse state and `sum r` into
        // `restricted_u`, which the coarse residual does not read.
        coarse.u.fill_zero();
        for (c, &g) in map.iter().enumerate() {
            let (vol, g) = (self.mesh.volumes[c], g as usize);
            for k in 0..NVARS5 {
                *coarse.u.at_mut(k, g) += vol * self.u.at(k, c);
                *coarse.restricted_u.at_mut(k, g) += self.res.at(k, c);
            }
        }
        for g in 0..nc {
            let iv = 1.0 / coarse.mesh.volumes[g];
            for k in 0..NVARS5 {
                *coarse.u.at_mut(k, g) *= iv;
            }
            coarse.guard_state(g);
        }
        coarse.compute_residual(); // res = -N_c(u_hat)
        for g in 0..nc {
            for k in 0..NVARS5 {
                *coarse.forcing.at_mut(k, g) = -coarse.res.at(k, g) + coarse.restricted_u.at(k, g);
            }
        }
        coarse.restricted_u.copy_from(&coarse.u);
    }

    fn prolong_from(&mut self, coarse: &Self) {
        let Self {
            to_coarse,
            u,
            guard_trips,
            prolong_relax: relax,
            ..
        } = self;
        let map = to_coarse
            .as_ref()
            .expect("level has no coarse map; cannot prolongate");
        let mut trips = 0;
        for (c, &g) in map.iter().enumerate() {
            let g = g as usize;
            for k in 0..NVARS5 {
                *u.at_mut(k, c) += *relax * (coarse.u.at(k, g) - coarse.restricted_u.at(k, g));
            }
            trips += u64::from(guard(u, c));
        }
        *guard_trips += trips;
    }
}

/// The Cart3D-style solver: SFC multigrid over a cut-cell mesh.
pub struct EulerSolver {
    /// Levels, finest first.
    pub levels: Vec<EulerLevel>,
    /// Parameters.
    pub params: EulerParams,
}

impl EulerSolver {
    /// Build a solver from a fine mesh: coarsen it into its own
    /// hierarchy of `params.nlevels` levels.
    pub fn new(mesh: CartMesh, params: EulerParams) -> Self {
        Self::on_hierarchy(&CartHierarchy::new(mesh, params.nlevels), params)
    }

    /// Build a solver on a shared hierarchy, using its first
    /// `params.nlevels` levels (at least one). The levels borrow the
    /// hierarchy's meshes and maps; only the flow state is allocated.
    pub fn on_hierarchy(hierarchy: &CartHierarchy, params: EulerParams) -> Self {
        let fs = freestream5(params.mach, params.alpha, params.beta);
        let n = hierarchy.nlevels().min(params.nlevels.max(1));
        let levels = (0..n)
            .map(|l| {
                let mut level = EulerLevel::new(Arc::clone(&hierarchy.meshes()[l]), fs, params.cfl);
                level.to_coarse = (l + 1 < n).then(|| Arc::clone(&hierarchy.to_coarse()[l]));
                level
            })
            .collect();
        EulerSolver { levels, params }
    }

    /// Number of levels actually built.
    pub fn nlevels(&self) -> usize {
        self.levels.len()
    }

    /// Cell counts per level.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.ncells()).collect()
    }

    /// Run one multigrid cycle.
    pub fn cycle(&mut self, cp: &CycleParams) {
        fas_cycle(&mut self.levels, cp, &mut ExecContext::default());
    }

    /// Run cycles until `tol` or `max_cycles`.
    pub fn solve(&mut self, cp: &CycleParams, tol: f64, max_cycles: usize) -> ConvergenceHistory {
        let mut h = ConvergenceHistory::default();
        h.residuals.push(self.levels[0].residual_rms());
        for _ in 0..max_cycles {
            if *h.residuals.last().unwrap() <= tol {
                break;
            }
            fas_cycle(&mut self.levels, cp, &mut ExecContext::default());
            h.residuals.push(self.levels[0].residual_rms());
        }
        h
    }

    /// Integrated surface loads on the fine level.
    pub fn forces(&self) -> Forces {
        let lvl = &self.levels[0];
        let mut force = Vec3::ZERO;
        let mut moment = Vec3::ZERO;
        for c in 0..lvl.ncells() {
            let w = lvl.mesh.wall_normal[c];
            if w.norm2() > 0.0 {
                let p = pressure(&lvl.u.get(c));
                let f = w * p;
                force += f;
                moment += lvl.mesh.centers[c].cross(f);
            }
        }
        Forces { force, moment }
    }

    /// Free-stream state of the analysis.
    pub fn freestream(&self) -> State5 {
        self.levels[0].fs
    }

    /// Take and reset the total FLOP count.
    pub fn take_flops(&mut self) -> u64 {
        let mut t = 0;
        for l in self.levels.iter_mut() {
            t += l.flops;
            l.flops = 0;
        }
        t
    }

    /// Take and reset the positivity-guard trips of every level: the
    /// [`EulerLevel::guard_state`] calls that altered a state since the
    /// last take. Zero on a run that stayed inside the guard's envelope.
    pub fn guard_trips(&mut self) -> u64 {
        self.levels
            .iter_mut()
            .map(|l| std::mem::take(&mut l.guard_trips))
            .sum()
    }

    /// FLOPs per level since last reset (not reset).
    pub fn level_flops(&self) -> Vec<u64> {
        self.levels.iter().map(|l| l.flops).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columbia_cartesian::{build_octree, extract_mesh, CutCellConfig, Geometry, TriMesh};
    use columbia_sfc::CurveKind;

    fn sphere_mesh(max_level: u32) -> CartMesh {
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
            origin: columbia_mesh::Vec3::new(-1.0, -1.0, -1.0),
            size: 2.0,
        };
        let tree = build_octree(&geom, &config);
        extract_mesh(&tree, &geom, CurveKind::Hilbert, 0.1)
    }

    #[test]
    fn hierarchy_builds_requested_levels() {
        let s = EulerSolver::new(sphere_mesh(5), EulerParams::default());
        assert!(s.nlevels() >= 3, "sizes {:?}", s.level_sizes());
        let sizes = s.level_sizes();
        for w in sizes.windows(2) {
            assert!(w[1] < w[0]);
        }
    }

    #[test]
    fn multigrid_converges_subsonic_sphere() {
        let mut s = EulerSolver::new(sphere_mesh(4), EulerParams::default());
        let h = s.solve(&CycleParams::default(), 0.0, 30);
        assert!(
            h.orders_reduced() > 1.5,
            "only {} orders: {:?}",
            h.orders_reduced(),
            h.residuals.iter().step_by(5).collect::<Vec<_>>()
        );
    }

    #[test]
    fn multigrid_beats_single_grid_per_cycle() {
        let mesh = sphere_mesh(4);
        let mut mg = EulerSolver::new(mesh.clone(), EulerParams::default());
        let mut sg = EulerSolver::new(
            mesh,
            EulerParams {
                nlevels: 1,
                ..Default::default()
            },
        );
        let cp = CycleParams::default();
        let hm = mg.solve(&cp, 0.0, 12);
        let hs = sg.solve(&cp, 0.0, 12);
        assert!(
            hm.orders_reduced() > hs.orders_reduced(),
            "mg {} vs sg {}",
            hm.orders_reduced(),
            hs.orders_reduced()
        );
    }

    #[test]
    fn lift_increases_with_alpha() {
        let mesh = sphere_mesh(4);
        let force = |alpha: f64| {
            let mut s = EulerSolver::new(
                mesh.clone(),
                EulerParams {
                    mach: 2.0,
                    alpha,
                    ..Default::default()
                },
            );
            s.solve(&CycleParams::default(), 0.0, 20);
            s.forces().force
        };
        let f0 = force(0.0);
        let f1 = force(0.1);
        assert!(
            f1.z > f0.z + 1e-4,
            "lift must grow with alpha: {} -> {}",
            f0.z,
            f1.z
        );
    }

    #[test]
    fn w_cycle_at_least_matches_v_cycle() {
        use columbia_mg::CycleType;
        let mesh = sphere_mesh(4);
        let mut v = EulerSolver::new(mesh.clone(), EulerParams::default());
        let mut w = EulerSolver::new(mesh, EulerParams::default());
        let hv = v.solve(
            &CycleParams {
                cycle: CycleType::V,
                ..Default::default()
            },
            0.0,
            10,
        );
        let hw = w.solve(
            &CycleParams {
                cycle: CycleType::W,
                ..Default::default()
            },
            0.0,
            10,
        );
        assert!(
            hw.orders_reduced() >= hv.orders_reduced() - 0.3,
            "W {} vs V {}",
            hw.orders_reduced(),
            hv.orders_reduced()
        );
    }

    #[test]
    fn forces_produce_drag_and_flop_counts_grow() {
        let mut s = EulerSolver::new(
            sphere_mesh(4),
            EulerParams {
                mach: 2.0,
                ..Default::default()
            },
        );
        s.solve(&CycleParams::default(), 0.0, 20);
        let f = s.forces();
        assert!(f.force.x > 0.0, "supersonic drag expected: {f:?}");
        assert!(s.take_flops() > 0);
    }
}
