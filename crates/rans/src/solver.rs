//! The multigrid solver driver: hierarchy construction and FAS transfers.

use crate::level::RansLevel;
pub use crate::level::SolverParams;
use crate::state::{pressure, State, NVARS};
use columbia_comm::ExecContext;
use columbia_linalg::soa::SoaStates;
use columbia_mesh::{agglomerate_hierarchy, BoundaryKind, UnstructuredMesh};
use columbia_mg::{fas_cycle, ConvergenceHistory, CycleParams, MultigridLevel};

impl MultigridLevel for RansLevel {
    fn smooth(&mut self, sweeps: usize) {
        for _ in 0..sweeps {
            self.smooth_sweep();
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
        coarse.begin_restriction();
        for (v, &c) in map.iter().enumerate() {
            coarse.restrict_vertex(c as usize, self, v);
        }
        // The fine residual has been read: the sweep scratch goes down.
        coarse.borrow_scratch(self);
        coarse.average_restricted_state();
        // The coarse state must satisfy the same strong BCs, and the stored
        // restricted state must match it so the correction is consistent.
        coarse.apply_bcs();
        coarse.compute_residual(); // res = -N_c(u_hat) (BC rows zeroed)
        coarse.finish_restriction();
    }

    fn prolong_from(&mut self, coarse: &Self) {
        self.borrow_scratch(coarse);
        for v in 0..self.nvertices() {
            let map = self.to_coarse.as_ref();
            let c = map.expect("level has no coarse map; cannot prolongate")[v] as usize;
            self.apply_correction(v, &coarse.correction(c));
        }
        self.apply_bcs();
    }
}

impl RansLevel {
    /// Start a restriction into this level. The owned rows of `u` and all
    /// of `restricted_u` are zeroed to accumulate `sum vol u` and `sum r`
    /// in place, and `forcing` is zeroed so the next residual is
    /// `-N(u_hat)`. The first one sizes `forcing` and `restricted_u`; the
    /// finest level, never a target, keeps both empty.
    pub(crate) fn begin_restriction(&mut self) {
        let n = self.nvertices();
        if self.forcing.len() == n {
            self.forcing.fill_zero();
            self.restricted_u.fill_zero();
        } else {
            self.forcing = SoaStates::zeros(n);
            self.restricted_u = SoaStates::zeros(n);
        }
        for c in (0..n).filter(|&c| self.active[c]) {
            for k in 0..NVARS {
                *self.u.at_mut(k, c) = 0.0;
            }
        }
    }

    /// Add vertex `v` of the finer level `fine` to vertex `c`: its
    /// `vol u` to `u`, its residual to `restricted_u`.
    #[inline]
    pub(crate) fn restrict_vertex(&mut self, c: usize, fine: &Self, v: usize) {
        let vol = fine.mesh.volumes[v];
        for k in 0..NVARS {
            *self.u.at_mut(k, c) += vol * fine.u.at(k, v);
            *self.restricted_u.at_mut(k, c) += fine.res.at(k, v);
        }
    }

    /// Divide the owned rows' `sum vol u` by the coarse volume (the exact
    /// sum of its children's by construction of the agglomeration).
    pub(crate) fn average_restricted_state(&mut self) {
        for c in (0..self.nvertices()).filter(|&c| self.active[c]) {
            let iv = 1.0 / self.mesh.volumes[c];
            for k in 0..NVARS {
                *self.u.at_mut(k, c) *= iv;
            }
        }
    }

    /// End it, given `u = u_hat`, `res = -N(u_hat)` and `restricted_u =
    /// R(r_fine)`: set the FAS forcing `f = N(u_hat) + R(r_fine)`, then
    /// store `u_hat` for the correction.
    pub(crate) fn finish_restriction(&mut self) {
        for c in 0..self.nvertices() {
            for k in 0..NVARS {
                *self.forcing.at_mut(k, c) = -self.res.at(k, c) + self.restricted_u.at(k, c);
            }
        }
        self.restricted_u.copy_from(&self.u);
    }

    /// Coarse-grid correction carried by vertex `c`: state minus the state
    /// stored at restriction time.
    pub(crate) fn correction(&self, c: usize) -> State {
        std::array::from_fn(|k| self.u.at(k, c) - self.restricted_u.at(k, c))
    }

    /// Add the coarse-grid correction `corr` (damped by `prolong_relax`)
    /// to vertex `v`, with positivity backtracking: halve the step until
    /// density and pressure stay within a factor of 2 of the current state.
    #[inline]
    pub(crate) fn apply_correction(&mut self, v: usize, corr: &State) {
        if self.mesh.bc[v] == BoundaryKind::FarField {
            return;
        }
        let scaled = corr.map(|c| self.params.prolong_relax * c);
        let uv = self.u.get(v);
        let p_old = pressure(&uv);
        let mut alpha = 1.0;
        for _ in 0..6 {
            let trial: State = std::array::from_fn(|k| uv[k] + alpha * scaled[k]);
            let rho_ok = trial[0] > 0.5 * uv[0] && trial[0] < 2.0 * uv[0];
            let p_new = pressure(&trial);
            if rho_ok && p_new > 0.5 * p_old && p_new < 2.0 * p_old {
                break;
            }
            alpha *= 0.5;
        }
        for k in 0..NVARS {
            *self.u.at_mut(k, v) += alpha * scaled[k];
        }
    }
}

/// The NSU3D-style solver: an agglomeration multigrid hierarchy over an
/// unstructured mesh.
pub struct RansSolver {
    /// Levels, finest first.
    pub levels: Vec<RansLevel>,
}

impl RansSolver {
    /// Build a solver with up to `nlevels` agglomerated levels (coarsening
    /// stops early if a level would drop below ~10 vertices).
    pub fn new(mesh: UnstructuredMesh, params: SolverParams, nlevels: usize) -> Self {
        assert!(nlevels >= 1);
        let steps = agglomerate_hierarchy(&mesh, nlevels, 10);
        let mut levels = Vec::with_capacity(steps.len() + 1);
        let mut fine = RansLevel::new(mesh, params);
        for step in steps {
            fine.to_coarse = Some(step.fine_to_coarse);
            levels.push(fine);
            fine = RansLevel::new(step.coarse, params);
        }
        levels.push(fine);
        // No scratch yet: the finest level's first residual or sweep sizes
        // the hierarchy's one sweep scratch, on the thread that runs it
        // (DESIGN §16).
        let mut solver = RansSolver { levels };
        solver.initialize();
        solver
    }

    /// Reset all levels to free stream with boundary conditions applied.
    pub fn initialize(&mut self) {
        for lvl in &mut self.levels {
            let fs = lvl.fs;
            lvl.u.fill_with(&fs);
            lvl.forcing.fill_zero();
            lvl.apply_bcs();
        }
    }

    /// Number of levels actually built.
    pub fn nlevels(&self) -> usize {
        self.levels.len()
    }

    /// Heap bytes of the hierarchy: [`RansLevel::resident_bytes`] summed
    /// over the levels row by row, then the `levels` row, the vector that
    /// holds the levels themselves.
    pub fn resident_bytes(&self) -> Vec<(&'static str, usize)> {
        let mut rows = self.levels[0].resident_bytes();
        for lvl in &self.levels[1..] {
            for (row, (_, bytes)) in rows.iter_mut().zip(lvl.resident_bytes()) {
                row.1 += bytes;
            }
        }
        let slots = self.levels.capacity() * std::mem::size_of::<RansLevel>();
        rows.push(("levels", slots));
        rows
    }

    /// Vertex counts per level, finest first.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.nvertices()).collect()
    }

    /// Run one multigrid cycle.
    pub fn cycle(&mut self, params: &CycleParams) {
        fas_cycle(&mut self.levels, params, &mut ExecContext::default());
    }

    /// Set the working CFL on every level.
    pub fn set_cfl(&mut self, cfl: f64) {
        for lvl in &mut self.levels {
            lvl.cfl_now = cfl;
        }
    }

    /// Run cycles to tolerance with geometric CFL ramping from
    /// `params.cfl_start` to `params.cfl`; returns the fine residual
    /// history.
    pub fn solve(
        &mut self,
        params: &CycleParams,
        tol: f64,
        max_cycles: usize,
    ) -> ConvergenceHistory {
        let sp = self.levels[0].params;
        let mut history = ConvergenceHistory::default();
        history.residuals.push(self.levels[0].residual_rms());
        let mut cfl = sp.cfl_start.min(sp.cfl);
        for _ in 0..max_cycles {
            if *history.residuals.last().unwrap() <= tol {
                break;
            }
            self.set_cfl(cfl);
            fas_cycle(&mut self.levels, params, &mut ExecContext::default());
            history.residuals.push(self.levels[0].residual_rms());
            cfl = (cfl * 1.6).min(sp.cfl);
        }
        history
    }

    /// Total software-counted FLOPs across all levels (and reset counters).
    pub fn take_flops(&mut self) -> u64 {
        self.levels.iter_mut().map(|l| l.flops.take()).sum()
    }

    /// Per-level FLOPs since the last reset, finest first (not reset).
    pub fn level_flops(&self) -> Vec<u64> {
        self.levels.iter().map(|l| l.flops.total()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columbia_mesh::{wing_mesh, WingMeshSpec};
    use columbia_mg::CycleType;

    fn wing(n: usize) -> UnstructuredMesh {
        wing_mesh(&WingMeshSpec {
            jitter: 0.0,
            ..WingMeshSpec::with_target_points(n)
        })
    }

    fn params() -> SolverParams {
        SolverParams {
            mach: 0.5,
            ..Default::default()
        }
    }

    #[test]
    fn hierarchy_has_requested_levels() {
        let s = RansSolver::new(wing(4000), params(), 4);
        assert_eq!(s.nlevels(), 4);
        let sizes = s.level_sizes();
        for w in sizes.windows(2) {
            assert!(w[1] < w[0], "levels must shrink: {sizes:?}");
        }
    }

    #[test]
    fn multigrid_drives_residual_down() {
        let mut s = RansSolver::new(wing(3000), params(), 4);
        let hist = s.solve(&CycleParams::default(), 0.0, 25);
        assert!(
            hist.orders_reduced() > 2.0,
            "only {} orders in 25 cycles: {:?}",
            hist.orders_reduced(),
            &hist.residuals
        );
    }

    #[test]
    fn multigrid_beats_single_grid_per_cycle() {
        let mesh = wing(3000);
        let mut mg = RansSolver::new(mesh.clone(), params(), 4);
        let mut sg = RansSolver::new(mesh, params(), 1);
        let cp = CycleParams::default();
        let hm = mg.solve(&cp, 0.0, 12);
        let hs = sg.solve(&cp, 0.0, 12);
        assert!(
            hm.orders_reduced() > hs.orders_reduced(),
            "mg {} vs single {}",
            hm.orders_reduced(),
            hs.orders_reduced()
        );
    }

    #[test]
    fn w_cycle_at_least_matches_v_cycle() {
        let mesh = wing(3000);
        let mut v = RansSolver::new(mesh.clone(), params(), 4);
        let mut w = RansSolver::new(mesh, params(), 4);
        let cv = CycleParams {
            cycle: CycleType::V,
            ..Default::default()
        };
        let cw = CycleParams {
            cycle: CycleType::W,
            ..Default::default()
        };
        let hv = v.solve(&cv, 0.0, 10);
        let hw = w.solve(&cw, 0.0, 10);
        assert!(
            hw.orders_reduced() >= hv.orders_reduced() - 0.3,
            "W {} vs V {}",
            hw.orders_reduced(),
            hv.orders_reduced()
        );
    }

    #[test]
    fn flop_accounting_scales_with_cycles() {
        let mut s = RansSolver::new(wing(2000), params(), 3);
        s.cycle(&CycleParams::default());
        let f1 = s.take_flops();
        s.cycle(&CycleParams::default());
        s.cycle(&CycleParams::default());
        let f2 = s.take_flops();
        assert!(f1 > 0);
        let ratio = f2 as f64 / f1 as f64;
        assert!(
            (1.5..=2.5).contains(&ratio),
            "2 cycles should cost ~2x one: ratio {ratio}"
        );
    }
}
