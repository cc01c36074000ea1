//! Automated Cartesian (Cart3D-style) analysis: geometry in, loads out.

use columbia_cartesian::{
    build_octree, extract_mesh, CartHierarchy, CartMesh, CutCellConfig, Geometry,
};
use columbia_euler::{EulerParams, EulerSolver, Forces};
use columbia_mg::{ConvergenceHistory, CycleParams};
use columbia_sfc::CurveKind;
use std::time::Instant;

/// A configured Cartesian analysis.
///
/// The entire chain — octree refinement around the watertight components,
/// cut-cell mesh extraction, SFC coarsening, multigrid solution, force
/// integration — runs without user intervention, which is what enables the
/// paper's 10^4..10^6-case database fills.
#[derive(Clone, Debug)]
pub struct CartAnalysis {
    /// Flow parameters.
    pub params: EulerParams,
    /// Octree resolution.
    pub min_level: u32,
    /// Maximum surface refinement.
    pub max_level: u32,
    /// Root-box padding factor.
    pub pad: f64,
    /// Space-filling curve (Peano-Hilbert preferred in 3-D).
    pub curve: CurveKind,
    /// Multigrid cycle settings.
    pub cycle: CycleParams,
}

impl Default for CartAnalysis {
    fn default() -> Self {
        CartAnalysis {
            params: EulerParams::default(),
            min_level: 3,
            max_level: 5,
            pad: 3.0,
            curve: CurveKind::Hilbert,
            cycle: CycleParams::default(),
        }
    }
}

impl CartAnalysis {
    /// Set wind-space parameters (Mach, alpha, beta in radians).
    pub fn wind(mut self, mach: f64, alpha: f64, beta: f64) -> Self {
        self.params.mach = mach;
        self.params.alpha = alpha;
        self.params.beta = beta;
        self
    }

    /// Set octree refinement depth.
    pub fn resolution(mut self, min_level: u32, max_level: u32) -> Self {
        self.min_level = min_level;
        self.max_level = max_level;
        self
    }

    /// Generate the cut-cell mesh for `geom` (reusable across wind cases).
    pub fn mesh(&self, geom: &Geometry) -> CartMesh {
        let config = CutCellConfig::around(geom, self.pad, self.min_level, self.max_level);
        let tree = build_octree(geom, &config);
        extract_mesh(&tree, geom, self.curve, 0.1)
    }

    /// Coarsen a mesh into the multigrid hierarchy this analysis solves on
    /// (reusable across wind cases, like the mesh).
    pub fn hierarchy(&self, mesh: CartMesh) -> CartHierarchy {
        CartHierarchy::new(mesh, self.params.nlevels)
    }

    /// Run on a pre-built mesh, coarsening it first.
    pub fn run_on_mesh(&self, mesh: CartMesh, max_cycles: usize) -> CartReport {
        self.run_on_hierarchy(&self.hierarchy(mesh), max_cycles)
    }

    /// Run on a pre-built hierarchy (database fills share one hierarchy
    /// across hundreds of wind-space cases; a case allocates only its
    /// flow state).
    pub fn run_on_hierarchy(&self, hierarchy: &CartHierarchy, max_cycles: usize) -> CartReport {
        let mut solver = EulerSolver::on_hierarchy(hierarchy, self.params);
        let history = solver.solve(&self.cycle, 1e-12, max_cycles);
        CartReport {
            forces: solver.forces(),
            guard_trips: solver.guard_trips(),
            history,
            ncells: hierarchy.fine().ncells(),
            ncut: hierarchy.fine().ncut(),
            level_sizes: solver.level_sizes(),
            mesh_seconds: 0.0,
            cells_per_minute: 0.0,
        }
    }

    /// Full pipeline: mesh generation + solve.
    pub fn run(&self, geom: &Geometry, max_cycles: usize) -> CartReport {
        let t0 = Instant::now();
        let mesh = self.mesh(geom);
        let mesh_seconds = t0.elapsed().as_secs_f64();
        let ncells = mesh.ncells();
        let mut report = self.run_on_mesh(mesh, max_cycles);
        report.mesh_seconds = mesh_seconds;
        report.cells_per_minute = ncells as f64 / (mesh_seconds / 60.0).max(1e-12);
        report
    }
}

/// Results of a Cartesian analysis.
#[derive(Clone, Debug)]
pub struct CartReport {
    /// Integrated pressure loads.
    pub forces: Forces,
    /// Residual history.
    pub history: ConvergenceHistory,
    /// Positivity-guard trips over the whole solve
    /// ([`EulerSolver::guard_trips`]); zero on a run that stayed inside
    /// the guard's envelope.
    pub guard_trips: u64,
    /// Fine-mesh cell count.
    pub ncells: usize,
    /// Cut-cell count.
    pub ncut: usize,
    /// Cells per multigrid level.
    pub level_sizes: Vec<usize>,
    /// Mesh generation wall-clock (seconds).
    pub mesh_seconds: f64,
    /// Mesh generation rate (the paper quotes 3-5M cells/minute on a
    /// 1.5 GHz Itanium2; see EXPERIMENTS.md for measured values here).
    pub cells_per_minute: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use columbia_cartesian::TriMesh;

    fn sphere() -> Geometry {
        let prof: Vec<(f64, f64)> = (0..=10)
            .map(|i| {
                let t = std::f64::consts::PI * i as f64 / 10.0;
                (-0.3 * t.cos(), 0.3 * t.sin())
            })
            .collect();
        Geometry::new(&[TriMesh::body_of_revolution(&prof, 10)])
    }

    #[test]
    fn full_pipeline_runs_and_converges() {
        let report = CartAnalysis::default()
            .wind(0.5, 0.0, 0.0)
            .resolution(3, 4)
            .run(&sphere(), 20);
        assert!(report.ncells > 500);
        assert!(report.ncut > 50);
        assert!(report.history.orders_reduced() > 1.0);
        assert!(report.cells_per_minute > 0.0);
    }

    #[test]
    fn mesh_reuse_across_wind_cases() {
        let a = CartAnalysis::default().resolution(3, 4);
        let mesh = a.mesh(&sphere());
        let r1 = a.clone().wind(0.4, 0.0, 0.0).run_on_mesh(mesh.clone(), 10);
        let r2 = a.wind(2.0, 0.05, 0.0).run_on_mesh(mesh, 10);
        // Supersonic drag far exceeds the subsonic value.
        assert!(r2.forces.force.x > r1.forces.force.x);
    }
}
