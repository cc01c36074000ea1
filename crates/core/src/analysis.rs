//! High-fidelity (NSU3D-style) single-point analysis.

use columbia_mesh::{wing_mesh, WingMeshSpec};
use columbia_mg::{ConvergenceHistory, CycleParams};
use columbia_rans::{RansSolver, SolverParams};

/// A configured high-fidelity analysis.
///
/// ```
/// use columbia_core::FlowAnalysis;
/// let report = FlowAnalysis::new()
///     .mach(0.5)
///     .alpha_deg(1.0)
///     .mesh_points(3_000)
///     .multigrid_levels(4)
///     .run(40);
/// assert!(report.history.orders_reduced() > 2.0);
/// ```
#[derive(Clone, Debug)]
pub struct FlowAnalysis {
    params: SolverParams,
    spec: WingMeshSpec,
    nlevels: usize,
}

impl Default for FlowAnalysis {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowAnalysis {
    /// Analysis with default transonic-wing settings (Mach 0.5 for the
    /// robust subsonic regime of the model operator; the paper's benchmark
    /// condition is Mach 0.75).
    pub fn new() -> Self {
        FlowAnalysis {
            params: SolverParams {
                mach: 0.5,
                ..Default::default()
            },
            spec: WingMeshSpec {
                jitter: 0.0,
                ..WingMeshSpec::with_target_points(5_000)
            },
            nlevels: 5,
        }
    }

    /// Set the free-stream Mach number.
    pub fn mach(mut self, m: f64) -> Self {
        self.params.mach = m;
        self
    }

    /// Set the angle of attack in degrees.
    pub fn alpha_deg(mut self, a: f64) -> Self {
        self.params.alpha = a.to_radians();
        self
    }

    /// Set the Reynolds number.
    pub fn reynolds(mut self, re: f64) -> Self {
        self.params.reynolds = re;
        self
    }

    /// Target mesh size (vertices).
    pub fn mesh_points(mut self, n: usize) -> Self {
        self.spec = WingMeshSpec {
            jitter: 0.0,
            ..WingMeshSpec::with_target_points(n)
        };
        self
    }

    /// Number of agglomerated multigrid levels.
    pub fn multigrid_levels(mut self, n: usize) -> Self {
        self.nlevels = n.max(1);
        self
    }

    /// Build the solver without running (for custom drivers).
    pub fn build(&self) -> RansSolver {
        RansSolver::new(wing_mesh(&self.spec), self.params, self.nlevels)
    }

    /// Run up to `max_cycles` multigrid cycles.
    pub fn run(&self, max_cycles: usize) -> FlowReport {
        let mut solver = self.build();
        let history = solver.solve(&CycleParams::default(), 1e-13, max_cycles);
        let flops = solver.take_flops();
        FlowReport {
            history,
            level_sizes: solver.level_sizes(),
            line_coverage: solver.levels[0].line_coverage(),
            flops,
        }
    }
}

/// Results of a high-fidelity analysis.
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// Fine-grid residual history.
    pub history: ConvergenceHistory,
    /// Vertices per multigrid level.
    pub level_sizes: Vec<usize>,
    /// Fraction of fine vertices inside implicit lines.
    pub line_coverage: f64,
    /// Software-counted FLOPs for the whole solve.
    pub flops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_analysis_converges() {
        let r = FlowAnalysis::new().mesh_points(2_500).run(30);
        assert!(
            r.history.orders_reduced() > 2.0,
            "orders {}",
            r.history.orders_reduced()
        );
        assert!(r.level_sizes.len() >= 3);
        assert!(r.line_coverage > 0.2);
        assert!(r.flops > 0);
    }

    #[test]
    fn builder_setters_apply() {
        let a = FlowAnalysis::new()
            .mach(0.6)
            .alpha_deg(2.0)
            .reynolds(1e6)
            .multigrid_levels(2)
            .mesh_points(2_000);
        let s = a.build();
        assert_eq!(s.nlevels(), 2);
        assert!((s.levels[0].params.mach - 0.6).abs() < 1e-12);
        assert!((s.levels[0].params.alpha - 2.0f64.to_radians()).abs() < 1e-12);
    }
}
