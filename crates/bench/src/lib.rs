//! The reporting half of the repo's one measurement path: `bench_e2e`
//! (root package of its own) times, `scaling_report` — this crate's only
//! binary — reports.
//!
//! Every table the paper's evaluation section plots is a *section* of
//! `scaling_report`, one entry of [`sections::SECTIONS`]: positional names
//! (`fig14a` … `fig22`, `headline_metrics`, `ablation_*`) regenerate one
//! figure each, the `--paper-scale/--fabric/--kernels/--database` flags
//! append a deterministic section to the base report. A section builds its
//! JSON once, renders its text from it through [`table::rows`], and `main`
//! prints; `--json PATH` writes everything that was rendered.
//!
//! Workload profiles come in two flavours selected on the command line:
//!
//! * **paper** (default) — the 72M-point NSU3D and 25M-cell Cart3D
//!   workloads with the paper's published level sizes and calibrated
//!   per-point costs;
//! * **measured** (`--measured`) — the per-level work re-derived from live
//!   runs of the real solvers at laptop scale: level sizes, software FLOP
//!   counts, measured inter-grid locality, then rescaled to paper size.
//!   Both flavours price each code's own ghost law and peer degree.

#![forbid(unsafe_code)]

pub mod database;
pub mod figures;
pub mod kernels;
pub mod report;
pub mod sections;
pub mod table;

use columbia_comm::ExecContext;
use columbia_machine::{paper_cart3d_25m, paper_nsu3d_72m, CycleProfile};
use columbia_mesh::{wing_mesh, UnstructuredMesh, WingMeshSpec};
use columbia_mg::CycleParams;
use columbia_rans::{RansSolver, SolverParams};

/// The jitter-free benchmark wing every live-solver section runs on.
pub fn wing(points: usize) -> UnstructuredMesh {
    wing_mesh(&WingMeshSpec {
        jitter: 0.0,
        ..WingMeshSpec::with_target_points(points)
    })
}

/// The benchmark flow condition: Mach 0.5, everything else default.
pub fn mach_half() -> SolverParams {
    SolverParams {
        mach: 0.5,
        ..Default::default()
    }
}

/// The RANS solver the measured NSU3D profile runs: the smallest benchmark
/// wing that agglomerates to six levels with more than a dozen points on
/// the coarsest (140,608 points, down to 14; `wing(100_000)` stops at
/// five levels).
fn nsu3d_solver() -> RansSolver {
    RansSolver::new(wing(140_000), mach_half(), 6)
}

/// The NSU3D-style workload profile.
pub fn nsu3d_profile(measured: bool) -> CycleProfile {
    if !measured {
        return paper_nsu3d_72m();
    }
    let mut solver = nsu3d_solver();
    // Settle the state so the FLOP measurement reflects working conditions.
    solver.solve(&CycleParams::default(), 0.0, 3);
    columbia_rans::measure_profile(
        &mut solver,
        &CycleParams::default(),
        16,
        72.0e6,
        "NSU3D 72M-pt (measured, rescaled)",
        &mut ExecContext::default(),
    )
}

/// The octree adapted from `min_level` to `max_level` around the small body
/// of revolution the measured Cart3D profile and the SFC ablation both mesh
/// (at levels 4-6).
pub fn cart3d_body_octree(
    min_level: u32,
    max_level: u32,
) -> (columbia_cartesian::Octree, columbia_cartesian::Geometry) {
    use columbia_cartesian::{build_octree, CutCellConfig, Geometry, TriMesh};
    let prof: Vec<(f64, f64)> = (0..=14)
        .map(|i| {
            let t = std::f64::consts::PI * i as f64 / 14.0;
            (-0.3 * t.cos(), 0.3 * t.sin())
        })
        .collect();
    let geom = Geometry::new(&[TriMesh::body_of_revolution(&prof, 16)]);
    let config = CutCellConfig {
        min_level,
        max_level,
        origin: columbia_mesh::Vec3::new(-1.0, -1.0, -1.0),
        size: 2.0,
    };
    (build_octree(&geom, &config), geom)
}

/// The Euler solver on [`cart3d_body_octree`]'s mesh.
fn cart3d_solver() -> columbia_euler::EulerSolver {
    let (tree, geom) = cart3d_body_octree(4, 6);
    let mesh =
        columbia_cartesian::extract_mesh(&tree, &geom, columbia_sfc::CurveKind::Hilbert, 0.1);
    columbia_euler::EulerSolver::new(mesh, Default::default())
}

/// The Cart3D-style workload profile.
pub fn cart3d_profile(measured: bool) -> CycleProfile {
    if !measured {
        return paper_cart3d_25m();
    }
    let mut solver = cart3d_solver();
    solver.solve(&CycleParams::default(), 0.0, 2);
    columbia_euler::measure_profile(
        &mut solver,
        &CycleParams::default(),
        16,
        25.0e6,
        "Cart3D 25M-cell (measured, rescaled)",
        &mut ExecContext::default(),
    )
}

/// A standard figure header.
pub fn header(fig: &str, what: &str) -> String {
    let bar = "=".repeat(74);
    format!("{bar}\n{fig} — {what}\n{bar}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_profile_flavours_validate() {
        nsu3d_profile(false).validate().unwrap();
        cart3d_profile(false).validate().unwrap();
    }

    /// Every level of the measured Cart3D hierarchy has more cells than
    /// the 16 ranks its transfer schedules are built for (7,328 down to
    /// 168), so no coarse level leaves a rank without cells.
    #[test]
    fn cart3d_levels_outnumber_the_profile_ranks() {
        let sizes = cart3d_solver().level_sizes();
        assert!(sizes.iter().all(|&n| n >= 16), "{sizes:?}");
    }

    /// The measured NSU3D profile has the six levels fig14b, fig16-18 and
    /// headline_metrics price as "6-level": the wing agglomerates that
    /// deep rather than stopping at five.
    #[test]
    fn nsu3d_wing_builds_six_levels() {
        let solver = nsu3d_solver();
        assert_eq!(solver.nlevels(), 6, "{:?}", solver.level_sizes());
    }
}
