//! Measured Cart3D workload profiles for the Columbia machine model.
//!
//! Mirrors `columbia_rans::profile` for the cell-centred solver: FLOPs per
//! cell per visit from instrumented cycles and inter-grid locality from the
//! natural (same-curve) overlap of independently partitioned levels —
//! assembled by `columbia_machine::profile`. Ghosts per rank follow
//! Cart3D's own `5 q^(2/3)` law and degree 14; [`measure_ghosts`] is the
//! exact count of the SFC decomposition the parallel solver runs, which
//! that law is checked against.

use crate::parallel::decompose_cells;
use crate::solver::EulerSolver;
use crate::state::NVARS5;
use columbia_cartesian::CartMesh;
use columbia_comm::{ExecContext, TransferSchedule};
use columbia_machine::profile::{CodeConstants, CART3D_PAPER};
use columbia_machine::CycleProfile;
use columbia_mg::{level_visits, CycleParams};

/// Halo exchanges per peer in one parallel RK step: a state copy and a
/// coalesced residual + `lam` add per stage, then a closing state copy.
pub const EXCHANGES_PER_STEP: usize = 2 * crate::level::RK5.len() + 1;

/// `(mean ghosts per rank, largest peer degree)` of the decomposition a
/// `p`-rank world runs on `mesh`: SFC segments, exact halo.
pub fn measure_ghosts(mesh: &CartMesh, p: usize) -> (f64, usize) {
    decompose_cells(mesh, p).halo()
}

/// The transfer schedule between each pair of adjacent levels when every
/// level is SFC-partitioned into `p` segments on its own.
pub fn intergrid_schedules(solver: &EulerSolver, p: usize) -> Vec<TransferSchedule> {
    let levels = &solver.levels;
    let d: Vec<_> = levels.iter().map(|l| decompose_cells(&l.mesh, p)).collect();
    let map = |l: usize| levels[l].to_coarse.as_deref().expect("no map");
    (0..d.len() - 1)
        .map(|l| TransferSchedule::new(&d[l], &d[l + 1], map(l)))
        .collect()
}

/// Measure a full Cart3D cycle profile, rescaled so the fine level has
/// `target_cells` (the paper's 25M-cell SSLV benchmark). With tracing
/// enabled on `ctx`, the per-level FLOP counts are recorded under a
/// `profile_measure` span.
pub fn measure_profile(
    solver: &mut EulerSolver,
    cycle: &CycleParams,
    match_parts: usize,
    target_cells: f64,
    name: &str,
    ctx: &mut ExecContext,
) -> CycleProfile {
    solver.take_flops();
    solver.cycle(cycle);
    let nonlocal: Vec<f64> = intergrid_schedules(solver, match_parts)
        .iter()
        .map(|t| t.nonlocal_fraction().max(0.02))
        .collect();
    let sweeps = (cycle.pre_sweeps + cycle.post_sweeps) as f64 / 2.0 + 1.0;
    let code = CodeConstants {
        // Working set: u, u0, forcing, res, primitive cache (5x40B) + lam + mesh.
        state_bytes_per_point: (5 * NVARS5 * 8 + 8 + 100) as f64,
        exchanges_per_visit: EXCHANGES_PER_STEP as f64 * sweeps,
        intergrid_bytes_per_fine_point: 60.0,
        ..CART3D_PAPER
    };
    CycleProfile::measured(
        ctx.tracer(),
        name,
        &code,
        &solver.level_sizes(),
        &solver.level_flops(),
        &level_visits(solver.nlevels(), cycle.cycle),
        &nonlocal,
        target_cells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::EulerParams;
    use columbia_cartesian::{build_octree, extract_mesh, CutCellConfig, Geometry, TriMesh};
    use columbia_mesh::Vec3;
    use columbia_sfc::CurveKind;

    fn sphere_solver(max_level: u32) -> EulerSolver {
        let prof: Vec<(f64, f64)> = (0..=10)
            .map(|i| {
                let t = std::f64::consts::PI * i as f64 / 10.0;
                (-0.3 * t.cos(), 0.3 * t.sin())
            })
            .collect();
        let geom = Geometry::new(&[TriMesh::body_of_revolution(&prof, 10)]);
        let config = CutCellConfig {
            min_level: 3,
            max_level,
            origin: Vec3::new(-1.0, -1.0, -1.0),
            size: 2.0,
        };
        let tree = build_octree(&geom, &config);
        let mesh = extract_mesh(&tree, &geom, CurveKind::Hilbert, 0.1);
        EulerSolver::new(mesh, EulerParams::default())
    }

    #[test]
    fn measure_profile_records_level_flops() {
        let mut s = sphere_solver(4);
        let mut ctx = ExecContext::traced();
        let cycle = CycleParams::default();
        measure_profile(&mut s, &cycle, 8, 25.0e6, "traced", &mut ctx);
        let trace = ctx.finish_trace();
        let span = trace.find("profile_measure").expect("profile span");
        assert!(span.counters.get("profile.flops").copied().unwrap_or(0) > 0);
    }

    #[test]
    fn intergrid_nonlocality_is_small_for_same_curve() {
        // Both levels split along the SAME SFC: overlap is naturally good
        // (paper: "generally very good overlap ... not perfectly nested").
        let s = sphere_solver(4);
        let f = intergrid_schedules(&s, 8)[0].nonlocal_fraction();
        assert!((0.0..=0.5).contains(&f), "nonlocal fraction {f}");
    }

    #[test]
    fn measured_profile_validates_and_scales() {
        let mut s = sphere_solver(4);
        let p = measure_profile(
            &mut s,
            &CycleParams::default(),
            8,
            25.0e6,
            "measured Cart3D",
            &mut ExecContext::default(),
        );
        p.validate().unwrap();
        assert!((p.levels[0].points - 25.0e6).abs() / 25.0e6 < 1e-9);
        for (i, l) in p.levels.iter().enumerate() {
            assert!(
                l.flops_per_point > 100.0 && l.flops_per_point < 1e6,
                "level {i}: {}",
                l.flops_per_point
            );
        }
    }
}
