//! Measured Cart3D workload profiles for the Columbia machine model.
//!
//! Mirrors `columbia_rans::profile` for the cell-centred solver: FLOPs per
//! cell per visit from instrumented cycles, SFC-partition ghost surfaces
//! measured from real decompositions, and inter-grid locality from the
//! natural (same-curve) overlap of independently partitioned levels —
//! fitted and assembled by `columbia_machine::profile`.

use crate::solver::EulerSolver;
use crate::state::NVARS5;
use columbia_cartesian::{partition_cells, CartMesh};
use columbia_comm::ExecContext;
use columbia_machine::profile::{CodeConstants, SurfaceLaw, CART3D_PAPER};
use columbia_machine::CycleProfile;
use columbia_mg::{level_visits, CycleParams};

/// Halo exchanges per peer in one parallel RK step: a state copy and a
/// coalesced residual + `lam` add per stage, then a closing state copy.
pub const EXCHANGES_PER_STEP: usize = 2 * crate::level::RK5.len() + 1;

/// Ghosts per partition for an SFC decomposition of `mesh` into `p` parts.
pub fn measure_ghosts(mesh: &CartMesh, p: usize) -> (f64, usize) {
    let cp = partition_cells(mesh, p);
    let owner: Vec<usize> = (0..mesh.ncells()).map(|c| cp.owner(c)).collect();
    // Distinct off-part neighbour cells per part, and peer sets.
    let mut ghost_stamp = vec![usize::MAX; mesh.ncells()];
    let mut ghosts = vec![0usize; p];
    let mut peers: Vec<Vec<usize>> = vec![Vec::new(); p];
    for f in &mesh.faces {
        if f.is_boundary() {
            continue;
        }
        let (a, b) = (f.a as usize, f.b as usize);
        let (pa, pb) = (owner[a], owner[b]);
        if pa != pb {
            if ghost_stamp[b] != pa {
                ghost_stamp[b] = pa;
                ghosts[pa] += 1;
            }
            if ghost_stamp[a] != pb {
                ghost_stamp[a] = pb;
                ghosts[pb] += 1;
            }
            if !peers[pa].contains(&pb) {
                peers[pa].push(pb);
            }
            if !peers[pb].contains(&pa) {
                peers[pb].push(pa);
            }
        }
    }
    let nonempty = (0..p).filter(|&q| !cp.range(q).is_empty()).count().max(1);
    let mean = ghosts.iter().sum::<usize>() as f64 / nonempty as f64;
    let max_degree = peers.iter().map(|v| v.len()).max().unwrap_or(0);
    (mean, max_degree)
}

/// Fit the SFC-partition surface law of `mesh` over the partition counts
/// `parts`; the fallback is Cart3D's canonical `5 q^(2/3)`, degree 14.
pub fn fit_surface_law(mesh: &CartMesh, parts: &[usize]) -> SurfaceLaw {
    let canonical = CART3D_PAPER.canonical_law();
    SurfaceLaw::fit(mesh.ncells(), parts, &canonical, |p| {
        measure_ghosts(mesh, p)
    })
}

/// Fraction of fine cells whose SFC-partition owner differs between the
/// fine level and the (independently partitioned) coarse level.
pub fn measure_intergrid_nonlocal(
    fine: &CartMesh,
    coarse: &CartMesh,
    map: &[u32],
    p: usize,
) -> f64 {
    if p < 2 || coarse.ncells() < p {
        return 0.0;
    }
    let fp = partition_cells(fine, p);
    let cpp = partition_cells(coarse, p);
    let mut nonlocal = 0usize;
    for (c, &g) in map.iter().enumerate() {
        if fp.owner(c) != cpp.owner(g as usize) {
            nonlocal += 1;
        }
    }
    nonlocal as f64 / map.len().max(1) as f64
}

/// Measure a full Cart3D cycle profile, rescaled so the fine level has
/// `target_cells` (the paper's 25M-cell SSLV benchmark). With tracing
/// enabled on `ctx`, the fit provenance and per-level FLOP counts are
/// recorded under a `profile_measure` span.
pub fn measure_profile(
    solver: &mut EulerSolver,
    cycle: &CycleParams,
    parts: &[usize],
    match_parts: usize,
    target_cells: f64,
    name: &str,
    ctx: &mut ExecContext,
) -> CycleProfile {
    solver.take_flops();
    solver.cycle(cycle);
    let law = fit_surface_law(&solver.levels[0].mesh, parts);
    let nonlocal: Vec<f64> = solver
        .levels
        .windows(2)
        .map(|w| {
            let map = w[0].to_coarse.as_ref().expect("no map");
            measure_intergrid_nonlocal(&w[0].mesh, &w[1].mesh, map, match_parts).max(0.02)
        })
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
        &law,
        &nonlocal,
        target_cells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::EulerParams;
    use columbia_cartesian::{build_octree, extract_mesh, CutCellConfig, Geometry, TriMesh};
    use columbia_machine::profile::FitFallback;
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
    fn sfc_surface_law_is_sublinear() {
        let s = sphere_solver(5);
        let law = fit_surface_law(&s.levels[0].mesh, &[4, 8, 16, 32]);
        assert!(
            (0.3..=1.0).contains(&law.exponent),
            "exponent {}",
            law.exponent
        );
        assert!(law.coeff > 0.1);
        assert_eq!(law.provenance.samples_used, 4);
        assert_eq!(law.provenance.fallback, None);
    }

    #[test]
    fn fit_provenance_reports_skips_and_fallback() {
        // Oversized part counts are skipped (p * 4 > ncells) and the fit
        // falls back to Cart3D's canonical law, saying why.
        let s = sphere_solver(4);
        let mesh = &s.levels[0].mesh;
        let n = mesh.ncells();
        let law = fit_surface_law(mesh, &[n, 2 * n]);
        assert_eq!(law.provenance.parts_requested, 2);
        assert_eq!(law.provenance.parts_skipped_small, 2);
        assert_eq!(law.provenance.samples_used, 0);
        assert_eq!(law.provenance.fallback, Some(FitFallback::TooFewSamples));
        assert_eq!((law.coeff, law.max_degree), (5.0, 14.0));
    }

    #[test]
    fn measure_profile_records_fit_provenance() {
        let mut s = sphere_solver(4);
        let mut ctx = ExecContext::traced();
        let cycle = CycleParams::default();
        measure_profile(&mut s, &cycle, &[4, 8, 16], 8, 25.0e6, "traced", &mut ctx);
        let trace = ctx.finish_trace();
        let span = trace.find("profile_measure").expect("profile span");
        let fit = span
            .children
            .iter()
            .find(|c| c.key.name == "surface_fit")
            .expect("surface_fit child span");
        assert_eq!(fit.counters.get("fit.parts_requested"), Some(&3));
        assert_eq!(fit.counters.get("fit.fallback.none"), Some(&1));
        assert!(span.counters.get("profile.flops").copied().unwrap_or(0) > 0);
    }

    #[test]
    fn intergrid_nonlocality_is_small_for_same_curve() {
        // Both levels split along the SAME SFC: overlap is naturally good
        // (paper: "generally very good overlap ... not perfectly nested").
        let s = sphere_solver(4);
        let map = s.levels[0].to_coarse.as_ref().unwrap();
        let f = measure_intergrid_nonlocal(&s.levels[0].mesh, &s.levels[1].mesh, map, 8);
        assert!((0.0..=0.5).contains(&f), "nonlocal fraction {f}");
    }

    #[test]
    fn measured_profile_validates_and_scales() {
        let mut s = sphere_solver(4);
        let p = measure_profile(
            &mut s,
            &CycleParams::default(),
            &[4, 8, 16],
            8,
            25.0e6,
            "measured Cart3D",
            &mut ExecContext::default(),
        );
        p.validate().unwrap();
        assert!((p.levels[0].points - 25.0e6).abs() / 25.0e6 < 1e-9);
        for l in &p.levels {
            assert!(
                l.flops_per_point > 100.0 && l.flops_per_point < 1e6,
                "{}: {}",
                l.name,
                l.flops_per_point
            );
        }
    }
}
