//! Measured workload profiles for the Columbia machine model.
//!
//! The scalability figures need, per multigrid level: FLOPs per point per
//! visit, the ghost-surface scaling law, communication-graph degrees, and
//! inter-grid transfer locality. All of these are *measured* here on real
//! meshes — by running instrumented cycles and by partitioning the actual
//! level graphs at several CPU counts — then handed to
//! `columbia_machine::profile`, which fits the surface law and extrapolates
//! to the paper's 72M-point problem.

use crate::parallel::partition_mesh_line_aware;
use crate::solver::RansSolver;
use crate::state::NVARS;
use columbia_comm::ExecContext;
use columbia_machine::profile::{CodeConstants, SurfaceLaw, NSU3D_PAPER};
use columbia_machine::CycleProfile;
use columbia_mg::{level_visits, CycleParams};
use columbia_partition::{match_levels, partition_graph, PartitionConfig, PartitionQuality};

/// Fit the ghost-surface law of a mesh level by partitioning its
/// (line-contracted) graph at each count in `parts`; the fallback is
/// NSU3D's canonical `6 q^(2/3)`, degree 18.
pub fn fit_surface_law(solver: &RansSolver, level: usize, parts: &[usize]) -> SurfaceLaw {
    let lvl = &solver.levels[level];
    let graph = lvl.mesh.dual_graph();
    let canonical = NSU3D_PAPER.canonical_law();
    SurfaceLaw::fit(lvl.nvertices(), parts, &canonical, |p| {
        let part = partition_mesh_line_aware(&lvl.mesh, p, lvl.params.line_threshold);
        let q = PartitionQuality::measure(&graph, &part, p);
        (q.mean_ghosts(), q.max_comm_degree())
    })
}

/// Halo exchanges per peer per level visit of the distributed multigrid,
/// averaged over a cycle: 2 per sweep (the add, the state copy), 4 per
/// restriction (fine residual, coarse state, coarse residual, prolonged
/// state) and 1 per cycle (the norm's residual).
pub fn halo_exchanges_per_visit(cycle: &CycleParams, nlevels: usize) -> f64 {
    let visits = level_visits(nlevels, cycle.cycle);
    let (coarsest, finer) = visits.split_last().expect("at least one level");
    let finer: usize = finer.iter().sum();
    let sweeps = finer * (cycle.pre_sweeps + cycle.post_sweeps) + coarsest * cycle.coarse_sweeps;
    (2 * sweeps + 4 * finer + 1) as f64 / (finer + coarsest) as f64
}

/// Measure the non-local fraction of inter-grid transfers between level
/// `l` and `l + 1` when both are partitioned independently into `p` parts
/// and greedily matched (the paper's strategy).
pub fn measure_intergrid_nonlocal(solver: &RansSolver, level: usize, p: usize) -> f64 {
    let fine = &solver.levels[level];
    let coarse = &solver.levels[level + 1];
    let map = fine.to_coarse.as_ref().expect("no map");
    if p < 2 || coarse.nvertices() < p {
        return 0.0;
    }
    let cfg = PartitionConfig::default();
    let fine_part = partition_graph(&fine.mesh.dual_graph(), p, &cfg);
    let coarse_part = partition_graph(&coarse.mesh.dual_graph(), p, &cfg);
    let w = vec![1.0; fine.nvertices()];
    let (_, aligned) = match_levels(&fine_part, map, &coarse_part, p, &w);
    1.0 - aligned
}

/// Measure a full [`CycleProfile`] from an instrumented solver.
///
/// * Runs one cycle with FLOP counters to get per-level FLOPs/point/visit.
/// * Fits the ghost-surface law on the finest level (`parts` samples) and
///   reuses it for coarser levels (same mesh family).
/// * Measures inter-grid non-locality with `match_parts`-way partitions.
/// * Rescales the level sizes so the finest level has `target_points`
///   (the paper's 72M), preserving the measured coarsening ratios.
///
/// With tracing enabled on `ctx`, the fit provenance and per-level FLOP
/// counts are recorded under a `profile_measure` span instead of dropped.
pub fn measure_profile(
    solver: &mut RansSolver,
    cycle: &CycleParams,
    parts: &[usize],
    match_parts: usize,
    target_points: f64,
    name: &str,
    ctx: &mut ExecContext,
) -> CycleProfile {
    solver.take_flops();
    solver.cycle(cycle);
    let law = fit_surface_law(solver, 0, parts);
    let nonlocal: Vec<f64> = (0..solver.nlevels() - 1)
        .map(|l| measure_intergrid_nonlocal(solver, l, match_parts).max(0.05))
        .collect();
    let code = CodeConstants {
        // Working set per point: 4 state-sized arrays + gradients + diagonal
        // blocks + mesh metrics (edges amortised per vertex).
        state_bytes_per_point: (4 * NVARS * 8 + 48 + 296 + 200) as f64,
        exchanges_per_visit: halo_exchanges_per_visit(cycle, solver.nlevels()),
        // Restriction ships state+residual (13 doubles), prolongation
        // ships the correction (6): ~ (13 + 6) * 8 / 2 per transfer.
        intergrid_bytes_per_fine_point: 76.0,
        ..NSU3D_PAPER
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
        target_points,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolverParams;
    use columbia_machine::profile::FitFallback;
    use columbia_mesh::{wing_mesh, WingMeshSpec};

    fn solver(points: usize, levels: usize) -> RansSolver {
        let mesh = wing_mesh(&WingMeshSpec {
            jitter: 0.0,
            ..WingMeshSpec::with_target_points(points)
        });
        RansSolver::new(
            mesh,
            SolverParams {
                mach: 0.5,
                ..Default::default()
            },
            levels,
        )
    }

    #[test]
    fn surface_law_is_sublinear() {
        let s = solver(12000, 1);
        let law = fit_surface_law(&s, 0, &[4, 8, 16, 32]);
        assert!(
            (0.3..=1.0).contains(&law.exponent),
            "exponent {}",
            law.exponent
        );
        assert!(law.coeff > 0.1, "coeff {}", law.coeff);
        assert!(law.max_degree >= 2.0);
    }

    #[test]
    fn fit_provenance_reports_skips_and_fallback() {
        let s = solver(12000, 1);
        // Healthy fit: every requested count usable, no fallback.
        let law = fit_surface_law(&s, 0, &[4, 8, 16, 32]);
        assert_eq!(law.provenance.parts_requested, 4);
        assert_eq!(law.provenance.parts_skipped_small, 0);
        assert_eq!(law.provenance.samples_used, 4);
        assert_eq!(law.provenance.fallback, None);

        // Oversized part counts are skipped (p * 4 > nvertices) and the
        // fallback reason is recorded instead of silently dropped.
        let n = s.levels[0].nvertices();
        let law = fit_surface_law(&s, 0, &[n, 2 * n]);
        assert_eq!(law.provenance.parts_requested, 2);
        assert_eq!(law.provenance.parts_skipped_small, 2);
        assert_eq!(law.provenance.samples_used, 0);
        assert_eq!(law.provenance.fallback, Some(FitFallback::TooFewSamples));
        assert_eq!(law.provenance.fallback.unwrap().label(), "too_few_samples");
        assert!((law.exponent - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn measure_profile_records_fit_provenance() {
        let mut s = solver(4000, 2);
        let mut ctx = ExecContext::traced();
        let p = measure_profile(
            &mut s,
            &CycleParams::default(),
            &[4, 8, 16],
            8,
            72.0e6,
            "traced",
            &mut ctx,
        );
        p.validate().unwrap();
        let trace = ctx.finish_trace();
        let span = trace.find("profile_measure").expect("profile span");
        let fit = span
            .children
            .iter()
            .find(|c| c.key.name == "surface_fit")
            .expect("surface_fit child span");
        assert_eq!(fit.counters.get("fit.parts_requested"), Some(&3));
        assert!(fit.gauges.contains_key("fit.exponent"));
        assert!(span.counters.get("profile.flops").copied().unwrap_or(0) > 0);
    }

    #[test]
    fn intergrid_nonlocality_in_unit_range() {
        let s = solver(4000, 3);
        let f = measure_intergrid_nonlocal(&s, 0, 8);
        assert!((0.0..=1.0).contains(&f), "fraction {f}");
    }

    #[test]
    fn measured_profile_validates_and_scales() {
        let mut s = solver(4000, 3);
        let p = measure_profile(
            &mut s,
            &CycleParams::default(),
            &[4, 8, 16],
            8,
            72.0e6,
            "measured NSU3D",
            &mut ExecContext::default(),
        );
        p.validate().unwrap();
        assert!((p.levels[0].points - 72.0e6).abs() / 72.0e6 < 1e-9);
        // FLOPs per point per visit should be in a physically sensible band
        // for a 6-variable implicit solver (10^3..10^6).
        for l in &p.levels {
            assert!(
                l.flops_per_point > 1e3 && l.flops_per_point < 1e6,
                "{}: {}",
                l.name,
                l.flops_per_point
            );
        }
    }
}
