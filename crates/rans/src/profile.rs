//! Measured workload profiles for the Columbia machine model.
//!
//! The scalability figures need, per multigrid level: FLOPs per point per
//! visit, the halo traffic of an exchange, and inter-grid transfer
//! locality. These are *measured* here on real meshes — by running an
//! instrumented cycle, by counting the fields the distributed multigrid
//! packs and by reading the transfer schedules of its world — then handed
//! to `columbia_machine::profile`, which rescales them to the paper's
//! 72M-point problem. Ghosts per rank follow NSU3D's own `6 q^(2/3)` law
//! and degree 18; [`measure_ghosts`] is the exact count it is checked
//! against.

use crate::level::DiagHalo;
use crate::parallel::{decompose_mesh, partition_mesh_line_aware};
use crate::parallel_mg::{ParallelMg, RESTRICT_WIDTH};
use crate::solver::RansSolver;
use crate::state::NVARS;
use columbia_comm::{ExecContext, HaloField};
use columbia_linalg::SoaStates;
use columbia_machine::profile::{CodeConstants, NSU3D_PAPER};
use columbia_machine::CycleProfile;
use columbia_mesh::UnstructuredMesh;
use columbia_mg::{level_visits, CycleParams};

/// `(mean ghosts per rank, largest peer degree)` of the decomposition a
/// `p`-rank world runs on `mesh`: line-aware partition, exact halo.
pub fn measure_ghosts(mesh: &UnstructuredMesh, p: usize, line_threshold: f64) -> (f64, usize) {
    let part = partition_mesh_line_aware(mesh, p, line_threshold);
    decompose_mesh(mesh, &part, p).halo()
}

/// Values per ghost of each halo exchange the distributed multigrid sends,
/// from the fields it packs: a state copy, a residual add (gradient +
/// residual) and a sweep's coalesced add (gradient + residual + implicit
/// diagonal).
const STATE: usize = <SoaStates<NVARS> as HaloField>::WIDTH;
const RESIDUAL: usize = <SoaStates<6> as HaloField>::WIDTH + STATE;
const SWEEP_ADD: usize = RESIDUAL + <DiagHalo<'static> as HaloField>::WIDTH;

/// One cycle's halo exchanges on `nlevels` levels: `(level visits,
/// exchanges, values per ghost summed over the exchanges)`. Each sweep
/// sends its add and a state copy; each restriction the fine residual,
/// the coarse state, the coarse residual and the prolonged state; each
/// cycle the norm's residual.
fn halo_traffic(cycle: &CycleParams, nlevels: usize) -> (usize, usize, usize) {
    let visits = level_visits(nlevels, cycle.cycle);
    let (coarsest, finer) = visits.split_last().expect("at least one level");
    let finer: usize = finer.iter().sum();
    let sweeps = finer * (cycle.pre_sweeps + cycle.post_sweeps) + coarsest * cycle.coarse_sweeps;
    let exchanges = 2 * sweeps + 4 * finer + 1;
    let values = sweeps * (SWEEP_ADD + STATE) + 2 * finer * (RESIDUAL + STATE) + RESIDUAL;
    (finer + coarsest, exchanges, values)
}

/// Halo exchanges per peer per level visit of the distributed multigrid,
/// averaged over a cycle.
pub fn halo_exchanges_per_visit(cycle: &CycleParams, nlevels: usize) -> f64 {
    let (visits, exchanges, _) = halo_traffic(cycle, nlevels);
    exchanges as f64 / visits as f64
}

/// Bytes per ghost per halo exchange of the distributed multigrid,
/// averaged over a cycle's exchanges.
pub(crate) fn halo_bytes_per_exchange(cycle: &CycleParams, nlevels: usize) -> f64 {
    let (_, exchanges, values) = halo_traffic(cycle, nlevels);
    (values * std::mem::size_of::<f64>()) as f64 / exchanges as f64
}

/// Measure a full [`CycleProfile`] from an instrumented solver.
///
/// * Runs one cycle with FLOP counters to get per-level FLOPs/point/visit.
/// * Prices each halo exchange from the fields the distributed multigrid
///   packs; ghosts per rank and peers follow NSU3D's law (`NSU3D_PAPER`).
/// * Reads inter-grid non-locality off the transfer schedules of the
///   `match_parts`-rank [`ParallelMg`] over the same hierarchy.
/// * Rescales the level sizes so the finest level has `target_points`
///   (the paper's 72M), preserving the measured coarsening ratios.
///
/// With tracing enabled on `ctx`, the per-level FLOP counts are recorded
/// under a `profile_measure` span instead of dropped.
pub fn measure_profile(
    solver: &mut RansSolver,
    cycle: &CycleParams,
    match_parts: usize,
    target_points: f64,
    name: &str,
    ctx: &mut ExecContext,
) -> CycleProfile {
    solver.take_flops();
    solver.cycle(cycle);
    let fine = &solver.levels[0];
    let pmg = ParallelMg::new(&fine.mesh, fine.params, match_parts, solver.nlevels());
    let nonlocal: Vec<f64> = pmg
        .nonlocal_fractions()
        .iter()
        .map(|f| f.max(0.05))
        .collect();
    let code = CodeConstants {
        // Working set per point: 4 state-sized arrays + gradients + diagonal
        // blocks + mesh metrics (edges amortised per vertex).
        state_bytes_per_point: (4 * NVARS * 8 + 48 + 296 + 200) as f64,
        exchange_bytes_per_entry: halo_bytes_per_exchange(cycle, solver.nlevels()),
        exchanges_per_visit: halo_exchanges_per_visit(cycle, solver.nlevels()),
        // Restriction ships `RESTRICT_WIDTH` doubles per pair, prolongation
        // the correction (`NVARS`): half their bytes per transfer.
        intergrid_bytes_per_fine_point: ((RESTRICT_WIDTH + NVARS) * 8 / 2) as f64,
        ..NSU3D_PAPER
    };
    CycleProfile::measured(
        ctx.tracer(),
        name,
        &code,
        &solver.level_sizes(),
        &solver.level_flops(),
        &level_visits(solver.nlevels(), cycle.cycle),
        &nonlocal,
        target_points,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolverParams;
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
    fn measure_profile_records_level_flops() {
        let mut s = solver(4000, 2);
        let mut ctx = ExecContext::traced();
        let p = measure_profile(
            &mut s,
            &CycleParams::default(),
            8,
            72.0e6,
            "traced",
            &mut ctx,
        );
        p.validate().unwrap();
        let trace = ctx.finish_trace();
        let span = trace.find("profile_measure").expect("profile span");
        assert!(span.counters.get("profile.flops").copied().unwrap_or(0) > 0);
    }

    /// The profile prices the transfers of the world its hierarchy would
    /// run: the same level count, every fraction a fraction.
    #[test]
    fn intergrid_nonlocality_in_unit_range() {
        let s = solver(4000, 3);
        let pmg = ParallelMg::new(&s.levels[0].mesh, s.levels[0].params, 8, s.nlevels());
        assert_eq!(pmg.nlevels(), s.nlevels());
        for f in pmg.nonlocal_fractions() {
            assert!((0.0..=1.0).contains(&f), "fraction {f}");
        }
    }

    #[test]
    fn measured_profile_validates_and_scales() {
        let mut s = solver(4000, 3);
        let p = measure_profile(
            &mut s,
            &CycleParams::default(),
            8,
            72.0e6,
            "measured NSU3D",
            &mut ExecContext::default(),
        );
        p.validate().unwrap();
        assert!((p.levels[0].points - 72.0e6).abs() / 72.0e6 < 1e-9);
        // FLOPs per point per visit should be in a physically sensible band
        // for a 6-variable implicit solver (10^3..10^6).
        for (i, l) in p.levels.iter().enumerate() {
            assert!(
                l.flops_per_point > 1e3 && l.flops_per_point < 1e6,
                "level {i}: {}",
                l.flops_per_point
            );
        }
    }
}
