//! Domain-decomposed execution of the solver (paper §III, Figure 6).
//!
//! The mesh's dual graph is contracted along the implicit lines (no line is
//! ever broken across a partition boundary), partitioned with the
//! multilevel k-way partitioner, and each rank builds a local sub-level
//! containing its owned vertices, the ghost images of off-rank neighbours,
//! and the edges it owns. A smoothing sweep then interleaves the serial
//! kernel phases with two packed ghost exchanges per peer:
//!
//! 1. gradient accumulation, then flux + implicit-diagonal accumulation in
//!    one edge pass,
//! 2. one **coalesced** add per peer carrying the ghosts' gradient,
//!    residual and diagonal contributions together, 6 + 6 + 37 values per
//!    vertex ([`RansLevel::residual_halo`]), then the three finalisations
//!    at owners,
//! 3. local line/point solves (lines are rank-local by construction),
//! 4. state update → copy owners to ghosts.
//!
//! Nothing copies the add's ghost rows back: no kernel reads them before
//! the next accumulation clears them (DESIGN.md §10).
//!
//! All exchange payloads are recycled through the rank's buffer pool, so
//! the steady-state sweep performs no payload allocations.
//!
//! The result is bitwise-equivalent to the serial solver up to floating
//! point summation order; tests check parity to tight tolerances.

use crate::level::{RansLevel, SolverParams};
use crate::state::{State, NVARS};
use columbia_comm::{
    decompose, run_world, Decomposition, ExchangePlan, ExecContext, Rank, RankTrace,
};
use columbia_mesh::{extract_lines, Edge, UnstructuredMesh};
use columbia_partition::{contract_lines, expand_line_partition, partition_graph, PartitionConfig};
use columbia_rt::trace::SpanKey;

/// Partition a mesh without breaking implicit lines.
pub fn partition_mesh_line_aware(
    mesh: &UnstructuredMesh,
    nparts: usize,
    line_threshold: f64,
) -> Vec<u32> {
    let graph = mesh.dual_graph();
    let ls = extract_lines(mesh, line_threshold);
    let cover = ls.covering_lines();
    let lc = contract_lines(&graph, &cover);
    let lp = partition_graph(&lc.contracted, nparts, &PartitionConfig::default());
    expand_line_partition(&lc.cmap, &lp)
}

/// Everything one rank needs to run its sub-level.
pub struct LocalLevel {
    /// The local solver level (owned + ghost vertices).
    pub level: RansLevel,
    /// Number of owned vertices (prefix of the local numbering).
    pub n_owned: usize,
    /// Local → global vertex map.
    pub local_to_global: Vec<u32>,
}

/// Build the per-rank sub-levels of a mesh under partition `part`.
///
/// Edge ownership: a cut edge belongs to the rank owning its `a` endpoint,
/// so each edge is assembled exactly once globally.
pub fn build_local_levels(
    mesh: &UnstructuredMesh,
    part: &[u32],
    nparts: usize,
    params: SolverParams,
) -> (Decomposition, Vec<LocalLevel>) {
    let pairs: Vec<(u32, u32)> = mesh.edges.iter().map(|e| (e.a, e.b)).collect();
    let decomp = decompose(mesh.nvertices(), part, nparts, &pairs);

    // Global line set, restricted per rank (lines never cross ranks when
    // the partition came from `partition_mesh_line_aware`).
    let global_lines = extract_lines(mesh, params.line_threshold).lines;

    let mut locals = Vec::with_capacity(nparts);
    for p in 0..nparts {
        let l2g = &decomp.local_to_global[p];
        let n_owned = decomp.n_owned[p];
        let nloc = l2g.len();
        let mut points = Vec::with_capacity(nloc);
        let mut volumes = Vec::with_capacity(nloc);
        let mut bc = Vec::with_capacity(nloc);
        let mut wall = Vec::with_capacity(nloc);
        for &g in l2g {
            let g = g as usize;
            points.push(mesh.points[g]);
            volumes.push(mesh.volumes[g]);
            bc.push(mesh.bc[g]);
            wall.push(mesh.wall_distance[g]);
        }
        let mut edges = Vec::new();
        for e in &mesh.edges {
            if part[e.a as usize] as usize != p {
                continue;
            }
            let la = decomp.local_index(p, e.a).expect("owned endpoint missing");
            let lb = decomp
                .local_index(p, e.b)
                .expect("edge endpoint neither owned nor ghost");
            edges.push(Edge {
                a: la,
                b: lb,
                normal: e.normal,
                length: e.length,
            });
        }
        let local_mesh = UnstructuredMesh {
            points,
            edges,
            volumes,
            bc,
            wall_distance: wall,
        };
        // Restrict global lines: lines whose first vertex is owned by p.
        let mut lines = Vec::new();
        for line in &global_lines {
            if part[line[0] as usize] as usize != p {
                continue;
            }
            let local_line: Vec<u32> = line
                .iter()
                .map(|&v| {
                    decomp
                        .local_index(p, v)
                        .expect("line crosses rank boundary")
                })
                .collect();
            lines.push(local_line);
        }
        let mut level = RansLevel::with_lines(local_mesh, params, lines)
            .expect("restricted global lines stay vertex-disjoint and edge-joined");
        for v in n_owned..nloc {
            level.active[v] = false;
        }
        locals.push(LocalLevel {
            level,
            n_owned,
            local_to_global: l2g.clone(),
        });
    }
    (decomp, locals)
}

/// One parallel smoothing sweep on a local level.
pub fn parallel_sweep(local: &mut LocalLevel, decomp: &Decomposition, rank: &mut Rank) {
    let p = rank.rank();
    let plan = &decomp.plans[p];
    let lvl = &mut local.level;

    // Gradient, residual and diagonal ghost contributions travel in ONE
    // coalesced message per peer (6 + 6 + 37 values per vertex). The edge
    // pass never reads the gradient, so all three accumulate before the add.
    lvl.begin_residual();
    lvl.accumulate_gradients();
    lvl.accumulate_fluxes_and_diagonal();
    let (grad, res, mut diag) = lvl.residual_halo();
    plan.exchange_add_field(rank, 12, &mut (grad, &mut (res, &mut diag)));
    #[cfg(test)]
    tests::poison_ghost_rows(lvl);
    lvl.finalize_gradients();
    lvl.finalize_residual();
    lvl.finalize_diagonal();

    // Local solves + update, then refresh ghosts.
    lvl.solve_implicit();
    plan.exchange_copy_field(rank, 15, &mut lvl.u);
}

/// `RansLevel::compute_residual` with one coalesced add of the ghosts'
/// gradient and residual (6 + 6 values per vertex) on tag `tag`: complete
/// at owners on return. `begin_residual` comes first, so the primitive
/// cache is fresh for both edge kernels.
pub(crate) fn exchange_residual(
    lvl: &mut RansLevel,
    plan: &ExchangePlan,
    rank: &mut Rank,
    tag: u64,
) {
    lvl.begin_residual();
    lvl.accumulate_gradients();
    lvl.accumulate_fluxes();
    let (grad, res, _) = lvl.residual_halo();
    plan.exchange_add_field(rank, tag, &mut (grad, res));
    #[cfg(test)]
    tests::poison_ghost_rows(lvl);
    lvl.finalize_gradients();
    lvl.finalize_residual();
}

/// Parallel residual norm (collective), exchanging on tag `tag`.
pub fn parallel_residual_rms(
    local: &mut LocalLevel,
    decomp: &Decomposition,
    rank: &mut Rank,
    tag: u64,
) -> f64 {
    exchange_residual(&mut local.level, &decomp.plans[rank.rank()], rank, tag);
    let (ss, cnt) = local.level.residual_sumsq();
    let gss = rank.allreduce_sum(ss);
    let gcnt = rank.allreduce_sum(cnt as f64);
    if gcnt == 0.0 {
        0.0
    } else {
        (gss / gcnt).sqrt()
    }
}

/// Run `sweeps` parallel smoothing sweeps on `nparts` ranks; returns the
/// assembled global state, the final global residual RMS, and the per-rank
/// teardown ledgers ([`RankTrace`] — `traces[p].stats` carries rank `p`'s
/// [`columbia_comm::CommStats`]).
///
/// `ctx` selects the run's capabilities: an attached fault plan injects
/// message drops/duplicates/delays and barrier stalls per its seed (the
/// retry/dedup/reorder protocol hides them from payloads, the stats carry
/// the fault-protocol counters); an enabled tracer records the run under a
/// `rans_smoothing` span — residual as a gauge, one `comm` child span per
/// rank. The default context runs clean with zero recording overhead.
pub fn run_parallel_smoothing(
    mesh: &UnstructuredMesh,
    params: SolverParams,
    nparts: usize,
    sweeps: usize,
    ctx: &mut ExecContext,
) -> (Vec<State>, f64, Vec<RankTrace>) {
    let part = partition_mesh_line_aware(mesh, nparts, params.line_threshold);
    let (decomp, locals) = build_local_levels(mesh, &part, nparts, params);
    let locals = std::sync::Mutex::new(
        locals
            .into_iter()
            .map(Some)
            .collect::<Vec<Option<LocalLevel>>>(),
    );

    let (results, traces) = run_world(nparts, ctx, |rank| {
        let mut local = locals.lock().unwrap()[rank.rank()]
            .take()
            .expect("local level already taken");
        // Apply BCs and make ghosts consistent before starting (mirrors
        // the serial driver's initialisation).
        local.level.apply_bcs();
        decomp.plans[rank.rank()].exchange_copy_field(rank, 1, &mut local.level.u);
        for _ in 0..sweeps {
            parallel_sweep(&mut local, &decomp, rank);
        }
        let rms = parallel_residual_rms(&mut local, &decomp, rank, 20);
        let owned_u: Vec<(u32, State)> = (0..local.n_owned)
            .map(|i| (local.local_to_global[i], local.level.u.get(i)))
            .collect();
        (owned_u, rms)
    });

    let mut global_u = vec![[0.0; NVARS]; mesh.nvertices()];
    let mut rms = 0.0;
    for (owned, r) in results {
        for (g, u) in owned {
            global_u[g as usize] = u;
        }
        rms = r;
    }
    let tracer = ctx.tracer();
    tracer.scoped(SpanKey::new("rans_smoothing"), |t| {
        t.add("sweeps", sweeps as u64);
        t.add("ranks", nparts as u64);
        t.gauge("residual_rms", rms);
        for tr in &traces {
            tr.record_to(t);
        }
    });
    (global_u, rms, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel_mg::ParallelMg;
    use columbia_comm::{Executor, HaloField};
    use columbia_mesh::{wing_mesh, WingMeshSpec};
    use columbia_mg::CycleParams;

    fn mesh() -> UnstructuredMesh {
        wing_mesh(&WingMeshSpec {
            ni: 16,
            nj: 4,
            nk: 10,
            nk_bl: 5,
            jitter: 0.0,
            ..Default::default()
        })
    }

    fn params() -> SolverParams {
        SolverParams {
            mach: 0.5,
            ..Default::default()
        }
    }

    #[test]
    fn parallel_state_matches_serial_after_sweeps() {
        let m = mesh();
        // Serial reference.
        let mut serial = RansLevel::new(m.clone(), params());
        serial.apply_bcs();
        for _ in 0..3 {
            serial.smooth_sweep();
        }
        let serial_rms = serial.residual_rms();

        for nparts in [2, 4] {
            let (u, rms, traces) =
                run_parallel_smoothing(&m, params(), nparts, 3, &mut ExecContext::default());
            let mut max_diff = 0.0f64;
            for (v, su) in serial.u.to_aos().iter().enumerate() {
                for k in 0..NVARS {
                    max_diff = max_diff.max((u[v][k] - su[k]).abs());
                }
            }
            assert!(
                max_diff < 1e-8,
                "{nparts}-way parallel state diverged: {max_diff}"
            );
            assert!(
                (rms - serial_rms).abs() < 1e-10 * (1.0 + serial_rms),
                "residual mismatch: {rms} vs {serial_rms}"
            );
            // Communication actually happened.
            assert!(traces.iter().any(|t| t.stats.total_msgs() > 0));
        }
    }

    #[test]
    fn traced_smoothing_matches_untraced_and_loses_no_counts() {
        let m = mesh();
        let (u, rms, plain) =
            run_parallel_smoothing(&m, params(), 2, 2, &mut ExecContext::default());
        let mut ctx = ExecContext::traced();
        let (ut, rmst, traces) = run_parallel_smoothing(&m, params(), 2, 2, &mut ctx);
        assert_eq!(rms.to_bits(), rmst.to_bits());
        let bits = |u: &[State]| u.iter().flatten().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&u), bits(&ut));
        // Tracing changes nothing in the teardown ledgers.
        for (p, tr) in plain.iter().zip(&traces) {
            assert_eq!(p.stats, tr.stats);
        }
        let trace = ctx.finish_trace();
        let span = trace.find("rans_smoothing").unwrap();
        assert!(span.gauges.contains_key("residual_rms"));
        assert!(trace.counter_total("comm.sends") > 0);
    }

    /// With `poison_ghosts` set, overwrite the ghost rows of the gradient,
    /// the residual, the diagonal and `lamsum` with NaN.
    pub(super) fn poison_ghost_rows(lvl: &mut RansLevel) {
        let n = lvl.nvertices();
        let first_ghost = lvl.active.iter().position(|a| !a).unwrap_or(n);
        if lvl.poison_ghosts {
            let (grad, res, mut diag) = lvl.residual_halo();
            let mut halo = (grad, &mut (res, &mut diag));
            for v in first_ghost..n {
                halo.set_entry(v, &[f64::NAN; 49]);
            }
        }
    }

    /// The proof that the add exchanges need no copy-back: with the ghost
    /// rows of the gradient, the diagonal and `lamsum` overwritten with NaN
    /// right after every add, sweeps leave the same owned state and norm
    /// bits, and multigrid solves the same residual history, at 2, 4 and 8
    /// ranks on both executors. A kernel that starts reading such a row
    /// fails here and must bring its copy-back with it.
    #[test]
    fn ghost_rows_are_never_read() {
        let m = mesh();
        for nparts in [2, 4, 8] {
            let part = partition_mesh_line_aware(&m, nparts, params().line_threshold);
            for exec in [Executor::Threads, Executor::Events] {
                let ctx = || ExecContext::default().with_executor(exec);
                let sweeps = |poison: bool| {
                    let (decomp, mut locals) = build_local_levels(&m, &part, nparts, params());
                    for local in &mut locals {
                        local.level.poison_ghosts = poison;
                    }
                    let locals: Vec<_> = locals.into_iter().map(Some).collect();
                    let locals = std::sync::Mutex::new(locals);
                    let (per_rank, _) = run_world(nparts, &ctx(), |rank| {
                        let mut local = locals.lock().unwrap()[rank.rank()].take().unwrap();
                        local.level.apply_bcs();
                        decomp.plans[rank.rank()].exchange_copy_field(rank, 1, &mut local.level.u);
                        for _ in 0..3 {
                            parallel_sweep(&mut local, &decomp, rank);
                        }
                        let rms = parallel_residual_rms(&mut local, &decomp, rank, 20);
                        let owned = (0..NVARS)
                            .flat_map(|k| local.level.u.plane(k)[..local.n_owned].to_vec());
                        (owned.map(f64::to_bits).collect::<Vec<_>>(), rms.to_bits())
                    });
                    per_rank
                };
                let solve = |poison: bool| {
                    let mut pmg = ParallelMg::new(&m, params(), nparts, 3);
                    for local in pmg.locals.iter_mut().flatten() {
                        local.level.poison_ghosts = poison;
                    }
                    let (h, _) = pmg.solve(&CycleParams::default(), 4.0, 2, &mut ctx());
                    h.residuals.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
                };
                let at = format!("{nparts} ranks, {exec:?}");
                assert_eq!(sweeps(true), sweeps(false), "{at}: sweeps");
                assert_eq!(solve(true), solve(false), "{at}: multigrid history");
            }
        }
    }

    #[test]
    fn partition_preserves_lines() {
        let m = mesh();
        let part = partition_mesh_line_aware(&m, 4, 10.0);
        let lines = extract_lines(&m, 10.0).lines;
        for line in &lines {
            let p0 = part[line[0] as usize];
            assert!(line.iter().all(|&v| part[v as usize] == p0));
        }
    }

    #[test]
    fn ghost_counts_match_decomposition_surface() {
        let m = mesh();
        let part = partition_mesh_line_aware(&m, 4, 10.0);
        let (decomp, locals) = build_local_levels(&m, &part, 4, params());
        let total_owned: usize = locals.iter().map(|l| l.n_owned).sum();
        assert_eq!(total_owned, m.nvertices());
        // Every local mesh is structurally valid.
        for (p, l) in locals.iter().enumerate() {
            l.level.mesh.validate().unwrap();
            assert!(decomp.plans[p].degree() >= 1);
        }
        // Edges are globally conserved.
        let total_edges: usize = locals.iter().map(|l| l.level.mesh.nedges()).sum();
        assert_eq!(total_edges, m.nedges());
    }
}
