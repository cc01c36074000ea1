//! Fully distributed multigrid: every level domain-decomposed, with
//! cross-rank restriction/prolongation schedules.
//!
//! This is the machinery behind the paper's inter-grid transfer discussion
//! (§III and §VI): each level is partitioned *independently* for intra-level
//! balance, coarse partitions are greedily matched to fine partitions by
//! overlap, and the remaining non-local fine-coarse pairs exchange packed
//! transfer messages (state + residual down, corrections up). The measured
//! non-local fraction of these transfers is exactly what the machine model
//! prices against InfiniBand's random-ring weakness.
//!
//! The implementation is SPMD: every rank drives the one generic
//! `mg::fas_cycle` over its local sub-levels, each seen through a
//! [`MultigridLevel`] view whose transfers and norms are collectives.

use crate::level::SolverParams;
use crate::parallel::{
    build_local_levels, exchange_residual, parallel_residual_rms, parallel_sweep,
    partition_mesh_line_aware, LocalLevel,
};
use crate::state::NVARS;
use columbia_comm::{run_world_with, Decomposition, ExecContext, Rank, RankTrace};
use columbia_mesh::{agglomerate_hierarchy, UnstructuredMesh};
use columbia_mg::{fas_cycle, ConvergenceHistory, CycleParams, MultigridLevel};
use columbia_partition::match_levels;
use columbia_rt::trace::SpanKey;
use std::cell::RefCell;

/// Packed restriction entry: `vol * u` (6), fine residual (6) — the fine
/// volume rides along as entry 12 for the volume-weighted average.
const RESTRICT_WIDTH: usize = 13;

/// One fine→coarse transfer pair, local indices on both sides.
#[derive(Clone, Debug)]
struct TransferPair {
    /// Owned fine vertex (local index on the fine rank).
    fine_local: u32,
    /// Target coarse vertex (local index on the coarse rank).
    coarse_local: u32,
}

/// Transfer schedule between two adjacent levels for all ranks.
#[derive(Clone, Debug, Default)]
pub struct TransferSchedule {
    /// `local[rank]`: same-rank pairs.
    local: Vec<Vec<TransferPair>>,
    /// `sends[fine_rank]`: per peer coarse rank, ordered pairs (the fine
    /// side packs `fine_local` in list order).
    sends: Vec<Vec<(usize, Vec<TransferPair>)>>,
    /// `recvs[coarse_rank]`: per peer fine rank, the coarse-local targets
    /// in the exact order the fine side packs them.
    recvs: Vec<Vec<(usize, Vec<u32>)>>,
}

impl TransferSchedule {
    /// Fraction of fine vertices whose transfer crosses ranks.
    pub fn nonlocal_fraction(&self) -> f64 {
        let local: usize = self.local.iter().map(|v| v.len()).sum();
        let remote: usize = self
            .sends
            .iter()
            .flat_map(|peers| peers.iter().map(|(_, v)| v.len()))
            .sum();
        if local + remote == 0 {
            0.0
        } else {
            remote as f64 / (local + remote) as f64
        }
    }
}

/// The distributed multigrid solver state (builder side).
pub struct ParallelMg {
    /// Per level: decomposition (partition, ghost plans etc.).
    pub decomps: Vec<Decomposition>,
    /// Per level, per rank: local sub-level.
    pub locals: Vec<Vec<LocalLevel>>,
    /// Per level pair `l -> l+1`: transfer schedule.
    pub transfers: Vec<TransferSchedule>,
}

impl ParallelMg {
    /// Build the distributed hierarchy: agglomerate, partition every level
    /// independently (line-aware on the finest), greedily match coarse to
    /// fine partition labels, and precompute the transfer schedules.
    pub fn new(
        mesh: &UnstructuredMesh,
        params: SolverParams,
        nparts: usize,
        nlevels: usize,
    ) -> Self {
        let steps = agglomerate_hierarchy(mesh, nlevels, 10);
        // Global meshes per level (level 0 borrows the caller's).
        let mut meshes: Vec<&UnstructuredMesh> = vec![mesh];
        for s in &steps {
            meshes.push(&s.coarse);
        }
        let nlev = meshes.len();

        // Partition each level independently (all line-aware: implicit
        // lines exist on agglomerated levels too and must not be broken),
        // relabel each coarse partition for overlap with the next finer
        // level (the paper's greedy matching), and build its sub-levels.
        let mut decomps: Vec<Decomposition> = Vec::with_capacity(nlev);
        let mut locals = Vec::with_capacity(nlev);
        for (l, level) in meshes.iter().enumerate() {
            let mut part = partition_mesh_line_aware(level, nparts, params.line_threshold);
            if let Some(finer) = l.checked_sub(1) {
                let w = vec![1.0; meshes[finer].nvertices()];
                let map = &steps[finer].fine_to_coarse;
                part = match_levels(&decomps[finer].part, map, &part, nparts, &w).0;
            }
            let (d, ls) = build_local_levels(level, &part, nparts, params);
            decomps.push(d);
            locals.push(ls);
        }
        // Each rank's one sweep scratch, sized here on the building thread
        // for the largest level of the rank's column: sized lazily on a
        // rank thread it would land in that thread's malloc arena.
        for r in 0..nparts {
            let largest = locals.iter().map(|ls| ls[r].level.nvertices()).max();
            locals[0][r].level.reserve_scratch(largest.unwrap_or(0));
        }

        // Transfer schedules between adjacent levels.
        let mut transfers = Vec::with_capacity(nlev.saturating_sub(1));
        for l in 0..nlev - 1 {
            let map = &steps[l].fine_to_coarse;
            let fine_d = &decomps[l];
            let coarse_d = &decomps[l + 1];
            let mut sched = TransferSchedule {
                local: vec![Vec::new(); nparts],
                sends: vec![Vec::new(); nparts],
                recvs: vec![Vec::new(); nparts],
            };
            // Group pairs by (fine_rank, coarse_rank), ordered by
            // (coarse_global, fine_global) so both sides agree on layout;
            // the map's key order puts every rank's peers in ascending order.
            // Entry: (coarse_global, fine_local, coarse_local).
            type PairsByRanks = std::collections::BTreeMap<(usize, usize), Vec<(u32, u32, u32)>>;
            let mut grouped: PairsByRanks = PairsByRanks::new();
            for v in 0..meshes[l].nvertices() {
                let g = map[v];
                let fr = fine_d.owner(v as u32);
                let cr = coarse_d.owner(g);
                let fl = fine_d
                    .local_index(fr, v as u32)
                    .expect("owned fine vertex must be local");
                let cl = coarse_d
                    .local_index(cr, g)
                    .expect("owned coarse vertex must be local");
                grouped.entry((fr, cr)).or_default().push((g, fl, cl));
            }
            for ((fr, cr), mut pairs) in grouped {
                pairs.sort_unstable();
                let tp: Vec<TransferPair> = pairs
                    .iter()
                    .map(|&(_, fl, cl)| TransferPair {
                        fine_local: fl,
                        coarse_local: cl,
                    })
                    .collect();
                if fr == cr {
                    sched.local[fr].extend(tp);
                } else {
                    sched.recvs[cr].push((fr, tp.iter().map(|p| p.coarse_local).collect()));
                    sched.sends[fr].push((cr, tp));
                }
            }
            transfers.push(sched);
        }

        ParallelMg {
            decomps,
            locals,
            transfers,
        }
    }

    /// Number of levels built.
    pub fn nlevels(&self) -> usize {
        self.locals.len()
    }

    /// Each rank's column of sub-levels, finest first, moved out of
    /// `locals`.
    fn rank_columns(&mut self) -> Vec<Vec<LocalLevel>> {
        let mut columns: Vec<Vec<LocalLevel>> =
            (0..self.decomps[0].nparts()).map(|_| Vec::new()).collect();
        for level in self.locals.drain(..) {
            for (column, local) in columns.iter_mut().zip(level) {
                column.push(local);
            }
        }
        columns
    }

    /// Measured non-local transfer fractions per level pair.
    pub fn nonlocal_fractions(&self) -> Vec<f64> {
        self.transfers
            .iter()
            .map(|t| t.nonlocal_fraction())
            .collect()
    }

    /// Run `max_cycles` W-/V-cycles in parallel; returns the residual
    /// history (identical on every rank) and the per-rank teardown ledgers.
    ///
    /// Every rank runs under a multigrid-level context (sweeps attributed
    /// to their level, restriction/prolongation traffic to the *coarse*
    /// level of the pair — the intergrid cost the paper charges against
    /// coarse grids), so `traces[p].per_level` is always populated. A fault
    /// plan on `ctx` injects message/barrier faults per its seed, and an
    /// enabled tracer additionally records the ledgers under an `mg_solve`
    /// span. The default context runs clean with no recording overhead.
    pub fn solve(
        mut self,
        cp: &CycleParams,
        cfl: f64,
        max_cycles: usize,
        ctx: &mut ExecContext,
    ) -> (ConvergenceHistory, Vec<RankTrace>) {
        let columns = self.rank_columns();
        let decomps = &self.decomps;
        let transfers = &self.transfers;

        let (results, traces) = run_world_with(columns, ctx, |rank, mut levels| {
            for (l, lv) in levels.iter_mut().enumerate() {
                rank.enter_level(l);
                lv.level.cfl_now = cfl;
                lv.level.apply_bcs();
                decomps[l].plans[rank.rank()].exchange_copy_field(rank, 1, &mut lv.level.u);
                rank.exit_level();
            }
            let rank = RefCell::new(rank);
            let mut views: Vec<RankLevel> = levels
                .into_iter()
                .enumerate()
                .map(|(l, local)| RankLevel {
                    local,
                    l,
                    decomps,
                    transfers,
                    rank: &rank,
                })
                .collect();
            // The rank's own context: the caller's tracer records the
            // world, not each rank's level visits.
            let mut rank_ctx = ExecContext::default();
            let mut history = ConvergenceHistory::default();
            history.residuals.push(views[0].norm(900));
            for _cycle in 0..max_cycles {
                fas_cycle(&mut views, cp, &mut rank_ctx);
                history.residuals.push(views[0].residual_norm());
            }
            // No take_stats: the teardown sink hands the whole ledger back.
            history
        });

        let history = results.into_iter().next_back().unwrap_or_default();
        let tracer = ctx.tracer();
        tracer.scoped(SpanKey::new("mg_solve"), |t| {
            t.add("cycles", history.cycles() as u64);
            t.gauge("orders_reduced", history.orders_reduced());
            if let Some(&r) = history.residuals.last() {
                t.gauge("final_residual_rms", r);
            }
            for tr in &traces {
                tr.record_to(t);
            }
        });
        (history, traces)
    }
}

/// One rank's view of level `l` of the distributed hierarchy: the unit
/// `mg::fas_cycle` drives. All of a rank's levels share its comm context
/// through one `RefCell`. Sweeps and the norm are attributed to level `l`,
/// restriction and prolongation to the coarse level `l + 1` of their pair
/// (the intergrid cost the paper charges against coarse grids).
struct RankLevel<'a, 'r> {
    local: LocalLevel,
    l: usize,
    decomps: &'a [Decomposition],
    transfers: &'a [TransferSchedule],
    rank: &'a RefCell<&'r mut Rank>,
}

impl RankLevel<'_, '_> {
    /// The collective residual norm on message tag `tag`.
    fn norm(&mut self, tag: u64) -> f64 {
        let mut rank = self.rank.borrow_mut();
        rank.enter_level(self.l);
        let r = parallel_residual_rms(&mut self.local, &self.decomps[self.l], &mut rank, tag);
        rank.exit_level();
        r
    }
}

impl MultigridLevel for RankLevel<'_, '_> {
    fn smooth(&mut self, sweeps: usize) {
        let mut rank = self.rank.borrow_mut();
        rank.enter_level(self.l);
        for _ in 0..sweeps {
            parallel_sweep(&mut self.local, &self.decomps[self.l], &mut rank);
        }
        rank.exit_level();
    }

    /// Tag 901: the per-cycle norm (the initial one is 900).
    fn residual_norm(&mut self) -> f64 {
        self.norm(901)
    }

    fn restrict_into(&mut self, coarse: &mut Self) {
        let mut rank = self.rank.borrow_mut();
        rank.enter_level(coarse.l);
        parallel_restrict(self, coarse, &mut rank);
        rank.exit_level();
    }

    fn prolong_from(&mut self, coarse: &Self) {
        let mut rank = self.rank.borrow_mut();
        rank.enter_level(coarse.l);
        parallel_prolong(self, coarse, &mut rank);
        rank.exit_level();
    }
}

/// Distributed FAS restriction `l -> l+1`.
fn parallel_restrict(fine: &mut RankLevel, coarse: &mut RankLevel, rank: &mut Rank) {
    let p = rank.rank();
    let l = fine.l;
    let tag = 300 + 10 * l as u64;
    let sched = &fine.transfers[l];
    let plan_c = &coarse.decomps[coarse.l].plans[p];

    // Fine residual (complete at owners).
    exchange_residual(&mut fine.local.level, &fine.decomps[l].plans[p], rank, tag);

    let fine = &fine.local;
    let coarse = &mut coarse.local;

    // `sum vol u` accumulates into the coarse state and `sum r` into
    // `restricted_u`, so steady-state cycles allocate nothing.
    coarse.level.begin_restriction();

    // Send packed (vol*u, r, vol) per remote coarse rank. Payloads come
    // from the rank's pool, sized for the wider (restrict) direction so
    // restriction and prolongation ping-pong one recycled buffer per
    // peer pair.
    for (peer, pairs) in &sched.sends[p] {
        let mut buf = rank.buffer(*peer, RESTRICT_WIDTH.max(NVARS) * pairs.len());
        for pr in pairs {
            let v = pr.fine_local as usize;
            let vol = fine.level.mesh.volumes[v];
            for k in 0..NVARS {
                buf.push(vol * fine.level.u.at(k, v));
            }
            for k in 0..NVARS {
                buf.push(fine.level.res.at(k, v));
            }
            buf.push(vol);
        }
        rank.send(*peer, tag + 3, buf);
    }
    // Local pairs accumulate directly.
    for pr in &sched.local[p] {
        let (c, v) = (pr.coarse_local as usize, pr.fine_local as usize);
        coarse.level.restrict_vertex(c, &fine.level, v);
    }
    // Receive remote contributions.
    for (peer, targets) in &sched.recvs[p] {
        let buf = rank.recv(*peer, tag + 3);
        assert_eq!(
            buf.len(),
            targets.len() * RESTRICT_WIDTH,
            "rank {p}: restriction buffer size mismatch from peer {peer} on tag {}",
            tag + 3
        );
        for (i, &cl) in targets.iter().enumerate() {
            let entry = &buf[i * RESTRICT_WIDTH..];
            for k in 0..NVARS {
                *coarse.level.u.at_mut(k, cl as usize) += entry[k];
                *coarse.level.restricted_u.at_mut(k, cl as usize) += entry[NVARS + k];
            }
        }
        rank.recycle(*peer, buf);
    }

    // The fine residual has been read: the sweep scratch goes down.
    coarse.level.borrow_scratch(&fine.level);
    coarse.level.average_restricted_state();
    coarse.level.apply_bcs();
    plan_c.exchange_copy_field(rank, tag + 4, &mut coarse.level.u);

    // FAS forcing: f_c = N_c(u_hat) + R(r_f) — N_c with zero forcing via
    // the parallel residual phases.
    exchange_residual(&mut coarse.level, plan_c, rank, tag + 5);
    coarse.level.finish_restriction();
}

/// Distributed FAS prolongation `l+1 -> l` with the same damping +
/// positivity backtracking as the serial driver.
fn parallel_prolong(fine: &mut RankLevel, coarse: &RankLevel, rank: &mut Rank) {
    let p = rank.rank();
    let l = fine.l;
    let tag = 600 + 10 * l as u64;
    let sched = &fine.transfers[l];
    let plan_f = &fine.decomps[l].plans[p];
    let fine = &mut fine.local;
    let coarse = &coarse.local;
    fine.level.borrow_scratch(&coarse.level);

    // Remote: the coarse side sends one 6-vector per fine vertex in the
    // agreed order (reverse direction of the restriction lists). The
    // pooled request is sized for the wider restrict direction so the
    // buffer received during restriction is reused here.
    for (peer, targets) in &sched.recvs[p] {
        let mut buf = rank.buffer(*peer, RESTRICT_WIDTH.max(NVARS) * targets.len());
        for &cl in targets {
            buf.extend_from_slice(&coarse.level.correction(cl as usize));
        }
        rank.send(*peer, tag, buf);
    }
    for pr in &sched.local[p] {
        let corr = coarse.level.correction(pr.coarse_local as usize);
        fine.level.apply_correction(pr.fine_local as usize, &corr);
    }
    for (peer, pairs) in &sched.sends[p] {
        let buf = rank.recv(*peer, tag);
        assert_eq!(
            buf.len(),
            pairs.len() * NVARS,
            "rank {p}: prolongation buffer size mismatch from peer {peer} on tag {tag}"
        );
        for (i, pr) in pairs.iter().enumerate() {
            let corr = std::array::from_fn(|k| buf[i * NVARS + k]);
            fine.level.apply_correction(pr.fine_local as usize, &corr);
        }
        rank.recycle(*peer, buf);
    }
    fine.level.apply_bcs();
    plan_f.exchange_copy_field(rank, tag + 1, &mut fine.level.u);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::RansSolver;
    use columbia_comm::Executor;
    use columbia_mesh::{wing_mesh, WingMeshSpec};
    use columbia_mg::{level_visits, solve_to_tolerance, CycleType};

    fn mesh() -> UnstructuredMesh {
        wing_mesh(&WingMeshSpec {
            ni: 24,
            nj: 5,
            nk: 12,
            nk_bl: 6,
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
    fn schedules_cover_every_fine_vertex_exactly_once() {
        let m = mesh();
        let pmg = ParallelMg::new(&m, params(), 4, 3);
        assert!(pmg.nlevels() >= 3);
        for (l, sched) in pmg.transfers.iter().enumerate() {
            let local: usize = sched.local.iter().map(|v| v.len()).sum();
            let remote: usize = sched
                .sends
                .iter()
                .flat_map(|s| s.iter().map(|(_, v)| v.len()))
                .sum();
            let n_fine: usize = pmg.decomps[l].n_owned.iter().sum();
            assert_eq!(local + remote, n_fine, "level {l} transfer coverage");
        }
        // Greedy matching keeps most transfers local.
        let fr = pmg.nonlocal_fractions();
        assert!(fr.iter().all(|&f| f < 0.7), "nonlocal fractions {fr:?}");
    }

    #[test]
    fn parallel_multigrid_matches_serial_history() {
        let m = mesh();
        let cp = CycleParams::default();
        let cfl = 4.0;

        // Serial reference at fixed CFL.
        let mut serial = RansSolver::new(m.clone(), params(), 3);
        serial.set_cfl(cfl);
        let sh = solve_to_tolerance(&mut serial.levels, &cp, 0.0, 3, &mut ExecContext::default());

        let pmg = ParallelMg::new(&m, params(), 3, 3);
        let (ph, traces) = pmg.solve(&cp, cfl, 3, &mut ExecContext::default());

        assert_eq!(sh.residuals.len(), ph.residuals.len());
        for (i, (a, b)) in sh.residuals.iter().zip(ph.residuals.iter()).enumerate() {
            assert!(
                (a - b).abs() <= 1e-6 * (1.0 + a.abs()),
                "cycle {i}: serial {a} vs parallel {b}"
            );
        }
        // Inter-grid messages actually flowed.
        assert!(traces.iter().any(|t| t.stats.total_msgs() > 0));
    }

    #[test]
    fn traced_solve_attributes_traffic_per_level() {
        let m = mesh();
        let nlevels = {
            let pmg = ParallelMg::new(&m, params(), 3, 3);
            pmg.nlevels()
        };
        let run = || {
            let pmg = ParallelMg::new(&m, params(), 3, 3);
            let mut ctx = ExecContext::traced();
            let (h, traces) = pmg.solve(&CycleParams::default(), 4.0, 2, &mut ctx);
            (h, traces, ctx.finish_trace().to_json().render())
        };
        let (h, traces, json) = run();
        assert!(h.cycles() == 2);
        for tr in &traces {
            // Every level has an attributed ledger, and it's all attributed:
            // no send escaped the level contexts.
            assert_eq!(tr.per_level.len(), nlevels, "rank {}", tr.rank);
            let attributed: u64 = tr.per_level.values().map(|s| s.total_msgs()).sum();
            assert_eq!(attributed, tr.stats.total_msgs(), "rank {}", tr.rank);
            // Smoothing happens on every level, so every level communicates.
            assert!(tr.per_level.values().all(|s| s.total_msgs() > 0));
        }
        // Byte-identical across runs, structure intact.
        let (_, _, json2) = run();
        assert_eq!(json, json2, "traced solve must be deterministic");
        assert!(json.contains("\"mg_solve\""));
        assert!(json.contains("\"comm_level\""));
    }

    /// The finest rank levels hold no restricted state and no forcing
    /// after a cycle; every coarser rank level has both, sized by its
    /// restrictions.
    #[test]
    fn finest_rank_levels_carry_no_fas_fields() {
        let mut pmg = ParallelMg::new(&mesh(), params(), 3, 3);
        let columns = pmg.rank_columns();
        let (decomps, transfers) = (&pmg.decomps, &pmg.transfers);
        // Per rank and level: (restricted_u, forcing, vertices) after a
        // cycle of the views `ParallelMg::solve` drives.
        let (sizes, _) = run_world_with(columns, &ExecContext::default(), |rank, levels| {
            let rank = RefCell::new(rank);
            let view = |(l, local)| RankLevel {
                local,
                l,
                decomps,
                transfers,
                rank: &rank,
            };
            let mut views: Vec<RankLevel> = levels.into_iter().enumerate().map(view).collect();
            fas_cycle(
                &mut views,
                &CycleParams::default(),
                &mut ExecContext::default(),
            );
            let lens = |v: &RankLevel| {
                let lvl = &v.local.level;
                (lvl.restricted_u.len(), lvl.forcing.len(), lvl.nvertices())
            };
            views.iter().map(lens).collect::<Vec<_>>()
        });
        for rank in sizes {
            let (fine, coarse) = rank.split_first().expect("three levels");
            assert_eq!((fine.0, fine.1), (0, 0), "finest level");
            assert!(coarse.iter().all(|&(r, f, n)| r == n && f == n));
        }
    }

    /// The proof that one sweep scratch can serve a hierarchy: with the
    /// scratch overwritten with NaN at every hand-over (restriction and
    /// prolongation), a serial 5-level W-cycle and a 4-rank 3-level solve
    /// on both executors leave the same residual history and state bits as
    /// unpoisoned runs. A kernel that reads the scratch before writing it
    /// fails here. The 22k-point wing is about the smallest that
    /// agglomerates to five levels.
    #[test]
    fn lent_scratch_is_never_read_before_it_is_written() {
        let m = wing_mesh(&WingMeshSpec {
            jitter: 0.0,
            ..WingMeshSpec::with_target_points(20_000)
        });
        let cp = CycleParams::default();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let serial = |poison: bool| {
            let mut s = RansSolver::new(m.clone(), params(), 5);
            assert_eq!(s.nlevels(), 5);
            s.levels[0].scratch.get_mut().poison = poison;
            let mut out = bits(&s.solve(&cp, 0.0, 1).residuals);
            for lvl in &s.levels {
                out.extend((0..NVARS).flat_map(|k| bits(lvl.u.plane(k))));
            }
            out
        };
        assert_eq!(serial(true), serial(false), "serial W-cycles");
        for exec in [Executor::Threads, Executor::Events] {
            let solve = |poison: bool| {
                let mut pmg = ParallelMg::new(&mesh(), params(), 4, 3);
                for local in &mut pmg.locals[0] {
                    local.level.scratch.get_mut().poison = poison;
                }
                let mut ctx = ExecContext::default().with_executor(exec);
                bits(&pmg.solve(&cp, 4.0, 2, &mut ctx).0.residuals)
            };
            assert_eq!(solve(true), solve(false), "4 ranks, {exec:?}");
        }
    }

    #[test]
    fn halo_exchanges_per_visit_is_what_the_solve_sends() {
        let m = mesh();
        for cycle in [CycleType::V, CycleType::W] {
            let cp = CycleParams {
                cycle,
                ..Default::default()
            };
            // Per rank of a 2-rank world: total sends of a `cycles`-cycle
            // solve, and the transfer messages of one cycle.
            let run = |cycles| {
                let pmg = ParallelMg::new(&m, params(), 2, 3);
                let visits = level_visits(pmg.nlevels(), cycle);
                let transfers: Vec<usize> = (0..2)
                    .map(|p| {
                        let pairs = pmg.transfers.iter().zip(&visits);
                        pairs
                            .map(|(t, v)| v * (t.sends[p].len() + t.recvs[p].len()))
                            .sum()
                    })
                    .collect();
                let nlevels = pmg.nlevels();
                let (_, traces) = pmg.solve(&cp, 4.0, cycles, &mut ExecContext::default());
                let sends: Vec<u64> = traces.iter().map(|t| t.stats.total_msgs()).collect();
                (sends, transfers, visits.iter().sum::<usize>(), nlevels)
            };
            let (one, _, _, _) = run(1);
            let (two, transfers, visits, nlevels) = run(2);
            for p in 0..2 {
                // One cycle's sends less its transfers and the norm's two
                // collectives (rank 0 broadcasts, rank 1 contributes).
                let halo = (two[p] - one[p]) as usize - transfers[p] - 2;
                assert_eq!(
                    halo as f64 / visits as f64,
                    crate::profile::halo_exchanges_per_visit(&cp, nlevels),
                    "{cycle:?} rank {p}"
                );
            }
        }
    }

    /// The measured profile's halo price: on a one-level 2-rank world, a
    /// cycle's halo bytes are the priced bytes per ghost per exchange times
    /// the exchanges times the ghosts.
    #[test]
    fn halo_bytes_per_exchange_is_what_the_solve_sends() {
        let m = mesh();
        let cp = CycleParams::default();
        let run = |cycles| {
            let pmg = ParallelMg::new(&m, params(), 2, 1);
            assert_eq!(pmg.nlevels(), 1);
            let ghosts: usize = (0..2).map(|p| pmg.decomps[0].ghosts(p)).sum();
            let (_, traces) = pmg.solve(&cp, 4.0, cycles, &mut ExecContext::default());
            let bytes: u64 = traces.iter().map(|t| t.stats.total_bytes()).sum();
            (bytes, ghosts)
        };
        let (one, _) = run(1);
        let (two, ghosts) = run(2);
        // One cycle's bytes less the norm's two one-value collectives per
        // rank.
        let collectives = 2 * 2 * std::mem::size_of::<f64>() as u64;
        let halo = two - one - collectives;
        let exchanges = crate::profile::halo_exchanges_per_visit(&cp, 1);
        let priced = crate::profile::halo_bytes_per_exchange(&cp, 1) * exchanges * ghosts as f64;
        assert!(ghosts > 0);
        assert_eq!(priced.round() as u64, halo);
    }

    #[test]
    fn parallel_multigrid_converges_on_more_ranks() {
        let m = mesh();
        let pmg = ParallelMg::new(&m, params(), 6, 3);
        let (h, _) = pmg.solve(
            &CycleParams::default(),
            6.0,
            12,
            &mut ExecContext::default(),
        );
        assert!(
            h.orders_reduced() > 2.0,
            "distributed MG failed to converge: {} orders",
            h.orders_reduced()
        );
    }
}
