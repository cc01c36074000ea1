//! The pooled/coalesced halo-exchange path: equivalence with the seed
//! per-field implementation, and the zero-allocation steady state.
//!
//! The buffer pool and the packed schedules may change *how* payloads move
//! — recycled allocations, one coalesced message per peer — but never a
//! single bit of *what* arrives. These tests pin both properties:
//!
//! * pooled `exchange_{copy,add,add2}_field` produce results
//!   bit-identical to the seed `_ref` paths for random decompositions at
//!   2/4/8 ranks, with and without an active fault plan;
//! * after one warm-up cycle the pool-miss counter stays at zero — the
//!   steady-state exchange performs no payload allocations — for a
//!   mixed-width comm workload, the RANS smoothing sweep, and full
//!   multigrid cycles;
//! * the RANS sweep's one coalesced add, made in place on the level's
//!   gradient, residual and diagonal, moves exactly what the level's
//!   pack-scratch route moves;
//! * the RANS sweep's traffic contract in exact numbers: a sweep and a
//!   norm send what the traffic oracle (`tests/common/traffic.rs`)
//!   predicts, per rank and peer.
//!
//! Every world runs on both executors.

use columbia_comm::{
    decompose, run_world, run_world_with, Decomposition, ExchangePlan, FaultConfig, FaultPlan,
    HaloField, Rank, RankTrace,
};
use columbia_linalg::SoaStates;
use columbia_mesh::{wing_mesh, WingMeshSpec};
use columbia_mg::{level_visits, CycleParams};
use columbia_rans::level::SolverParams;
use columbia_rans::parallel::{
    build_local_levels, parallel_residual_rms, parallel_sweep, partition_mesh_line_aware,
    LocalLevel,
};
use columbia_rans::parallel_mg::ParallelMg;
use columbia_rans::{RansSolver, NVARS};
use columbia_rt::rng::Pcg32;
use std::sync::Arc;

mod common;
use common::{on, CHAOS_SEEDS, EXECUTORS};
#[path = "common/traffic.rs"]
mod traffic;
use traffic::{assert_ledgers, parallel_mg_with, RansWire, Traffic, RANS};

/// Random grid decomposition: an `nx x ny` grid graph with a seeded random
/// partition (every rank guaranteed at least one vertex).
fn random_decomp(seed: u64, nx: usize, ny: usize, nparts: usize) -> Decomposition {
    let n = nx * ny;
    let id = |x: usize, y: usize| (x + nx * y) as u32;
    let mut edges = Vec::new();
    for y in 0..ny {
        for x in 0..nx {
            if x + 1 < nx {
                edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < ny {
                edges.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    let mut rng = Pcg32::seed_from_u64(seed);
    let part: Vec<u32> = (0..n)
        .map(|v| {
            if v < nparts {
                v as u32
            } else {
                rng.gen_below(nparts as u64) as u32
            }
        })
        .collect();
    decompose(n, &part, nparts, &edges)
}

/// Deterministic per-vertex field values derived from the global id.
fn seed_fields(decomp: &Decomposition, p: usize) -> (Vec<[f64; 3]>, Vec<[f64; 2]>) {
    let l2g = &decomp.local_to_global[p];
    let a = l2g
        .iter()
        .map(|&g| [g as f64 + 0.25, 2.0 * g as f64 - 1.5, 0.125 * g as f64])
        .collect();
    let b = l2g
        .iter()
        .map(|&g| [3.0 * g as f64 + 0.5, g as f64 * g as f64 * 1e-3])
        .collect();
    (a, b)
}

/// The seed (pre-pool) copy path, kept as the reference: one fresh
/// allocation per peer, no pool interaction, no flat-table walk.
fn exchange_copy_ref<const N: usize>(
    plan: &ExchangePlan,
    rank: &mut Rank,
    tag: u64,
    data: &mut [[f64; N]],
) {
    for (peer, idx) in plan.send_peers() {
        let buf = idx.iter().flat_map(|&i| data[i as usize]).collect();
        rank.send(peer, tag, buf);
    }
    for (peer, idx) in plan.recv_peers() {
        let buf = rank.recv(peer, tag);
        assert_eq!(buf.len(), idx.len() * N, "framing from peer {peer}");
        for (k, &i) in idx.iter().enumerate() {
            data[i as usize].copy_from_slice(&buf[k * N..(k + 1) * N]);
        }
    }
}

/// The seed (pre-pool) accumulate path; see [`exchange_copy_ref`].
fn exchange_add_ref<const N: usize>(
    plan: &ExchangePlan,
    rank: &mut Rank,
    tag: u64,
    data: &mut [[f64; N]],
) {
    for (peer, idx) in plan.recv_peers() {
        let buf = idx.iter().flat_map(|&i| data[i as usize]).collect();
        for &i in idx {
            data[i as usize] = [0.0; N];
        }
        rank.send(peer, tag, buf);
    }
    for (peer, idx) in plan.send_peers() {
        let buf = rank.recv(peer, tag);
        assert_eq!(buf.len(), idx.len() * N, "framing from peer {peer}");
        for (k, &i) in idx.iter().enumerate() {
            for c in 0..N {
                data[i as usize][c] += buf[k * N + c];
            }
        }
    }
}

/// Three cycles of mixed adds/copies over both fields; `pooled` selects
/// the pooled/coalesced path or the seed `_ref` per-field path.
fn exchange_workload(
    decomp: &Decomposition,
    rank: &mut Rank,
    pooled: bool,
    cycles: usize,
) -> Vec<u64> {
    let p = rank.rank();
    let plan = &decomp.plans[p];
    let (mut a, mut b) = seed_fields(decomp, p);
    for c in 0..cycles as u64 {
        let base = 10 * c;
        if pooled {
            plan.exchange_add_field(rank, base, &mut a[..]);
            plan.exchange_copy_field(rank, base + 1, &mut a[..]);
            plan.exchange_add2_field(rank, base + 2, &mut a[..], &mut b[..]);
            plan.exchange_copy_field(rank, base + 3, &mut a[..]);
            plan.exchange_copy_field(rank, base + 4, &mut b[..]);
        } else {
            exchange_add_ref(plan, rank, base, &mut a);
            exchange_copy_ref(plan, rank, base + 1, &mut a);
            exchange_add_ref(plan, rank, base + 2, &mut a);
            exchange_add_ref(plan, rank, base + 4, &mut b);
            exchange_copy_ref(plan, rank, base + 5, &mut a);
            exchange_copy_ref(plan, rank, base + 3, &mut b);
        }
    }
    let mut bits = Vec::with_capacity(a.len() * 5);
    bits.extend(a.iter().flatten().map(|v| v.to_bits()));
    bits.extend(b.iter().flatten().map(|v| v.to_bits()));
    bits
}

fn chaos_plan(seed: u64, nranks: usize) -> Arc<FaultPlan> {
    Arc::new(FaultPlan::new(
        seed,
        nranks,
        FaultConfig {
            dup_rate: 0.6,
            max_dups: 3,
            delay_rate: 0.5,
            max_delay_slots: 4,
            ..FaultConfig::fault_free()
        },
    ))
}

columbia_rt::props! {
    config: columbia_rt::props::Config::with_cases(12);

    /// Pooled + coalesced exchanges deliver bit-identical fields to the
    /// seed per-field path for random decompositions, clean or faulty.
    fn prop_pooled_exchange_matches_seed_path(seed in 0u64..u64::MAX) {
        for nparts in [2usize, 4, 8] {
            let decomp = Arc::new(random_decomp(seed, 10, 8, nparts));
            let run = |exec, pooled: bool, plan: Option<Arc<FaultPlan>>| {
                let d = Arc::clone(&decomp);
                run_world(nparts, &on(exec).with_faults(plan), move |rank| {
                    exchange_workload(&d, rank, pooled, 3)
                })
                .0
            };
            for exec in EXECUTORS {
                let reference = run(exec, false, None);
                let pooled_clean = run(exec, true, None);
                let pooled_chaos = run(exec, true, Some(chaos_plan(seed ^ 0x5EED, nparts)));
                assert_eq!(
                    reference, pooled_clean,
                    "seed {seed}: pooled exchange diverged at {nparts} ranks on {exec:?}"
                );
                assert_eq!(
                    reference, pooled_chaos,
                    "seed {seed}: faulted pooled exchange diverged at {nparts} ranks on {exec:?}"
                );
            }
        }
    }
}

#[test]
fn pool_misses_stop_after_first_cycle_in_mixed_workload() {
    // Mixed widths, coalesced messages, and an active dup/delay fault plan:
    // after the warm-up cycle every payload comes from the pool.
    let nparts = 4;
    let decomp = Arc::new(random_decomp(99, 12, 9, nparts));
    for exec in EXECUTORS {
        let plan = chaos_plan(1234, nparts);
        let per_cycle = run_world(nparts, &on(exec).with_faults(Some(plan)), |rank| {
            let p = rank.rank();
            let plan = &decomp.plans[p];
            let (mut a, mut b) = seed_fields(&decomp, p);
            let mut stats_per_cycle = Vec::new();
            for c in 0..5u64 {
                let base = 10 * c;
                plan.exchange_add_field(rank, base, &mut a[..]);
                plan.exchange_copy_field(rank, base + 1, &mut a[..]);
                plan.exchange_add2_field(rank, base + 2, &mut a[..], &mut b[..]);
                plan.exchange_copy_field(rank, base + 3, &mut b[..]);
                stats_per_cycle.push(rank.take_stats());
            }
            stats_per_cycle
        })
        .0;
        for (r, cycles) in per_cycle.iter().enumerate() {
            let warm = cycles[0].pool();
            if decomp.plans[r].degree() > 0 {
                assert!(warm.misses > 0, "rank {r}: warm-up cycle must allocate");
                assert!(warm.coalesced_msgs > 0, "rank {r}: add2 must coalesce");
            }
            for (c, s) in cycles.iter().enumerate().skip(1) {
                assert_eq!(
                    s.pool().misses,
                    0,
                    "rank {r} cycle {c}: steady-state exchange allocated"
                );
                if decomp.plans[r].degree() > 0 {
                    assert!(s.pool().hits > 0, "rank {r} cycle {c}: pool unused");
                    assert_eq!(
                        s.pool().recycled,
                        s.pool().hits,
                        "rank {r} cycle {c}: steady state must conserve buffers"
                    );
                }
            }
        }
    }
}

fn small_wing() -> columbia_mesh::UnstructuredMesh {
    wing_mesh(&WingMeshSpec {
        ni: 16,
        nj: 4,
        nk: 10,
        nk_bl: 5,
        jitter: 0.0,
        ..Default::default()
    })
}

fn rans_params() -> SolverParams {
    SolverParams {
        mach: 0.5,
        ..Default::default()
    }
}

#[test]
fn rans_sweep_reaches_zero_alloc_steady_state() {
    // The real smoothing sweep: one coalesced add of gradient, residual
    // and diagonal (6+6+37), one state copy (6). From the second sweep on,
    // the pool serves every payload.
    let m = small_wing();
    let nparts = 4;
    let part = partition_mesh_line_aware(&m, nparts, rans_params().line_threshold);
    for exec in EXECUTORS {
        let (decomp, locals) = build_local_levels(&m, &part, nparts, rans_params());
        let (per_cycle, _) = run_world_with(locals, &on(exec), |rank, mut local| {
            local.level.apply_bcs();
            decomp.plans[rank.rank()].exchange_copy_field(rank, 1, &mut local.level.u);
            let mut stats_per_cycle = Vec::new();
            for _ in 0..4 {
                parallel_sweep(&mut local, &decomp, rank);
                stats_per_cycle.push(rank.take_stats());
            }
            stats_per_cycle
        });
        for (r, cycles) in per_cycle.iter().enumerate() {
            assert!(
                cycles[0].pool().hits > 0,
                "rank {r}: sweep never hit the pool"
            );
            for (c, s) in cycles.iter().enumerate().skip(1) {
                assert_eq!(
                    s.pool().misses,
                    0,
                    "rank {r} sweep {c}: steady-state sweep allocated a payload"
                );
                assert!(s.pool().hits > 0, "rank {r} sweep {c}: pool unused");
                assert!(
                    s.pool().coalesced_msgs > 0,
                    "rank {r} sweep {c}: no coalescing"
                );
            }
        }
    }
}

#[test]
fn multigrid_cycles_allocate_only_during_warmup() {
    // Acceptance criterion, verbatim: the pool-miss counter is zero from
    // the second multigrid cycle onward. Misses are deterministic, so the
    // total after k >= 1 cycles must equal the total after 1 cycle — every
    // restriction, prolongation and sweep on every level is served from
    // buffers recycled during the first cycle.
    let m = small_wing();
    let cp = CycleParams::default();
    for exec in EXECUTORS {
        let run = |cycles: usize| {
            let pmg = ParallelMg::new(&m, rans_params(), 3, 3);
            let (_, traces) = pmg.solve(&cp, 4.0, cycles, &mut on(exec));
            traces
        };
        let one = run(1);
        let three = run(3);
        for (r, (t1, t3)) in one.iter().zip(&three).enumerate() {
            assert_eq!(
                t1.stats.pool().misses,
                t3.stats.pool().misses,
                "rank {r}: multigrid cycles 2-3 allocated payload buffers"
            );
            assert!(
                t3.stats.pool().hits > t1.stats.pool().hits,
                "rank {r}: later cycles must reuse pooled buffers"
            );
        }
    }
}

/// `parallel_sweep` by the pack-scratch route, kept as the reference:
/// flux and diagonal in two edge passes, and the diagonal copied out to
/// the level's pack scratch, sent from there in the sweep's one coalesced
/// add beside the gradient and the residual, and copied back.
fn scratch_route_sweep(local: &mut LocalLevel, decomp: &Decomposition, rank: &mut Rank) {
    let plan = &decomp.plans[rank.rank()];
    let lvl = &mut local.level;
    lvl.begin_residual();
    lvl.accumulate_gradients();
    lvl.accumulate_fluxes();
    lvl.accumulate_diagonal();
    lvl.pack_diag_scratch();
    // The pack buffer is only reachable through `&mut RansLevel`, so the
    // gradient and `res` step out of the level for the call.
    let mut grad = std::mem::replace(lvl.grad_mut(), SoaStates::zeros(0));
    let mut res = std::mem::replace(&mut lvl.res, SoaStates::zeros(0));
    let diag = lvl.diag_pack_mut();
    plan.exchange_add_field(rank, 12, &mut (&mut grad, &mut (&mut res, diag)));
    *lvl.grad_mut() = grad;
    lvl.res = res;
    lvl.unpack_diag_scratch();
    lvl.finalize_gradients();
    lvl.finalize_residual();
    lvl.finalize_diagonal();
    lvl.solve_implicit();
    plan.exchange_copy_field(rank, 15, &mut lvl.u);
}

/// What one sweep leaves on a rank: `u` bits (owned and ghost), the owned
/// diagonal blocks and `lamsum` as their wire values, and whether the
/// pack scratch is still empty.
type SweepBits = (Vec<u64>, Vec<u64>, bool);

#[test]
fn in_place_diagonal_exchange_matches_the_pack_scratch_route() {
    let m = small_wing();
    for nparts in [2usize, 4, 8] {
        let part = partition_mesh_line_aware(&m, nparts, rans_params().line_threshold);
        let severe = Arc::new(FaultPlan::new(
            CHAOS_SEEDS[0],
            nparts,
            FaultConfig::severe(),
        ));
        for exec in EXECUTORS {
            for plan in [None, Some(Arc::clone(&severe))] {
                let run = |in_place: bool| {
                    let (decomp, locals) = build_local_levels(&m, &part, nparts, rans_params());
                    let ctx = on(exec).with_faults(plan.clone());
                    run_world_with(locals, &ctx, |rank, mut local| {
                        local.level.apply_bcs();
                        decomp.plans[rank.rank()].exchange_copy_field(rank, 1, &mut local.level.u);
                        if in_place {
                            parallel_sweep(&mut local, &decomp, rank);
                        } else {
                            scratch_route_sweep(&mut local, &decomp, rank);
                        }
                        let lvl = &mut local.level;
                        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        let u = (0..NVARS).flat_map(|k| bits(lvl.u.plane(k))).collect();
                        let pack_empty = lvl.diag_pack_mut().is_empty();
                        let (_, _, diag) = lvl.residual_halo();
                        let mut wire = Vec::new();
                        for v in 0..decomp.n_owned[rank.rank()] {
                            diag.pack_entry(v, &mut wire);
                        }
                        let out: SweepBits = (u, bits(&wire), pack_empty);
                        out
                    })
                };
                let label = format!("{nparts} ranks, {exec:?}, faults: {}", plan.is_some());
                let (in_place, in_place_traces) = run(true);
                let (scratch, scratch_traces) = run(false);
                for (p, (a, b)) in in_place.iter().zip(&scratch).enumerate() {
                    assert!(a.0 == b.0, "{label}: rank {p}: u differs");
                    assert!(a.1 == b.1, "{label}: rank {p}: owned diag/lamsum differ");
                    assert!(
                        a.2,
                        "{label}: rank {p}: the solver's sweep sized the pack scratch"
                    );
                    assert!(!b.2, "{label}: rank {p}: the scratch route left it empty");
                }
                for (a, b) in in_place_traces.iter().zip(&scratch_traces) {
                    assert!(a.stats.total_bytes() > 0 && a.stats.pool().coalesced_msgs > 0);
                    assert_eq!(a.stats, b.stats, "{label}: rank {} CommStats", a.rank);
                }
            }
        }
    }

    // The finest level of a serial solve holds no restricted state and no
    // forcing; every coarser level has both, sized by its restrictions.
    let mut solver = RansSolver::new(m, rans_params(), 3);
    solver.solve(&CycleParams::default(), 0.0, 2);
    let (fine, coarse) = solver.levels.split_first_mut().expect("three levels");
    assert!(fine.restricted_u.is_empty() && fine.forcing.is_empty());
    assert!(fine.diag_pack_mut().is_empty());
    for lvl in coarse {
        assert_eq!(lvl.restricted_u.len(), lvl.nvertices());
        assert_eq!(lvl.forcing.len(), lvl.nvertices());
    }
}

#[test]
fn rans_sweep_traffic_contract_in_exact_numbers() {
    // Per phase, each rank's ledger is the oracle's: a sweep is one
    // coalesced add and one state copy per peer, a norm one residual add
    // per peer beside its two gather-and-broadcast collectives.
    let m = small_wing();
    for nparts in [2usize, 4, 8] {
        let part = partition_mesh_line_aware(&m, nparts, rans_params().line_threshold);
        for exec in EXECUTORS {
            let (decomp, locals) = build_local_levels(&m, &part, nparts, rans_params());
            let (ledgers, _) = run_world_with(locals, &on(exec), |rank, mut local| {
                local.level.apply_bcs();
                decomp.plans[rank.rank()].exchange_copy_field(rank, 1, &mut local.level.u);
                rank.take_stats();
                let phase = |rank: &mut Rank| RankTrace {
                    rank: rank.rank(),
                    stats: rank.take_stats(),
                    ..Default::default()
                };
                parallel_sweep(&mut local, &decomp, rank);
                let sweep = phase(rank);
                parallel_sweep(&mut local, &decomp, rank);
                let second = phase(rank);
                parallel_residual_rms(&mut local, &decomp, rank, 20);
                [sweep, second, phase(rank)]
            });
            let sweep = Traffic::new(nparts).sweeps(&decomp, &RANS, 1).finish();
            let norm = Traffic::new(nparts)
                .residual(&decomp, &RANS)
                .norm()
                .finish();
            for (i, (phase, want)) in [("sweep", &sweep), ("sweep", &sweep), ("norm", &norm)]
                .into_iter()
                .enumerate()
            {
                let got: Vec<RankTrace> = ledgers.iter().map(|l| l[i].clone()).collect();
                assert_ledgers(
                    &got,
                    want,
                    &format!("{nparts} ranks, {exec:?}, {phase} {i}"),
                );
            }
        }
    }
}

/// `d` with every dead ghost dropped from its plans: a ghost no local edge
/// of its rank touches is never read, so neither end need send it.
fn live_ghosts_only(d: &Decomposition, locals: &[LocalLevel]) -> Decomposition {
    let mut sends = vec![Vec::new(); d.nparts()];
    let mut recvs = sends.clone();
    for (p, (plan, local)) in d.plans.iter().zip(locals).enumerate() {
        let mut live = vec![false; local.level.nvertices()];
        for e in &local.level.mesh.edges {
            live[e.a as usize] = true;
            live[e.b as usize] = true;
        }
        for (q, idx) in plan.recv_peers() {
            let (_, back) = d.plans[q].send_peers().find(|&(to, _)| to == p).unwrap();
            let kept = idx.iter().zip(back).filter(|(&i, _)| live[i as usize]);
            let (mine, theirs): (Vec<u32>, Vec<u32>) = kept.unzip();
            if !mine.is_empty() {
                recvs[p].push((q, mine));
                sends[q].push((p, theirs));
            }
        }
    }
    let plans = sends.into_iter().zip(recvs);
    Decomposition {
        plans: plans.map(|(s, r)| ExchangePlan::new(s, r)).collect(),
        ..d.clone()
    }
}

/// The probe behind EXPERIMENTS.md's "Traffic predicted": per W(2,1) cycle
/// on `rans27k_r8_events`'s and `rans100k_r2_threads`'s meshes (6 levels
/// asked), the messages and bytes of (a) today's schedule, (b) today's
/// without the dead ghosts and (c) owner-computes (every edge incident to
/// an owned vertex assembled on its rank, so each sweep and residual sends
/// a 6-value gradient copy where today it adds 49 or 12 values, and every
/// cut edge is assembled twice), and what the unread 13th restriction
/// value costs. Prints markdown rows:
/// `cargo test --release --test exchange_pooling -- --ignored --nocapture traffic_schedules`.
#[test]
#[ignore = "a probe that prints EXPERIMENTS.md's traffic table"]
fn traffic_schedules_on_the_benchmark_meshes() {
    let cp = CycleParams::default();
    let world = |pmg: &ParallelMg, wire: &RansWire| {
        let sum = |cycles| {
            let traces = parallel_mg_with(pmg, &cp, cycles, wire);
            let stats = traces.iter().map(|t| &t.stats);
            stats.fold((0, 0), |(m, b), s| {
                (m + s.total_msgs(), b + s.total_bytes())
            })
        };
        let ((m1, b1), (m2, b2)) = (sum(1), sum(2));
        (m2 - m1, b2 - b1)
    };
    let owner_computes = RansWire {
        sweep: 6,
        residual: 6,
        ..RANS
    };
    println!("| mesh | seed | (a) msgs / MB | (b) msgs / MB | (c) msgs / MB | (c) extra edge work | dead L0 ghosts | 13th value |");
    for (name, points, nranks) in [
        ("rans27k_r8_events", 25_000, 8),
        ("rans100k_r2_threads", 100_000, 2),
    ] {
        for seed in [42, 20050512] {
            let mesh = wing_mesh(&WingMeshSpec {
                seed,
                ..WingMeshSpec::with_target_points(points)
            });
            let mut pmg = ParallelMg::new(&mesh, rans_params(), nranks, 6);
            let (today, owner) = (world(&pmg, &RANS), world(&pmg, &owner_computes));
            let restrict12 = world(
                &pmg,
                &RansWire {
                    restrict: 12,
                    ..RANS
                },
            );
            // Edge passes per cycle on level `l`: per visit its sweeps and
            // (above the coarsest) the residual it restricts, plus the
            // coarse residual of each restriction into it (level 0: the
            // norm). Owner-computes assembles each cut edge twice a pass.
            let (n, visits) = (pmg.nlevels(), level_visits(pmg.nlevels(), cp.cycle));
            let (mut edges, mut cut) = (0, 0);
            for (l, locals) in pmg.locals.iter().enumerate() {
                let own = if l + 1 == n {
                    cp.coarse_sweeps
                } else {
                    cp.pre_sweeps + cp.post_sweeps + 1
                };
                let passes = visits[l] * own + if l == 0 { 1 } else { visits[l - 1] };
                for (local, &owned) in locals.iter().zip(&pmg.decomps[l].n_owned) {
                    let es = &local.level.mesh.edges;
                    edges += passes * es.len();
                    cut += passes * es.iter().filter(|e| e.b as usize >= owned).count();
                }
            }
            let ghosts: usize = (0..nranks).map(|p| pmg.decomps[0].ghosts(p)).sum();
            for l in 0..n {
                pmg.decomps[l] = live_ghosts_only(&pmg.decomps[l], &pmg.locals[l]);
            }
            let live = pmg.decomps[0].plans.iter().flat_map(|p| p.recv_peers());
            let live: usize = live.map(|(_, idx)| idx.len()).sum();
            let dead = world(&pmg, &RANS);
            let mb = |(m, b): (u64, u64)| format!("{m} / {:.3}", b as f64 / 1e6);
            println!(
                "| {name} ({n} levels) | {seed} | {} | {} | {} | {:.1} % | {} of {ghosts} | {} B |",
                mb(today),
                mb(dead),
                mb(owner),
                100.0 * cut as f64 / edges as f64,
                ghosts - live,
                today.1 - restrict12.1,
            );
        }
    }
}
