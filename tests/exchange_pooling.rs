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
//! * the RANS sweep's traffic contract in exact numbers: two messages per
//!   peer per sweep, one per residual evaluation, of known sizes.
//!
//! Every world runs on both executors.

use columbia_comm::{
    decompose, run_world, run_world_with, Decomposition, ExchangePlan, FaultConfig, FaultPlan,
    HaloField, Rank,
};
use columbia_linalg::SoaStates;
use columbia_mesh::{wing_mesh, WingMeshSpec};
use columbia_mg::CycleParams;
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
                        for v in 0..local.n_owned {
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

/// One rank's ledger as `(peer, messages, bytes)` rows, from expected
/// `(peer, messages, values)` contributions summed per peer.
fn ledger_rows(parts: impl IntoIterator<Item = (usize, u64, usize)>) -> Vec<(usize, u64, u64)> {
    let mut rows = std::collections::BTreeMap::new();
    for (peer, msgs, values) in parts {
        let row = rows.entry(peer).or_insert((0, 0));
        row.0 += msgs;
        row.1 += 8 * values as u64;
    }
    rows.into_iter().map(|(p, (m, b))| (p, m, b)).collect()
}

#[test]
fn rans_sweep_traffic_contract_in_exact_numbers() {
    // Per rank and peer, one sweep sends exactly two messages: the
    // coalesced add of gradient, residual and diagonal (6 + 6 + 37 = 49
    // values per ghost the rank holds of the peer) and the state copy (6
    // per owned vertex the rank sends the peer). The residual evaluation
    // behind a norm sends one add of gradient and residual (12 per ghost),
    // beside the norm's two gather-and-broadcast collectives (one value
    // per message, between rank 0 and every other rank).
    let m = small_wing();
    for nparts in [2usize, 4, 8] {
        let part = partition_mesh_line_aware(&m, nparts, rans_params().line_threshold);
        for exec in EXECUTORS {
            let (decomp, locals) = build_local_levels(&m, &part, nparts, rans_params());
            let (ledgers, _) = run_world_with(locals, &on(exec), |rank, mut local| {
                local.level.apply_bcs();
                decomp.plans[rank.rank()].exchange_copy_field(rank, 1, &mut local.level.u);
                rank.take_stats();
                let rows = |rank: &mut Rank| rank.take_stats().peers().collect::<Vec<_>>();
                parallel_sweep(&mut local, &decomp, rank);
                let sweep = rows(rank);
                parallel_sweep(&mut local, &decomp, rank);
                let second = rows(rank);
                parallel_residual_rms(&mut local, &decomp, rank, 20);
                (sweep, second, rows(rank))
            });
            for (p, (sweep, second, norm)) in ledgers.iter().enumerate() {
                let at = format!("{nparts} ranks, {exec:?}, rank {p}");
                let plan = &decomp.plans[p];
                let ghosts = || plan.recv_peers().map(|(q, idx)| (q, idx.len()));
                let adds = ghosts().map(|(q, n)| (q, 1, 49 * n));
                let copies = plan.send_peers().map(|(q, idx)| (q, 1, 6 * idx.len()));
                let want = ledger_rows(adds.chain(copies));
                assert!(
                    want.iter().all(|&(_, msgs, _)| msgs == 2),
                    "{at}: 2 per peer"
                );
                assert_eq!(sweep, &want, "{at}: first sweep");
                assert_eq!(second, &want, "{at}: second sweep");
                let collectives = (0..nparts)
                    .filter(|&q| q != p && (p == 0 || q == 0))
                    .map(|q| (q, 2, 2));
                let adds = ghosts().map(|(q, n)| (q, 1, 12 * n));
                assert_eq!(norm, &ledger_rows(adds.chain(collectives)), "{at}: norm");
            }
        }
    }
}
