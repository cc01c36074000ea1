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
//!   multigrid cycles.
//!
//! Every world runs on both executors.

use columbia_comm::{
    decompose, run_world, Decomposition, ExchangePlan, FaultConfig, FaultPlan, Rank,
};
use columbia_mesh::{wing_mesh, WingMeshSpec};
use columbia_mg::CycleParams;
use columbia_rans::level::SolverParams;
use columbia_rans::parallel::{
    build_local_levels, parallel_sweep, partition_mesh_line_aware, LocalLevel,
};
use columbia_rans::parallel_mg::ParallelMg;
use columbia_rt::rng::Pcg32;
use std::sync::{Arc, Mutex};

mod common;
use common::{on, EXECUTORS};

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
    // The real smoothing sweep: gradients (9-wide), coalesced residual +
    // diagonal (6+37), diagonal copy (37), state copy (6). From the second
    // sweep on, the pool serves every payload.
    let m = small_wing();
    let nparts = 4;
    let part = partition_mesh_line_aware(&m, nparts, rans_params().line_threshold);
    for exec in EXECUTORS {
        let (decomp, locals) = build_local_levels(&m, &part, nparts, rans_params());
        let locals = Mutex::new(
            locals
                .into_iter()
                .map(Some)
                .collect::<Vec<Option<LocalLevel>>>(),
        );
        let (per_cycle, _) = run_world(nparts, &on(exec), |rank| {
            let mut local = locals.lock().unwrap()[rank.rank()]
                .take()
                .expect("local level already taken");
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
