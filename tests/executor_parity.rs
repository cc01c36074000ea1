//! Thread-vs-event executor parity suite.
//!
//! The event executor's whole claim is *bit-identity*: any deterministic
//! serial schedule of the rank programs must produce the same payload
//! bits, `CommStats` counters and trace JSON as the kernel-scheduled
//! thread backend, because the comm protocol makes all three functions of
//! the logical program order, never of the interleaving. These tests pin
//! that claim with FNV-1a digests at 2/4/8 ranks, clean and under seeded
//! fault-plan chaos, for the raw comm layer and for every distributed
//! solver: RANS smoothing, RANS multigrid and Euler smoothing.

use columbia_comm::{run_world, ExecContext, Executor, FaultConfig, FaultPlan, RankTrace};
use columbia_euler::state::freestream5;
use columbia_mesh::{wing_mesh, WingMeshSpec};
use columbia_mg::CycleParams;
use columbia_rans::level::SolverParams;
use columbia_rans::parallel_mg::ParallelMg;
use std::sync::Arc;

mod common;
use common::{digest_f64s, digest_trace_ledgers, sphere_mesh, CHAOS_SEEDS};

/// The world sizes every parity test covers.
const PARITY_WIDTHS: [usize; 3] = [2, 4, 8];

fn rans_mesh() -> columbia_mesh::UnstructuredMesh {
    wing_mesh(&WingMeshSpec {
        ni: 16,
        nj: 4,
        nk: 10,
        nk_bl: 5,
        jitter: 0.0,
        ..Default::default()
    })
}

/// Raw comm chaos workload: ring traffic on two alternating tags,
/// an allreduce, a barrier, per-level attribution. Returns payload-ish
/// values plus the full teardown ledgers.
fn chaos_world(
    nranks: usize,
    plan: Option<Arc<FaultPlan>>,
    exec: Executor,
) -> (Vec<f64>, Vec<RankTrace>) {
    let ctx = ExecContext::default().with_faults(plan).with_executor(exec);
    run_world(nranks, &ctx, |rank| {
        let r = rank.rank();
        let n = rank.nranks();
        let next = (r + 1) % n;
        let prev = (r + n - 1) % n;
        let mut acc = 0.0;
        for round in 0..6u64 {
            rank.enter_level((round % 3) as usize);
            rank.send(next, 7 + round % 2, vec![r as f64, round as f64]);
            let got = rank.recv(prev, 7 + round % 2);
            acc += got[0] * (round + 1) as f64 + got[1];
            rank.exit_level();
        }
        acc += rank.allreduce_sum(acc);
        rank.barrier();
        acc += rank.allreduce_max(r as f64);
        acc
    })
}

#[test]
fn chaos_comm_parity_clean_and_over_four_seeds() {
    for n in PARITY_WIDTHS {
        let mut plans: Vec<Option<Arc<FaultPlan>>> = vec![None];
        for seed in CHAOS_SEEDS {
            plans.push(Some(Arc::new(FaultPlan::new(
                seed,
                n,
                FaultConfig::severe(),
            ))));
        }
        for plan in plans {
            let label = match &plan {
                None => "clean".to_string(),
                Some(p) => format!("seed 0x{:x}", p.seed()),
            };
            let (tv, tt) = chaos_world(n, plan.clone(), Executor::Threads);
            let (ev, et) = chaos_world(n, plan, Executor::Events);
            assert_eq!(
                digest_f64s(tv.iter()),
                digest_f64s(ev.iter()),
                "payload digest diverged at n={n} ({label})"
            );
            assert_eq!(
                digest_trace_ledgers(&tt),
                digest_trace_ledgers(&et),
                "CommStats digest diverged at n={n} ({label})"
            );
        }
    }
}

#[test]
fn rans_solver_parity_across_executors() {
    let m = rans_mesh();
    let params = SolverParams {
        mach: 0.5,
        ..Default::default()
    };
    for n in PARITY_WIDTHS {
        for plan in [
            None,
            Some(Arc::new(FaultPlan::new(
                CHAOS_SEEDS[0],
                n,
                FaultConfig::severe(),
            ))),
        ] {
            let run = |exec: Executor| {
                let mut ctx = ExecContext::default()
                    .with_faults(plan.clone())
                    .with_executor(exec);
                columbia_rans::parallel::run_parallel_smoothing(&m, params, n, 3, &mut ctx)
            };
            let (tu, trms, tt) = run(Executor::Threads);
            let (eu, erms, et) = run(Executor::Events);
            assert_eq!(
                digest_f64s(tu.iter().flatten()),
                digest_f64s(eu.iter().flatten()),
                "RANS state digest diverged at n={n}"
            );
            assert_eq!(trms.to_bits(), erms.to_bits(), "RANS rms diverged at n={n}");
            assert_eq!(
                digest_trace_ledgers(&tt),
                digest_trace_ledgers(&et),
                "RANS stats digest diverged at n={n}"
            );
        }
    }
}

/// The clean world and one severe chaos plan at width `n`.
fn clean_and_severe(n: usize) -> [Option<Arc<FaultPlan>>; 2] {
    [
        None,
        Some(Arc::new(FaultPlan::new(
            CHAOS_SEEDS[3],
            n,
            FaultConfig::severe(),
        ))),
    ]
}

#[test]
fn parallel_mg_parity_across_executors() {
    let m = rans_mesh();
    let params = SolverParams {
        mach: 0.5,
        ..Default::default()
    };
    for n in PARITY_WIDTHS {
        for plan in clean_and_severe(n) {
            let run = |exec: Executor| {
                let mut ctx = ExecContext::default()
                    .with_faults(plan.clone())
                    .with_executor(exec);
                let pmg = ParallelMg::new(&m, params, n, 3);
                pmg.solve(&CycleParams::default(), 4.0, 1, &mut ctx)
            };
            let (th, tt) = run(Executor::Threads);
            let (eh, et) = run(Executor::Events);
            assert_eq!(
                digest_f64s(th.residuals.iter()),
                digest_f64s(eh.residuals.iter()),
                "multigrid history diverged at n={n}"
            );
            assert_eq!(
                digest_trace_ledgers(&tt),
                digest_trace_ledgers(&et),
                "multigrid ledgers diverged at n={n}"
            );
        }
    }
}

#[test]
fn euler_solver_parity_across_executors() {
    let cm = sphere_mesh();
    let fs = freestream5(0.5, 0.0, 0.0);
    for n in PARITY_WIDTHS {
        for plan in clean_and_severe(n) {
            let run = |exec: Executor| {
                let mut ctx = ExecContext::default()
                    .with_faults(plan.clone())
                    .with_executor(exec);
                columbia_euler::parallel::run_parallel_smoothing(&cm, fs, 1.5, n, 3, &mut ctx)
            };
            let (tu, trms, tt) = run(Executor::Threads);
            let (eu, erms, et) = run(Executor::Events);
            assert_eq!(
                digest_f64s(tu.iter().flatten()),
                digest_f64s(eu.iter().flatten()),
                "Euler state digest diverged at n={n}"
            );
            assert_eq!(
                trms.to_bits(),
                erms.to_bits(),
                "Euler rms diverged at n={n}"
            );
            assert_eq!(
                digest_trace_ledgers(&tt),
                digest_trace_ledgers(&et),
                "Euler stats digest diverged at n={n}"
            );
        }
    }
}

#[test]
fn trace_json_is_byte_identical_across_executors() {
    let m = rans_mesh();
    let params = SolverParams {
        mach: 0.5,
        ..Default::default()
    };
    let run = |exec: Executor, plan: Option<Arc<FaultPlan>>| {
        let mut ctx = ExecContext::traced().with_faults(plan).with_executor(exec);
        let _ = columbia_rans::parallel::run_parallel_smoothing(&m, params, 2, 3, &mut ctx);
        ctx.finish_trace().to_json().render()
    };
    for plan in [
        None,
        Some(Arc::new(FaultPlan::new(
            CHAOS_SEEDS[1],
            2,
            FaultConfig::severe(),
        ))),
    ] {
        let t = run(Executor::Threads, plan.clone());
        let e = run(Executor::Events, plan);
        assert_eq!(t, e, "trace JSON bytes diverged between executors");
    }
}

#[test]
fn event_executor_double_run_is_bit_identical() {
    // Two event-executor runs of one chaos plan give the same bits: CI
    // also runs this suite twice in two processes, and this is the
    // in-process pin of the same property.
    for n in PARITY_WIDTHS {
        let plan = Some(Arc::new(FaultPlan::new(
            CHAOS_SEEDS[2],
            n,
            FaultConfig::severe(),
        )));
        let (v1, t1) = chaos_world(n, plan.clone(), Executor::Events);
        let (v2, t2) = chaos_world(n, plan, Executor::Events);
        assert_eq!(digest_f64s(v1.iter()), digest_f64s(v2.iter()));
        assert_eq!(t1, t2, "event-executor traces diverged across runs");
    }
}
