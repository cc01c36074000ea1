//! Chaos-hardening acceptance suite for the deterministic fault layer.
//!
//! Three claims are locked in here (plus a golden-trace replay through the
//! machine model):
//!
//! 1. **Replayable chaos** — the same `(fault seed, nranks)` produces a
//!    bit-identical fault schedule, solver output and [`CommStats`] trace
//!    (including the retry counters) on every run;
//! 2. **Fills survive poison** — a database fill with an injected
//!    always-failing case completes, quarantines exactly that case, and
//!    reports it in the returned entries;
//! 3. **Collectives hide faults** — duplication, reordering and simulated
//!    drops never change the values collectives deliver.
//!
//! Claim 1 is checked on a fixed table of (seed, severity) cells and on a
//! property over random seeds under both profiles, each on both executors.
//! To pin a new schedule, add a row to [`CHAOS_CELLS`]; a failing property
//! case prints its seed and replays alone with `COLUMBIA_PT_REPLAY=<seed>`.

use columbia_comm::{
    run_world, CommStats, ExecContext, Executor, FaultConfig, FaultPlan, RankTrace,
    WorldCommSummary,
};
use columbia_core::{CartAnalysis, CaseStatus, DatabaseFill, DatabaseSpec, FillPolicy};
use columbia_machine::Fabric;
use columbia_mesh::{wing_mesh, WingMeshSpec};
use columbia_rans::level::{RansLevel, SolverParams};
use columbia_rans::parallel::run_parallel_smoothing;
use columbia_rans::state::NVARS;
use columbia_rt::fault::CasePlan;
use std::sync::Arc;

mod common;
use common::{on, EXECUTORS};

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

fn rans_params() -> SolverParams {
    SolverParams {
        mach: 0.5,
        ..Default::default()
    }
}

fn state_bits(u: &[[f64; NVARS]]) -> Vec<u64> {
    u.iter().flatten().map(|v| v.to_bits()).collect()
}

fn stats_of(traces: &[RankTrace]) -> Vec<CommStats> {
    traces.iter().map(|t| t.stats.clone()).collect()
}

/// The two fault profiles the comm layer ships.
#[derive(Clone, Copy, Debug)]
enum Severity {
    Mild,
    Severe,
}
use Severity::{Mild, Severe};

impl Severity {
    fn config(self) -> FaultConfig {
        match self {
            Mild => FaultConfig::mild(),
            Severe => FaultConfig::severe(),
        }
    }
}

/// The fault schedules acceptance (a) always replays: four seeds under
/// both profiles, then one more severe seed and one more mild one.
const CHAOS_CELLS: [(u64, Severity); 10] = [
    (1, Mild),
    (1, Severe),
    (0xBADCAB1E, Mild),
    (0xBADCAB1E, Severe),
    (0xC010B1A, Mild),
    (0xC010B1A, Severe),
    (2005, Mild),
    (2005, Severe),
    (0xD00B1E, Severe),
    (0xC01D_FA17, Mild),
];

/// Acceptance (a): same fault seed ⇒ bit-identical solver output and
/// communication trace, retry counters included.
fn assert_chaos_replays_bit_identically(exec: Executor, seed: u64, severity: Severity) {
    eprintln!("chaos replay: seed {seed:#x}, {severity:?}, {exec:?}");
    let mesh = rans_mesh();
    let faulty = |plan: FaultPlan| on(exec).with_faults(Some(Arc::new(plan)));
    let run = || {
        let plan = FaultPlan::new(seed, 4, severity.config());
        run_parallel_smoothing(&mesh, rans_params(), 4, 2, &mut faulty(plan))
    };
    let (ua, rmsa, sa) = run();
    let (ub, rmsb, sb) = run();
    assert_eq!(state_bits(&ua), state_bits(&ub), "solver states diverged");
    assert_eq!(rmsa.to_bits(), rmsb.to_bits(), "residuals diverged");
    assert_eq!(
        stats_of(&sa),
        stats_of(&sb),
        "comm traces diverged (msg or fault counters)"
    );
    // And the payloads match the fault-free run exactly: the protocol hides
    // the injected chaos from the solver.
    let (uc, rmsc, sc) = run_parallel_smoothing(
        &mesh,
        rans_params(),
        4,
        2,
        &mut faulty(FaultPlan::fault_free(4)),
    );
    assert_eq!(
        state_bits(&ua),
        state_bits(&uc),
        "faults leaked into payloads"
    );
    assert_eq!(rmsa.to_bits(), rmsc.to_bits());
    assert!(sc.iter().all(|t| t.stats.faults().is_clean()));
}

#[test]
fn same_fault_seed_is_bit_identical_across_runs() {
    for exec in EXECUTORS {
        for (seed, severity) in CHAOS_CELLS {
            assert_chaos_replays_bit_identically(exec, seed, severity);
        }
    }
}

columbia_rt::props! {
    config: columbia_rt::props::Config::with_cases(16);

    /// Acceptance (a) for any fault seed under either profile.
    fn prop_any_fault_seed_is_bit_identical_across_runs(
        seed in 0u64..u64::MAX,
        severe in 0u32..2,
    ) {
        for exec in EXECUTORS {
            assert_chaos_replays_bit_identically(exec, seed, if severe == 1 { Severe } else { Mild });
        }
    }
}

/// The severe profile actually walks every fault path — and stays
/// deterministic while doing so.
#[test]
fn severe_chaos_exercises_retry_dup_and_delay_paths() {
    let mesh = rans_mesh();
    for exec in EXECUTORS {
        let run = || {
            let plan = FaultPlan::new(0xBAD_CAB1E, 4, FaultConfig::severe());
            let mut ctx = on(exec).with_faults(Some(Arc::new(plan)));
            run_parallel_smoothing(&mesh, rans_params(), 4, 2, &mut ctx)
        };
        let (ua, _, sa) = run();
        let (ub, _, sb) = run();
        assert_eq!(state_bits(&ua), state_bits(&ub), "{exec:?}");
        assert_eq!(stats_of(&sa), stats_of(&sb), "{exec:?}");
        let world = WorldCommSummary::from_ranks(&stats_of(&sa));
        assert!(
            world.faults.retries > 0,
            "{exec:?}: no retries recorded: {:?}",
            world.faults
        );
        assert!(world.faults.dup_sent > 0, "no duplicates recorded");
        assert!(world.faults.delayed_msgs > 0, "no delays recorded");
    }
}

/// Acceptance (b): a fill with an injected always-failing case completes,
/// quarantines exactly that case, and reports it in the entries.
#[test]
fn poisoned_fill_case_is_quarantined_and_reported() {
    let analysis = CartAnalysis::default().resolution(3, 4);
    let fill = DatabaseFill::new(analysis, |defl| {
        let mut fin = columbia_cartesian::TriMesh::cuboid(
            columbia_mesh::Vec3::new(0.1, -0.1, -0.4),
            columbia_mesh::Vec3::new(0.5, 0.1, 0.4),
        );
        fin.rotate(2, columbia_mesh::Vec3::ZERO, defl);
        columbia_cartesian::Geometry::new(&[fin])
    });
    let spec = DatabaseSpec {
        deflections: vec![0.0],
        machs: vec![0.5, 2.0],
        alphas: vec![0.0],
        betas: vec![0.0],
        cycles: 10,
    };
    let policy = FillPolicy {
        max_attempts: 3,
        chaos: Some(CasePlan::transient(1, 0.0).poison(1)), // case 1 = mach 2.0
    };
    let db = fill.run(&spec, 2, &mut ExecContext::default().with_fill(policy));
    assert_eq!(
        db.len(),
        spec.ncases(),
        "fill aborted instead of completing"
    );
    for e in &db {
        if e.mach == 2.0 {
            match &e.status {
                CaseStatus::Quarantined { attempts, reason } => {
                    assert_eq!(*attempts, 3);
                    assert!(reason.contains("injected"));
                }
                s => panic!("poisoned case not quarantined: {s:?}"),
            }
        } else {
            assert_eq!(e.status, CaseStatus::Converged, "healthy case affected");
            assert!(e.forces.force.x.is_finite());
        }
    }
}

/// Acceptance (c): collectives converge to the fault-free answer under
/// heavy duplication and reordering (and simulated drops).
#[test]
fn collectives_converge_under_duplication_and_reordering() {
    for exec in EXECUTORS {
        let workload = |plan: Option<Arc<FaultPlan>>| -> Vec<(f64, CommStats)> {
            let ctx = on(exec).with_faults(plan);
            run_world(5, &ctx, |rank| {
                let r = rank.rank() as f64;
                let mut acc = rank.allreduce_sum(r * 1.25 + 0.5);
                acc += rank.allreduce_max(acc * (r + 1.0));
                rank.barrier();
                acc += rank.allreduce_sum(1.0 / (r + 1.0));
                (acc, rank.take_stats())
            })
            .0
        };
        let clean = workload(None);
        let cfg = FaultConfig {
            dup_rate: 0.9,
            max_dups: 3,
            delay_rate: 0.7,
            max_delay_slots: 4,
            drop_rate: 0.4,
            max_retries: 3,
            ..FaultConfig::fault_free()
        };
        for seed in [1u64, 42, 0xD00F] {
            let chaotic = workload(Some(Arc::new(FaultPlan::new(seed, 5, cfg))));
            for ((vc, sc), (vf, sf)) in clean.iter().zip(&chaotic) {
                assert_eq!(
                    vc.to_bits(),
                    vf.to_bits(),
                    "{exec:?}: collective result changed under chaos (seed {seed})"
                );
                // Same message/byte ledger as the clean run: injected copies
                // and retries are accounted separately in the fault counters.
                assert_eq!(sf.total_msgs(), sc.total_msgs());
                assert_eq!(sf.total_bytes(), sc.total_bytes());
            }
            let world = WorldCommSummary::from_ranks(
                &chaotic.iter().map(|(_, s)| s.clone()).collect::<Vec<_>>(),
            );
            assert!(world.faults.dup_sent > 0 && world.faults.delayed_msgs > 0);
        }
    }
}

/// Satellite: golden-trace replay. A recorded chaos `CommStats` snapshot,
/// replayed through the interconnect model, must preserve the paper's
/// fabric ranking — NUMAlink prices below InfiniBand below 10GigE — with
/// and without the injected delay faults, and the fault term must cost
/// extra time on every fabric.
#[test]
fn golden_trace_fabric_ranking_holds_under_delay_faults() {
    // Record the trace under the severe profile (delay rate 0.35).
    let plan = Arc::new(FaultPlan::new(0x90_1D, 4, FaultConfig::severe()));
    let record = |exec| {
        run_world(4, &on(exec).with_faults(Some(plan.clone())), |rank| {
            let n = rank.nranks();
            let me = rank.rank();
            for round in 0..8u64 {
                rank.send((me + 1) % n, round, vec![me as f64; 16]);
                rank.recv((me + n - 1) % n, round);
            }
            rank.allreduce_sum(me as f64);
            rank.take_stats()
        })
        .0
    };
    let [stats, on_events] = EXECUTORS.map(record);
    assert_eq!(stats, on_events, "the executors recorded different traces");
    let world = WorldCommSummary::from_ranks(&stats);
    assert!(
        world.faults.delayed_msgs > 0,
        "trace recorded no delay faults"
    );

    // Replay: price the measured per-rank maxima on each fabric at span 4;
    // each injected delay slot stalls the wire for one extra latency.
    let span = 4;
    let price = |fabric: Fabric, with_faults: bool| -> f64 {
        let lat = fabric.latency(span);
        let bw = fabric.bandwidth(span);
        let base = world.max_msgs_per_rank as f64 * lat + world.max_bytes_per_rank as f64 / bw;
        let fault_term = if with_faults {
            (world.faults.delay_slots + world.faults.retries) as f64 * lat
        } else {
            0.0
        };
        base + fault_term
    };
    for faulty in [false, true] {
        let nl = price(Fabric::NumaLink4, faulty);
        let ib = price(Fabric::InfiniBand, faulty);
        let ge = price(Fabric::TenGigE, faulty);
        assert!(
            nl < ib && ib < ge,
            "fabric ranking broken (faults={faulty}): NL {nl} IB {ib} GE {ge}"
        );
    }
    for fabric in [Fabric::NumaLink4, Fabric::InfiniBand, Fabric::TenGigE] {
        assert!(
            price(fabric, true) > price(fabric, false),
            "injected delays must cost wall-clock on {fabric:?}"
        );
    }
}

columbia_rt::props! {
    config: columbia_rt::props::Config::with_cases(12);

    /// Any seed with every fault rate at zero reproduces the fault-free
    /// comm trace exactly — the plan machinery itself is free of side
    /// effects.
    fn prop_zero_rate_plan_reproduces_fault_free_trace(seed in 0u64..u64::MAX) {
        let workload = |exec: Executor, plan: Option<Arc<FaultPlan>>| {
            let ctx = on(exec).with_faults(plan);
            run_world(3, &ctx, |rank| {
                let n = rank.nranks();
                let me = rank.rank();
                rank.send((me + 1) % n, 9, vec![me as f64, 2.0 * me as f64]);
                let got = rank.recv((me + n - 1) % n, 9);
                let s = rank.allreduce_sum(got[0] + got[1]);
                rank.barrier();
                (s, rank.take_stats())
            })
            .0
        };
        for exec in EXECUTORS {
            let clean = workload(exec, None);
            let plan = FaultPlan::new(seed, 3, FaultConfig::fault_free());
            let gated = workload(exec, Some(Arc::new(plan)));
            for ((vc, sc), (vg, sg)) in clean.iter().zip(&gated) {
                assert_eq!(vc.to_bits(), vg.to_bits(), "{exec:?}");
                assert_eq!(sc, sg, "{exec:?}: zero-rate plan perturbed the trace (seed {seed})");
            }
        }
    }
}

// Re-exercise the serial RANS reference here so the suite stays honest if
// the parallel driver's fault-free path ever drifts from the serial kernel.
#[test]
fn default_context_driver_matches_serial_reference() {
    let mesh = rans_mesh();
    let mut serial = RansLevel::new(mesh.clone(), rans_params());
    serial.apply_bcs();
    for _ in 0..2 {
        serial.smooth_sweep();
    }
    let serial_u = serial.u.to_aos();
    for exec in EXECUTORS {
        let (u, _, traces) = run_parallel_smoothing(&mesh, rans_params(), 4, 2, &mut on(exec));
        let mut max_diff = 0.0f64;
        for (v, su) in serial_u.iter().enumerate() {
            for k in 0..NVARS {
                max_diff = max_diff.max((u[v][k] - su[k]).abs());
            }
        }
        assert!(
            max_diff < 1e-8,
            "{exec:?}: no-plan run diverged: {max_diff}"
        );
        assert!(traces.iter().all(|t| t.stats.faults().is_clean()));
    }
}
