//! Equivalence suite for the unified [`ExecContext`] drivers.
//!
//! The goldens below were captured from the pre-refactor driver variants
//! (`run_parallel_smoothing_faulty` / `_traced`, `ParallelMg::solve_traced`)
//! immediately before their removal, on the exact inputs reproduced here.
//! Every digest is an FNV-1a 64 over deterministic bytes — solver state
//! bits, `CommStats` counters or rendered trace JSON — so these tests pin
//! the refactor to bit-identical behaviour at 2/4/8 ranks, with and
//! without fault plans, with and without tracing — on both executors.

use columbia_cartesian::{Geometry, TriMesh};
use columbia_comm::{ExecContext, FaultConfig, FaultPlan, PoolPolicy, RankTrace};
use columbia_core::{CartAnalysis, CaseStatus, DatabaseFill, DatabaseSpec, FillPolicy};
use columbia_euler::state::freestream5;
use columbia_mesh::{wing_mesh, Vec3, WingMeshSpec};
use columbia_mg::{solve_to_tolerance, CycleParams, CycleType, MultigridLevel};
use columbia_rans::level::SolverParams;
use columbia_rans::parallel_mg::ParallelMg;
use columbia_rt::fault::CasePlan;
use columbia_rt::fnv;
use std::sync::Arc;

mod common;
use common::{digest_f64s, digest_stats, on, sphere_mesh, EXECUTORS};

/// The run's total `CommStats` per rank (the per-level ledgers are not
/// hashed; the parity suites' `digest_trace_ledgers` adds them).
fn digest_trace_totals(traces: &[RankTrace]) -> u64 {
    digest_stats(&traces.iter().map(|t| t.stats.clone()).collect::<Vec<_>>())
}

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

/// The three capability regimes the pre-refactor variants hard-coded:
/// clean, fault-free plan (must equal clean), seeded severe plan.
fn regimes(nparts: usize) -> Vec<(&'static str, Option<Arc<FaultPlan>>)> {
    vec![
        ("none", None),
        ("free", Some(Arc::new(FaultPlan::fault_free(nparts)))),
        (
            "severe",
            Some(Arc::new(FaultPlan::new(
                0xBADC0DE,
                nparts,
                FaultConfig::severe(),
            ))),
        ),
    ]
}

/// Pre-refactor goldens: (nparts, regime, state digest, rms bits, stats
/// digest). State and rms are fault-invariant (the protocol hides every
/// injected fault from payloads); the stats digests differ under faults
/// because the protocol counters record the recoveries.
/// Stats column re-pinned: dead ghost copy-backs dropped, one coalesced add.
const RANS_GOLDEN: [(usize, &str, u64, u64, u64); 9] = [
    (
        2,
        "none",
        0x7812e6edbe1f1cad,
        0x3fb727f2bfa5094b,
        0x536e6f38375ebbea,
    ),
    (
        2,
        "free",
        0x7812e6edbe1f1cad,
        0x3fb727f2bfa5094b,
        0x536e6f38375ebbea,
    ),
    (
        2,
        "severe",
        0x7812e6edbe1f1cad,
        0x3fb727f2bfa5094b,
        0x3ed3809557bc36bd,
    ),
    (
        4,
        "none",
        0xe07d036eda60a750,
        0x3fb727f2bfa5094e,
        0xdbe39356f1fe9898,
    ),
    (
        4,
        "free",
        0xe07d036eda60a750,
        0x3fb727f2bfa5094e,
        0xdbe39356f1fe9898,
    ),
    (
        4,
        "severe",
        0xe07d036eda60a750,
        0x3fb727f2bfa5094e,
        0xfbe019a8952fe13e,
    ),
    (
        8,
        "none",
        0x7ffd4a7dc1083885,
        0x3fb727f2bfa5094e,
        0x3f941b9420ffe995,
    ),
    (
        8,
        "free",
        0x7ffd4a7dc1083885,
        0x3fb727f2bfa5094e,
        0x3f941b9420ffe995,
    ),
    (
        8,
        "severe",
        0x7ffd4a7dc1083885,
        0x3fb727f2bfa5094e,
        0xdfa135795f1b0c60,
    ),
];

const EULER_GOLDEN: [(usize, &str, u64, u64, u64); 9] = [
    (
        2,
        "none",
        0x03298dec36b71559,
        0x3f4c7aaa359e8ca5,
        0x9fe51fd93712af82,
    ),
    (
        2,
        "free",
        0x03298dec36b71559,
        0x3f4c7aaa359e8ca5,
        0x9fe51fd93712af82,
    ),
    (
        2,
        "severe",
        0x03298dec36b71559,
        0x3f4c7aaa359e8ca5,
        0xdf451a53a709f883,
    ),
    (
        4,
        "none",
        0x158548443cee0577,
        0x3f4c7aaa359e8caa,
        0xbb6bad3d7f2a4913,
    ),
    (
        4,
        "free",
        0x158548443cee0577,
        0x3f4c7aaa359e8caa,
        0xbb6bad3d7f2a4913,
    ),
    (
        4,
        "severe",
        0x158548443cee0577,
        0x3f4c7aaa359e8caa,
        0x685592c49b29087a,
    ),
    (
        8,
        "none",
        0x6b3e20350076d800,
        0x3f4c7aaa359e8caa,
        0x0f749ad5ce94b66c,
    ),
    (
        8,
        "free",
        0x6b3e20350076d800,
        0x3f4c7aaa359e8caa,
        0x0f749ad5ce94b66c,
    ),
    (
        8,
        "severe",
        0x6b3e20350076d800,
        0x3f4c7aaa359e8caa,
        0x46a5d75ae1914ff4,
    ),
];

/// Pre-refactor trace goldens at 2 ranks: (regime, JSON digest, JSON len).
/// RANS re-pinned: dead ghost copy-backs dropped, one coalesced add.
const RANS_TRACE_GOLDEN: [(&str, u64, usize); 2] = [
    ("none", 0xf12197ee1da45d09, 707),
    ("severe", 0x4d2523b938820358, 872),
];
const EULER_TRACE_GOLDEN: [(&str, u64, usize); 2] = [
    ("none", 0x26f1f1ac972a8f13, 718),
    ("severe", 0x7e4f846e49450209, 885),
];

/// Distributed multigrid goldens (3 ranks, 3 levels, 3 cycles): history
/// and stats are tracer-invariant, and the trace JSON is byte-stable.
const PMG_HIST_GOLDEN: u64 = 0x85e92c5166216061;
// Re-pinned: dead ghost copy-backs dropped, one coalesced add.
const PMG_STATS_GOLDEN: u64 = 0x5feea04f366c33fe;
// Re-pinned: dead ghost copy-backs dropped, one coalesced add.
const PMG_TRACE_GOLDEN: (u64, usize) = (0xeb8cb190b152e853, 3566);

/// The plan of `regime` for a world of `nparts`.
fn plan_of(nparts: usize, regime: &str) -> Option<Arc<FaultPlan>> {
    regimes(nparts)
        .into_iter()
        .find(|(l, _)| *l == regime)
        .unwrap()
        .1
}

#[test]
fn rans_unified_driver_matches_pre_refactor_goldens() {
    let m = rans_mesh();
    for exec in EXECUTORS {
        for &(nparts, regime, gu, grms, gstats) in &RANS_GOLDEN {
            let mut ctx = on(exec).with_faults(plan_of(nparts, regime));
            let (u, rms, traces) = columbia_rans::parallel::run_parallel_smoothing(
                &m,
                rans_params(),
                nparts,
                3,
                &mut ctx,
            );
            let at = format!("RANS {nparts} {regime} {exec:?}");
            assert_eq!(digest_f64s(u.iter().flatten()), gu, "{at}: state digest");
            assert_eq!(rms.to_bits(), grms, "{at}: rms bits");
            assert_eq!(digest_trace_totals(&traces), gstats, "{at}: stats digest");
        }
    }
}

#[test]
fn euler_unified_driver_matches_pre_refactor_goldens() {
    let cm = sphere_mesh();
    let fs = freestream5(0.5, 0.0, 0.0);
    for exec in EXECUTORS {
        for &(nparts, regime, gu, grms, gstats) in &EULER_GOLDEN {
            let mut ctx = on(exec).with_faults(plan_of(nparts, regime));
            let (u, rms, traces) =
                columbia_euler::parallel::run_parallel_smoothing(&cm, fs, 1.5, nparts, 3, &mut ctx);
            let at = format!("EULER {nparts} {regime} {exec:?}");
            assert_eq!(digest_f64s(u.iter().flatten()), gu, "{at}: state digest");
            assert_eq!(rms.to_bits(), grms, "{at}: rms bits");
            assert_eq!(digest_trace_totals(&traces), gstats, "{at}: stats digest");
        }
    }
}

#[test]
fn rans_trace_json_matches_pre_refactor_goldens() {
    let m = rans_mesh();
    for exec in EXECUTORS {
        for &(regime, gdigest, glen) in &RANS_TRACE_GOLDEN {
            let mut ctx = ExecContext::traced()
                .with_faults(plan_of(2, regime))
                .with_executor(exec);
            let _ =
                columbia_rans::parallel::run_parallel_smoothing(&m, rans_params(), 2, 3, &mut ctx);
            let json = ctx.finish_trace().to_json().render();
            let at = format!("RANS trace {regime} {exec:?}");
            assert_eq!(json.len(), glen, "{at}: JSON length");
            assert_eq!(
                fnv::bytes(fnv::OFFSET, json.as_bytes()),
                gdigest,
                "{at}: JSON digest"
            );
        }
    }
}

#[test]
fn euler_trace_json_matches_pre_refactor_goldens() {
    let cm = sphere_mesh();
    let fs = freestream5(0.5, 0.0, 0.0);
    for exec in EXECUTORS {
        for &(regime, gdigest, glen) in &EULER_TRACE_GOLDEN {
            let mut ctx = ExecContext::traced()
                .with_faults(plan_of(2, regime))
                .with_executor(exec);
            let _ = columbia_euler::parallel::run_parallel_smoothing(&cm, fs, 1.5, 2, 3, &mut ctx);
            let json = ctx.finish_trace().to_json().render();
            let at = format!("EULER trace {regime} {exec:?}");
            assert_eq!(json.len(), glen, "{at}: JSON length");
            assert_eq!(
                fnv::bytes(fnv::OFFSET, json.as_bytes()),
                gdigest,
                "{at}: JSON digest"
            );
        }
    }
}

fn pmg_mesh() -> columbia_mesh::UnstructuredMesh {
    wing_mesh(&WingMeshSpec {
        ni: 24,
        nj: 5,
        nk: 12,
        nk_bl: 6,
        jitter: 0.0,
        ..Default::default()
    })
}

#[test]
fn parallel_mg_unified_solve_matches_pre_refactor_goldens() {
    let m = pmg_mesh();
    for exec in EXECUTORS {
        // Clean context: history and stats match both legacy entry points
        // (`solve` and `solve_traced` were already stats-identical).
        let pmg = ParallelMg::new(&m, rans_params(), 3, 3);
        let (h, traces) = pmg.solve(&CycleParams::default(), 4.0, 3, &mut on(exec));
        assert_eq!(digest_f64s(h.residuals.iter()), PMG_HIST_GOLDEN, "{exec:?}");
        assert_eq!(digest_trace_totals(&traces), PMG_STATS_GOLDEN, "{exec:?}");

        // Traced context: same history and stats, byte-stable trace JSON.
        let pmg = ParallelMg::new(&m, rans_params(), 3, 3);
        let mut ctx = ExecContext::traced().with_executor(exec);
        let (ht, tt) = pmg.solve(&CycleParams::default(), 4.0, 3, &mut ctx);
        let json = ctx.finish_trace().to_json().render();
        assert_eq!(
            digest_f64s(ht.residuals.iter()),
            PMG_HIST_GOLDEN,
            "{exec:?}"
        );
        assert_eq!(digest_trace_totals(&tt), PMG_STATS_GOLDEN, "{exec:?}");
        assert_eq!(json.len(), PMG_TRACE_GOLDEN.1, "{exec:?}");
        assert_eq!(
            fnv::bytes(fnv::OFFSET, json.as_bytes()),
            PMG_TRACE_GOLDEN.0,
            "{exec:?}"
        );
    }
}

#[test]
fn disabled_pool_changes_no_payload_bit() {
    let m = rans_mesh();
    for exec in EXECUTORS {
        let (u, rms, pooled) =
            columbia_rans::parallel::run_parallel_smoothing(&m, rans_params(), 2, 3, &mut on(exec));
        let mut ctx = on(exec).with_pool(PoolPolicy::disabled());
        let (u2, rms2, unpooled) =
            columbia_rans::parallel::run_parallel_smoothing(&m, rans_params(), 2, 3, &mut ctx);
        assert_eq!(
            digest_f64s(u.iter().flatten()),
            digest_f64s(u2.iter().flatten()),
            "{exec:?}"
        );
        assert_eq!(rms.to_bits(), rms2.to_bits(), "{exec:?}");
        // Identical traffic, different allocation behaviour: pool-off takes a
        // miss per checkout and recycles nothing.
        for (a, b) in pooled.iter().zip(&unpooled) {
            assert_eq!(a.stats.total_msgs(), b.stats.total_msgs());
            assert_eq!(a.stats.total_bytes(), b.stats.total_bytes());
            assert_eq!(b.stats.pool().hits, 0);
            assert_eq!(b.stats.pool().recycled, 0);
            assert!(b.stats.pool().misses >= a.stats.pool().misses);
        }
        assert!(pooled.iter().any(|t| t.stats.pool().hits > 0), "{exec:?}");
    }
}

/// 1-D damped-Jacobi Poisson level, just enough of a [`MultigridLevel`] to
/// drive the generic mg driver from a test crate.
struct PoissonLevel {
    u: Vec<f64>,
    f: Vec<f64>,
    restricted: Vec<f64>,
}

impl PoissonLevel {
    fn new(n: usize) -> Self {
        PoissonLevel {
            u: vec![0.0; n],
            f: vec![0.0; n],
            restricted: vec![0.0; n],
        }
    }

    fn residual(&self, i: usize) -> f64 {
        let n = self.u.len();
        let h2 = 1.0 / ((n + 1) as f64 * (n + 1) as f64);
        let left = if i == 0 { 0.0 } else { self.u[i - 1] };
        let right = if i + 1 == n { 0.0 } else { self.u[i + 1] };
        self.f[i] - (2.0 * self.u[i] - left - right) / h2
    }
}

impl MultigridLevel for PoissonLevel {
    fn smooth(&mut self, sweeps: usize) {
        let n = self.u.len();
        let h2 = 1.0 / ((n + 1) as f64 * (n + 1) as f64);
        for _ in 0..sweeps {
            let old = self.u.clone();
            for i in 0..n {
                let left = if i == 0 { 0.0 } else { old[i - 1] };
                let right = if i + 1 == n { 0.0 } else { old[i + 1] };
                let jac = (h2 * self.f[i] + left + right) / 2.0;
                self.u[i] = old[i] + 0.8 * (jac - old[i]);
            }
        }
    }

    fn residual_norm(&mut self) -> f64 {
        let n = self.u.len();
        let ss: f64 = (0..n).map(|i| self.residual(i).powi(2)).sum();
        (ss / n as f64).sqrt()
    }

    fn restrict_into(&mut self, coarse: &mut Self) {
        let nc = coarse.u.len();
        for c in 0..nc {
            let i = 2 * c + 1;
            coarse.u[c] = self.u[i];
            coarse.restricted[c] = self.u[i];
            coarse.f[c] = self.residual(i);
        }
    }

    fn prolong_from(&mut self, coarse: &Self) {
        for c in 0..coarse.u.len() {
            let corr = coarse.u[c] - coarse.restricted[c];
            self.u[2 * c + 1] += corr;
            self.u[2 * c] += 0.5 * corr;
            if 2 * c + 2 < self.u.len() {
                self.u[2 * c + 2] += 0.5 * corr;
            }
        }
    }
}

#[test]
fn mg_driver_honours_context_tracer_and_stays_bit_identical() {
    let build = || {
        let mut fine = PoissonLevel::new(31);
        fine.f = vec![1.0; 31];
        vec![fine, PoissonLevel::new(15), PoissonLevel::new(7)]
    };
    let cp = CycleParams {
        cycle: CycleType::W,
        ..Default::default()
    };
    let mut plain = build();
    let h = solve_to_tolerance(&mut plain, &cp, 0.0, 3, &mut ExecContext::default());

    let mut traced = build();
    let mut ctx = ExecContext::traced();
    let ht = solve_to_tolerance(&mut traced, &cp, 0.0, 3, &mut ctx);
    let trace = ctx.finish_trace();

    // Tracing must not perturb the numerics.
    assert_eq!(
        h.residuals.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
        ht.residuals.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
    );
    // One `cycle` span per cycle, W-cycle revisits visible underneath.
    assert_eq!(trace.spans.len(), 3);
    for (i, s) in trace.spans.iter().enumerate() {
        assert_eq!(s.key.name, "cycle");
        assert_eq!(s.key.cycle, Some(i));
        assert!(s.gauges.contains_key("residual_rms"));
        let coarsest = s
            .children
            .iter()
            .filter(|c| c.key.name == "mg_level" && c.key.level == Some(2))
            .count();
        assert_eq!(coarsest, 4, "W-cycle visits the coarsest level 2^2 times");
    }
}

#[test]
fn database_fill_context_policies_match_legacy_behaviour() {
    let analysis = CartAnalysis::default().resolution(3, 4);
    let fill = DatabaseFill::new(analysis, |defl| {
        let mut fin = TriMesh::cuboid(Vec3::new(0.1, -0.1, -0.4), Vec3::new(0.5, 0.1, 0.4));
        fin.rotate(2, Vec3::ZERO, defl);
        Geometry::new(&[fin])
    });
    let spec = DatabaseSpec {
        deflections: vec![0.0, 0.2],
        machs: vec![0.5, 2.0],
        alphas: vec![0.0],
        betas: vec![0.0],
        cycles: 15,
    };
    let policy = FillPolicy {
        max_attempts: 2,
        chaos: Some(CasePlan::transient(11, 0.0).poison(3)),
    };
    // Traced, chaos-poisoned fill through the context: outcome totals are
    // thread-count independent and the poisoned case quarantines.
    let mut ctx = ExecContext::traced().with_fill(policy.clone());
    let db = fill.run(&spec, 2, &mut ctx);
    let trace = ctx.finish_trace();
    assert_eq!(db.len(), 4);
    assert_eq!(
        db.iter().filter(|e| !e.status.is_ok()).count(),
        1,
        "exactly the poisoned case fails"
    );
    assert!(matches!(
        db[3].status,
        CaseStatus::Quarantined { attempts: 2, .. }
    ));
    let span = trace.find("database_fill").expect("fill span");
    assert_eq!(span.counters["cases"], 4);
    assert_eq!(span.counters["quarantined"], 1);
    assert_eq!(span.counters["converged"], 3);
    assert_eq!(span.children.len(), 4);
    // Default context = default policy: all cases converge, no trace.
    let mut clean_ctx = ExecContext::default();
    let clean = fill.run(&spec, 1, &mut clean_ctx);
    assert!(clean.iter().all(|e| e.status == CaseStatus::Converged));
    assert!(clean_ctx.finish_trace().spans.is_empty());
}
