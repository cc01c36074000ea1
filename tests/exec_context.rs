//! Equivalence suite for the unified [`ExecContext`] drivers.
//!
//! Every digest is an FNV-1a 64 over deterministic bytes — solver state
//! bits, `CommStats` counters or rendered trace JSON — checked against its
//! row of the golden registry (`tests/goldens.txt`, which records the commit
//! and reason that set each value) at 2/4/8 ranks, with and without fault
//! plans, with and without tracing, on both executors. The registry's own
//! self-check runs here too.

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
use common::{digest_f64s, digest_trace_totals, on, sphere_mesh, EXECUTORS};
#[path = "common/golden.rs"]
mod golden;

#[test]
fn golden_registry_is_well_formed_and_every_row_has_a_check_site() {
    golden::self_check(&[
        include_str!("exec_context.rs"),
        include_str!("../crates/bench/tests/sections.rs"),
        include_str!("../crates/cartesian/tests/sslv_mesh_golden.rs"),
    ]);
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
fn regimes(nparts: usize) -> [(&'static str, Option<Arc<FaultPlan>>); 3] {
    let severe = FaultPlan::new(0xBADC0DE, nparts, FaultConfig::severe());
    let free = FaultPlan::fault_free(nparts);
    [
        ("none", None),
        ("free", Some(Arc::new(free))),
        ("severe", Some(Arc::new(severe))),
    ]
}

/// Smoothing runs at 2/4/8 ranks under every regime on both executors.
/// State and rms are fault-invariant (the protocol hides every injected
/// fault from payloads); the stats record the recoveries, so the severe
/// plan has a row of its own.
fn smoothing_goldens<const N: usize>(
    g: golden::Group,
    run: impl Fn(usize, &mut ExecContext) -> (Vec<[f64; N]>, f64, Vec<RankTrace>),
) {
    for exec in EXECUTORS {
        for nparts in [2, 4, 8] {
            for (regime, plan) in regimes(nparts) {
                let (u, rms, traces) = run(nparts, &mut on(exec).with_faults(plan));
                let severe = if regime == "severe" { "_severe" } else { "" };
                g.check(&format!("w{nparts}.state"), digest_f64s(u.iter().flatten()));
                g.check(&format!("w{nparts}.rms"), rms.to_bits());
                g.check(
                    &format!("w{nparts}.stats{severe}"),
                    digest_trace_totals(&traces),
                );
            }
        }
    }
}

/// Traced 2-rank runs, clean and severe, on both executors.
fn trace_goldens(g: golden::Group, run: impl Fn(&mut ExecContext)) {
    for exec in EXECUTORS {
        for (regime, plan) in regimes(2).into_iter().filter(|(r, _)| *r != "free") {
            let mut ctx = ExecContext::traced().with_faults(plan).with_executor(exec);
            run(&mut ctx);
            check_json(&g, regime, &ctx.finish_trace().to_json().render());
        }
    }
}

/// A rendered trace's byte length and digest.
fn check_json(g: &golden::Group, name: &str, json: &str) {
    g.check(&format!("{name}.len"), json.len() as u64);
    g.check(
        &format!("{name}.json"),
        fnv::bytes(fnv::OFFSET, json.as_bytes()),
    );
}

#[test]
fn rans_unified_driver_matches_pre_refactor_goldens() {
    let m = rans_mesh();
    smoothing_goldens(golden::group("exec_context.rans"), |nparts, ctx| {
        columbia_rans::parallel::run_parallel_smoothing(&m, rans_params(), nparts, 3, ctx)
    });
}

#[test]
fn euler_unified_driver_matches_pre_refactor_goldens() {
    let (cm, fs) = (sphere_mesh(), freestream5(0.5, 0.0, 0.0));
    smoothing_goldens(golden::group("exec_context.euler"), |nparts, ctx| {
        columbia_euler::parallel::run_parallel_smoothing(&cm, fs, 1.5, nparts, 3, ctx)
    });
}

#[test]
fn rans_trace_json_matches_pre_refactor_goldens() {
    let m = rans_mesh();
    trace_goldens(golden::group("exec_context.rans_trace"), |ctx| {
        columbia_rans::parallel::run_parallel_smoothing(&m, rans_params(), 2, 3, ctx);
    });
}

#[test]
fn euler_trace_json_matches_pre_refactor_goldens() {
    let (cm, fs) = (sphere_mesh(), freestream5(0.5, 0.0, 0.0));
    trace_goldens(golden::group("exec_context.euler_trace"), |ctx| {
        columbia_euler::parallel::run_parallel_smoothing(&cm, fs, 1.5, 2, 3, ctx);
    });
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

/// Distributed multigrid (3 ranks, 3 levels, 3 cycles): history and stats
/// are tracer-invariant, and the trace JSON is byte-stable.
#[test]
fn parallel_mg_unified_solve_matches_pre_refactor_goldens() {
    let m = pmg_mesh();
    let g = golden::group("exec_context.pmg");
    for exec in EXECUTORS {
        for traced in [false, true] {
            let pmg = ParallelMg::new(&m, rans_params(), 3, 3);
            let mut ctx = if traced {
                ExecContext::traced().with_executor(exec)
            } else {
                on(exec)
            };
            let (h, traces) = pmg.solve(&CycleParams::default(), 4.0, 3, &mut ctx);
            g.check("hist", digest_f64s(h.residuals.iter()));
            g.check("stats", digest_trace_totals(&traces));
            if traced {
                check_json(&g, "trace", &ctx.finish_trace().to_json().render());
            }
        }
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
