//! Automated aero-performance database fills (paper §IV).
//!
//! "A typical analysis may consider three Configuration-Space parameters
//! (e.g. aileron, elevator and rudder deflections) and examine three
//! Wind-Space parameters (Mach number, angle-of-attack, and sideslip)."
//! Jobs are arranged hierarchically: geometry instances at the top level,
//! wind cases below, so the cost of meshing each configuration is
//! amortised over all its wind-space runs; independent cases run on
//! worker threads that pull them from one queue. A configuration is
//! meshed and coarsened once into a shared [`CartHierarchy`] (237 B per
//! fine cell, all levels), and a running case adds only its flow state
//! (276 B per fine cell): two concurrent cases on a 29.5k-cell SSLV
//! configuration hold 22 MiB (DESIGN.md §16).

use crate::cart_analysis::CartAnalysis;
use columbia_cartesian::{CartHierarchy, Geometry};
use columbia_euler::Forces;
pub use columbia_exec::{ExecContext, FillPolicy};
use columbia_rt::trace::{SpanKey, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Parameter grid of a database fill.
#[derive(Clone, Debug)]
pub struct DatabaseSpec {
    /// Configuration-space: control-surface deflections (radians); one
    /// geometry instance (and one mesh) is built per entry.
    pub deflections: Vec<f64>,
    /// Wind-space Mach numbers.
    pub machs: Vec<f64>,
    /// Wind-space angles of attack (radians).
    pub alphas: Vec<f64>,
    /// Wind-space sideslip angles (radians).
    pub betas: Vec<f64>,
    /// Multigrid cycles per case.
    pub cycles: usize,
}

impl DatabaseSpec {
    /// Total number of CFD cases in the fill.
    pub fn ncases(&self) -> usize {
        self.deflections.len() * self.machs.len() * self.alphas.len() * self.betas.len()
    }
}

/// How a case fared under the fill's retry policy.
///
/// Multi-day fills on thousands of CPUs lose cases to node failures; the
/// paper's automated framework has to report such holes in the database
/// rather than abort the whole parameter study.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CaseStatus {
    /// Succeeded on the first attempt.
    Converged,
    /// Succeeded after transient failures (`attempts` runs total).
    Recovered {
        /// Attempts consumed, including the successful one.
        attempts: u32,
    },
    /// Every attempt failed; the entry carries placeholder loads and must
    /// be re-run (or excluded) by the consumer.
    Quarantined {
        /// Attempts consumed.
        attempts: u32,
        /// Failure description from the last attempt.
        reason: String,
    },
}

impl CaseStatus {
    /// True when the entry holds a usable solution.
    pub fn is_ok(&self) -> bool {
        !matches!(self, CaseStatus::Quarantined { .. })
    }
}

/// One database entry: the case parameters and its results.
#[derive(Clone, Debug)]
pub struct DatabaseEntry {
    /// Control-surface deflection of the geometry instance.
    pub deflection: f64,
    /// Mach number.
    pub mach: f64,
    /// Angle of attack.
    pub alpha: f64,
    /// Sideslip.
    pub beta: f64,
    /// Integrated loads.
    pub forces: Forces,
    /// Orders of residual reduction achieved.
    pub orders: f64,
    /// Multigrid cycles the successful attempt ran, fewer than asked when
    /// it met the solver's tolerance (0 when quarantined).
    pub cycles: usize,
    /// Positivity-guard trips of the successful attempt (0 when
    /// quarantined): a non-zero count marks loads computed on a clamped
    /// state.
    pub guard_trips: u64,
    /// Outcome of the case under the fill's retry policy.
    pub status: CaseStatus,
}

/// The database-fill driver.
pub struct DatabaseFill {
    /// Analysis template (resolution, cycle settings).
    pub analysis: CartAnalysis,
    /// Geometry factory: deflection -> geometry instance. Mirrors the
    /// paper's automated triangulation + control-surface positioning.
    pub geometry: Box<dyn Fn(f64) -> Geometry + Sync>,
}

impl DatabaseFill {
    /// New fill with the given geometry factory.
    pub fn new(
        analysis: CartAnalysis,
        geometry: impl Fn(f64) -> Geometry + Sync + 'static,
    ) -> Self {
        DatabaseFill {
            analysis,
            geometry: Box::new(geometry),
        }
    }

    /// Run the fill; wind cases of each geometry instance run concurrently
    /// on `threads_per_config` OS threads.
    ///
    /// Each configuration is meshed and coarsened once, into one
    /// [`CartHierarchy`] that every case borrows; a case allocates only its
    /// flow state. The workers pull the next case from one queue, so a slow
    /// or retried case never leaves another worker idle, and the entries
    /// are put back in global-case-id order.
    ///
    /// The context's [`FillPolicy`] governs retry/quarantine: every case is
    /// attempted up to `max_attempts` times; a case that fails every
    /// attempt (solver panic, non-finite loads, or an injected chaos
    /// failure) is *quarantined* — the fill completes, the entry is present
    /// with placeholder loads, and its [`DatabaseEntry::status`] reports
    /// the failure. Cases are numbered globally (configuration-major,
    /// wind-space-minor), so a chaos [`columbia_rt::fault::CasePlan`]
    /// addresses the same case regardless of thread count.
    ///
    /// With tracing enabled on `ctx`, the fill is recorded under a
    /// `database_fill` span with outcome totals and one `case` child span
    /// per global case id (attempt count, outcome, cycles, guard trips,
    /// convergence gauge). Case spans are recorded serially from the
    /// ordered entry list *after* the threaded fill, so the trace is
    /// deterministic for any thread count.
    pub fn run(
        &self,
        spec: &DatabaseSpec,
        threads_per_config: usize,
        ctx: &mut ExecContext,
    ) -> Vec<DatabaseEntry> {
        let policy = ctx.fill().clone();
        let nwind = spec.machs.len() * spec.alphas.len() * spec.betas.len();
        let mut out = Vec::with_capacity(spec.ncases());
        for (defl_idx, &defl) in spec.deflections.iter().enumerate() {
            // One geometry, one mesh and one hierarchy per configuration.
            let hierarchy = self.hierarchy(defl);
            // Wind-space case list with global case ids.
            let mut cases = Vec::new();
            for &m in &spec.machs {
                for &a in &spec.alphas {
                    for &b in &spec.betas {
                        let id = (defl_idx * nwind + cases.len()) as u64;
                        cases.push((id, m, a, b));
                    }
                }
            }
            let solve = |&(id, m, a, b): &(u64, f64, f64, f64)| {
                let e = run_case(
                    &self.analysis,
                    &hierarchy,
                    &policy,
                    id,
                    defl,
                    m,
                    a,
                    b,
                    spec.cycles,
                );
                (id, e)
            };
            // The one case queue. The counter publishes no other data (the
            // entries come back through `join`), so `Relaxed` suffices.
            let next = AtomicUsize::new(0);
            let claim = || cases.get(next.fetch_add(1, Ordering::Relaxed));
            let mut entries: Vec<_> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads_per_config.clamp(1, cases.len().max(1)))
                    .map(|_| {
                        scope.spawn(|| std::iter::from_fn(claim).map(solve).collect::<Vec<_>>())
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("database worker panicked"))
                    .collect()
            });
            entries.sort_unstable_by_key(|&(id, _)| id);
            out.extend(entries.into_iter().map(|(_, e)| e));
        }
        if ctx.tracing_enabled() {
            ctx.tracer().scoped(SpanKey::new("database_fill"), |t| {
                t.add("cases", out.len() as u64);
                for (id, e) in out.iter().enumerate() {
                    record_case(t, id, e);
                }
            });
        }
        out
    }

    /// Mesh and coarsen the geometry instance of one deflection.
    fn hierarchy(&self, defl: f64) -> CartHierarchy {
        let mesh = self.analysis.mesh(&(self.geometry)(defl));
        self.analysis.hierarchy(mesh)
    }

    /// Re-run a single case on demand ("virtual database": it is often
    /// faster to re-run a case than to retrieve it from mass storage").
    ///
    /// The re-run goes through exactly the same `run_case` path as the
    /// fill, so it obeys the context's [`FillPolicy`] — retry budget,
    /// chaos schedule, finite-load validation — and honestly reports
    /// [`CaseStatus::Recovered`]/[`CaseStatus::Quarantined`] instead of
    /// unconditionally stamping [`CaseStatus::Converged`] the way the seed
    /// did (which let an injected or real failure masquerade as a
    /// converged solution). `case_id` addresses the chaos
    /// [`columbia_rt::fault::CasePlan`] the same way fill-time ids do, so
    /// an on-demand re-run of a poisoned case fails deterministically on
    /// replay; `DatabaseServer` refinement derives it from the grid node
    /// index.
    ///
    /// With tracing enabled on `ctx`, the re-run is recorded under a
    /// `database_rerun` span with one `case` child — the same shape as
    /// fill-time case spans.
    #[allow(clippy::too_many_arguments)] // case coordinates + context, as for run_case
    pub fn rerun(
        &self,
        case_id: u64,
        defl: f64,
        mach: f64,
        alpha: f64,
        beta: f64,
        cycles: usize,
        ctx: &mut ExecContext,
    ) -> DatabaseEntry {
        let policy = ctx.fill().clone();
        let entry = run_case(
            &self.analysis,
            &self.hierarchy(defl),
            &policy,
            case_id,
            defl,
            mach,
            alpha,
            beta,
            cycles,
        );
        if ctx.tracing_enabled() {
            ctx.tracer().scoped(SpanKey::new("database_rerun"), |t| {
                record_case(t, case_id as usize, &entry);
            });
        }
        entry
    }
}

/// One `case` span (outcome, attempts, cycles, guard trips, orders
/// reduced) under the open fill or re-run span, plus the parent's rollups
/// of the outcome and attempts.
fn record_case(t: &mut Tracer, id: usize, e: &DatabaseEntry) {
    let (outcome, attempts) = match &e.status {
        CaseStatus::Converged => ("converged", 1),
        CaseStatus::Recovered { attempts } => ("recovered", *attempts),
        CaseStatus::Quarantined { attempts, .. } => ("quarantined", *attempts),
    };
    t.scoped(SpanKey::new("case").case_id(id), |t| {
        t.add(outcome, 1);
        t.add("attempts", attempts as u64);
        t.add("cycles", e.cycles as u64);
        t.add("guard_trips", e.guard_trips);
        t.gauge("orders_reduced", e.orders);
    });
    t.add(outcome, 1);
    t.add("attempts", attempts as u64);
}

/// Render a panic payload as a quarantine reason.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("solver panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("solver panicked: {s}")
    } else {
        "solver panicked (opaque payload)".to_string()
    }
}

/// Attempt one case under the retry policy, producing an entry whatever
/// happens: converged, recovered after transient failures, or quarantined
/// after the attempt budget is spent.
#[allow(clippy::too_many_arguments)] // case coordinates + context, no natural struct
fn run_case(
    analysis: &CartAnalysis,
    hierarchy: &CartHierarchy,
    policy: &FillPolicy,
    case_id: u64,
    defl: f64,
    mach: f64,
    alpha: f64,
    beta: f64,
    cycles: usize,
) -> DatabaseEntry {
    let max_attempts = policy.max_attempts.max(1);
    let mut attempt = 0u32;
    let ((forces, orders, cycles_run, guard_trips), status) = loop {
        let injected = policy
            .chaos
            .as_ref()
            .is_some_and(|p| p.fails(case_id, attempt));
        let result = if injected {
            Err(format!("injected fault on attempt {attempt}"))
        } else {
            catch_unwind(AssertUnwindSafe(|| {
                analysis
                    .clone()
                    .wind(mach, alpha, beta)
                    .run_on_hierarchy(hierarchy, cycles)
            }))
            .map_err(panic_reason)
            .and_then(|report| {
                let f = report.forces;
                let finite = f.force.x.is_finite()
                    && f.force.y.is_finite()
                    && f.force.z.is_finite()
                    && f.moment.x.is_finite()
                    && f.moment.y.is_finite()
                    && f.moment.z.is_finite()
                    && report.history.orders_reduced().is_finite();
                if finite {
                    Ok(report)
                } else {
                    Err("non-finite loads or residual history".to_string())
                }
            })
        };
        attempt += 1;
        match result {
            Ok(report) => {
                let status = if attempt > 1 {
                    CaseStatus::Recovered { attempts: attempt }
                } else {
                    CaseStatus::Converged
                };
                let orders = report.history.orders_reduced();
                break (
                    (
                        report.forces,
                        orders,
                        report.history.cycles(),
                        report.guard_trips,
                    ),
                    status,
                );
            }
            Err(reason) if attempt >= max_attempts => {
                break (
                    (Forces::default(), 0.0, 0, 0),
                    CaseStatus::Quarantined {
                        attempts: attempt,
                        reason,
                    },
                );
            }
            Err(_) => {} // transient: retry
        }
    };
    DatabaseEntry {
        deflection: defl,
        mach,
        alpha,
        beta,
        forces,
        orders,
        cycles: cycles_run,
        guard_trips,
        status,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columbia_cartesian::TriMesh;
    use columbia_rt::fault::CasePlan;

    fn tiny_fill() -> (DatabaseFill, DatabaseSpec) {
        let analysis = CartAnalysis::default().resolution(3, 4);
        let fill = DatabaseFill::new(analysis, |defl| {
            // A chunky finned body the coarse test octree can resolve.
            let mut fin = TriMesh::cuboid(
                columbia_mesh::Vec3::new(0.1, -0.1, -0.4),
                columbia_mesh::Vec3::new(0.5, 0.1, 0.4),
            );
            fin.rotate(2, columbia_mesh::Vec3::ZERO, defl);
            Geometry::new(&[fin])
        });
        let spec = DatabaseSpec {
            deflections: vec![0.0, 0.2],
            machs: vec![0.5, 2.0],
            alphas: vec![0.0],
            betas: vec![0.0],
            cycles: 15,
        };
        (fill, spec)
    }

    /// The six load components and the orders reduced, as bits.
    fn load_bits(e: &DatabaseEntry) -> [u64; 7] {
        let (f, m) = (e.forces.force, e.forces.moment);
        [f.x, f.y, f.z, m.x, m.y, m.z, e.orders].map(f64::to_bits)
    }

    #[test]
    fn fill_produces_all_cases() {
        let (fill, spec) = tiny_fill();
        assert_eq!(spec.ncases(), 4);
        let db = fill.run(&spec, 2, &mut ExecContext::default());
        assert_eq!(db.len(), 4);
        // Supersonic cases must show more drag than subsonic on the same
        // geometry.
        let sub = db
            .iter()
            .find(|e| e.mach == 0.5 && e.deflection == 0.0)
            .unwrap();
        let sup = db
            .iter()
            .find(|e| e.mach == 2.0 && e.deflection == 0.0)
            .unwrap();
        assert!(sup.forces.force.x > sub.forces.force.x);
    }

    #[test]
    fn poisoned_case_is_quarantined_without_aborting_the_fill() {
        let (fill, spec) = tiny_fill();
        // Global case ids are configuration-major: deflection 0.2 (index 1)
        // x mach 2.0 (wind index 1) = case 3.
        let policy = FillPolicy {
            max_attempts: 2,
            chaos: Some(CasePlan::transient(11, 0.0).poison(3)),
        };
        let db = fill.run(&spec, 2, &mut ExecContext::default().with_fill(policy));
        assert_eq!(db.len(), 4, "fill must complete despite the poisoned case");
        let quarantined: Vec<_> = db.iter().filter(|e| !e.status.is_ok()).collect();
        assert_eq!(quarantined.len(), 1, "exactly the poisoned case fails");
        let q = quarantined[0];
        assert_eq!((q.deflection, q.mach), (0.2, 2.0));
        match &q.status {
            CaseStatus::Quarantined { attempts, reason } => {
                assert_eq!(*attempts, 2, "whole retry budget consumed");
                assert!(reason.contains("injected"), "reason reported: {reason}");
            }
            s => panic!("expected quarantine, got {s:?}"),
        }
        // The surviving cases match a policy-free fill bit-for-bit.
        let clean = fill.run(&spec, 2, &mut ExecContext::default());
        for (e, c) in db.iter().zip(&clean) {
            if e.status.is_ok() {
                assert_eq!(e.status, CaseStatus::Converged);
                assert_eq!(load_bits(e), load_bits(c));
            }
        }
    }

    #[test]
    fn transient_chaos_recovers_deterministically() {
        let (fill, spec) = tiny_fill();
        let policy = FillPolicy {
            max_attempts: 4,
            chaos: Some(CasePlan::transient(0xC0FFEE, 0.5)),
        };
        let a = fill.run(
            &spec,
            2,
            &mut ExecContext::default().with_fill(policy.clone()),
        );
        let b = fill.run(&spec, 1, &mut ExecContext::default().with_fill(policy));
        assert_eq!(a.len(), 4);
        // The chaos schedule is a pure function of (seed, case, attempt):
        // statuses are identical across runs and across thread counts.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.status, y.status);
            assert_eq!(load_bits(x), load_bits(y));
        }
        // With a 50% per-attempt failure rate over 4 cases, this seed sees
        // at least one first-attempt failure; recovery must be recorded.
        assert!(
            a.iter()
                .any(|e| matches!(e.status, CaseStatus::Recovered { .. })),
            "statuses: {:?}",
            a.iter().map(|e| e.status.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn traced_fill_reports_outcomes_independent_of_thread_count() {
        let (fill, spec) = tiny_fill();
        let policy = FillPolicy {
            max_attempts: 2,
            chaos: Some(CasePlan::transient(11, 0.0).poison(3)),
        };
        let run = |threads: usize| {
            let mut ctx = ExecContext::traced().with_fill(policy.clone());
            fill.run(&spec, threads, &mut ctx);
            ctx.finish_trace()
        };
        let t2 = run(2);
        // Outcome spans are keyed by global case id and every case is
        // bit-identical whichever worker ran it, so the traces are
        // byte-equal whatever the thread count, `orders_reduced` gauges
        // included.
        for threads in [1, 3] {
            assert_eq!(
                run(threads).to_json().render(),
                t2.to_json().render(),
                "{threads} workers"
            );
        }
        let fill_span = t2.find("database_fill").unwrap();
        assert_eq!(fill_span.counters["cases"], 4);
        assert_eq!(fill_span.counters["quarantined"], 1);
        assert_eq!(fill_span.counters["converged"], 3);
        // Quarantined case 3 consumed its whole budget: 3 + 2 attempts.
        assert_eq!(fill_span.counters["attempts"], 5);
        assert_eq!(fill_span.children.len(), 4);
        assert_eq!(fill_span.children[3].key.case_id, Some(3));
        assert_eq!(fill_span.children[3].counters["quarantined"], 1);
        // A case span carries its cost; a quarantined case ran no cycle.
        assert_eq!(fill_span.children[0].counters["cycles"], spec.cycles as u64);
        assert!(!fill_span.children[3].counters.contains_key("cycles"));
    }

    #[test]
    fn rerun_matches_database_entry() {
        let (fill, spec) = tiny_fill();
        let db = fill.run(&spec, 1, &mut ExecContext::default());
        let again = fill.rerun(
            3,
            0.2,
            2.0,
            0.0,
            0.0,
            spec.cycles,
            &mut ExecContext::default(),
        );
        assert_eq!(again.status, CaseStatus::Converged);
        let orig = db
            .iter()
            .find(|e| e.deflection == 0.2 && e.mach == 2.0)
            .unwrap();
        assert_eq!(load_bits(&again), load_bits(orig));
        assert_eq!(
            (again.cycles, again.guard_trips),
            (orig.cycles, orig.guard_trips)
        );
    }

    #[test]
    fn rerun_obeys_the_fill_policy_instead_of_stamping_converged() {
        // Regression: `rerun` used to bypass run_case entirely — no retry
        // budget, no chaos, no finite-load validation — and unconditionally
        // stamped CaseStatus::Converged. A poisoned re-run must now consume
        // its whole attempt budget and report quarantine, bit-identically
        // on replay.
        let (fill, spec) = tiny_fill();
        let policy = FillPolicy {
            max_attempts: 2,
            chaos: Some(CasePlan::transient(11, 0.0).poison(3)),
        };
        let run = || {
            let mut ctx = ExecContext::traced().with_fill(policy.clone());
            let e = fill.rerun(3, 0.2, 2.0, 0.0, 0.0, spec.cycles, &mut ctx);
            (e, ctx.finish_trace())
        };
        let (entry, trace) = run();
        match &entry.status {
            CaseStatus::Quarantined { attempts, reason } => {
                assert_eq!(*attempts, 2, "whole retry budget consumed");
                assert!(reason.contains("injected"), "reason reported: {reason}");
            }
            s => panic!("expected quarantine, got {s:?}"),
        }
        // The trace records the re-run like a fill-time case.
        let span = trace.find("database_rerun").unwrap();
        assert_eq!(span.counters["quarantined"], 1);
        assert_eq!(span.counters["attempts"], 2);
        assert_eq!(span.children[0].key.case_id, Some(3));
        // Replay is bit-identical: same status, same trace shape.
        let (entry2, trace2) = run();
        assert_eq!(entry.status, entry2.status);
        assert_eq!(trace.to_json().render(), trace2.to_json().render());
        // A non-poisoned case id under the same plan still converges.
        let clean = fill.rerun(
            2,
            0.2,
            2.0,
            0.0,
            0.0,
            spec.cycles,
            &mut ExecContext::default().with_fill(policy),
        );
        assert_eq!(clean.status, CaseStatus::Converged);
    }

    #[test]
    fn rerun_recovers_from_transient_chaos() {
        let (fill, spec) = tiny_fill();
        // Locate a case id whose first attempt fails transiently and whose
        // second succeeds under this schedule — the chaos plan is a pure
        // function of (seed, case, attempt), so the probe is deterministic.
        let plan = CasePlan::transient(0xC0FFEE, 0.5);
        let case = (0..64)
            .find(|&c| plan.fails(c, 0) && !plan.fails(c, 1))
            .expect("some case fails exactly once under this seed");
        let policy = FillPolicy {
            max_attempts: 3,
            chaos: Some(plan),
        };
        let entry = fill.rerun(
            case,
            0.0,
            0.5,
            0.0,
            0.0,
            spec.cycles,
            &mut ExecContext::default().with_fill(policy),
        );
        assert_eq!(entry.status, CaseStatus::Recovered { attempts: 2 });
    }
}
