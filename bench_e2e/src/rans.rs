//! The NSU3D-analogue workloads: `rans100k_serial`, `rans100k_r2_threads`
//! and `rans27k_r8_events`.
//!
//! Executor, kernel path, fabric model and buffer pool are pinned here in
//! code; `main` refuses to start with any `COLUMBIA_*` variable set, so
//! no knob can change what these workloads measure.

use crate::adaptor::{alternate_cycles, cycle_rows, sweeps_per_visit, Phased};
use crate::ledger::{counts_by_row, merge, on_level, total_seconds_by_row};
use crate::metrics::Outcome;
use crate::protocol::{
    check_history, digest, histories_agree, repeat_setup, timed, w_cycle, window,
};
use crate::stats::median;
use columbia_bench::kernels::sweep_working_set_bytes;
use columbia_comm::{
    run_world, Decomposition, ExecContext, Executor, FabricModel, PoolPolicy, Rank, RankTrace,
};
use columbia_linalg::SoaStates;
use columbia_mesh::{
    agglomerate_hierarchy, extract_lines, wing_mesh, UnstructuredMesh, WingMeshSpec,
};
use columbia_mg::level_visits;
use columbia_partition::PartitionQuality;
use columbia_rans::parallel::{
    build_local_levels, parallel_sweep, partition_mesh_line_aware, LocalLevel,
};
use columbia_rans::{ParallelMg, RansLevel, RansSolver, SolverParams};
use columbia_rt::env::KernelKind;
use columbia_rt::trace::{Span, Trace, Tracer};
use std::sync::Mutex;
use std::time::Instant;

/// Levels asked for; agglomeration stops at five on both wing meshes.
const NLEVELS: usize = 6;
/// Fixed CFL of every cycle (no ramp), so each cycle does the same work.
const CFL: f64 = 2.0;
/// Orders of magnitude the residual must lose over a run's history.
const MIN_ORDERS: f64 = 1.0;
/// Relative tolerance of an N-rank history against the 1-rank reference.
const RANK_TOLERANCE: f64 = 1e-9;
/// The compute phases of a sweep, as span names.
const PHASES: [&str; 5] = ["begin", "grad", "flux", "diag", "implicit"];
/// Round trips of the ping-pong probe.
const PINGPONG_TRIPS: usize = 2000;

/// Sweeps of the instrumented replay on level `l`: more where they are
/// cheap, since a cycle multiplies them by up to 64.
fn replay_sweeps(l: usize) -> usize {
    3 << l
}

fn params() -> SolverParams {
    SolverParams {
        mach: 0.5,
        kernel: Some(KernelKind::Simd),
        ..SolverParams::default()
    }
}

/// The seeded wing mesh: `seed` drives the interior-point jitter.
fn wing(seed: u64, target_points: usize) -> UnstructuredMesh {
    wing_mesh(&WingMeshSpec {
        seed,
        ..WingMeshSpec::with_target_points(target_points)
    })
}

fn serial_solver(mesh: UnstructuredMesh) -> RansSolver {
    let mut solver = RansSolver::new(mesh, params(), NLEVELS);
    solver.set_cfl(CFL);
    solver
}

/// The set-up of `rans100k_serial`: wing mesh, agglomeration, lines,
/// `RansSolver::new`.
pub fn serial_setup(seed: u64) -> RansSolver {
    serial_solver(wing(seed, SERIAL_POINTS))
}

/// Digest of the state planes of a hierarchy.
fn state_digest<'a>(levels: impl Iterator<Item = &'a RansLevel>) -> u64 {
    digest(levels.flat_map(|lvl| {
        (0..columbia_rans::NVARS).flat_map(move |k| lvl.u.plane(k).iter().copied())
    }))
}

// --- rans100k_serial ---------------------------------------------------

const SERIAL_POINTS: usize = 100_000;

pub fn serial(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let cp = w_cycle();
    let (mut solver, setups) = repeat_setup(|| serial_setup(seed));
    let nverts = solver.levels[0].nvertices();

    let mut residuals = vec![solver.levels[0].residual_rms()];
    solver.cycle(&cp); // warm-up
    residuals.push(solver.levels[0].residual_rms());
    let cycles = window(seconds, 2, || {
        let ((), dt) = timed(|| solver.cycle(&cp));
        residuals.push(solver.levels[0].residual_rms());
        dt
    });
    check_history(&mut out, "rans100k_serial", &residuals, MIN_ORDERS);

    out.attempted = residuals.len() as u64 - 1;
    out.set_op_samples(&cycles, nverts as f64, "vertex updates/s");
    out.set_setup_samples(&setups);
    out.note(format!(
        "levels {:?}, {} timed cycles after 1 warm-up, CFL {CFL}",
        solver.level_sizes(),
        cycles.len()
    ));
    out
}

impl Phased for RansLevel {
    type State = SoaStates<{ columbia_rans::NVARS }>;

    fn state_mut(&mut self) -> &mut Self::State {
        &mut self.u
    }

    fn state_digest(&self) -> u64 {
        state_digest(std::iter::once(self))
    }

    /// `RansLevel::smooth_sweep` from its public phases.
    fn sweep_phased(&mut self, tracer: &mut Tracer, level: usize) {
        tracer.scoped(on_level("sweep", level), |t| {
            t.scoped(on_level("begin", level), |_| self.begin_residual());
            t.scoped(on_level("grad", level), |_| {
                self.accumulate_gradients();
                self.finalize_gradients();
            });
            t.scoped(on_level("flux", level), |_| {
                self.accumulate_fluxes();
                self.finalize_residual();
            });
            t.scoped(on_level("diag", level), |_| {
                self.accumulate_diagonal();
                self.finalize_diagonal();
            });
            t.scoped(on_level("implicit", level), |_| self.solve_implicit());
        });
    }
}

/// Fill the `rans.*` phase rows (seconds per cycle, summed over levels)
/// and the per-level sweep rows; `scale[level]` turns that level's
/// recorded seconds into seconds per cycle.
fn rans_rows(out: &mut Outcome, spans: &[Span], scale: &[f64]) {
    let totals = total_seconds_by_row(spans);
    let per_cycle = |name: &str| -> f64 {
        scale
            .iter()
            .enumerate()
            .map(|(l, s)| s * totals.get(&(name, Some(l))).copied().unwrap_or(0.0))
            .sum()
    };
    for name in PHASES {
        out.set(&format!("rans.{name}_s"), per_cycle(name));
    }
    for (l, s) in scale.iter().enumerate() {
        let sweep = totals.get(&("sweep", Some(l))).copied().unwrap_or(0.0);
        out.set_level("rans", l, "sweep_s", s * sweep);
    }
}

pub fn serial_traced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let cp = w_cycle();

    // mesh layer, timed from outside.
    let (mesh, wing_s) = timed(|| wing(seed, SERIAL_POINTS));
    let ((), agglomerate_s) = timed(|| {
        std::hint::black_box(agglomerate_hierarchy(&mesh, NLEVELS, 10));
    });
    let ((), lines_s) = timed(|| {
        std::hint::black_box(extract_lines(&mesh, params().line_threshold));
    });
    out.set("mesh.wing_gen_s", wing_s);
    out.set("mesh.agglomerate_s", agglomerate_s);
    out.set("mesh.lines_s", lines_s);

    let mut solver = serial_solver(mesh);
    let nlevels = solver.nlevels();
    for (l, n) in solver.level_sizes().into_iter().enumerate() {
        out.set_level("mesh", l, "vertices", n as f64);
    }
    // The warm-up cycle also yields the cycle's exact FLOP count: every
    // cycle does the same work.
    let mut residuals = vec![solver.levels[0].residual_rms()];
    solver.take_flops();
    solver.cycle(&cp);
    let flops_per_cycle: u64 = solver.level_flops().iter().sum();
    residuals.push(solver.levels[0].residual_rms());

    let run = alternate_cycles(&mut solver.levels, &cp, seconds);
    let ncycles = run.plain_s.len();
    residuals.extend(&run.residuals);
    check_history(&mut out, "rans100k_serial", &residuals, MIN_ORDERS);
    out.attempted = 2 * ncycles as u64 + 1;
    cycle_rows(&mut out, &run, &cp, nlevels, "sweep", &["cycle", "sweep"]);
    rans_rows(
        &mut out,
        &run.trace.spans,
        &vec![1.0 / ncycles as f64; nlevels],
    );
    out.set(
        "mg.orders_per_cycle",
        (residuals[0] / residuals[ncycles + 1]).log10() / (ncycles + 1) as f64,
    );

    let cycle_s = median(&run.plain_s);
    let counts = counts_by_row(&run.trace.spans);
    let bytes: f64 = solver
        .levels
        .iter()
        .enumerate()
        .map(|(l, lvl)| {
            let sweeps = counts.get(&("sweep", Some(l))).copied().unwrap_or(0);
            sweep_working_set_bytes(lvl) as f64 * sweeps as f64 / ncycles as f64
        })
        .sum();
    out.set("linalg.flops_per_cycle", flops_per_cycle as f64);
    out.set("linalg.gflops", flops_per_cycle as f64 / cycle_s / 1e9);
    out.set("linalg.computed_bytes_per_cycle", bytes);
    out.set("linalg.flops_per_byte", flops_per_cycle as f64 / bytes);
    out.note(format!(
        "whole cycle: {:.3} GF/s (counted FLOPs over wall time); BENCH_kernels.json resident_sweep6 records 1.33 GF/s for one sweep at ~100k vertices",
        flops_per_cycle as f64 / cycle_s / 1e9
    ));
    out.trace = Some(run.trace);
    out
}

// --- rans100k_r2_threads, rans27k_r8_events ------------------------------

/// A domain-decomposed workload.
pub struct Parallel {
    pub name: &'static str,
    pub target_points: usize,
    pub nranks: usize,
    pub executor: Executor,
    /// Cycles per `ParallelMg::solve`; `solve` consumes the solver, so
    /// each repetition rebuilds it (that rebuild is the set-up sample).
    pub cycles: usize,
}

pub const R2_THREADS: Parallel = Parallel {
    name: "rans100k_r2_threads",
    target_points: 100_000,
    nranks: 2,
    executor: Executor::Threads,
    cycles: 2,
};

pub const R8_EVENTS: Parallel = Parallel {
    name: "rans27k_r8_events",
    target_points: 25_000,
    nranks: 8,
    executor: Executor::Events,
    cycles: 2,
};

/// Exact traffic of one solve, summed over its ranks.
#[derive(Debug, PartialEq)]
struct Traffic {
    msgs: u64,
    bytes: u64,
    /// Barriers of the rank that entered the most.
    barriers: u64,
    pool_hits: u64,
    pool_misses: u64,
    /// Messages sent inside each level's context.
    level_msgs: Vec<u64>,
}

impl Traffic {
    /// A rank's global ledger (`RankTrace::stats`) already totals every
    /// event; `per_level` attributes the same events to the level they
    /// happened on. So the totals come from the global ledger alone and
    /// the level ledgers fill only the per-level rows: adding the two
    /// would count every message twice.
    fn of(traces: &[RankTrace], nlevels: usize) -> Traffic {
        let mut t = Traffic {
            msgs: 0,
            bytes: 0,
            barriers: 0,
            pool_hits: 0,
            pool_misses: 0,
            level_msgs: vec![0; nlevels],
        };
        for rank in traces {
            t.msgs += rank.stats.total_msgs();
            t.bytes += rank.stats.total_bytes();
            t.barriers = t.barriers.max(rank.stats.barriers());
            t.pool_hits += rank.stats.pool().hits;
            t.pool_misses += rank.stats.pool().misses;
            for (&l, stats) in &rank.per_level {
                t.level_msgs[l] += stats.total_msgs();
            }
        }
        t
    }
}

/// One build-and-solve repetition.
struct Solve {
    /// Mesh generation plus `ParallelMg::new`.
    setup_s: f64,
    /// `ParallelMg::new` alone.
    build_s: f64,
    solve_s: f64,
    history: Vec<f64>,
    traces: Vec<RankTrace>,
    nverts: usize,
}

/// What one rank brings back from a sweep world.
struct RankSweeps {
    state_digest: u64,
    trace: Trace,
    /// Level-0 local vertices, owned plus ghosts.
    local_vertices: usize,
    sweep_wall_s: f64,
}

impl Parallel {
    fn ctx(&self) -> ExecContext {
        ExecContext::default()
            .with_executor(self.executor)
            .with_fabric_model(FabricModel::Analytic)
            .with_pool(PoolPolicy { enabled: true })
    }

    /// The set-up of a parallel workload: wing mesh, then partition,
    /// decomposition and local hierarchies (`ParallelMg::new`, whose
    /// seconds come back too).
    fn build(&self, seed: u64, nranks: usize) -> (UnstructuredMesh, ParallelMg, f64) {
        let mesh = wing(seed, self.target_points);
        let (pmg, build_s) = timed(|| ParallelMg::new(&mesh, params(), nranks, NLEVELS));
        (mesh, pmg, build_s)
    }

    pub fn setup(&self, seed: u64) -> impl Sized {
        self.build(seed, self.nranks)
    }

    fn solve(&self, seed: u64, nranks: usize) -> Solve {
        let ((mesh, pmg, build_s), setup_s) = timed(|| self.build(seed, nranks));
        let mut ctx = self.ctx();
        let ((history, traces), solve_s) =
            timed(|| pmg.solve(&w_cycle(), CFL, self.cycles, &mut ctx));
        Solve {
            setup_s,
            build_s,
            solve_s,
            history: history.residuals,
            traces,
            nverts: mesh.nvertices(),
        }
    }

    pub fn run(&self, seed: u64, seconds: f64) -> Outcome {
        let mut out = Outcome::default();
        let mut reps: Vec<Solve> = Vec::new();
        window(seconds, 2, || {
            reps.push(self.solve(seed, self.nranks));
            reps[reps.len() - 1].solve_s
        });
        check_history(&mut out, self.name, &reps[0].history, MIN_ORDERS);
        // Same seed, same mesh, same partition: every repetition must
        // reproduce the first history bit for bit.
        let first = digest(reps[0].history.iter().copied());
        let drifted = reps[1..]
            .iter()
            .filter(|r| digest(r.history.iter().copied()) != first)
            .count();
        out.fail(
            (drifted * self.cycles) as u64,
            "repetitions of the same solve gave different residual histories".into(),
        );
        out.attempted = (reps.len() * self.cycles) as u64;
        let per_cycle = |r: &Solve| r.solve_s / self.cycles as f64;
        out.set_op_samples(
            &reps.iter().map(per_cycle).collect::<Vec<_>>(),
            reps[0].nverts as f64,
            "vertex updates/s",
        );
        out.set_setup_samples(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>());
        out.note(format!(
            "{} ranks on {:?}, {} solves of {} cycles, CFL {CFL}; op_s is solve wall / cycles (the solve's residual norms included)",
            self.nranks,
            self.executor,
            reps.len(),
            self.cycles
        ));
        out
    }

    /// The traced pass does a fixed amount of work (one solve, one
    /// reference solve, two sweep worlds), whatever the window.
    pub fn run_traced(&self, seed: u64) -> Outcome {
        let mut out = Outcome::default();
        let p = params();
        let cp = w_cycle();
        let n = self.nranks;

        // mesh and partition layers, timed from outside.
        let (mesh, wing_s) = timed(|| wing(seed, self.target_points));
        let (steps, agglomerate_s) = timed(|| agglomerate_hierarchy(&mesh, NLEVELS, 10));
        out.set("mesh.wing_gen_s", wing_s);
        out.set("mesh.agglomerate_s", agglomerate_s);
        let meshes: Vec<&UnstructuredMesh> = std::iter::once(&mesh)
            .chain(steps.iter().map(|s| &s.coarse))
            .collect();
        let nlevels = meshes.len();
        let mut kway_s = 0.0;
        let mut part0 = Vec::new();
        for (l, m) in meshes.iter().enumerate() {
            out.set_level("mesh", l, "vertices", m.nvertices() as f64);
            let (part, dt) = timed(|| partition_mesh_line_aware(m, n, p.line_threshold));
            kway_s += dt;
            if l == 0 {
                part0 = part;
            }
        }
        out.set("partition.kway_s", kway_s);
        let quality = PartitionQuality::measure(&mesh.dual_graph(), &part0, n);
        out.set(
            "partition.edge_cut_frac",
            quality.edge_cut / mesh.nedges() as f64,
        );
        out.set("partition.imbalance", quality.imbalance);
        out.set("partition.max_degree", quality.max_comm_degree() as f64);
        drop(steps);

        // comm layer: decomposition, an empty world, a 2-rank ping-pong.
        let ((), decompose_s) = timed(|| {
            std::hint::black_box(build_local_levels(&mesh, &part0, n, p));
        });
        out.set("comm.decompose_s", decompose_s);
        let ctx = self.ctx();
        let spawns: Vec<f64> = (0..5)
            .map(|_| timed(|| run_world(n, &ctx, |_rank| ())).1)
            .collect();
        out.set("comm.world_spawn_s", median(&spawns));
        out.set("comm.pingpong_us", pingpong_us(&ctx));

        // The solve itself, and the 1-rank reference it must agree with.
        let run = self.solve(seed, n);
        let reference = self.solve(seed, 1);
        out.attempted = 2 * self.cycles as u64;
        check_history(&mut out, self.name, &run.history, MIN_ORDERS);
        out.fail(
            u64::from(!histories_agree(&run.history, &reference.history, RANK_TOLERANCE))
                * self.cycles as u64,
            format!(
                "{n}-rank history differs from the 1-rank reference by more than {RANK_TOLERANCE} relative: {:?} vs {:?}",
                run.history, reference.history
            ),
        );
        let cycle_s = run.solve_s / self.cycles as f64;
        let speedup = reference.solve_s / run.solve_s;
        out.set("scaling.speedup", speedup);
        out.set("scaling.eff", speedup / n as f64);
        out.set("rans.pmg.build_s", run.build_s);
        out.set(
            "mg.orders_per_cycle",
            (run.history[0] / run.history[self.cycles]).log10() / self.cycles as f64,
        );
        out.note(format!(
            "{n} ranks {cycle_s:.4} s/cycle, 1 rank {:.4} s/cycle: speed-up {speedup:.3} (base: the 1-rank ParallelMg solve), efficiency {:.3}",
            reference.solve_s / self.cycles as f64,
            speedup / n as f64
        ));

        // Exact traffic counts from the rank ledgers of the solve (solve
        // totals over its cycles: the initial norm rides along).
        let per_cycle = |x: u64| x as f64 / self.cycles as f64;
        let traffic = Traffic::of(&run.traces, nlevels);
        let scoped: u64 = traffic.level_msgs.iter().sum();
        out.fail(
            u64::from(traffic.msgs < scoped),
            format!(
                "the ranks' global ledgers count {} messages, their level ledgers {scoped}",
                traffic.msgs
            ),
        );
        out.set("comm.msgs_per_cycle", per_cycle(traffic.msgs));
        out.set("comm.bytes_per_cycle", per_cycle(traffic.bytes));
        out.set("comm.barriers_per_cycle", per_cycle(traffic.barriers));
        out.set(
            "comm.pool_miss_ratio",
            traffic.pool_misses as f64 / (traffic.pool_hits + traffic.pool_misses).max(1) as f64,
        );
        for (l, m) in traffic.level_msgs.iter().enumerate() {
            out.set_level("comm", l, "msgs_per_cycle", per_cycle(*m));
        }

        // Sweep time per level, and how much of it is not compute: the
        // sweep replayed from its public phases with a span around each
        // phase and each exchange, checked bit for bit against
        // `parallel_sweep` itself.
        let real = self.sweep_world(&mesh, false);
        let replay = self.sweep_world(&mesh, true);
        let replayed: usize = (0..nlevels).map(replay_sweeps).sum();
        out.attempted += (n * replayed) as u64;
        let differing = real
            .iter()
            .zip(&replay)
            .filter(|(a, b)| a.state_digest != b.state_digest)
            .count();
        out.fail(
            (differing * replayed) as u64,
            "the instrumented sweep replay is not bit-equal to parallel_sweep".into(),
        );
        let slowest =
            |ranks: &[RankSweeps]| ranks.iter().map(|r| r.sweep_wall_s).fold(0.0, f64::max);
        // A second plain world after the replay brackets the clock drift.
        let real_after = self.sweep_world(&mesh, false);
        out.set(
            "rt.trace_overhead_frac",
            2.0 * slowest(&replay) / (slowest(&real) + slowest(&real_after)) - 1.0,
        );

        // Scale a level's replayed seconds to seconds per cycle: a W-cycle
        // visits level l 2^l times, 3 sweeps a visit (4 on the coarsest).
        let visits = level_visits(nlevels, cp.cycle);
        let scale: Vec<f64> = (0..nlevels)
            .map(|l| {
                (visits[l] * sweeps_per_visit(&cp, l, nlevels)) as f64 / replay_sweeps(l) as f64
            })
            .collect();
        // Ranks that really run at once: all of them on OS threads, one
        // on the single-token event executor.
        let concurrency = match self.executor {
            Executor::Events => 1.0,
            _ => n as f64,
        };
        // A level's sweep takes as long as its slowest rank. What that
        // wall holds beyond the ranks' compute spread over the ranks that
        // run at once is exchange: pack, unpack, delivery, scheduling and
        // waiting for the slowest neighbour.
        let mut sweep_s = vec![0.0f64; nlevels];
        let mut compute_s = vec![0.0f64; nlevels];
        let mut local_vertices = 0;
        for rank in &replay {
            let totals = total_seconds_by_row(&rank.trace.spans);
            for l in 0..nlevels {
                let at = |name| totals.get(&(name, Some(l))).copied().unwrap_or(0.0);
                sweep_s[l] = sweep_s[l].max(at("sweep"));
                compute_s[l] += PHASES.iter().map(|p| at(p)).sum::<f64>();
            }
            local_vertices += rank.local_vertices;
        }
        let merged = merge(replay.into_iter().map(|rank| rank.trace));
        // Phase rows: compute seconds per cycle summed over ranks, over
        // the ranks that run at once.
        let phase_scale: Vec<f64> = scale.iter().map(|s| s / concurrency).collect();
        rans_rows(&mut out, &merged.spans, &phase_scale);
        let (mut sweeps_per_cycle, mut exchange_per_cycle) = (0.0, 0.0);
        for l in 0..nlevels {
            let exchange_s = (sweep_s[l] - compute_s[l] / concurrency).max(0.0);
            out.set_level("rans", l, "sweep_s", scale[l] * sweep_s[l]);
            out.set_level("comm", l, "exchange_s", scale[l] * exchange_s);
            out.set_level("mg", l, "visits", visits[l] as f64);
            out.set_level("mg", l, "time_frac", scale[l] * sweep_s[l] / cycle_s);
            sweeps_per_cycle += scale[l] * sweep_s[l];
            exchange_per_cycle += scale[l] * exchange_s;
        }
        out.set("comm.exchange_frac", exchange_per_cycle / cycle_s);
        // Restriction, prolongation and the per-cycle norm are private to
        // `ParallelMg`, so they are the named remainder of the cycle. The
        // sweeps are replayed, not traced in place, which is why this
        // remainder is reported and not gated.
        out.set("rans.pmg.intergrid_s", cycle_s - sweeps_per_cycle);
        out.set(
            "ledger.unaccounted_frac",
            (cycle_s - sweeps_per_cycle).max(0.0) / cycle_s,
        );
        out.set(
            "rans.ghost_vertex_frac",
            (local_vertices as f64 - run.nverts as f64) / run.nverts as f64,
        );
        out.trace = Some(merged);
        out
    }

    /// Run one warm-up sweep (it fills the buffer pools) and then
    /// [`replay_sweeps`] sweeps on every level of a fresh hierarchy,
    /// through `parallel_sweep` or through the instrumented replay.
    fn sweep_world(&self, mesh: &UnstructuredMesh, replay: bool) -> Vec<RankSweeps> {
        let mut pmg = ParallelMg::new(mesh, params(), self.nranks, NLEVELS);
        // One bundle per rank: its levels and its tracer. The tracers are
        // made here, together, so the ranks' clocks start within
        // microseconds of each other and their spans line up.
        let mut bundles: Vec<Option<(Vec<LocalLevel>, Tracer)>> = (0..self.nranks)
            .map(|_| Some((Vec::new(), Tracer::wall())))
            .collect();
        for lvl in pmg.locals.drain(..) {
            for (r, local) in lvl.into_iter().enumerate() {
                bundles[r].as_mut().expect("fresh bundle").0.push(local);
            }
        }
        let bundles = Mutex::new(bundles);
        let decomps = &pmg.decomps;
        let (results, _) = run_world(self.nranks, &self.ctx(), |rank| {
            let (mut levels, mut tracer) = bundles
                .lock()
                .expect("no rank panics while holding the bundles")[rank.rank()]
            .take()
            .expect("one bundle per rank");
            // The prologue of `ParallelMg::solve`.
            for (l, lv) in levels.iter_mut().enumerate() {
                rank.enter_level(l);
                lv.level.cfl_now = CFL;
                lv.level.apply_bcs();
                decomps[l].plans[rank.rank()].exchange_copy_field(rank, 1, &mut lv.level.u);
                rank.exit_level();
            }
            for (l, lv) in levels.iter_mut().enumerate() {
                rank.enter_level(l);
                parallel_sweep(lv, &decomps[l], rank);
                rank.exit_level();
            }
            let t0 = Instant::now();
            for (l, lv) in levels.iter_mut().enumerate() {
                rank.enter_level(l);
                for _ in 0..replay_sweeps(l) {
                    if replay {
                        replay_sweep(lv, &decomps[l], rank, &mut tracer, l);
                    } else {
                        parallel_sweep(lv, &decomps[l], rank);
                    }
                }
                rank.exit_level();
            }
            RankSweeps {
                sweep_wall_s: t0.elapsed().as_secs_f64(),
                state_digest: state_digest(levels.iter().map(|lv| &lv.level)),
                trace: tracer.finish(),
                local_vertices: levels[0].local_to_global.len(),
            }
        });
        results
    }
}

/// `columbia_rans::parallel::parallel_sweep` from its public phases, a
/// span around each phase and each halo exchange.
fn replay_sweep(
    local: &mut LocalLevel,
    decomp: &Decomposition,
    rank: &mut Rank,
    tracer: &mut Tracer,
    level: usize,
) {
    let r = rank.rank();
    let plan = &decomp.plans[r];
    let lvl = &mut local.level;
    let key = |name: &str| on_level(name, level).rank(r);
    tracer.scoped(key("sweep"), |t| {
        t.scoped(key("begin"), |_| lvl.begin_residual());
        t.scoped(key("grad"), |_| lvl.accumulate_gradients());
        t.scoped(key("exchange"), |_| {
            plan.exchange_add_field(rank, 10, lvl.grad_mut())
        });
        t.scoped(key("grad"), |_| lvl.finalize_gradients());
        t.scoped(key("exchange"), |_| {
            plan.exchange_copy_field(rank, 11, lvl.grad_mut())
        });
        t.scoped(key("flux"), |_| lvl.accumulate_fluxes());
        t.scoped(key("diag"), |_| {
            lvl.accumulate_diagonal();
            lvl.pack_diag_scratch();
        });
        t.scoped(key("exchange"), |_| {
            // `res` and the pack buffer travel in one message; the buffer
            // is only reachable through `&mut RansLevel`, so `res` steps
            // out of the level for the duration of the call.
            let mut res = std::mem::replace(&mut lvl.res, SoaStates::zeros(0));
            plan.exchange_add2_field(rank, 12, &mut res, lvl.diag_pack_mut());
            lvl.res = res;
        });
        t.scoped(key("flux"), |_| lvl.finalize_residual());
        t.scoped(key("exchange"), |_| {
            plan.exchange_copy_field(rank, 14, lvl.diag_pack_mut())
        });
        t.scoped(key("diag"), |_| {
            lvl.unpack_diag_scratch();
            lvl.finalize_diagonal();
        });
        t.scoped(key("implicit"), |_| lvl.solve_implicit());
        t.scoped(key("exchange"), |_| {
            plan.exchange_copy_field(rank, 15, &mut lvl.u)
        });
    });
}

/// Round-trip microseconds of an 8-double message between two ranks.
fn pingpong_us(ctx: &ExecContext) -> f64 {
    let (results, _) = run_world(2, ctx, |rank| {
        let peer = 1 - rank.rank();
        let t0 = Instant::now();
        for _ in 0..PINGPONG_TRIPS {
            if rank.rank() == 0 {
                let buf = rank.buffer(peer, 8);
                rank.send(peer, 7, buf);
                let back = rank.recv(peer, 8);
                rank.recycle(peer, back);
            } else {
                let got = rank.recv(peer, 7);
                rank.send(peer, 8, got);
            }
        }
        t0.elapsed().as_secs_f64()
    });
    1e6 * results[0] / PINGPONG_TRIPS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two ranks trade one message on level 0, one on level 2 and one
    /// outside any level.
    fn traded(outside_levels: bool) -> Vec<RankTrace> {
        let (_, traces) = run_world(2, &ExecContext::default(), |rank| {
            let peer = 1 - rank.rank();
            for (level, tag, len) in [(0, 1, 4), (2, 2, 2)] {
                rank.enter_level(level);
                rank.send(peer, tag, vec![0.0; len]);
                rank.recv(peer, tag);
                rank.exit_level();
            }
            if outside_levels {
                rank.send(peer, 9, vec![0.0]);
                rank.recv(peer, 9);
            }
        });
        traces
    }

    #[test]
    fn totals_equal_the_level_rows_when_all_traffic_is_level_scoped() {
        let t = Traffic::of(&traded(false), 3);
        assert_eq!(t.level_msgs, vec![2, 0, 2]);
        assert_eq!(t.msgs, t.level_msgs.iter().sum::<u64>());
        assert_eq!(t.bytes, 2 * (4 + 2) * 8);
    }

    #[test]
    fn totals_exceed_the_level_rows_by_the_unscoped_traffic_only() {
        let t = Traffic::of(&traded(true), 3);
        assert_eq!(t.level_msgs, vec![2, 0, 2]);
        assert_eq!(t.msgs, 6, "each message once: 2 ranks x 3 sends");
        assert_eq!(t.bytes, 2 * (4 + 2 + 1) * 8);
    }
}
