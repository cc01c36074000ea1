//! Generic nonlinear (FAS) multigrid machinery.
//!
//! Both flow solvers — the NSU3D-style RANS solver and the Cart3D-style
//! Euler solver — drive their level hierarchies with the same cycling
//! logic: several smoothing steps on the fine level, transfer to the next
//! coarser level (restriction of state + residual into a FAS forcing
//! function), recursion, prolongation of the coarse correction, and
//! optional post-smoothing. The W-cycle re-visits coarse levels twice per
//! entry (paper Figure 4(b)): the coarsest of `L` levels is visited
//! `2^(L-1)` times per fine-grid cycle, which is exactly what erodes
//! scalability at high CPU counts.
//!
//! Levels are solver-specific and implement [`MultigridLevel`].
//!
//! Both drivers take a `columbia_exec::ExecContext` and record the cycle
//! structure into its trace sink: one span per cycle, one child span per
//! level *visit* (so a W-cycle's `2^l` coarse revisits are individually
//! visible), with sweep counts as counters and residuals as gauges. The
//! default context's tracer is disabled: span keys are built only when it
//! records, so a cycle costs no allocation when tracing is off.

#![forbid(unsafe_code)]

use columbia_exec::ExecContext;
use columbia_rt::trace::{SpanKey, Tracer};

/// Multigrid cycle type (paper Figure 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CycleType {
    /// One coarse visit per entry.
    V,
    /// Two coarse visits per entry — superior convergence and robustness;
    /// used exclusively by NSU3D in the paper.
    #[default]
    W,
}

/// One level of a solver's multigrid hierarchy.
///
/// Index 0 of a level slice is the *finest* level.
pub trait MultigridLevel {
    /// Advance the level's state with `sweeps` smoothing iterations.
    fn smooth(&mut self, sweeps: usize);

    /// RMS norm of the current residual (including FAS forcing).
    fn residual_norm(&mut self) -> f64;

    /// Initialise `coarse` from this level: restrict the state, compute the
    /// FAS forcing term, and remember the restricted state for the
    /// subsequent correction.
    fn restrict_into(&mut self, coarse: &mut Self);

    /// Apply the coarse-grid correction (`coarse state - restricted state`)
    /// to this level.
    fn prolong_from(&mut self, coarse: &Self);
}

/// Cycling parameters.
#[derive(Clone, Copy, Debug)]
pub struct CycleParams {
    /// Smoothing sweeps before restriction.
    pub pre_sweeps: usize,
    /// Smoothing sweeps after prolongation (0 reproduces the paper's
    /// "no time steps on the refinement phase" sawtooth variant).
    pub post_sweeps: usize,
    /// Sweeps on the coarsest level.
    pub coarse_sweeps: usize,
    /// V or W.
    pub cycle: CycleType,
}

impl Default for CycleParams {
    fn default() -> Self {
        CycleParams {
            pre_sweeps: 2,
            post_sweeps: 1,
            coarse_sweeps: 4,
            cycle: CycleType::W,
        }
    }
}

/// Execute one full multigrid cycle over `levels` (index 0 = finest).
///
/// When `ctx` carries an enabled tracer, the cycle structure is recorded:
/// a `mg_level` span per level *visit* (coarse W-cycle revisits appear
/// individually), `smooth_sweeps` / `restrictions` / `prolongations`
/// counters on each. The default context records nothing and allocates
/// nothing.
pub fn fas_cycle<L: MultigridLevel>(levels: &mut [L], params: &CycleParams, ctx: &mut ExecContext) {
    assert!(!levels.is_empty());
    cycle_recursive(levels, params, ctx.tracer(), 0);
}

fn cycle_recursive<L: MultigridLevel>(
    levels: &mut [L],
    params: &CycleParams,
    tracer: &mut Tracer,
    depth: usize,
) {
    if levels.len() == 1 {
        begin_visit(tracer, depth);
        levels[0].smooth(params.coarse_sweeps);
        tracer.add("smooth_sweeps", params.coarse_sweeps as u64);
        tracer.end();
        return;
    }
    let (fine_slice, rest) = levels.split_at_mut(1);
    let fine = &mut fine_slice[0];
    begin_visit(tracer, depth);
    fine.smooth(params.pre_sweeps);
    tracer.add("smooth_sweeps", params.pre_sweeps as u64);
    fine.restrict_into(&mut rest[0]);
    tracer.add("restrictions", 1);
    tracer.end();
    let visits = match params.cycle {
        CycleType::V => 1,
        CycleType::W => 2,
    };
    for _ in 0..visits {
        cycle_recursive(rest, params, tracer, depth + 1);
    }
    begin_visit(tracer, depth);
    fine.prolong_from(&rest[0]);
    tracer.add("prolongations", 1);
    fine.smooth(params.post_sweeps);
    tracer.add("smooth_sweeps", params.post_sweeps as u64);
    tracer.end();
}

/// Open the `mg_level` span of one visit to level `depth`. The key owns a
/// `String`, so it is built only when the tracer records.
fn begin_visit(tracer: &mut Tracer, depth: usize) {
    if tracer.is_enabled() {
        tracer.begin(SpanKey::new("mg_level").level(depth));
    }
}

/// Convergence history of a multigrid solve.
#[derive(Clone, Debug, Default)]
pub struct ConvergenceHistory {
    /// Fine-level residual norm before cycle `i` (index 0 = initial).
    pub residuals: Vec<f64>,
}

impl ConvergenceHistory {
    /// Orders of magnitude reduced from the initial residual.
    pub fn orders_reduced(&self) -> f64 {
        match (self.residuals.first(), self.residuals.last()) {
            (Some(&r0), Some(&rn)) if r0 > 0.0 && rn > 0.0 => (r0 / rn).log10(),
            _ => 0.0,
        }
    }

    /// Mean per-cycle residual reduction factor (geometric).
    pub fn mean_reduction_factor(&self) -> f64 {
        if self.residuals.len() < 2 {
            return 1.0;
        }
        let r0 = self.residuals[0];
        let rn = *self.residuals.last().unwrap();
        if r0 <= 0.0 || rn <= 0.0 {
            return 0.0;
        }
        (rn / r0).powf(1.0 / (self.residuals.len() - 1) as f64)
    }

    /// Number of cycles recorded.
    pub fn cycles(&self) -> usize {
        self.residuals.len().saturating_sub(1)
    }
}

/// Run cycles until the fine residual drops below `tol` or `max_cycles` is
/// reached; records the residual before every cycle and after the last.
///
/// With tracing enabled on `ctx`, each cycle wraps its [`fas_cycle`]
/// level-visit spans in one `cycle` span (indexed by cycle number, final
/// residual recorded as a gauge).
pub fn solve_to_tolerance<L: MultigridLevel>(
    levels: &mut [L],
    params: &CycleParams,
    tol: f64,
    max_cycles: usize,
    ctx: &mut ExecContext,
) -> ConvergenceHistory {
    let mut history = ConvergenceHistory::default();
    history.residuals.push(levels[0].residual_norm());
    for i in 0..max_cycles {
        if *history.residuals.last().unwrap() <= tol {
            break;
        }
        if ctx.tracing_enabled() {
            ctx.tracer().begin(SpanKey::new("cycle").cycle(i));
        }
        fas_cycle(levels, params, ctx);
        let r = levels[0].residual_norm();
        let tracer = ctx.tracer();
        tracer.gauge("residual_rms", r);
        tracer.end();
        history.residuals.push(r);
    }
    history
}

/// Number of visits each level receives during one cycle over `nlevels`
/// levels. For a W-cycle level `l` (0 = finest) is visited `2^l` times; the
/// performance model multiplies per-level cost by these counts (the paper:
/// "the coarsest level is visited 2^(n-1) = 32 times for a six-level
/// multigrid cycle").
pub fn level_visits(nlevels: usize, cycle: CycleType) -> Vec<usize> {
    (0..nlevels)
        .map(|l| match cycle {
            CycleType::V => 1,
            CycleType::W => 1usize << l,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linear 1-D Poisson FAS test level: -u'' = f on a uniform grid,
    /// damped-Jacobi smoother, aggregation restriction (pairs), injection
    /// prolongation. Linear problems are a special case of FAS, so this
    /// exercises the full trait surface.
    struct PoissonLevel {
        n: usize,
        h2: f64,
        u: Vec<f64>,
        f: Vec<f64>,
        /// State stored at restriction time for the FAS correction.
        restricted_u: Vec<f64>,
    }

    impl PoissonLevel {
        fn new(n: usize) -> Self {
            let h = 1.0 / (n + 1) as f64;
            PoissonLevel {
                n,
                h2: h * h,
                u: vec![0.0; n],
                f: vec![0.0; n],
                restricted_u: vec![0.0; n],
            }
        }

        fn residual(&self) -> Vec<f64> {
            // r = f - A u, A = (-u[i-1] + 2 u[i] - u[i+1]) / h^2.
            (0..self.n)
                .map(|i| {
                    let um = if i > 0 { self.u[i - 1] } else { 0.0 };
                    let up = if i + 1 < self.n { self.u[i + 1] } else { 0.0 };
                    self.f[i] - (2.0 * self.u[i] - um - up) / self.h2
                })
                .collect()
        }
    }

    impl MultigridLevel for PoissonLevel {
        fn smooth(&mut self, sweeps: usize) {
            for _ in 0..sweeps {
                let r = self.residual();
                for (u, &ri) in self.u.iter_mut().zip(&r) {
                    // Damped Jacobi, omega = 2/3.
                    *u += (2.0 / 3.0) * ri * self.h2 / 2.0;
                }
            }
        }

        fn residual_norm(&mut self) -> f64 {
            let r = self.residual();
            (r.iter().map(|v| v * v).sum::<f64>() / self.n as f64).sqrt()
        }

        fn restrict_into(&mut self, coarse: &mut Self) {
            let r = self.residual();
            for j in 0..coarse.n {
                // Full weighting over pairs (2j, 2j+1).
                let a = 2 * j;
                let b = (2 * j + 1).min(self.n - 1);
                coarse.u[j] = 0.5 * (self.u[a] + self.u[b]);
                coarse.restricted_u[j] = coarse.u[j];
            }
            // FAS forcing f_c = A_c(restricted u) + R(r_fine), computed after
            // the full restricted state is in place.
            for j in 0..coarse.n {
                let um = if j > 0 {
                    coarse.restricted_u[j - 1]
                } else {
                    0.0
                };
                let up = if j + 1 < coarse.n {
                    coarse.restricted_u[j + 1]
                } else {
                    0.0
                };
                let a = 2 * j;
                let b = (2 * j + 1).min(self.n - 1);
                let rj = 0.5 * (r[a] + r[b]);
                coarse.f[j] = (2.0 * coarse.restricted_u[j] - um - up) / coarse.h2 + rj;
            }
        }

        fn prolong_from(&mut self, coarse: &Self) {
            for j in 0..coarse.n {
                let corr = coarse.u[j] - coarse.restricted_u[j];
                let a = 2 * j;
                let b = (2 * j + 1).min(self.n - 1);
                self.u[a] += corr;
                if b != a {
                    self.u[b] += corr;
                }
            }
        }
    }

    fn build_hierarchy(n_fine: usize, nlevels: usize) -> Vec<PoissonLevel> {
        let mut levels = Vec::new();
        let mut n = n_fine;
        for _ in 0..nlevels {
            levels.push(PoissonLevel::new(n));
            n /= 2;
        }
        // Load: f = 1 on the fine level.
        levels[0].f = vec![1.0; n_fine];
        levels
    }

    #[test]
    fn multigrid_beats_smoothing_alone() {
        let n = 256;
        let mut mg = build_hierarchy(n, 6);
        let hist = solve_to_tolerance(
            &mut mg,
            &CycleParams::default(),
            1e-10,
            60,
            &mut ExecContext::default(),
        );
        assert!(
            hist.orders_reduced() > 8.0,
            "MG reduced only {} orders in {} cycles",
            hist.orders_reduced(),
            hist.cycles()
        );

        // Smoother alone, same total work budget (generous), barely moves.
        let mut single = build_hierarchy(n, 1);
        let r0 = single[0].residual_norm();
        single[0].smooth(200);
        let r1 = single[0].residual_norm();
        assert!(
            (r0 / r1) < 10.0,
            "smoother alone should stall: {r0} -> {r1}"
        );
    }

    #[test]
    fn w_cycle_converges_at_least_as_fast_as_v() {
        let n = 128;
        let mut v = build_hierarchy(n, 5);
        let mut w = build_hierarchy(n, 5);
        let pv = CycleParams {
            cycle: CycleType::V,
            ..Default::default()
        };
        let pw = CycleParams {
            cycle: CycleType::W,
            ..Default::default()
        };
        let hv = solve_to_tolerance(&mut v, &pv, 0.0, 10, &mut ExecContext::default());
        let hw = solve_to_tolerance(&mut w, &pw, 0.0, 10, &mut ExecContext::default());
        assert!(
            hw.orders_reduced() >= hv.orders_reduced() - 0.5,
            "W {} vs V {}",
            hw.orders_reduced(),
            hv.orders_reduced()
        );
    }

    #[test]
    fn more_levels_converge_faster_per_cycle() {
        let n = 256;
        let mut two = build_hierarchy(n, 2);
        let mut five = build_hierarchy(n, 5);
        let p = CycleParams::default();
        let h2 = solve_to_tolerance(&mut two, &p, 0.0, 8, &mut ExecContext::default());
        let h5 = solve_to_tolerance(&mut five, &p, 0.0, 8, &mut ExecContext::default());
        assert!(
            h5.orders_reduced() > h2.orders_reduced(),
            "5-level {} should beat 2-level {}",
            h5.orders_reduced(),
            h2.orders_reduced()
        );
    }

    #[test]
    fn level_visit_counts_match_paper() {
        assert_eq!(level_visits(6, CycleType::W), vec![1, 2, 4, 8, 16, 32]);
        assert_eq!(level_visits(4, CycleType::V), vec![1, 1, 1, 1]);
    }

    #[test]
    fn traced_cycle_exposes_w_cycle_revisits() {
        let nlevels = 4;
        let mut mg = build_hierarchy(64, nlevels);
        let mut ctx = ExecContext::traced();
        let hist = solve_to_tolerance(&mut mg, &CycleParams::default(), 0.0, 2, &mut ctx);
        assert_eq!(hist.cycles(), 2);
        let trace = ctx.finish_trace();
        assert_eq!(trace.spans.len(), 2, "one span per cycle");
        let cycle = &trace.spans[0];
        assert_eq!(cycle.key.name, "cycle");
        assert_eq!(cycle.key.cycle, Some(0));
        assert!(cycle.gauges.contains_key("residual_rms"));
        // Span count per level matches the paper's visit accounting:
        // 2 spans per non-coarsest visit (pre+restrict, prolong+post),
        // 1 per coarsest visit.
        let visits = level_visits(nlevels, CycleType::W);
        for (l, &v) in visits.iter().enumerate() {
            let n = cycle
                .children
                .iter()
                .filter(|s| s.key.name == "mg_level" && s.key.level == Some(l))
                .count();
            let expect = if l == nlevels - 1 { v } else { 2 * v };
            assert_eq!(n, expect, "level {l} span count");
        }
        // And the traced solve is identical to the untraced one.
        let mut plain = build_hierarchy(64, nlevels);
        let hist2 = solve_to_tolerance(
            &mut plain,
            &CycleParams::default(),
            0.0,
            2,
            &mut ExecContext::default(),
        );
        assert_eq!(
            hist.residuals
                .iter()
                .map(|r| r.to_bits())
                .collect::<Vec<_>>(),
            hist2
                .residuals
                .iter()
                .map(|r| r.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn history_metrics() {
        let h = ConvergenceHistory {
            residuals: vec![1.0, 0.1, 0.01],
        };
        assert!((h.orders_reduced() - 2.0).abs() < 1e-12);
        assert!((h.mean_reduction_factor() - 0.1).abs() < 1e-12);
        assert_eq!(h.cycles(), 2);
    }

    #[test]
    fn solve_stops_at_tolerance() {
        let mut mg = build_hierarchy(128, 5);
        let hist = solve_to_tolerance(
            &mut mg,
            &CycleParams::default(),
            1e-6,
            100,
            &mut ExecContext::default(),
        );
        assert!(hist.cycles() < 100, "tolerance never reached");
        assert!(*hist.residuals.last().unwrap() <= 1e-6);
    }

    columbia_rt::props! {
        /// Visit accounting for any depth: a W-cycle visits level `l`
        /// exactly `2^l` times (total `2^L - 1`), a V-cycle visits every
        /// level once. This is the count the paper's scalability argument
        /// rests on ("the coarsest level is visited 32 times").
        fn prop_level_visits_accounting(nlevels in 1usize..12) {
            let w = level_visits(nlevels, CycleType::W);
            let v = level_visits(nlevels, CycleType::V);
            assert_eq!(w.len(), nlevels);
            assert!(v.iter().all(|&c| c == 1));
            for (l, &c) in w.iter().enumerate() {
                assert_eq!(c, 1usize << l);
            }
            assert_eq!(w.iter().sum::<usize>(), (1usize << nlevels) - 1);
        }

        /// FAS W-cycles converge on the Poisson model problem whenever the
        /// hierarchy is deep enough that the coarsest grid is genuinely
        /// coarse (n <= 8) — the regime every real solver hierarchy here
        /// targets. Twenty cycles then gain at least two orders.
        fn prop_w_cycles_reduce_residual(k in 5usize..9, extra in 0usize..2) {
            let n = 1usize << k;
            let nlevels = k - 2 + extra; // coarsest grid has 8 or 4 points
            let mut mg = build_hierarchy(n, nlevels);
            let hist = solve_to_tolerance(&mut mg, &CycleParams::default(), 0.0, 20, &mut ExecContext::default());
            assert!(
                hist.orders_reduced() > 2.0,
                "only {} orders reduced for n={} levels={}",
                hist.orders_reduced(), n, nlevels
            );
        }
    }
}
