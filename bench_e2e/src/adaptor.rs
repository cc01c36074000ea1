//! The serial traced pass: `Timed<L>`, a multigrid level that records a
//! span around every call the generic cycle makes into it, so
//! `columbia_mg::fas_cycle` drives the real level code while the
//! benchmark sees where the time goes.

use crate::ledger::{counts_by_row, on_level, total_seconds_by_row, unaccounted_frac};
use crate::metrics::Outcome;
use crate::protocol::{timed, window};
use crate::stats::median;
use columbia_comm::ExecContext;
use columbia_mg::{fas_cycle, CycleParams, MultigridLevel};
use columbia_rt::trace::{SpanKey, Trace, Tracer};
use std::cell::RefCell;

/// A level whose smoothing sweep can be replayed phase by phase from its
/// public functions, one span per phase. The replay must perform exactly
/// the operations of the level's own `smooth(1)`: [`alternate_cycles`]
/// checks the two bit for bit.
pub trait Phased: MultigridLevel {
    /// The solution state: on the finest level, everything a cycle's
    /// result depends on.
    type State: Clone;
    fn sweep_phased(&mut self, tracer: &mut Tracer, level: usize);
    fn state_mut(&mut self) -> &mut Self::State;
    fn state_digest(&self) -> u64;
}

struct Timed<'a, L> {
    inner: &'a mut L,
    level: usize,
    tracer: &'a RefCell<Tracer>,
}

impl<L: Phased> MultigridLevel for Timed<'_, L> {
    fn smooth(&mut self, sweeps: usize) {
        let mut tracer = self.tracer.borrow_mut();
        for _ in 0..sweeps {
            self.inner.sweep_phased(&mut tracer, self.level);
        }
    }

    fn residual_norm(&mut self) -> f64 {
        self.inner.residual_norm()
    }

    fn restrict_into(&mut self, coarse: &mut Self) {
        let mut tracer = self.tracer.borrow_mut();
        tracer.scoped(on_level("restrict", self.level), |_| {
            self.inner.restrict_into(&mut *coarse.inner)
        });
    }

    fn prolong_from(&mut self, coarse: &Self) {
        let mut tracer = self.tracer.borrow_mut();
        tracer.scoped(on_level("prolong", self.level), |_| {
            self.inner.prolong_from(&*coarse.inner)
        });
    }
}

/// Smoothing sweeps each visit of level `l` does in a cycle over
/// `nlevels` levels.
pub fn sweeps_per_visit(cp: &CycleParams, l: usize, nlevels: usize) -> usize {
    if l + 1 == nlevels {
        cp.coarse_sweeps
    } else {
        cp.pre_sweeps + cp.post_sweeps
    }
}

/// What [`alternate_cycles`] measured.
pub struct TracedCycles {
    /// Seconds of each cycle driven plainly, and of the same cycle driven
    /// through the adaptor.
    pub plain_s: Vec<f64>,
    pub traced_s: Vec<f64>,
    /// Fine residual norm after each cycle.
    pub residuals: Vec<f64>,
    /// Cycles whose traced result was not bit-equal to the plain result.
    pub mismatches: u64,
    /// One `cycle` root span per traced cycle.
    pub trace: Trace,
}

/// Run every cycle twice from the same fine state, once plainly and once
/// through the adaptor, until `seconds` are used (at least twice). A
/// cycle's result depends on the fine state alone (restriction overwrites
/// the coarse levels), so the two runs must agree bit for bit; the
/// hierarchy then continues from the traced result.
pub fn alternate_cycles<L: Phased>(
    levels: &mut [L],
    cp: &CycleParams,
    seconds: f64,
) -> TracedCycles {
    let mut ctx = ExecContext::default();
    let tracer = RefCell::new(Tracer::wall());
    let (mut plain_s, mut traced_s, mut residuals) = (Vec::new(), Vec::new(), Vec::new());
    let mut mismatches = 0;
    window(seconds, 2, || {
        let start = levels[0].state_mut().clone();
        let ((), plain) = timed(|| fas_cycle(levels, cp, &mut ctx));
        let expect = (
            levels[0].residual_norm().to_bits(),
            levels[0].state_digest(),
        );
        *levels[0].state_mut() = start;

        let mut wrapped: Vec<Timed<'_, L>> = levels
            .iter_mut()
            .enumerate()
            .map(|(level, inner)| Timed {
                inner,
                level,
                tracer: &tracer,
            })
            .collect();
        tracer.borrow_mut().begin(SpanKey::new("cycle"));
        let ((), traced) = timed(|| fas_cycle(&mut wrapped, cp, &mut ctx));
        tracer.borrow_mut().end();
        drop(wrapped);
        let residual = levels[0].residual_norm();

        mismatches += u64::from(expect != (residual.to_bits(), levels[0].state_digest()));
        residuals.push(residual);
        plain_s.push(plain);
        traced_s.push(traced);
        plain + traced
    });
    TracedCycles {
        plain_s,
        traced_s,
        residuals,
        mismatches,
        trace: tracer.into_inner().finish(),
    }
}

/// Fill the rows every serially traced cycle workload shares: tracing
/// overhead, visits and time share per level, restriction and
/// prolongation seconds per cycle, and the share of the cycle no named
/// layer accounts for (`glue` names the grouping spans), which is gated
/// at 5 %. Counts the bit mismatches against the run.
pub fn cycle_rows(
    out: &mut Outcome,
    run: &TracedCycles,
    cp: &CycleParams,
    nlevels: usize,
    sweep: &str,
    glue: &[&str],
) {
    out.fail(
        run.mismatches,
        "traced cycles are not bit-equal to the untraced cycles".into(),
    );
    out.set(
        "rt.trace_overhead_frac",
        median(&run.traced_s) / median(&run.plain_s) - 1.0,
    );
    let totals = total_seconds_by_row(&run.trace.spans);
    let counts = counts_by_row(&run.trace.spans);
    let cycle_total = totals.get(&("cycle", None)).copied().unwrap_or(0.0);
    let per_cycle = 1.0 / run.plain_s.len() as f64;
    let (mut restrict, mut prolong) = (0.0, 0.0);
    for l in 0..nlevels {
        let at = |name| totals.get(&(name, Some(l))).copied().unwrap_or(0.0);
        let sweeps = counts.get(&(sweep, Some(l))).copied().unwrap_or(0);
        out.set_level(
            "mg",
            l,
            "visits",
            sweeps as f64 * per_cycle / sweeps_per_visit(cp, l, nlevels) as f64,
        );
        out.set_level(
            "mg",
            l,
            "time_frac",
            (at(sweep) + at("restrict") + at("prolong")) / cycle_total,
        );
        restrict += at("restrict");
        prolong += at("prolong");
    }
    out.set("mg.restrict_s", restrict * per_cycle);
    out.set("mg.prolong_s", prolong * per_cycle);
    let unaccounted = unaccounted_frac(&run.trace.spans, glue);
    out.set("ledger.unaccounted_frac", unaccounted);
    out.fail(
        u64::from(unaccounted > 0.05),
        format!("ledger leaves {unaccounted:.4} of the cycle unaccounted, more than 0.05"),
    );
}
