//! `columbia-exec`: the unified execution context.
//!
//! The paper's central methodology is running the *same* solvers under many
//! execution regimes — MPI vs OpenMP vs hybrid layouts, NUMAlink vs
//! InfiniBand fabrics, 1–2016 CPUs — and comparing what the regime does to
//! an unchanged numerical kernel. The reproduction's equivalent knobs are
//! deterministic fault injection, deterministic tracing and the halo
//! buffer-pool policy; [`ExecContext`] makes them *parameters* of one
//! driver per workload instead of per-regime driver forks.
//!
//! Every parallel driver (`columbia_comm::run_world`, `mg::fas_cycle` /
//! `mg::solve_to_tolerance`, `rans::parallel`, `rans::parallel_mg`,
//! `euler::parallel`, `core::database` fills) takes `&mut ExecContext` and
//! honors whichever capabilities are switched on:
//!
//! * **faults** — an optional seeded [`FaultPlan`] the comm runtime
//!   consults per message/barrier occurrence. `None` (the default) is the
//!   perfect interconnect, byte-for-byte.
//! * **trace** — a [`Tracer`] sink for spans/counters/gauges. The default
//!   [`Tracer::disabled`] is a no-op clock whose `begin`/`add`/`gauge`
//!   calls return immediately without allocating, so the untraced hot path
//!   costs a branch per instrumentation point.
//! * **pool** — the [`PoolPolicy`] for halo payload buffers. Enabled by
//!   default (the zero-allocation steady state); disabling it makes every
//!   checkout a fresh allocation, for A/B measurements against the seed
//!   allocation behaviour.
//! * **fill** — the [`FillPolicy`] retry/quarantine budget database fills
//!   apply per case, including an optional chaos [`CasePlan`].
//! * **executor** — the [`Executor`] that hosts a world's ranks, and the
//!   [`FabricModel`] that times an event world's messages. Both are named
//!   in code, never read from the environment: a run's regime is what
//!   its context says, as the paper names MPI, OpenMP or hybrid and
//!   NUMAlink4 or InfiniBand beside every result.
//!
//! The determinism contract is unchanged by any combination of
//! capabilities: results, `CommStats` counters and rendered trace JSON are
//! pure functions of (inputs, seeds, nranks) — never of thread timing.

#![forbid(unsafe_code)]

use columbia_rt::fault::{CasePlan, FaultPlan};
use columbia_rt::trace::{Trace, Tracer};
use std::sync::Arc;

/// Which `run_world` backend hosts the rank bodies. Chosen in code only
/// ([`ExecContext::with_executor`]); there is no environment knob.
///
/// * [`Executor::Threads`] (the default) — one OS thread per rank,
///   kernel-scheduled. Ranks really run in parallel, so a world no larger
///   than the host's cores runs at the host's speed.
/// * [`Executor::Events`] — every rank is a cooperative task; a single
///   deterministic `(time, rank, seq)` event queue decides who runs, and
///   ranks yield at every blocking point (recv, barrier, allreduce)
///   instead of parking in the kernel. Name it for worlds larger than the
///   host: paper-scale worlds (512/1024/2016 ranks) run on one machine
///   this way, bit-identical to the thread backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Executor {
    /// Rank-per-OS-thread backend.
    #[default]
    Threads,
    /// Cooperative discrete-event backend.
    Events,
}

/// Which interconnect delivery model shapes the event executor's virtual
/// time.
///
/// * [`FabricModel::Analytic`] (the default) — the seed behaviour: message
///   wakeups cost one virtual tick, delivery cost lives only in the
///   closed-form curves of `columbia_machine::interconnect`. The reference
///   oracle.
/// * [`FabricModel::Contention`] — the event backend routes every
///   cross-rank message through the discrete-event link/arbiter model
///   (`columbia_machine::contention`), so wakeup delays carry emergent
///   queueing. Payload bits, `CommStats` and traces are unchanged — the
///   comm protocol is interleaving-invariant — only the virtual-time
///   schedule moves. The thread backend has no virtual clock and ignores
///   the selection.
///
/// Chosen in code only ([`ExecContext::with_fabric_model`]); there is no
/// environment knob.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FabricModel {
    /// Closed-form delivery cost (seed behaviour, reference oracle).
    #[default]
    Analytic,
    /// Discrete-event contention model on the event executor.
    Contention,
}

/// Halo buffer-pool policy of the comm runtime.
///
/// With `enabled` (the default), payloads checked out via `Rank::buffer`
/// recycle through per-`(peer, capacity)` buckets and the steady state
/// performs no payload allocations. Disabled, every checkout allocates
/// fresh (counted as a pool miss) and `Rank::recycle` drops its buffer —
/// the seed allocation behaviour, kept reachable for A/B benchmarks.
/// Payload bytes are bit-identical either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolPolicy {
    /// Recycle payload buffers through the per-peer pool.
    pub enabled: bool,
}

impl Default for PoolPolicy {
    fn default() -> Self {
        PoolPolicy { enabled: true }
    }
}

impl PoolPolicy {
    /// Every checkout allocates; every recycle drops.
    pub fn disabled() -> Self {
        PoolPolicy { enabled: false }
    }
}

/// Per-case retry/quarantine policy of a database fill.
#[derive(Clone, Debug)]
pub struct FillPolicy {
    /// Maximum solver attempts per case (at least 1).
    pub max_attempts: u32,
    /// Optional deterministic chaos schedule: injected case failures for
    /// hardening tests (poisoned cases, seeded transient faults).
    pub chaos: Option<CasePlan>,
}

impl Default for FillPolicy {
    fn default() -> Self {
        FillPolicy {
            max_attempts: 3,
            chaos: None,
        }
    }
}

/// The execution regime of one driver run: optional fault plan, optional
/// trace sink, buffer-pool and database-fill policies.
///
/// `ExecContext::default()` is the clean regime — no faults, tracing off,
/// pool on, default retry budget — and costs nothing over a hard-coded
/// clean driver. Capabilities are switched on with the builder methods:
///
/// ```
/// use columbia_exec::ExecContext;
/// use columbia_rt::fault::FaultPlan;
/// use columbia_rt::trace::Tracer;
/// use std::sync::Arc;
///
/// let mut ctx = ExecContext::default()
///     .with_faults(Some(Arc::new(FaultPlan::fault_free(4))))
///     .with_tracer(Tracer::logical());
/// assert!(ctx.tracer().is_enabled());
/// let trace = ctx.finish_trace();
/// assert!(trace.spans.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct ExecContext {
    faults: Option<Arc<FaultPlan>>,
    pool: PoolPolicy,
    fill: FillPolicy,
    tracer: Tracer,
    executor: Executor,
    fabric: FabricModel,
}

impl ExecContext {
    /// The clean regime: no faults, tracing disabled, pool on, default
    /// fill policy. Identical to `ExecContext::default()`.
    pub fn new() -> Self {
        ExecContext::default()
    }

    /// Clean context under a deterministic fault plan — the most common
    /// non-default regime.
    pub fn faulty(plan: Arc<FaultPlan>) -> Self {
        ExecContext::default().with_faults(Some(plan))
    }

    /// Clean context recording into a logical-clock tracer (deterministic,
    /// byte-stable trace JSON).
    pub fn traced() -> Self {
        ExecContext::default().with_tracer(Tracer::logical())
    }

    /// Set (or clear) the fault plan.
    pub fn with_faults(mut self, plan: Option<Arc<FaultPlan>>) -> Self {
        self.faults = plan;
        self
    }

    /// Set the trace sink.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Set the buffer-pool policy.
    pub fn with_pool(mut self, pool: PoolPolicy) -> Self {
        self.pool = pool;
        self
    }

    /// Set the database-fill retry/quarantine policy.
    pub fn with_fill(mut self, fill: FillPolicy) -> Self {
        self.fill = fill;
        self
    }

    /// Select the `run_world` backend (thread-per-rank vs cooperative
    /// event executor; default [`Executor::Threads`]).
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Select the interconnect delivery model for the event executor's
    /// virtual time (default [`FabricModel::Analytic`]).
    pub fn with_fabric_model(mut self, fabric: FabricModel) -> Self {
        self.fabric = fabric;
        self
    }

    /// The fault plan, if any.
    pub fn faults(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// Clone the fault-plan handle for a rank launch.
    pub fn clone_faults(&self) -> Option<Arc<FaultPlan>> {
        self.faults.clone()
    }

    /// The buffer-pool policy.
    pub fn pool(&self) -> PoolPolicy {
        self.pool
    }

    /// The database-fill policy.
    pub fn fill(&self) -> &FillPolicy {
        &self.fill
    }

    /// The selected `run_world` backend.
    pub fn executor(&self) -> Executor {
        self.executor
    }

    /// The selected interconnect delivery model.
    pub fn fabric_model(&self) -> FabricModel {
        self.fabric
    }

    /// The trace sink. Disabled by default; every `Tracer` entry point is
    /// a no-op then, so drivers record unconditionally.
    pub fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// True when the context records spans (drivers never need to check —
    /// recording into a disabled tracer is free — but reporters do).
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Take the accumulated trace, leaving the context with tracing
    /// disabled. A never-enabled context yields an empty trace.
    pub fn finish_trace(&mut self) -> Trace {
        std::mem::replace(&mut self.tracer, Tracer::disabled()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columbia_rt::trace::SpanKey;

    #[test]
    fn default_context_is_clean() {
        let mut ctx = ExecContext::new();
        assert!(ctx.faults().is_none());
        assert!(ctx.pool().enabled);
        assert_eq!(ctx.fill().max_attempts, 3);
        assert!(ctx.fill().chaos.is_none());
        assert!(!ctx.tracing_enabled());
        // Recording into the disabled sink is a no-op, not an error.
        ctx.tracer().scoped(SpanKey::new("x"), |t| t.add("n", 1));
        assert!(ctx.finish_trace().spans.is_empty());
    }

    #[test]
    fn builders_compose() {
        let plan = Arc::new(FaultPlan::fault_free(3));
        let mut ctx = ExecContext::faulty(plan.clone())
            .with_pool(PoolPolicy::disabled())
            .with_fill(FillPolicy {
                max_attempts: 5,
                chaos: None,
            })
            .with_tracer(Tracer::logical());
        assert_eq!(ctx.faults().unwrap().nranks(), 3);
        assert!(!ctx.pool().enabled);
        assert_eq!(ctx.fill().max_attempts, 5);
        assert!(ctx.tracing_enabled());
        ctx.tracer()
            .scoped(SpanKey::new("solve"), |t| t.add("cycles", 2));
        let trace = ctx.finish_trace();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.counter_total("cycles"), 2);
        // finish_trace leaves the context reusable, tracing off.
        assert!(!ctx.tracing_enabled());
    }

    #[test]
    fn executor_selection_resolves_explicitly_without_the_environment() {
        let ctx = ExecContext::default();
        assert_eq!(ctx.executor(), Executor::Threads);
        let ctx = ctx.with_executor(Executor::Events);
        assert_eq!(ctx.executor(), Executor::Events);
    }

    #[test]
    fn fabric_model_defaults_to_analytic_and_is_set_in_code() {
        let ctx = ExecContext::default();
        assert_eq!(ctx.fabric_model(), FabricModel::Analytic);
        let ctx = ctx.with_fabric_model(FabricModel::Contention);
        assert_eq!(ctx.fabric_model(), FabricModel::Contention);
    }

    #[test]
    fn finish_trace_is_byte_stable() {
        let run = || {
            let mut ctx = ExecContext::traced();
            ctx.tracer().scoped(SpanKey::new("a").rank(1), |t| {
                t.add("sends", 3);
                t.gauge("rms", 0.5);
            });
            ctx.finish_trace().to_json().render()
        };
        assert_eq!(run(), run());
    }
}
