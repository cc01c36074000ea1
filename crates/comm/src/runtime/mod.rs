//! Ranks-as-threads message passing with deterministic fault injection.
//!
//! Under a [`FaultPlan`] the runtime survives — and replays — chaos:
//!
//! * **drops** — the sender consults the plan for occurrence `seq` of its
//!   stream and simulates a bounded retry-with-timeout protocol: each
//!   dropped attempt records a retry, a saturated retry budget records a
//!   timeout and escalates to the reliable fallback path, so the payload
//!   still arrives exactly once;
//! * **duplicates** — extra copies travel with the same sequence number
//!   and are discarded by the receiver's dedup window;
//! * **delays / reordering** — delayed messages linger in the sender's
//!   queue for a plan-chosen number of send-slots (and are force-flushed
//!   at every blocking point, so no deadlock is possible); receivers
//!   reassemble streams in sequence order;
//! * **barrier stalls** — a rank entering a barrier may burn a
//!   plan-chosen number of scheduler yields first.
//!
//! All fault decisions are pure functions of `(fault seed, coordinates)`
//! — never of thread timing — so the same `(seed, nranks)` pair yields a
//! bit-identical fault schedule, solver result and [`CommStats`] trace on
//! every run.
//!
//! A [`Rank`] composes four private layers, each owning one piece of
//! state: `wire` (sequence-numbered streams, epochs, the injected-delay
//! queue), `pool` (recycled payload buffers per `(peer, capacity)`),
//! `ledger` (total and per-level [`CommStats`]) and `wait` (how a rank
//! blocks, how a world starts and ends, which CPU its carriers run on —
//! the only layer that knows which executor runs). `rank` holds the
//! operations written on top of them; this file, the composition and the
//! one launcher.

mod ledger;
mod pool;
mod rank;
mod wait;
mod wire;

use crate::exchange::Decomposition;
use crate::stats::CommStats;
use columbia_exec::ExecContext;
use columbia_rt::fault::FaultPlan;
use columbia_rt::trace::{SpanKey, Tracer};
use ledger::Ledger;
use pool::Pool;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::channel;
use std::sync::Arc;
use wait::WaitBackend;
use wire::Wire;

/// Per-rank communication context handed to the rank body.
pub struct Rank {
    rank: usize,
    nranks: usize,
    wire: Wire,
    pool: Pool,
    ledger: Ledger,
    wait: WaitBackend,
    faults: Option<Arc<FaultPlan>>,
    /// Barrier entries so far (fault-schedule coordinate).
    barrier_count: u64,
}

/// Everything a rank's comm ledger holds at teardown: the residual global
/// stats (whatever `take_stats` has not already handed out, including sends
/// performed by the teardown flush itself) plus the per-level attribution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankTrace {
    pub rank: usize,
    /// Residual global ledger (empty if the body drained it at the very
    /// end and teardown flushed nothing).
    pub stats: CommStats,
    /// Per-multigrid-level ledgers, keyed by level index.
    pub per_level: BTreeMap<usize, CommStats>,
}

impl RankTrace {
    /// Record this rank's ledgers into a tracer: a `comm` span keyed by
    /// rank with the residual counters, one `comm_level` child per level.
    pub fn record_to(&self, tracer: &mut Tracer) {
        tracer.scoped(SpanKey::new("comm").rank(self.rank), |t| {
            self.stats.record_to(t);
            for (&level, stats) in &self.per_level {
                t.scoped(
                    SpanKey::new("comm_level").rank(self.rank).level(level),
                    |t| {
                        stats.record_to(t);
                    },
                );
            }
        });
    }
}

/// Best-effort human-readable panic payload (for rank-id prefixing).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// THE driver entry point: run `nranks` rank bodies under an
/// [`ExecContext`], honoring its fault plan and buffer-pool policy, and
/// return each body's result plus each rank's teardown [`RankTrace`] — the
/// residual comm ledger (everything `take_stats` did not hand out,
/// including sends released by the teardown flush) and the per-level
/// attribution built up via [`Rank::enter_level`] — both in rank order.
///
/// With the default context this is byte-for-byte the perfect-interconnect
/// runtime. With a fault plan, sends are dropped / retried / duplicated /
/// delayed and barriers stall exactly as the plan's seed dictates; results
/// and [`CommStats`] traces remain bit-identical across runs for the same
/// `(seed, nranks)`. Both vectors are indexed by rank id, so their content
/// is independent of thread completion order — deterministic whenever the
/// workload is.
///
/// `ctx` names the executor ([`columbia_exec::Executor`], threads by
/// default). One OS thread carries each rank on either executor; a
/// panicking rank is re-reported as `"rank {r} panicked: {message}"`.
pub fn run_world<T, F>(nranks: usize, ctx: &ExecContext, body: F) -> (Vec<T>, Vec<RankTrace>)
where
    T: Send,
    F: Fn(&mut Rank) -> T + Sync,
{
    run_world_with(vec![(); nranks], ctx, |rank, ()| body(rank))
}

/// [`run_world`] with one state per rank: rank `r`'s body receives
/// `states[r]` by value, on its own carrier thread (a rank's sub-levels,
/// say), and the world has `states.len()` ranks.
pub fn run_world_with<S, T, F>(
    states: Vec<S>,
    ctx: &ExecContext,
    body: F,
) -> (Vec<T>, Vec<RankTrace>)
where
    S: Send,
    T: Send,
    F: Fn(&mut Rank, S) -> T + Sync,
{
    assert!(!states.is_empty());
    launch(WaitBackend::for_world(states.len(), ctx), states, ctx, body)
}

/// A smoothing world over `decomp` and its tail. Rank `r`'s body gets
/// `locals[r]` and returns its owned rows and the world norm; the rows
/// come back gathered, with the norm and the ledgers. An enabled tracer
/// records the run under a `name` span: the step counter, `ranks`, the
/// norm as `residual_rms` and one `comm` child span per rank.
pub fn run_smoothing_world<S: Send, T: Copy + Default + Send>(
    decomp: &Decomposition,
    locals: Vec<S>,
    ctx: &mut ExecContext,
    (name, counter, steps): (&str, &str, usize),
    body: impl Fn(&mut Rank, S) -> (Vec<T>, f64) + Sync,
) -> (Vec<T>, f64, Vec<RankTrace>) {
    let (results, traces) = run_world_with(locals, ctx, body);
    let (owned, rms): (Vec<_>, Vec<f64>) = results.into_iter().unzip();
    let rms = rms.last().copied().unwrap_or(0.0);
    ctx.tracer().scoped(SpanKey::new(name), |t| {
        t.add(counter, steps as u64);
        t.add("ranks", decomp.nparts() as u64);
        t.gauge("residual_rms", rms);
        traces.iter().for_each(|tr| tr.record_to(t));
    });
    (decomp.gather_owned(owned), rms, traces)
}

/// [`run_world_with`] on an already-built wait backend.
fn launch<S, T, F>(
    world: WaitBackend,
    states: Vec<S>,
    ctx: &ExecContext,
    body: F,
) -> (Vec<T>, Vec<RankTrace>)
where
    S: Send,
    T: Send,
    F: Fn(&mut Rank, S) -> T + Sync,
{
    let nranks = states.len();
    let plan = ctx.clone_faults();
    let pool_on = ctx.pool().enabled;
    if let Some(p) = &plan {
        assert_eq!(
            p.nranks(),
            nranks,
            "fault plan built for {} ranks, world has {nranks}",
            p.nranks()
        );
    }
    // One mailbox per rank: everyone holds a sender to each, the owner the receiver.
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..nranks).map(|_| channel()).unzip();
    let body = &body;

    std::thread::scope(|scope| {
        let mut carriers = Vec::with_capacity(nranks);
        for ((r, rx), state) in receivers.into_iter().enumerate().zip(states) {
            let wire = Wire::new(r, senders.clone(), rx);
            let faults = plan.clone();
            let wait = world.clone();
            let carrier = world.carrier(r).spawn_scoped(scope, move || {
                wait.start(r);
                let mut rank = Rank {
                    rank: r,
                    nranks,
                    wire,
                    pool: Pool::new(pool_on),
                    ledger: Ledger::default(),
                    wait,
                    faults,
                    barrier_count: 0,
                };
                let done = catch_unwind(AssertUnwindSafe(|| {
                    let out = body(&mut rank, state);
                    (out, rank.finish())
                }));
                match done {
                    Ok(done) => {
                        rank.wait.retire(r);
                        done
                    }
                    Err(payload) => {
                        let msg = panic_message(&*payload);
                        rank.wait.poison(r, &msg);
                        resume_unwind(Box::new(format!("rank {r} panicked: {msg}")))
                    }
                }
            });
            carriers.push(carrier.expect("spawn rank carrier thread"));
        }
        world.kick();
        // Join in rank order: results and ledgers land by rank id. On the
        // first failed join (the scope still waits for the rest) report the
        // backend's first panic where it knows one, else this lowest rank's.
        let joined: Result<Vec<_>, _> = carriers.into_iter().map(|c| c.join()).collect();
        match joined {
            Ok(done) => done.into_iter().unzip(),
            Err(payload) => match world.first_panic() {
                Some((r, msg)) => std::panic::panic_any(format!("rank {r} panicked: {msg}")),
                None => resume_unwind(payload),
            },
        }
    })
}

/// Both `run_world` backends. Every comm test that pins a payload, a
/// ledger or a panic message runs on each.
#[cfg(test)]
pub(crate) const EXECUTORS: [columbia_exec::Executor; 2] = [
    columbia_exec::Executor::Threads,
    columbia_exec::Executor::Events,
];

#[cfg(test)]
mod tests {
    use super::wait::{spin_budget, SPIN_PULLS};
    use super::*;
    use columbia_exec::Executor;
    use columbia_rt::fault::FaultConfig;

    /// The clean context on `exec`.
    fn on(exec: Executor) -> ExecContext {
        ExecContext::default().with_executor(exec)
    }

    #[test]
    fn ring_pass_accumulates() {
        for exec in EXECUTORS {
            let (results, _) = run_world(4, &on(exec), |rank| {
                let r = rank.rank();
                let next = (r + 1) % 4;
                let prev = (r + 3) % 4;
                rank.send(next, 7, vec![r as f64]);
                let got = rank.recv(prev, 7);
                got[0]
            });
            assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0], "{exec:?}");
        }
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        for exec in EXECUTORS {
            let (results, _) = run_world(2, &on(exec), |rank| {
                if rank.rank() == 0 {
                    rank.send(1, 1, vec![1.0]);
                    rank.send(1, 2, vec![2.0]);
                    0.0
                } else {
                    // Receive in reverse tag order.
                    let b = rank.recv(0, 2);
                    let a = rank.recv(0, 1);
                    a[0] * 10.0 + b[0]
                }
            });
            assert_eq!(results[1], 12.0, "{exec:?}");
        }
    }

    #[test]
    fn allreduce_sum_and_max() {
        for exec in EXECUTORS {
            let (results, _) = run_world(5, &on(exec), |rank| {
                let s = rank.allreduce_sum(rank.rank() as f64);
                let m = rank.allreduce_max(rank.rank() as f64);
                (s, m)
            });
            for (s, m) in results {
                assert_eq!(s, 10.0, "{exec:?}");
                assert_eq!(m, 4.0, "{exec:?}");
            }
        }
    }

    #[test]
    fn single_rank_world_works() {
        for exec in EXECUTORS {
            let (results, _) = run_world(1, &on(exec), |rank| rank.allreduce_sum(5.0));
            assert_eq!(results, vec![5.0], "{exec:?}");
        }
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        for exec in EXECUTORS {
            let (results, _) = run_world(2, &on(exec), |rank| {
                if rank.rank() == 0 {
                    rank.send(1, 3, vec![0.0; 10]);
                    rank.send(1, 4, vec![0.0; 5]);
                } else {
                    rank.recv(0, 3);
                    rank.recv(0, 4);
                }
                rank.barrier();
                rank.take_stats()
            });
            assert_eq!(results[0].total_msgs(), 2, "{exec:?}");
            assert_eq!(results[0].total_bytes(), 15 * 8, "{exec:?}");
            assert_eq!(results[1].total_msgs(), 0, "{exec:?}");
        }
    }

    #[test]
    fn send_to_self_is_delivered() {
        for exec in EXECUTORS {
            let (results, _) = run_world(2, &on(exec), |rank| {
                let me = rank.rank();
                rank.send(me, 42, vec![me as f64 + 1.0]);
                rank.recv(me, 42)[0]
            });
            assert_eq!(results, vec![1.0, 2.0], "{exec:?}");
        }
    }

    #[test]
    #[should_panic(expected = "rank 0 panicked: rank 5 out of range")]
    fn send_out_of_range_panics() {
        // The offending rank panics with "rank 5 out of range"; the world
        // re-reports it prefixed with the failing rank's id, in the same
        // text on both backends (see the test after next).
        run_world(1, &ExecContext::default(), |rank| rank.send(5, 1, vec![]));
    }

    #[test]
    fn spin_budget_parks_immediately_when_oversubscribed() {
        // More ranks than cores: polling steals the sender's CPU, so the
        // budget must be zero (park in the mailbox's blocking receive, let
        // the sender's wakeup be the token). With spare cores the full
        // spin window applies.
        assert_eq!(spin_budget(8, 4), 0);
        assert_eq!(spin_budget(5, 4), 0);
        assert_eq!(spin_budget(4, 4), SPIN_PULLS);
        assert_eq!(spin_budget(2, 4), SPIN_PULLS);
        assert_eq!(spin_budget(1, 1), SPIN_PULLS);
        assert_eq!(spin_budget(2, 1), 0);
    }

    #[test]
    fn thread_backend_panics_carry_rank_prefix() {
        // Single-rank world (a multi-rank thread world would strand the
        // innocent peers; that pre-existing limitation is the event
        // backend's poison protocol to solve).
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_world(1, &ExecContext::default(), |_rank| {
                panic!("kaboom");
            });
        }))
        .expect_err("rank panic must propagate");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "rank 0 panicked: kaboom");
    }

    #[test]
    fn launcher_reports_the_same_panic_text_on_both_backends() {
        for exec in EXECUTORS {
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_world(1, &on(exec), |_rank| {
                    panic!("kaboom");
                });
            }))
            .expect_err("rank panic must propagate");
            let msg = err.downcast_ref::<String>().expect("string payload");
            assert_eq!(msg, "rank 0 panicked: kaboom", "{exec:?}");
        }
    }

    #[test]
    fn event_backend_panics_carry_rank_prefix_and_release_peers() {
        // Rank 1 panics while rank 0 is parked in a recv: the poison
        // protocol must wake rank 0 (no hang) and run_world must report
        // the *first* panic with its rank id.
        let ctx = on(Executor::Events);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_world(2, &ctx, |rank| {
                if rank.rank() == 0 {
                    rank.recv(1, 1); // never satisfied
                } else {
                    panic!("bad interpolation weight");
                }
            });
        }))
        .expect_err("rank panic must propagate");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "rank 1 panicked: bad interpolation weight");
    }

    #[test]
    fn event_backend_ring_pass_matches_threads() {
        let run = |exec: Executor| {
            let ctx = on(exec);
            run_world(5, &ctx, |rank| {
                let r = rank.rank();
                let n = rank.nranks();
                rank.send((r + 1) % n, 7, vec![r as f64]);
                let got = rank.recv((r + n - 1) % n, 7)[0];
                let sum = rank.allreduce_sum(got);
                rank.barrier();
                (got, sum, rank.take_stats())
            })
        };
        let (tr, tt) = run(Executor::Threads);
        let (er, et) = run(Executor::Events);
        for ((a, b, _), (c, d, _)) in tr.iter().zip(&er) {
            assert_eq!(a.to_bits(), c.to_bits());
            assert_eq!(b.to_bits(), d.to_bits());
        }
        assert_eq!(
            tr.iter().map(|(_, _, s)| s).collect::<Vec<_>>(),
            er.iter().map(|(_, _, s)| s).collect::<Vec<_>>(),
            "CommStats diverged between backends"
        );
        assert_eq!(tt, et, "teardown RankTraces diverged between backends");
    }

    #[test]
    fn event_backend_deadlock_is_detected_not_hung() {
        // Rank 0 recvs a message nobody sends: the thread backend would
        // park forever, the event scheduler must detect the empty queue
        // with live ranks and panic with the status table.
        let ctx = on(Executor::Events);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_world(2, &ctx, |rank| {
                if rank.rank() == 0 {
                    rank.recv(1, 9);
                }
                rank.barrier();
            });
        }))
        .expect_err("deadlock must panic, not hang");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("deadlock"), "{msg}");
    }

    #[test]
    fn deadlock_status_table_lists_every_rank_exactly_once() {
        // Four ranks, two distinct fates: ranks 0 and 1 recv from a rank
        // that never sends; ranks 2 and 3 finish their bodies and park in
        // the teardown barrier the world can never complete. The deadlock
        // report must carry one status row per rank — no omissions, no
        // duplicates.
        let ctx = on(Executor::Events);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_world(4, &ctx, |rank| match rank.rank() {
                0 | 1 => {
                    rank.recv(3, 42);
                }
                _ => {}
            });
        }))
        .expect_err("deadlock must panic, not hang");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("deadlock"), "{msg}");
        for row in [
            "(0, RecvWait)",
            "(1, RecvWait)",
            "(2, BarrierWait)",
            "(3, BarrierWait)",
        ] {
            assert_eq!(
                msg.matches(row).count(),
                1,
                "status row {row} missing or repeated in: {msg}"
            );
        }
        // Exactly the four rows — the table has no phantom ranks.
        assert_eq!(msg.matches("(0,").count(), 1, "{msg}");
        assert_eq!(msg.matches("RecvWait").count(), 2, "{msg}");
        assert_eq!(msg.matches("BarrierWait").count(), 2, "{msg}");
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for exec in EXECUTORS {
            let counter = AtomicUsize::new(0);
            run_world(4, &on(exec), |rank| {
                counter.fetch_add(1, Ordering::SeqCst);
                rank.barrier();
                // After the barrier everyone must see all 4 increments.
                assert_eq!(counter.load(Ordering::SeqCst), 4, "{exec:?}");
            });
        }
    }

    /// A messy mixed workload: ring pass, tagged cross-traffic, allreduce,
    /// barrier. Used to compare fault-free and faulty executions.
    fn chaos_workload(
        exec: Executor,
        nranks: usize,
        plan: Option<Arc<FaultPlan>>,
    ) -> Vec<(f64, CommStats)> {
        run_world(nranks, &on(exec).with_faults(plan), |rank| {
            let r = rank.rank();
            let n = rank.nranks();
            let next = (r + 1) % n;
            let prev = (r + n - 1) % n;
            let mut acc = 0.0;
            for round in 0..6u64 {
                rank.send(next, 7 + round % 2, vec![r as f64, round as f64]);
                let got = rank.recv(prev, 7 + round % 2);
                acc += got[0] * (round + 1) as f64 + got[1];
            }
            acc += rank.allreduce_sum(acc);
            rank.barrier();
            acc += rank.allreduce_max(r as f64);
            (acc, rank.take_stats())
        })
        .0
    }

    #[test]
    fn faulty_run_is_bit_identical_across_runs() {
        let plan = || {
            Some(Arc::new(FaultPlan::new(
                0xBAD_CAB1E,
                4,
                FaultConfig::severe(),
            )))
        };
        for exec in EXECUTORS {
            let a = chaos_workload(exec, 4, plan());
            let b = chaos_workload(exec, 4, plan());
            for ((va, sa), (vb, sb)) in a.iter().zip(&b) {
                assert_eq!(va.to_bits(), vb.to_bits(), "{exec:?}: values diverged");
                assert_eq!(sa, sb, "{exec:?}: stats traces diverged");
            }
            // The severe plan actually exercised the fault paths.
            let f: Vec<_> = a.iter().map(|(_, s)| *s.faults()).collect();
            assert!(f.iter().any(|c| c.retries > 0), "no retries recorded");
            assert!(f.iter().any(|c| c.dup_sent > 0), "no duplicates recorded");
            assert!(f.iter().any(|c| c.delayed_msgs > 0), "no delays recorded");
        }
    }

    #[test]
    fn faults_do_not_change_delivered_values() {
        for exec in EXECUTORS {
            let clean = chaos_workload(exec, 4, None);
            let faulty = chaos_workload(
                exec,
                4,
                Some(Arc::new(FaultPlan::new(99, 4, FaultConfig::severe()))),
            );
            for ((vc, _), (vf, _)) in clean.iter().zip(&faulty) {
                assert_eq!(
                    vc.to_bits(),
                    vf.to_bits(),
                    "{exec:?}: retry/dedup/reorder protocol must hide faults from payloads"
                );
            }
        }
    }

    #[test]
    fn fault_free_plan_matches_no_plan_exactly() {
        for exec in EXECUTORS {
            let clean = chaos_workload(exec, 4, None);
            for seed in [0u64, 7, 0xFEED] {
                let plan = Arc::new(FaultPlan::new(seed, 4, FaultConfig::fault_free()));
                let gated = chaos_workload(exec, 4, Some(plan));
                for ((vc, sc), (vg, sg)) in clean.iter().zip(&gated) {
                    assert_eq!(vc.to_bits(), vg.to_bits(), "{exec:?}");
                    assert_eq!(
                        sc, sg,
                        "{exec:?}: zero-rate plan must leave the trace untouched"
                    );
                }
            }
        }
    }

    #[test]
    fn duplicated_and_reordered_sends_are_deduped() {
        // Force heavy duplication + delay with zero drops: every payload
        // must still arrive exactly once, in order.
        let cfg = FaultConfig {
            dup_rate: 1.0,
            max_dups: 2,
            delay_rate: 0.8,
            max_delay_slots: 3,
            ..FaultConfig::fault_free()
        };
        for exec in EXECUTORS {
            let plan = Arc::new(FaultPlan::new(3, 2, cfg));
            let (results, _) = run_world(2, &on(exec).with_faults(Some(plan)), |rank| {
                if rank.rank() == 0 {
                    for i in 0..20 {
                        rank.send(1, 5, vec![i as f64]);
                    }
                    Vec::new()
                } else {
                    (0..20).map(|_| rank.recv(0, 5)[0]).collect::<Vec<f64>>()
                }
            });
            let expect: Vec<f64> = (0..20).map(|i| i as f64).collect();
            assert_eq!(
                results[1], expect,
                "{exec:?}: stream order broken by dup/delay"
            );
        }
    }

    #[test]
    fn drops_are_retried_to_completion() {
        let cfg = FaultConfig {
            drop_rate: 0.9,
            max_retries: 3,
            ..FaultConfig::fault_free()
        };
        for exec in EXECUTORS {
            let plan = Arc::new(FaultPlan::new(17, 2, cfg));
            let (results, _) = run_world(2, &on(exec).with_faults(Some(plan)), |rank| {
                if rank.rank() == 0 {
                    for i in 0..30 {
                        rank.send(1, 1, vec![i as f64]);
                    }
                    rank.take_stats()
                } else {
                    for i in 0..30 {
                        assert_eq!(rank.recv(0, 1)[0], i as f64);
                    }
                    rank.take_stats()
                }
            });
            let f = results[0].faults();
            assert!(
                f.retries > 0,
                "{exec:?}: 90% drop rate must trigger retries"
            );
            assert!(
                f.timeouts > 0,
                "{exec:?}: 0.9^3 per-message saturation must trigger timeouts"
            );
            // Every logical message was still delivered exactly once.
            assert_eq!(results[0].total_msgs(), 30, "{exec:?}");
        }
    }

    #[test]
    fn recvs_and_barriers_are_counted_at_delivery() {
        for exec in EXECUTORS {
            let (results, _) = run_world(2, &on(exec), |rank| {
                if rank.rank() == 0 {
                    rank.send(1, 3, vec![0.0; 10]);
                } else {
                    rank.recv(0, 3);
                }
                rank.barrier();
                rank.take_stats()
            });
            assert_eq!(results[0].total_recvs(), 0, "{exec:?}");
            assert_eq!(results[1].total_recvs(), 1, "{exec:?}");
            assert_eq!(results[1].total_recv_bytes(), 80, "{exec:?}");
            assert_eq!(results[0].barriers(), 1, "{exec:?}");
            assert_eq!(results[1].barriers(), 1, "{exec:?}");
        }
    }

    #[test]
    fn level_context_attributes_traffic() {
        for exec in EXECUTORS {
            let (_, traces) = run_world(2, &on(exec), |rank| {
                let peer = 1 - rank.rank();
                rank.enter_level(0);
                rank.send(peer, 1, vec![0.0; 4]);
                rank.recv(peer, 1);
                rank.enter_level(2); // nested: innermost wins
                rank.send(peer, 2, vec![0.0; 2]);
                rank.recv(peer, 2);
                rank.exit_level();
                rank.exit_level();
                rank.send(peer, 3, vec![0.0]); // no context: global only
                rank.recv(peer, 3);
            });
            for t in &traces {
                assert_eq!(
                    t.stats.total_msgs(),
                    3,
                    "{exec:?}: global ledger counts all"
                );
                assert_eq!(t.per_level.len(), 2, "{exec:?}");
                assert_eq!(t.per_level[&0].total_msgs(), 1, "{exec:?}");
                assert_eq!(t.per_level[&0].total_bytes(), 32, "{exec:?}");
                assert_eq!(t.per_level[&0].total_recvs(), 1, "{exec:?}");
                assert_eq!(t.per_level[&2].total_msgs(), 1, "{exec:?}");
                assert_eq!(t.per_level[&2].total_bytes(), 16, "{exec:?}");
            }
        }
    }

    #[test]
    fn teardown_trace_captures_untaken_ledger() {
        // Body never calls take_stats: before the teardown sink existed
        // this ledger evaporated with the Rank.
        for exec in EXECUTORS {
            let (_, traces) = run_world(2, &on(exec), |rank| {
                let peer = 1 - rank.rank();
                rank.send(peer, 9, vec![1.0, 2.0]);
                rank.recv(peer, 9);
            });
            for t in &traces {
                assert_eq!(t.stats.total_msgs(), 1, "{exec:?}");
                assert_eq!(t.stats.total_bytes(), 16, "{exec:?}");
                assert_eq!(t.stats.total_recvs(), 1, "{exec:?}");
            }
        }
    }

    #[test]
    fn teardown_trace_captures_delayed_sends_flushed_after_take_stats() {
        // Force every send into the delay queue, then take_stats *before*
        // the blocking point that flushes it... except take_stats itself
        // flushes. So instead: queue a delayed send as the very last
        // action after take_stats — only the teardown flush releases it.
        let cfg = FaultConfig {
            delay_rate: 1.0,
            max_delay_slots: 50,
            ..FaultConfig::fault_free()
        };
        for exec in EXECUTORS {
            let plan = Arc::new(FaultPlan::new(5, 2, cfg));
            let (_, traces) = run_world(2, &on(exec).with_faults(Some(plan)), |rank| {
                if rank.rank() == 0 {
                    let taken = rank.take_stats();
                    assert_eq!(taken.total_msgs(), 0);
                    // This send is delayed; nothing blocks after it, so
                    // only Rank::finish releases it onto the wire.
                    rank.send(1, 4, vec![7.0; 3]);
                } else {
                    assert_eq!(rank.recv(0, 4), vec![7.0; 3]);
                }
            });
            assert_eq!(
                traces[0].stats.total_msgs(),
                1,
                "{exec:?}: teardown-flushed send must land in the rank trace, not vanish"
            );
            assert_eq!(traces[0].stats.faults().delayed_msgs, 1, "{exec:?}");
        }
    }

    #[test]
    fn rank_traces_are_deterministic_and_recordable() {
        let run = |exec: Executor| {
            let plan = Some(Arc::new(FaultPlan::new(11, 4, FaultConfig::severe())));
            run_world(4, &on(exec).with_faults(plan), |rank| {
                let n = rank.nranks();
                let me = rank.rank();
                for level in 0..3usize {
                    rank.enter_level(level);
                    rank.send((me + 1) % n, level as u64, vec![me as f64; level + 1]);
                    rank.recv((me + n - 1) % n, level as u64);
                    rank.exit_level();
                }
                rank.barrier();
            })
            .1
        };
        // And they serialize deterministically through the trace layer.
        let render = |traces: &[RankTrace]| {
            let mut t = Tracer::logical();
            for rt in traces {
                rt.record_to(&mut t);
            }
            t.finish().to_json().render()
        };
        for exec in EXECUTORS {
            let a = run(exec);
            let b = run(exec);
            assert_eq!(
                a, b,
                "{exec:?}: rank traces must be bit-identical across runs"
            );
            assert_eq!(render(&a), render(&b), "{exec:?}");
            assert!(render(&a).contains("comm.sends"));
        }
    }

    #[test]
    fn buffer_pool_recycles_by_peer_and_capacity() {
        let parked = |rank: &Rank| rank.pool.buckets.values().map(Vec::len).sum::<usize>();
        for exec in EXECUTORS {
            run_world(1, &on(exec), |rank| {
                let b = rank.buffer(0, 10);
                assert_eq!(b.capacity(), 10, "misses must allocate exactly");
                rank.recycle(0, b);
                // Best fit: a smaller request reuses the 10-capacity buffer...
                let b2 = rank.buffer(0, 4);
                assert_eq!(b2.capacity(), 10);
                assert!(b2.is_empty(), "recycled buffers come back cleared");
                rank.recycle(0, b2);
                // ...a larger one cannot and allocates fresh.
                let b3 = rank.buffer(0, 11);
                assert_eq!(b3.capacity(), 11);
                rank.recycle(0, b3);
                assert_eq!(parked(rank), 2);
                // Pools never cross peers: peer 1's request misses even though
                // peer 0 has a fitting bucket parked.
                let b4 = rank.buffer(1, 4);
                assert_eq!(b4.capacity(), 4);
                rank.recycle(1, b4);
                assert_eq!(parked(rank), 3);
                // Zero-size requests and returns bypass the pool silently.
                assert_eq!(rank.buffer(0, 0).capacity(), 0);
                rank.recycle(0, Vec::new());
                let s = rank.take_stats();
                assert_eq!(s.pool().hits, 1);
                assert_eq!(s.pool().misses, 3);
                assert_eq!(s.pool().recycled, 4);
            });
        }
    }

    #[test]
    fn pooled_payloads_round_trip_through_sends() {
        // A recycled buffer's capacity survives the wire: the receiver
        // recycles what the sender checked out, and the second cycle is
        // all hits on both sides.
        for exec in EXECUTORS {
            let (stats, _) = run_world(2, &on(exec), |rank| {
                let peer = 1 - rank.rank();
                for _ in 0..3 {
                    let mut buf = rank.buffer(peer, 8);
                    buf.extend_from_slice(&[rank.rank() as f64; 8]);
                    rank.send(peer, 4, buf);
                    let got = rank.recv(peer, 4);
                    assert_eq!(got[0], peer as f64);
                    rank.recycle(peer, got);
                }
                rank.take_stats()
            });
            for s in &stats {
                assert_eq!(
                    s.pool().misses,
                    1,
                    "{exec:?}: only the first checkout allocates"
                );
                assert_eq!(s.pool().hits, 2, "{exec:?}");
                assert_eq!(s.pool().recycled, 3, "{exec:?}");
            }
        }
    }

    #[test]
    fn disabled_pool_allocates_fresh_but_delivers_identical_bytes() {
        let workload = |rank: &mut Rank| {
            let peer = 1 - rank.rank();
            let mut out = Vec::new();
            for round in 0..3 {
                let mut buf = rank.buffer(peer, 8);
                buf.extend_from_slice(&[rank.rank() as f64 + round as f64; 8]);
                rank.send(peer, 4, buf);
                let got = rank.recv(peer, 4);
                out.extend_from_slice(&got);
                rank.recycle(peer, got);
            }
            (out, rank.take_stats())
        };
        for exec in EXECUTORS {
            let (pooled, _) = run_world(2, &on(exec), workload);
            let off = on(exec).with_pool(columbia_exec::PoolPolicy::disabled());
            let (fresh, _) = run_world(2, &off, workload);
            for ((pu, ps), (fu, fs)) in pooled.iter().zip(&fresh) {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(pu),
                    bits(fu),
                    "{exec:?}: payloads must not depend on the pool"
                );
                assert_eq!(ps.pool().hits, 2);
                assert_eq!(ps.pool().misses, 1);
                assert_eq!(fs.pool().hits, 0, "pool off: no reuse");
                assert_eq!(fs.pool().misses, 3, "pool off: every checkout allocates");
                assert_eq!(fs.pool().recycled, 0, "pool off: recycles drop");
                assert_eq!(ps.total_msgs(), fs.total_msgs());
                assert_eq!(ps.total_bytes(), fs.total_bytes());
            }
        }
    }

    #[test]
    fn stream_bookkeeping_is_bounded_across_cycles() {
        // A long fill that keeps inventing fresh tags: without the
        // barrier-point compaction, send_seq/recv_next grow one entry per
        // (peer, tag) forever — 200 entries by the end of this loop. The
        // dup/delay faults make sure the drain also swallows stale
        // duplicate copies parked in the channel at the barrier.
        let cfg = FaultConfig {
            dup_rate: 0.8,
            max_dups: 2,
            delay_rate: 0.6,
            max_delay_slots: 3,
            ..FaultConfig::fault_free()
        };
        for exec in EXECUTORS {
            let plan = Arc::new(FaultPlan::new(21, 3, cfg));
            let (maxima, _) = run_world(3, &on(exec).with_faults(Some(plan)), |rank| {
                let n = rank.nranks();
                let me = rank.rank();
                let mut worst = (0usize, 0usize, 0usize);
                for cycle in 0..50u64 {
                    for t in 0..4u64 {
                        let tag = cycle * 16 + t; // never reused
                        rank.send((me + 1) % n, tag, vec![me as f64, cycle as f64]);
                        let got = rank.recv((me + n - 1) % n, tag);
                        assert_eq!(got[1], cycle as f64);
                    }
                    rank.barrier();
                    let w = &rank.wire;
                    let (a, b, c) = (w.send_seq.len(), w.recv_next.len(), w.pending.len());
                    worst = (worst.0.max(a), worst.1.max(b), worst.2.max(c));
                }
                worst
            });
            for (send_seq, recv_next, pending) in maxima {
                assert!(
                    send_seq <= 8,
                    "{exec:?}: send_seq map not bounded: {send_seq}"
                );
                assert!(
                    recv_next <= 8,
                    "{exec:?}: recv_next map not bounded: {recv_next}"
                );
                assert!(pending <= 8, "{exec:?}: pending map not bounded: {pending}");
            }
        }
    }

    #[test]
    fn interleaved_collectives_never_cross_streams_under_faults() {
        // Satellite audit for the shared collective tag pair: interleave
        // sums and maxes under heavy duplication + reordering and check
        // every rank sees every result, in order, bit-exact.
        let cfg = FaultConfig {
            dup_rate: 0.9,
            max_dups: 3,
            delay_rate: 0.8,
            max_delay_slots: 5,
            ..FaultConfig::fault_free()
        };
        let mut expect = Vec::new();
        for round in 0..12 {
            let sum: f64 = (0..4).map(|r| round as f64 + r as f64).sum();
            let max = (0..4)
                .map(|r| (round as f64 + r as f64) * 0.5)
                .fold(f64::NEG_INFINITY, f64::max);
            let nsum: f64 = (0..4).map(|r| -(round as f64 + r as f64)).sum();
            expect.extend([sum, max, nsum]);
        }
        let eb: Vec<u64> = expect.iter().map(|v| v.to_bits()).collect();
        for exec in EXECUTORS {
            for seed in [2u64, 77, 0xABCD] {
                let plan = Arc::new(FaultPlan::new(seed, 4, cfg));
                let (results, _) = run_world(4, &on(exec).with_faults(Some(plan)), |rank| {
                    let r = rank.rank() as f64;
                    let mut out = Vec::new();
                    for round in 0..12 {
                        let x = round as f64 + r;
                        out.push(rank.allreduce_sum(x));
                        out.push(rank.allreduce_max(x * 0.5));
                        out.push(rank.allreduce_sum(-x));
                    }
                    out
                });
                for (r, got) in results.iter().enumerate() {
                    let gb: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        gb, eb,
                        "{exec:?}: rank {r} crossed collective streams (seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn undelivered_message_at_barrier_panics_with_diagnostics() {
        // Both ranks violate quiescence symmetrically (a one-sided
        // violation would strand the innocent rank at the teardown
        // barrier once the guilty thread is down).
        for exec in EXECUTORS {
            run_world(2, &on(exec), |rank| {
                let peer = 1 - rank.rank();
                rank.send(peer, 6, vec![1.0]);
                let err = catch_unwind(AssertUnwindSafe(|| rank.barrier()))
                    .expect_err("quiescence violation must panic");
                let msg = err
                    .downcast_ref::<String>()
                    .expect("panic carries a message");
                assert!(msg.contains("undelivered"), "{exec:?}: {msg}");
                assert!(msg.contains("6, 0, 0"), "stream coordinates missing: {msg}");
            });
        }
    }

    #[test]
    fn mismatched_plan_world_size_panics() {
        let plan = Arc::new(FaultPlan::fault_free(3));
        let r = std::panic::catch_unwind(|| {
            run_world(2, &ExecContext::faulty(plan), |_| ());
        });
        assert!(r.is_err());
    }
}
