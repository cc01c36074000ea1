//! Wait layer: how a rank blocks, and how a world of ranks is started and
//! torn down — the only place in the runtime that names an executor.
//!
//! The thread backend parks in the kernel (std barrier, the mailbox's own
//! blocking receive after a bounded spin); the event backend yields its
//! run token to the deterministic [`EventSched`]. Everything above this
//! file calls the same methods either way.
//!
//! Placement is decided here too: an event world runs one rank at a time,
//! so its carriers pin themselves to the launcher's CPU and a token
//! hand-off is a context switch there, not the wake-up of an idle CPU
//! (DESIGN.md §12, "Hand-off placement"). The launcher is never pinned and
//! thread-backend ranks are left to the kernel.

use crate::fabric::FabricClock;
use crate::sched::EventSched;
use columbia_exec::{ExecContext, Executor, FabricModel};
use columbia_rt::affinity;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::{Arc, Barrier};

/// Non-blocking mailbox polls before a receive parks on the blocking
/// path. Halo peers usually answer within the spin window, skipping the
/// park/unpark round-trip entirely; a straggler costs one park.
pub(super) const SPIN_PULLS: usize = 64;

/// Within the spin window, polls that busy-wait (`spin_loop`) before the
/// remainder downgrade to `yield_now`.
const SPIN_FAST: usize = 8;

/// Per-recv spin budget for the thread backend. On a host with spare
/// cores, the sender really is running in parallel and usually answers
/// within the spin window, so polling skips the park. On an
/// oversubscribed host — more ranks than cores — a polling receiver holds
/// the very CPU its peer needs to produce the message: every spin slot is
/// stolen progress and the poll almost always ends in a park anyway.
/// There the budget is zero: park immediately in the mailbox's blocking
/// receive and let the sender's wakeup be the token.
pub(super) fn spin_budget(nranks: usize, cores: usize) -> usize {
    if nranks > cores {
        0
    } else {
        SPIN_PULLS
    }
}

/// Carrier-thread stack size for the event backend. Event-mode ranks are
/// cooperative tasks that spend their lives parked; the small fixed stack
/// is what makes 2016-rank (and 10,240-rank) worlds cheap — the address
/// space is reserved, but only touched pages are ever committed.
const EVENT_STACK_BYTES: usize = 1 << 20;

/// One world's blocking machinery; every rank holds a clone.
#[derive(Clone)]
pub(super) enum WaitBackend {
    /// One preemptive OS thread per rank.
    Threads {
        barrier: Arc<Barrier>,
        /// Pre-park poll budget (see [`spin_budget`]).
        spin: usize,
    },
    /// Every rank a cooperative task on a small fixed stack: exactly one
    /// runs at a time, blocked ranks are parked (never polling), and the
    /// whole interleaving is a pure function of the rank program. This is
    /// what hosts paper-scale worlds (512/1024/2016 ranks) on one machine,
    /// bit-identical to the thread backend.
    Events {
        sched: Arc<EventSched>,
        /// The CPU every carrier pins itself to in [`WaitBackend::start`]:
        /// the launcher's at world creation, `None` where that is unknown.
        home: Option<usize>,
    },
}

impl WaitBackend {
    /// The backend `ctx` selects for a world of `nranks`.
    pub(super) fn for_world(nranks: usize, ctx: &ExecContext) -> Self {
        match ctx.executor() {
            // The thread backend has no virtual clock, so the fabric model
            // selection is a documented no-op there: delivery cost lives
            // in the analytic report path either way.
            Executor::Threads => {
                let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                WaitBackend::Threads {
                    barrier: Arc::new(Barrier::new(nranks)),
                    spin: spin_budget(nranks, cores),
                }
            }
            Executor::Events => {
                let fabric = match ctx.fabric_model() {
                    FabricModel::Analytic => None,
                    FabricModel::Contention => Some(FabricClock::columbia_default(nranks)),
                };
                WaitBackend::Events {
                    sched: Arc::new(EventSched::with_fabric(nranks, fabric)),
                    home: affinity::current_cpu(),
                }
            }
        }
    }

    /// How `rank`'s OS thread is to be spawned.
    pub(super) fn carrier(&self, rank: usize) -> std::thread::Builder {
        let carrier = std::thread::Builder::new().name(format!("rank-{rank}"));
        match self {
            WaitBackend::Threads { .. } => carrier,
            WaitBackend::Events { .. } => carrier.stack_size(EVENT_STACK_BYTES),
        }
    }

    /// First thing a rank's thread does. Events: join the world's home CPU
    /// (a refused pin leaves the kernel's placement), then park until granted
    /// the run token; from here on the thread only executes while holding it.
    pub(super) fn start(&self, rank: usize) {
        if let WaitBackend::Events { sched, home } = self {
            if let Some(cpu) = *home {
                affinity::pin_current_thread(cpu);
            }
            sched.wait_turn(rank);
        }
    }

    /// Every rank thread is spawned. Events: hand the token to rank 0.
    pub(super) fn kick(&self) {
        if let WaitBackend::Events { sched, .. } = self {
            sched.kick();
        }
    }

    /// `rank`'s body and teardown completed.
    pub(super) fn retire(&self, rank: usize) {
        if let WaitBackend::Events { sched, .. } = self {
            sched.retire(rank);
        }
    }

    /// `rank` panicked with `msg`. Events: wake every parked peer so it
    /// unwinds instead of hanging. (Threads: peers blocked on this rank
    /// stay stranded — a multi-rank thread world has no poison protocol.)
    pub(super) fn poison(&self, rank: usize, msg: &str) {
        if let WaitBackend::Events { sched, .. } = self {
            sched.poison(rank, msg);
        }
    }

    /// The world's first panic `(rank, message)` where the backend can
    /// tell which was first: only one event rank runs at a time, so that
    /// is deterministic there, while any join may observe its own unwind.
    pub(super) fn first_panic(&self) -> Option<(usize, String)> {
        match self {
            WaitBackend::Threads { .. } => None,
            WaitBackend::Events { sched, .. } => sched.first_panic(),
        }
    }

    /// Pull one message off `rank`'s mailbox, blocking until there is one.
    ///
    /// Threads: poll within the [`spin_budget`] (zero on an oversubscribed
    /// host), then park on the blocking receive. Events: never block the
    /// carrier thread — yield the run token to the scheduler and resume
    /// when a sender's [`WaitBackend::notify_mail`] reschedules this rank.
    pub(super) fn pull<M>(&self, rank: usize, mailbox: &Receiver<M>) -> M {
        match self {
            WaitBackend::Events { sched, .. } => loop {
                match mailbox.try_recv() {
                    Ok(m) => return m,
                    Err(TryRecvError::Empty) => sched.block_recv(rank),
                    Err(TryRecvError::Disconnected) => panic!("world shut down mid-recv"),
                }
            },
            WaitBackend::Threads { spin, .. } => {
                for pull in 0..*spin {
                    match mailbox.try_recv() {
                        Ok(m) => return m,
                        Err(TryRecvError::Empty) if pull < SPIN_FAST => std::hint::spin_loop(),
                        Err(TryRecvError::Empty) => std::thread::yield_now(),
                        Err(TryRecvError::Disconnected) => panic!("world shut down mid-recv"),
                    }
                }
                mailbox.recv().expect("world shut down mid-recv")
            }
        }
    }

    /// `from` pushed `bytes` onto `to`'s mailbox. Events: schedule the
    /// receiver's wakeup (a self-send needs none — the sender is running).
    pub(super) fn notify_mail(&self, from: usize, to: usize, bytes: u64) {
        match self {
            WaitBackend::Events { sched, .. } if to != from => sched.notify_mail(from, to, bytes),
            _ => {}
        }
    }

    /// Block until every rank of the world has arrived.
    pub(super) fn barrier(&self, rank: usize) {
        match self {
            WaitBackend::Threads { barrier, .. } => {
                barrier.wait();
            }
            WaitBackend::Events { sched, .. } => sched.barrier_wait(rank),
        }
    }
}

/// The placement contract. Where a test reads a CPU id it asserts the pin
/// on Linux and the no-op (`None` everywhere) on any other target.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{launch, run_world, Rank, RankTrace};
    use crate::stats::CommStats;
    use columbia_rt::trace::Tracer;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const NRANKS: usize = 8;

    fn events() -> ExecContext {
        ExecContext::default().with_executor(Executor::Events)
    }

    /// The calling thread's `Cpus_allowed_list` (`None` without procfs).
    fn allowed_list() -> Option<String> {
        let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
        let row = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
        Some(row.trim().to_string())
    }

    /// Ring passes on two levels, a collective and a barrier: every rank
    /// blocks in `recv` at least 16 times. `probe` runs after `start` and
    /// after every blocking call.
    fn ring(rank: &mut Rank, mut probe: impl FnMut()) -> (f64, CommStats) {
        let (r, n) = (rank.rank(), rank.nranks());
        probe();
        let mut acc = 0.0;
        for round in 0..16u64 {
            rank.enter_level((round % 2) as usize);
            rank.send((r + 1) % n, round, vec![r as f64, round as f64]);
            acc += rank.recv((r + n - 1) % n, round)[0] * (round + 1) as f64;
            rank.exit_level();
            probe();
        }
        rank.barrier();
        probe();
        acc += rank.allreduce_sum(acc);
        (acc, rank.take_stats())
    }

    type Outcome = (Vec<(u64, CommStats)>, Vec<RankTrace>, String);

    /// Results (as bits), ledgers and rendered trace bytes of one world.
    fn outcome((results, traces): (Vec<(f64, CommStats)>, Vec<RankTrace>)) -> Outcome {
        let mut t = Tracer::logical();
        for rt in &traces {
            rt.record_to(&mut t);
        }
        let bytes = t.finish().to_json().render();
        let results = results.into_iter().map(|(v, s)| (v.to_bits(), s)).collect();
        (results, traces, bytes)
    }

    #[test]
    fn event_world_carriers_share_one_cpu() {
        let (per_rank, _) = run_world(NRANKS, &events(), |rank| {
            let mut cpus = Vec::new();
            ring(rank, || cpus.push(affinity::current_cpu()));
            (cpus, allowed_list())
        });
        let home = per_rank[0].0[0];
        assert_eq!(home.is_some(), cfg!(target_os = "linux"));
        for (r, (cpus, allowed)) in per_rank.iter().enumerate() {
            assert_eq!(cpus.len(), 18);
            assert!(cpus.iter().all(|&c| c == home), "rank {r} ran on {cpus:?}");
            if let Some(cpu) = home {
                assert_eq!(allowed.as_deref(), Some(cpu.to_string().as_str()));
            }
        }
    }

    #[test]
    fn launcher_is_never_pinned() {
        // Compare the list, not the ability to pin elsewhere: a thread may
        // always widen its own mask again.
        let before = allowed_list();
        run_world(NRANKS, &events(), |rank| ring(rank, || ()));
        assert_eq!(allowed_list(), before, "after a clean world");
        catch_unwind(AssertUnwindSafe(|| {
            run_world(NRANKS, &events(), |rank| {
                if rank.rank() == 3 {
                    panic!("kaboom");
                }
                rank.barrier();
            })
        }))
        .expect_err("rank panic must propagate");
        assert_eq!(allowed_list(), before, "after a poisoned world");
    }

    #[test]
    fn thread_world_is_left_to_the_kernel() {
        let launcher = allowed_list();
        let ctx = ExecContext::default().with_executor(Executor::Threads);
        let (per_rank, _) = run_world(NRANKS, &ctx, |rank| {
            ring(rank, || ());
            allowed_list()
        });
        assert!(per_rank.iter().all(|a| *a == launcher), "{per_rank:?}");
    }

    #[test]
    fn homeless_event_world_matches_a_pinned_one() {
        assert!(!affinity::pin_current_thread(usize::MAX));
        let pinned = outcome(run_world(NRANKS, &events(), |rank| ring(rank, || ())));
        let world = WaitBackend::Events {
            sched: Arc::new(EventSched::with_fabric(NRANKS, None)),
            home: None,
        };
        let launcher = allowed_list();
        let homeless = outcome(launch(world, vec![(); NRANKS], &events(), |rank, ()| {
            let out = ring(rank, || ());
            assert_eq!(allowed_list(), launcher, "no home, no pin");
            out
        }));
        assert_eq!(homeless, pinned);
    }

    #[test]
    fn concurrent_event_worlds_match_a_sequential_run() {
        let solo = outcome(run_world(NRANKS, &events(), |rank| ring(rank, || ())));
        let go = Barrier::new(2);
        let both = std::thread::scope(|s| {
            let launch_one = || {
                go.wait();
                outcome(run_world(NRANKS, &events(), |rank| ring(rank, || ())))
            };
            let a = s.spawn(launch_one);
            let b = s.spawn(launch_one);
            [a.join().expect("world a"), b.join().expect("world b")]
        });
        for world in both {
            assert_eq!(world, solo);
        }
    }
}
