//! Wait layer: how a rank blocks, and how a world of ranks is started and
//! torn down — the only place in the runtime that names an executor.
//!
//! The thread backend parks in the kernel (std barrier, the mailbox's own
//! blocking receive after a bounded spin); the event backend yields its
//! run token to the deterministic [`EventSched`]. Everything above this
//! file calls the same methods either way.

use crate::fabric::FabricClock;
use crate::sched::EventSched;
use columbia_exec::{ExecContext, ExecutorKind, FabricModel};
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
    Events { sched: Arc<EventSched> },
}

impl WaitBackend {
    /// The backend `ctx` selects for a world of `nranks`.
    pub(super) fn for_world(nranks: usize, ctx: &ExecContext) -> Self {
        match ctx.executor().resolve() {
            // The thread backend has no virtual clock, so the fabric model
            // selection is a documented no-op there: delivery cost lives
            // in the analytic report path either way.
            ExecutorKind::Threads => {
                let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                WaitBackend::Threads {
                    barrier: Arc::new(Barrier::new(nranks)),
                    spin: spin_budget(nranks, cores),
                }
            }
            ExecutorKind::Events => {
                let fabric = match ctx.fabric_model() {
                    FabricModel::Analytic => None,
                    FabricModel::Contention => Some(FabricClock::columbia_default(nranks)),
                };
                WaitBackend::Events {
                    sched: Arc::new(EventSched::with_fabric(nranks, fabric)),
                }
            }
        }
    }

    /// How `rank`'s OS thread is to be spawned.
    pub(super) fn carrier(&self, rank: usize) -> std::thread::Builder {
        match self {
            WaitBackend::Threads { .. } => std::thread::Builder::new(),
            WaitBackend::Events { .. } => std::thread::Builder::new()
                .name(format!("rank-{rank}"))
                .stack_size(EVENT_STACK_BYTES),
        }
    }

    /// First thing a rank's thread does. Events: park until granted the
    /// run token; from here on the thread only executes while holding it.
    pub(super) fn start(&self, rank: usize) {
        if let WaitBackend::Events { sched } = self {
            sched.wait_turn(rank);
        }
    }

    /// Every rank thread is spawned. Events: hand the token to rank 0.
    pub(super) fn kick(&self) {
        if let WaitBackend::Events { sched } = self {
            sched.kick();
        }
    }

    /// `rank`'s body and teardown completed.
    pub(super) fn retire(&self, rank: usize) {
        if let WaitBackend::Events { sched } = self {
            sched.retire(rank);
        }
    }

    /// `rank` panicked with `msg`. Events: wake every parked peer so it
    /// unwinds instead of hanging. (Threads: peers blocked on this rank
    /// stay stranded — a multi-rank thread world has no poison protocol.)
    pub(super) fn poison(&self, rank: usize, msg: &str) {
        if let WaitBackend::Events { sched } = self {
            sched.poison(rank, msg);
        }
    }

    /// The world's first panic `(rank, message)` where the backend can
    /// tell which was first: only one event rank runs at a time, so that
    /// is deterministic there, while any join may observe its own unwind.
    pub(super) fn first_panic(&self) -> Option<(usize, String)> {
        match self {
            WaitBackend::Threads { .. } => None,
            WaitBackend::Events { sched } => sched.first_panic(),
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
            WaitBackend::Events { sched } => loop {
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
            WaitBackend::Events { sched } if to != from => sched.notify_mail(from, to, bytes),
            _ => {}
        }
    }

    /// Block until every rank of the world has arrived.
    pub(super) fn barrier(&self, rank: usize) {
        match self {
            WaitBackend::Threads { barrier, .. } => {
                barrier.wait();
            }
            WaitBackend::Events { sched } => sched.barrier_wait(rank),
        }
    }
}
