//! Cooperative rank-task scheduler: the discrete-event `run_world` backend.
//!
//! The thread backend lets the kernel decide which rank runs; this module
//! replaces the kernel with a deterministic [`TimeQueue`]. Every rank is a
//! cooperative task that holds a single **run token**: exactly one rank
//! executes at any instant, and it runs until it reaches a blocking point —
//! a `recv` with an empty channel, a barrier it is not the last to enter —
//! where it hands the token to whichever ready task the event queue pops
//! next. Blocked ranks are *parked* (condvar wait on their own gate), never
//! spinning, so one machine hosts paper-scale worlds: 2016 rank tasks cost
//! 2016 parked carrier threads with small stacks and zero scheduler noise.
//!
//! Determinism argument (pinned by `tests/executor_parity.rs`):
//!
//! 1. scheduler state is only ever mutated by the token holder, so there
//!    are no races on the schedule itself;
//! 2. wakeups enter the queue at `now + 1` keyed by rank id, and the queue
//!    pops by `(time, key, seq)` — a pure function of the push history;
//! 3. therefore the whole interleaving is a pure function of the rank
//!    program, and since payloads, `CommStats` and traces are already
//!    interleaving-invariant (the comm protocol's standing contract), the
//!    event backend is bit-identical to the thread backend.
//!
//! A rank that panics poisons the world: every parked task is woken to
//! unwind, and `run_world` re-reports the *first* panic (deterministic —
//! only one rank runs at a time) prefixed with its rank id.
//!
//! A hand-off is one `grant` and one `wait_turn`, both on the next rank's
//! own gate: the world `state` lock decides *who* is next and is never
//! taken by the rank that wakes. Where the kernel runs the woken carrier
//! is `runtime::wait`'s business (it keeps a world on one CPU).

use crate::fabric::FabricClock;
use columbia_rt::timeq::TimeQueue;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

/// What a rank task is doing, from the scheduler's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RankStatus {
    /// In the event queue, waiting for the token.
    Ready,
    /// Holding the token.
    Running,
    /// Parked until a message lands in its channel.
    RecvWait,
    /// Parked in a barrier episode.
    BarrierWait,
    /// Body and teardown complete; carrier thread exited (or unwinding).
    Done,
}

/// Per-rank run gate: the carrier thread parks here between turns.
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

struct SchedState {
    /// Ready ranks, popped by `(time, rank, seq)`.
    queue: TimeQueue<()>,
    status: Vec<RankStatus>,
    /// Ranks parked in the current barrier episode. Exactly one episode is
    /// in flight at a time: a released rank can only re-enter a barrier
    /// while holding the token, after the list has been flushed.
    barrier_waiters: Vec<usize>,
    /// Ranks not yet `Done`.
    live: usize,
    /// First panic `(rank, message)` — set once, reported by `run_world`.
    poisoned: Option<(usize, String)>,
    /// Optional contention clock: when present, message wakeups are
    /// scheduled at the fabric's emergent delivery time instead of one
    /// tick out. Consulted only by the token holder under this lock, so
    /// its occupancy state is a pure function of the send history.
    fabric: Option<FabricClock>,
}

/// The shared scheduler for one event-backend world.
pub(crate) struct EventSched {
    state: Mutex<SchedState>,
    gates: Vec<Gate>,
    /// `state.poisoned.is_some()`, readable without the world lock.
    poisoned: AtomicBool,
}

impl EventSched {
    /// A world of `nranks` tasks, all ready at virtual time 0 in rank
    /// order, with an optional contention clock shaping message-wakeup
    /// delays (`None` is the analytic regime: one tick per wakeup). No
    /// gate is open until [`EventSched::kick`].
    pub(crate) fn with_fabric(nranks: usize, fabric: Option<FabricClock>) -> Self {
        let mut queue = TimeQueue::new();
        for r in 0..nranks {
            queue.push(0, r as u64, ());
        }
        EventSched {
            state: Mutex::new(SchedState {
                queue,
                status: vec![RankStatus::Ready; nranks],
                barrier_waiters: Vec::with_capacity(nranks),
                live: nranks,
                poisoned: None,
                fabric,
            }),
            gates: (0..nranks)
                .map(|_| Gate {
                    open: Mutex::new(false),
                    cv: Condvar::new(),
                })
                .collect(),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Hand the token to the first scheduled rank (rank 0 at time 0).
    /// Called once by `run_world` after spawning the carrier threads.
    pub(crate) fn kick(&self) {
        let mut st = self.state.lock().expect("scheduler poisoned");
        let next = self.pop_next(&mut st).expect("empty world");
        drop(st);
        self.grant(next);
    }

    /// Open `rank`'s gate (the token transfer; the state lock must already
    /// have recorded the rank as `Running`).
    fn grant(&self, rank: usize) {
        let mut open = self.gates[rank].open.lock().expect("gate poisoned");
        *open = true;
        drop(open);
        self.gates[rank].cv.notify_one();
    }

    /// Park until granted the token. First thing every carrier thread
    /// does, and what every blocking point returns through.
    pub(crate) fn wait_turn(&self, rank: usize) {
        let mut open = self.gates[rank].open.lock().expect("gate poisoned");
        while !*open {
            open = self.gates[rank].cv.wait(open).expect("gate poisoned");
        }
        *open = false;
        drop(open);
        // Acquire pairs with `poison_locked`'s Release store, which precedes
        // the `grant` that opened this gate.
        if self.poisoned.load(Ordering::Acquire) {
            let (pr, _) = self.first_panic().expect("flag set with the record");
            panic!("world poisoned by rank {pr}");
        }
    }

    /// Pop the next ready rank and mark it running.
    fn pop_next(&self, st: &mut SchedState) -> Option<usize> {
        let (_, key, ()) = st.queue.pop()?;
        let next = key as usize;
        debug_assert_eq!(st.status[next], RankStatus::Ready);
        st.status[next] = RankStatus::Running;
        Some(next)
    }

    /// Hand the token onward after the current rank blocked or retired.
    /// With no ready rank but live tasks remaining, the world is
    /// deadlocked: poison it (so parked peers unwind) and panic with the
    /// full per-rank status table.
    fn yield_token(&self, mut st: std::sync::MutexGuard<'_, SchedState>, from: usize) {
        match self.pop_next(&mut st) {
            Some(next) => {
                drop(st);
                self.grant(next);
            }
            None if st.live == 0 => {} // world complete; nobody to run
            None => {
                let table: Vec<(usize, RankStatus)> =
                    st.status.iter().enumerate().map(|(r, &s)| (r, s)).collect();
                let msg = format!(
                    "event executor deadlock: no runnable rank, {} still live; \
                     statuses: {table:?}",
                    st.live
                );
                self.poison_locked(&mut st, from, &msg);
                drop(st);
                panic!("{msg}");
            }
        }
    }

    /// Blocking point: the running rank's channel is empty. Parks until a
    /// sender wakes us via [`EventSched::notify_mail`].
    pub(crate) fn block_recv(&self, rank: usize) {
        let mut st = self.state.lock().expect("scheduler poisoned");
        debug_assert_eq!(st.status[rank], RankStatus::Running);
        st.status[rank] = RankStatus::RecvWait;
        self.yield_token(st, rank);
        self.wait_turn(rank);
    }

    /// A `bytes`-sized message was pushed onto `to`'s channel by the
    /// running rank `from`. Under the analytic regime the wakeup lands
    /// one tick out; under a contention clock it lands when the fabric
    /// delivers — behind whatever traffic already occupies the route's
    /// links. The clock is advanced for every send (the message occupies
    /// the wire whether or not the receiver is parked), but only a
    /// `RecvWait` receiver is actually scheduled.
    pub(crate) fn notify_mail(&self, from: usize, to: usize, bytes: u64) {
        let mut st = self.state.lock().expect("scheduler poisoned");
        let now = st.queue.now();
        let delay = match &mut st.fabric {
            Some(clock) => clock.delay_ns(from, to, bytes, now),
            None => 1,
        };
        if st.status[to] == RankStatus::RecvWait {
            st.status[to] = RankStatus::Ready;
            st.queue.push_after(delay, to as u64, ());
        }
    }

    /// Cooperative barrier: the last live rank to arrive releases every
    /// waiter (scheduled at `now + 1`, popping in rank order) and keeps
    /// the token; everyone else parks.
    pub(crate) fn barrier_wait(&self, rank: usize) {
        let mut st = self.state.lock().expect("scheduler poisoned");
        debug_assert_eq!(st.status[rank], RankStatus::Running);
        st.barrier_waiters.push(rank);
        if st.barrier_waiters.len() == st.live {
            let waiters = std::mem::take(&mut st.barrier_waiters);
            for w in waiters {
                if w != rank {
                    debug_assert_eq!(st.status[w], RankStatus::BarrierWait);
                    st.status[w] = RankStatus::Ready;
                    st.queue.push_after(1, w as u64, ());
                }
            }
            // Last arriver continues running — no park, no token transfer.
        } else {
            st.status[rank] = RankStatus::BarrierWait;
            self.yield_token(st, rank);
            self.wait_turn(rank);
        }
    }

    /// The rank's body and teardown are complete: retire the task and pass
    /// the token to the next ready rank, if any.
    pub(crate) fn retire(&self, rank: usize) {
        let mut st = self.state.lock().expect("scheduler poisoned");
        debug_assert_eq!(st.status[rank], RankStatus::Running);
        st.status[rank] = RankStatus::Done;
        st.live -= 1;
        if st.live > 0 {
            self.yield_token(st, rank);
        }
    }

    /// Record the world's first panic and wake every parked task so its
    /// carrier thread can unwind (each observes `poisoned` in
    /// [`EventSched::wait_turn`] and panics in turn).
    pub(crate) fn poison(&self, rank: usize, msg: &str) {
        let mut st = self.state.lock().expect("scheduler poisoned");
        self.poison_locked(&mut st, rank, msg);
    }

    fn poison_locked(&self, st: &mut SchedState, rank: usize, msg: &str) {
        if st.poisoned.is_none() {
            st.poisoned = Some((rank, msg.to_string()));
        }
        self.poisoned.store(true, Ordering::Release);
        if st.status[rank] != RankStatus::Done {
            st.status[rank] = RankStatus::Done;
            st.live -= 1;
        }
        for (r, s) in st.status.iter_mut().enumerate() {
            if matches!(
                *s,
                RankStatus::RecvWait | RankStatus::BarrierWait | RankStatus::Ready
            ) {
                self.grant(r);
            }
        }
    }

    /// The first panic recorded by [`EventSched::poison`], if any.
    pub(crate) fn first_panic(&self) -> Option<(usize, String)> {
        self.state
            .lock()
            .expect("scheduler poisoned")
            .poisoned
            .clone()
    }
}
