//! Ranks-as-threads message passing with deterministic fault injection.
//!
//! Every message carries a per-`(from, to, tag)` sequence number. On a
//! perfect interconnect that is pure overhead bookkeeping; under a
//! [`FaultPlan`] it is what makes chaos survivable *and replayable*:
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
//! Two hot-path mechanisms keep the steady state allocation-free and
//! deterministic at once:
//!
//! * **buffer pool** — payloads checked out with [`Rank::buffer`] and
//!   returned with [`Rank::recycle`] are kept in buckets keyed by
//!   `(peer, exact capacity)` — the moral equivalent of MPI persistent
//!   requests, one set of recycled buffers per neighbour. Per-peer keying
//!   is what makes the zero-miss steady state *provable*: both ends of a
//!   peer pair run the identical exchange sequence with symmetric sizes,
//!   so their per-peer pools stay mirror images — every buffer sent to a
//!   peer is answered by one of the same capacity — and after the warm-up
//!   cycle every checkout finds a fit. Misses allocate exactly the
//!   requested capacity and injected duplicate copies preserve the
//!   original's capacity, so every pool hit/miss is a function of the
//!   logical program order, never of thread timing;
//! * **epochs** — every [`Rank::barrier`] is a quiescence point: each
//!   message sent before it must be received before it. The barrier
//!   drains the channel (dropping stale duplicate copies of the closing
//!   epoch), retires the whole per-stream dedup/reorder bookkeeping and
//!   restarts sequence numbering, so the maps stay bounded over
//!   arbitrarily long fills. Messages carry their epoch so a fast peer's
//!   next-epoch traffic is never confused with the retiring streams.

use crate::fabric::FabricClock;
use crate::sched::EventSched;
use crate::stats::CommStats;
use columbia_exec::{ExecContext, ExecutorKind, FabricModel};
use columbia_rt::channel::{unbounded, Receiver, Sender, TryRecvError};
use columbia_rt::fault::{FaultPlan, MessageAction};
use columbia_rt::trace::{SpanKey, Tracer};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier, Mutex};

/// A message in flight: `(from, tag, seq, epoch, payload)`.
type Message = (usize, u64, u64, u64, Vec<f64>);

/// Reserved tag space for collectives.
const TAG_COLLECTIVE: u64 = u64::MAX - 1024;

/// Non-blocking channel polls before a receive parks on the blocking
/// path. Halo peers usually answer within the spin window, skipping the
/// mutex/condvar round-trip entirely; a straggler costs one park.
const SPIN_PULLS: usize = 64;

/// Within the spin window, polls that busy-wait (`spin_loop`) before the
/// remainder downgrade to `yield_now`.
const SPIN_FAST: usize = 8;

/// Per-recv spin budget for the thread backend. On a host with spare
/// cores, the sender really is running in parallel and usually answers
/// within the spin window, so polling skips the condvar round-trip. On an
/// oversubscribed host — more ranks than cores — a polling receiver holds
/// the very CPU its peer needs to produce the message: every spin slot is
/// stolen progress and the poll almost always ends in a park anyway.
/// There the budget is zero: park immediately on the channel condvar and
/// let the sender's `notify_one` be the wakeup token.
fn spin_budget(nranks: usize, cores: usize) -> usize {
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

/// How a rank waits at blocking points: the thread backend parks in the
/// kernel (std barrier, channel condvar), the event backend yields its
/// run token to the deterministic scheduler.
enum WaitBackend {
    Threads {
        barrier: Arc<Barrier>,
        /// Pre-park poll budget (see [`spin_budget`]).
        spin: usize,
    },
    Events {
        sched: Arc<EventSched>,
    },
}

/// An outgoing message held back by an injected delay.
struct DelayedMsg {
    to: usize,
    tag: u64,
    seq: u64,
    data: Vec<f64>,
    duplicates: u32,
    slots_left: u32,
    /// Multigrid-level context at the original `send` call: a held-back
    /// message belongs to the level that sent it, not the level whose
    /// blocking point happens to flush it.
    level: Option<usize>,
}

/// Per-rank communication context handed to the rank body.
pub struct Rank {
    rank: usize,
    nranks: usize,
    tx: Vec<Sender<Message>>,
    rx: Receiver<Message>,
    /// Reorder buffer: per `(from, tag)` stream, payloads keyed by
    /// sequence number (duplicates of a buffered or consumed sequence are
    /// discarded on arrival).
    pending: HashMap<(usize, u64), BTreeMap<u64, Vec<f64>>>,
    /// Next sequence number to assign, per `(to, tag)` stream.
    send_seq: HashMap<(usize, u64), u64>,
    /// Next sequence number to deliver, per `(from, tag)` stream.
    recv_next: HashMap<(usize, u64), u64>,
    /// Outgoing messages held back by injected delays (flushed at every
    /// blocking point).
    delayed: VecDeque<DelayedMsg>,
    /// Barrier entries so far (fault-schedule coordinate).
    barrier_count: u64,
    /// Current epoch: bumped after every barrier, stamped on every
    /// outgoing message. Sequence numbers restart per epoch.
    epoch: u64,
    /// Recycled payload buffers, bucketed by `(peer, exact capacity)`
    /// (LIFO within a bucket so the hottest buffer stays cache-warm).
    pool: BTreeMap<(usize, usize), Vec<Vec<f64>>>,
    /// Buffer-pool policy from the launching [`ExecContext`]: when off,
    /// every checkout allocates fresh and recycles drop.
    pool_on: bool,
    faults: Option<Arc<FaultPlan>>,
    backend: WaitBackend,
    stats: CommStats,
    /// Multigrid-level context stack (innermost last): while non-empty,
    /// every comm event is additionally attributed to the top level's
    /// ledger in `per_level`.
    level_stack: Vec<usize>,
    /// Per-level attribution of the same events `stats` totals.
    per_level: BTreeMap<usize, CommStats>,
}

/// Everything a rank's comm ledger holds at teardown: the residual global
/// stats (whatever `take_stats` has not already handed out, including sends
/// performed by the teardown flush itself) plus the per-level attribution.
///
/// Handing this to the caller from [`run_world`] closes a silent
/// under-count: previously a `Rank` dropped without `take_stats` discarded
/// its whole send ledger, and even a well-behaved driver lost any delayed
/// sends flushed after its last `take_stats`.
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

impl Rank {
    /// This rank's id in `0..nranks`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Push a multigrid-level context: until the matching
    /// [`Rank::exit_level`], every send/recv/barrier/fault event is also
    /// attributed to `level`'s ledger. Contexts nest (recursive cycles);
    /// attribution goes to the innermost.
    pub fn enter_level(&mut self, level: usize) {
        self.level_stack.push(level);
    }

    /// Pop the innermost level context.
    pub fn exit_level(&mut self) {
        self.level_stack.pop();
    }

    /// The innermost active level context, if any.
    pub fn current_level(&self) -> Option<usize> {
        self.level_stack.last().copied()
    }

    /// Ledger of events attributed to the innermost context at the time
    /// they occurred, per level.
    pub fn level_stats(&self) -> &BTreeMap<usize, CommStats> {
        &self.per_level
    }

    fn level_ledger(&mut self) -> Option<&mut CommStats> {
        match self.level_stack.last() {
            Some(&l) => Some(self.per_level.entry(l).or_default()),
            None => None,
        }
    }

    /// Check out an empty payload buffer for traffic with `peer`, with
    /// capacity at least `n`: the smallest pooled bucket for that peer
    /// that fits (pool hit), else a fresh *exact*-capacity allocation
    /// (pool miss).
    ///
    /// Pools are per peer because that makes the zero-miss fixed point an
    /// invariant rather than an accident: both ends of a pair perform the
    /// same pair ops in the same order with symmetric sizes, so the two
    /// per-peer pools evolve as mirror images (identical multisets pick
    /// identical best-fit capacities, and each send is answered by a
    /// buffer of the same capacity). During warm-up the pool only grows
    /// (a hit circulates back, a miss adds its exact size), so by cycle
    /// two every request in the sequence has a resident fit. A shared
    /// pool has no such guarantee — a near-fit buffer drifts to another
    /// peer and its home request misses forever.
    pub fn buffer(&mut self, peer: usize, n: usize) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        // Pool off (ExecContext pool policy): the seed allocation
        // behaviour — every checkout is a fresh exact-capacity allocation,
        // counted as a miss; hits and recycles stay zero.
        if !self.pool_on {
            self.stats.record_pool_miss();
            if let Some(s) = self.level_ledger() {
                s.record_pool_miss();
            }
            return Vec::with_capacity(n);
        }
        // Exact-capacity fast path: misses allocate exact capacities and
        // steady state re-requests the same sizes, so one tree probe
        // answers almost every checkout. Buckets are never retired when
        // they drain — the empty `Vec` (and its spine) stays resident, so
        // the ping-pong refill on the next `recycle` is push-into-capacity
        // rather than a fresh bucket allocation.
        let hit = match self.pool.get_mut(&(peer, n)) {
            Some(bucket) if !bucket.is_empty() => bucket.pop(),
            _ => self
                .pool
                .range_mut((peer, n)..=(peer, usize::MAX))
                .find_map(|(_, bucket)| bucket.pop()),
        };
        if let Some(mut buf) = hit {
            buf.clear();
            self.stats.record_pool_hit();
            if let Some(s) = self.level_ledger() {
                s.record_pool_hit();
            }
            buf
        } else {
            self.stats.record_pool_miss();
            if let Some(s) = self.level_ledger() {
                s.record_pool_miss();
            }
            Vec::with_capacity(n)
        }
    }

    /// Return a payload buffer delivered from `peer` (or checked out for
    /// it) to that peer's pool. Only buffers obtained at *logical*
    /// program points (a `recv` return, a local checkout) may come back
    /// here — never a stale duplicate copy, whose observation depends on
    /// thread timing.
    pub fn recycle(&mut self, peer: usize, buf: Vec<f64>) {
        let cap = buf.capacity();
        if cap == 0 || !self.pool_on {
            return;
        }
        self.stats.record_pool_recycled();
        if let Some(s) = self.level_ledger() {
            s.record_pool_recycled();
        }
        self.pool.entry((peer, cap)).or_default().push(buf);
    }

    /// Number of buffers currently parked in the pool (test hook).
    pub fn pooled_buffers(&self) -> usize {
        self.pool.values().map(|b| b.len()).sum()
    }

    /// Record one coalesced message carrying `fields` fields (called by
    /// the multi-field exchange paths).
    pub fn record_coalesced(&mut self, fields: u64) {
        self.stats.record_coalesced(fields);
        if let Some(s) = self.level_ledger() {
            s.record_coalesced(fields);
        }
    }

    /// Sizes of the per-stream bookkeeping maps
    /// `(send_seq, recv_next, pending)` — test hook for the barrier-point
    /// compaction guarantee.
    pub fn stream_state_sizes(&self) -> (usize, usize, usize) {
        (
            self.send_seq.len(),
            self.recv_next.len(),
            self.pending.len(),
        )
    }

    /// Non-blocking send of a packed buffer to `to` with a user `tag`.
    ///
    /// # Panics
    /// If `to` is out of range or `tag` falls in the reserved collective
    /// space.
    pub fn send(&mut self, to: usize, tag: u64, data: Vec<f64>) {
        assert!(tag < TAG_COLLECTIVE, "tag collides with collective space");
        self.send_raw(to, tag, data);
    }

    fn send_raw(&mut self, to: usize, tag: u64, data: Vec<f64>) {
        assert!(to < self.nranks, "rank {to} out of range");
        let seq_entry = self.send_seq.entry((to, tag)).or_insert(0);
        let seq = *seq_entry;
        *seq_entry += 1;
        let level = self.current_level();

        let action = match &self.faults {
            Some(plan) => plan.message_action(self.rank, to, tag, seq),
            None => MessageAction::NONE,
        };
        if action.dropped_attempts > 0 {
            let n = action.dropped_attempts as u64;
            self.stats.record_retries(n);
            if action.timed_out {
                self.stats.record_timeout();
            }
            if let Some(s) = self.level_ledger() {
                s.record_retries(n);
                if action.timed_out {
                    s.record_timeout();
                }
            }
        }

        let n_delayed_before = self.delayed.len();
        if action.delay_slots > 0 {
            self.stats.record_delay(action.delay_slots as u64);
            if let Some(s) = self.level_ledger() {
                s.record_delay(action.delay_slots as u64);
            }
            self.delayed.push_back(DelayedMsg {
                to,
                tag,
                seq,
                data,
                duplicates: action.duplicates,
                slots_left: action.delay_slots,
                level,
            });
        } else {
            self.push_wire(to, tag, seq, data, action.duplicates, level);
        }
        self.tick_delayed(n_delayed_before);
    }

    /// Physically enqueue one message (plus any injected duplicate
    /// copies) on the destination's channel. Send-side statistics are
    /// recorded only *after* the channel accepts the message, so a send
    /// that panics on a hung-up peer leaves no phantom counts behind.
    /// `level` is the multigrid context of the *originating* send call
    /// (delayed messages keep theirs across the flush).
    fn push_wire(
        &mut self,
        to: usize,
        tag: u64,
        seq: u64,
        data: Vec<f64>,
        duplicates: u32,
        level: Option<usize>,
    ) {
        let bytes = data.len() * 8;
        for _ in 0..duplicates {
            // Duplicate copies preserve the original's *capacity*, not
            // just its contents: which physical copy a receiver ends up
            // delivering is timing-dependent, and the capacity-keyed pool
            // must see the same buffer either way.
            let mut copy = Vec::with_capacity(data.capacity());
            copy.extend_from_slice(&data);
            self.tx[to]
                .send((self.rank, tag, seq, self.epoch, copy))
                .expect("peer rank hung up");
        }
        self.tx[to]
            .send((self.rank, tag, seq, self.epoch, data))
            .expect("peer rank hung up");
        if let WaitBackend::Events { sched } = &self.backend {
            if to != self.rank {
                sched.notify_mail(self.rank, to, bytes as u64);
            }
        }
        self.stats.record_send(to, bytes);
        if duplicates > 0 {
            self.stats.record_dup_sent(duplicates as u64);
        }
        if let Some(l) = level {
            let s = self.per_level.entry(l).or_default();
            s.record_send(to, bytes);
            if duplicates > 0 {
                s.record_dup_sent(duplicates as u64);
            }
        }
    }

    /// Age the first `n` delayed messages by one send-slot and release the
    /// ones whose delay expired (after the triggering send, which is what
    /// reorders traffic).
    fn tick_delayed(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        for d in self.delayed.iter_mut().take(n) {
            d.slots_left -= 1;
        }
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].slots_left == 0 {
                let d = self.delayed.remove(i).unwrap();
                self.push_wire(d.to, d.tag, d.seq, d.data, d.duplicates, d.level);
            } else {
                i += 1;
            }
        }
    }

    /// Release every delayed message immediately. Called before any
    /// blocking operation (recv, barrier, collectives) and at rank
    /// teardown, which guarantees progress: a peer blocked on one of our
    /// delayed messages unblocks no later than our next blocking point.
    fn flush_delayed(&mut self) {
        while let Some(d) = self.delayed.pop_front() {
            self.push_wire(d.to, d.tag, d.seq, d.data, d.duplicates, d.level);
        }
    }

    /// Pull one raw message off the channel.
    ///
    /// Thread backend: poll within the [`spin_budget`] (zero on an
    /// oversubscribed host — park immediately, the sender's condvar
    /// notify is the wakeup token), then park on the blocking receive.
    /// Event backend: never block the carrier thread — yield the run
    /// token to the scheduler and resume when a sender's `notify_mail`
    /// reschedules this rank.
    fn pull_message(&mut self) -> Message {
        match &self.backend {
            WaitBackend::Events { sched } => loop {
                match self.rx.try_recv() {
                    Ok(m) => return m,
                    Err(TryRecvError::Empty) => sched.block_recv(self.rank),
                    Err(TryRecvError::Disconnected) => panic!("world shut down mid-recv"),
                }
            },
            WaitBackend::Threads { spin, .. } => {
                for pull in 0..*spin {
                    match self.rx.try_recv() {
                        Ok(m) => return m,
                        Err(TryRecvError::Empty) if pull < SPIN_FAST => std::hint::spin_loop(),
                        Err(TryRecvError::Empty) => std::thread::yield_now(),
                        Err(TryRecvError::Disconnected) => panic!("world shut down mid-recv"),
                    }
                }
                self.rx.recv().expect("world shut down mid-recv")
            }
        }
    }

    /// Blocking receive of one message from `from` with `tag`. Messages
    /// from other peers/tags/sequence positions arriving in between are
    /// buffered; duplicate copies are discarded.
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        self.flush_delayed();
        let key = (from, tag);
        let next = *self.recv_next.entry(key).or_insert(0);
        if let Some(q) = self.pending.get_mut(&key) {
            if let Some(data) = q.remove(&next) {
                if q.is_empty() {
                    // Fully drained reorder buffer: retire the entry so
                    // `pending` stays proportional to the streams that are
                    // actually out of order right now.
                    self.pending.remove(&key);
                }
                *self.recv_next.get_mut(&key).unwrap() += 1;
                return self.deliver(data);
            }
        }
        loop {
            let (f, t, seq, ep, data) = self.pull_message();
            // Senders cannot outrun us past a barrier (the barrier waits
            // for everyone), and the barrier drain consumes the previous
            // epoch wholesale, so mid-recv traffic is always current.
            debug_assert_eq!(
                ep, self.epoch,
                "cross-epoch message outside a barrier drain"
            );
            let stream = (f, t);
            let expected = *self.recv_next.entry(stream).or_insert(0);
            if seq < expected {
                // Stale duplicate of an already-delivered message. Never
                // recycled: whether we observe it here or the barrier
                // drain swallows it depends on thread timing.
                continue;
            }
            if stream == key && seq == next {
                *self.recv_next.get_mut(&key).unwrap() += 1;
                return self.deliver(data);
            }
            // Out-of-order or foreign-stream message: buffer it. A
            // duplicate of an already-buffered sequence is dropped by the
            // or_insert.
            self.pending
                .entry(stream)
                .or_default()
                .entry(seq)
                .or_insert(data);
        }
    }

    /// Count one logical delivery. Recvs are recorded here — at delivery —
    /// never per channel pull: pull order depends on thread timing, the
    /// sequence of `recv()` returns does not.
    fn deliver(&mut self, data: Vec<f64>) -> Vec<f64> {
        let bytes = data.len() * 8;
        self.stats.record_recv(bytes);
        if let Some(s) = self.level_ledger() {
            s.record_recv(bytes);
        }
        data
    }

    /// Synchronise all ranks (possibly stalling first, if the fault plan
    /// says this rank hiccups here).
    ///
    /// The barrier is also a **quiescence point**: every message sent
    /// before it must have been received before it. In exchange, the
    /// per-stream dedup/reorder bookkeeping is retired wholesale and
    /// sequence numbering restarts, so long fills that keep inventing
    /// fresh `(peer, tag)` streams stay bounded. A message a rank sends
    /// before a barrier that its peer only receives after it is a
    /// protocol violation and panics with the offending streams.
    pub fn barrier(&mut self) {
        self.flush_delayed();
        let occurrence = self.barrier_count;
        self.barrier_count += 1;
        self.stats.record_barrier();
        if let Some(s) = self.level_ledger() {
            s.record_barrier();
        }
        if let Some(plan) = &self.faults {
            let yields = plan.barrier_stall(self.rank, occurrence);
            if yields > 0 {
                self.stats.record_stall(yields as u64);
                if let Some(s) = self.level_ledger() {
                    s.record_stall(yields as u64);
                }
                for _ in 0..yields {
                    std::thread::yield_now();
                }
            }
        }
        match &self.backend {
            WaitBackend::Threads { barrier, .. } => {
                barrier.wait();
            }
            WaitBackend::Events { sched } => sched.barrier_wait(self.rank),
        }
        self.drain_and_compact();
    }

    /// Post-barrier stream compaction. The barrier's happens-before edge
    /// guarantees everything sent to us before it is already in our
    /// channel, so one non-blocking drain sees the complete closing
    /// epoch: stale duplicate copies are dropped here instead of haunting
    /// the restarted sequence space, an undelivered *non*-duplicate is a
    /// quiescence violation and panics, and a fast peer's next-epoch
    /// traffic (it may clear the barrier and resume sending while we
    /// drain) is stashed and re-buffered after the reset. The drained set
    /// is deterministic — all pre-barrier sends minus all pre-barrier
    /// deliveries — even though the interleaving that put it there is not.
    fn drain_and_compact(&mut self) {
        let mut stashed: Vec<Message> = Vec::new();
        let mut violations: Vec<(usize, u64, u64, u64)> = Vec::new();
        // Empty and Disconnected both end the drain.
        while let Ok((f, t, seq, ep, data)) = self.rx.try_recv() {
            if ep == self.epoch {
                let expected = self.recv_next.get(&(f, t)).copied().unwrap_or(0);
                if seq >= expected {
                    violations.push((f, t, seq, expected));
                }
                // else: stale duplicate of a delivered message.
                drop(data);
            } else {
                debug_assert_eq!(
                    ep,
                    self.epoch + 1,
                    "message skipped an epoch (from {f}, tag {t})"
                );
                stashed.push((f, t, seq, ep, data));
            }
        }
        for (&(f, t), q) in self.pending.iter() {
            let expected = self.recv_next.get(&(f, t)).copied().unwrap_or(0);
            for &seq in q.keys() {
                violations.push((f, t, seq, expected));
            }
        }
        if !violations.is_empty() {
            violations.sort_unstable();
            panic!(
                "rank {} entered a barrier with undelivered messages — the barrier retires \
                 per-stream bookkeeping, so every message must be received in the epoch it \
                 was sent. Undelivered (from, tag, seq, next_expected): {:?}",
                self.rank, violations
            );
        }
        self.pending.clear();
        self.recv_next.clear();
        self.send_seq.clear();
        self.epoch += 1;
        for (f, t, seq, _ep, data) in stashed {
            self.pending
                .entry((f, t))
                .or_default()
                .entry(seq)
                .or_insert(data);
        }
    }

    /// Sum `value` across all ranks (everyone receives the total).
    pub fn allreduce_sum(&mut self, value: f64) -> f64 {
        self.allreduce(value, |a, b| a + b)
    }

    /// Max of `value` across all ranks.
    pub fn allreduce_max(&mut self, value: f64) -> f64 {
        self.allreduce(value, f64::max)
    }

    fn allreduce(&mut self, value: f64, op: impl Fn(f64, f64) -> f64) -> f64 {
        // Gather to rank 0, reduce, broadcast. O(P) but P is small here;
        // the machine model charges log(P) as real MPI would. The
        // sequence-number protocol makes this (like every exchange)
        // idempotent under duplication and stable under reordering.
        //
        // Tag-reuse audit: every collective reuses the same
        // `(TAG_COLLECTIVE, TAG_COLLECTIVE + 1)` pair, so interleaved
        // collectives (e.g. back-to-back norms on different multigrid
        // levels) share streams. They cannot cross: each rank
        // participates in every collective in the same program order, so
        // occurrence k of the gather stream on rank 0 is exactly
        // collective k on every rank, and the per-stream sequence numbers
        // pair contribution k with reduction k even when duplicated or
        // reordered copies arrive in between. A rank *skipping* a
        // collective would desynchronise the pairing — but it would
        // equally deadlock the gather itself; nothing new is risked by
        // the shared tags. The interleaving stress test below locks this
        // in under heavy duplication + reorder faults.
        let tag = TAG_COLLECTIVE;
        if self.rank == 0 {
            let mut acc = value;
            for from in 1..self.nranks {
                let v = self.recv(from, tag);
                acc = op(acc, v[0]);
            }
            for to in 1..self.nranks {
                self.send_raw(to, tag + 1, vec![acc]);
            }
            acc
        } else {
            self.send_raw(0, tag, vec![value]);
            self.recv(0, tag + 1)[0]
        }
    }

    /// Snapshot of this rank's send statistics.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Take and reset the statistics (e.g. per multigrid cycle). Flushes
    /// the injected-delay queue first: a held-back message has already been
    /// decided and counted as delayed, and its send must land in the trace
    /// being taken — not leak into the next cycle's (or nobody's) ledger.
    pub fn take_stats(&mut self) -> CommStats {
        self.flush_delayed();
        std::mem::take(&mut self.stats)
    }

    /// Take and reset the per-level attribution ledgers.
    pub fn take_level_stats(&mut self) -> BTreeMap<usize, CommStats> {
        self.flush_delayed();
        std::mem::take(&mut self.per_level)
    }

    /// Teardown bookkeeping: release held-back messages, then synchronise
    /// before any rank drops its receiver. The teardown barrier closes a
    /// race that fault injection makes likely: a peer can consume an
    /// injected duplicate copy, complete its body and drop its channel
    /// while the sender is still pushing the redundant original — which
    /// would turn a benign duplicate into a "peer rank hung up" panic (and
    /// strand every other rank). With the barrier, every send strictly
    /// precedes every receiver drop. Finally, check that no buffered
    /// out-of-order message was silently abandoned (a leak that previously
    /// vanished without trace), and hand back whatever is left in the
    /// ledgers — the caller decides whether to sink it. Before this
    /// existed, a body that never called `take_stats` (or whose teardown
    /// flush released delayed sends *after* its last `take_stats`) simply
    /// lost those counts.
    fn finish(&mut self) -> RankTrace {
        self.flush_delayed();
        match &self.backend {
            WaitBackend::Threads { barrier, .. } => {
                barrier.wait();
            }
            WaitBackend::Events { sched } => sched.barrier_wait(self.rank),
        }
        debug_assert!(
            self.pending.values().all(|q| q.is_empty()),
            "rank {} exited with unconsumed out-of-order messages: {:?}",
            self.rank,
            self.pending
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|(&(from, tag), q)| (from, tag, q.len()))
                .collect::<Vec<_>>()
        );
        RankTrace {
            rank: self.rank,
            stats: std::mem::take(&mut self.stats),
            per_level: std::mem::take(&mut self.per_level),
        }
    }
}

/// Run `nranks` rank bodies on OS threads in the clean regime (no faults,
/// pool on); returns each body's result in rank order.
///
/// Convenience wrapper over [`run_world`] with a default [`ExecContext`],
/// for raw comm workloads that need no capability and no teardown ledger.
/// The body receives a mutable [`Rank`] context. Panics in any rank
/// propagate after all threads complete or abort.
pub fn run_ranks<T, F>(nranks: usize, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Rank) -> T + Sync,
{
    run_world(nranks, &ExecContext::default(), body).0
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
/// `(seed, nranks)`. The trace vector is indexed by rank id, so its
/// content is independent of thread completion order — deterministic
/// whenever the workload is.
pub fn run_world<T, F>(nranks: usize, ctx: &ExecContext, body: F) -> (Vec<T>, Vec<RankTrace>)
where
    T: Send,
    F: Fn(&mut Rank) -> T + Sync,
{
    assert!(nranks > 0);
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
    match ctx.executor().resolve() {
        // The thread backend has no virtual clock, so the fabric model
        // selection is a documented no-op there: delivery cost lives in
        // the analytic report path either way.
        ExecutorKind::Threads => run_world_threads(nranks, plan, pool_on, body),
        ExecutorKind::Events => {
            let fabric = match ctx.fabric_model() {
                FabricModel::Analytic => None,
                FabricModel::Contention => Some(FabricClock::columbia_default(nranks)),
            };
            run_world_events(nranks, plan, pool_on, fabric, body)
        }
    }
}

/// Per-rank mailboxes: sender fan-out clone per rank, receiver by rank id.
#[allow(clippy::type_complexity)]
fn make_channels(nranks: usize) -> (Vec<Sender<Message>>, Vec<Receiver<Message>>) {
    let mut senders = Vec::with_capacity(nranks);
    let mut receivers = Vec::with_capacity(nranks);
    for _ in 0..nranks {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }
    (senders, receivers)
}

/// Fresh per-rank comm context (shared by both backends).
fn make_rank(
    r: usize,
    nranks: usize,
    tx: Vec<Sender<Message>>,
    rx: Receiver<Message>,
    faults: Option<Arc<FaultPlan>>,
    pool_on: bool,
    backend: WaitBackend,
) -> Rank {
    Rank {
        rank: r,
        nranks,
        tx,
        rx,
        pending: HashMap::new(),
        send_seq: HashMap::new(),
        recv_next: HashMap::new(),
        delayed: VecDeque::new(),
        barrier_count: 0,
        epoch: 0,
        pool: BTreeMap::new(),
        pool_on,
        faults,
        backend,
        stats: CommStats::default(),
        level_stack: Vec::new(),
        per_level: BTreeMap::new(),
    }
}

/// The classic backend: one preemptive OS thread per rank, kernel barrier,
/// channel-condvar parking with a [`spin_budget`]-bounded pre-park poll.
fn run_world_threads<T, F>(
    nranks: usize,
    plan: Option<Arc<FaultPlan>>,
    pool_on: bool,
    body: F,
) -> (Vec<T>, Vec<RankTrace>)
where
    T: Send,
    F: Fn(&mut Rank) -> T + Sync,
{
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let spin = spin_budget(nranks, cores);
    let (senders, receivers) = make_channels(nranks);
    let barrier = Arc::new(Barrier::new(nranks));
    let body = &body;
    let plan = &plan;
    // Teardown sink, slot per rank: ledgers land by rank id, never by
    // completion order.
    let sink: Mutex<Vec<Option<RankTrace>>> = Mutex::new((0..nranks).map(|_| None).collect());
    let sink = &sink;

    let results = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nranks);
        for (r, rx) in receivers.into_iter().enumerate() {
            let tx = senders.clone();
            let barrier = barrier.clone();
            let faults = plan.clone();
            handles.push(scope.spawn(move || {
                let mut ctx = make_rank(
                    r,
                    nranks,
                    tx,
                    rx,
                    faults,
                    pool_on,
                    WaitBackend::Threads { barrier, spin },
                );
                let out = catch_unwind(AssertUnwindSafe(|| {
                    let out = body(&mut ctx);
                    let trace = ctx.finish();
                    (out, trace)
                }));
                match out {
                    Ok((out, trace)) => {
                        sink.lock().expect("trace sink poisoned")[r] = Some(trace);
                        out
                    }
                    Err(payload) => {
                        let msg = panic_message(&*payload);
                        resume_unwind(Box::new(format!("rank {r} panicked: {msg}")))
                    }
                }
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    collect_traces(sink, results)
}

/// The discrete-event backend: every rank is a cooperative task on a small
/// fixed stack, scheduled by one deterministic [`EventSched`] — exactly
/// one rank runs at a time, blocked ranks are parked (never polling), and
/// the whole interleaving is a pure function of the rank program. This is
/// what hosts paper-scale worlds (512/1024/2016 ranks) on one machine,
/// bit-identical to the thread backend.
fn run_world_events<T, F>(
    nranks: usize,
    plan: Option<Arc<FaultPlan>>,
    pool_on: bool,
    fabric: Option<FabricClock>,
    body: F,
) -> (Vec<T>, Vec<RankTrace>)
where
    T: Send,
    F: Fn(&mut Rank) -> T + Sync,
{
    let (senders, receivers) = make_channels(nranks);
    let sched = Arc::new(EventSched::with_fabric(nranks, fabric));
    let body = &body;
    let plan = &plan;
    let sink: Mutex<Vec<Option<RankTrace>>> = Mutex::new((0..nranks).map(|_| None).collect());
    let sink = &sink;

    let results: Vec<T> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nranks);
        for (r, rx) in receivers.into_iter().enumerate() {
            let tx = senders.clone();
            let faults = plan.clone();
            let sched = sched.clone();
            let carrier = std::thread::Builder::new()
                .name(format!("rank-{r}"))
                .stack_size(EVENT_STACK_BYTES)
                .spawn_scoped(scope, move || {
                    // Park until granted the run token; from here on this
                    // thread only ever executes while holding it.
                    sched.wait_turn(r);
                    let mut ctx = make_rank(
                        r,
                        nranks,
                        tx,
                        rx,
                        faults,
                        pool_on,
                        WaitBackend::Events {
                            sched: sched.clone(),
                        },
                    );
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        let out = body(&mut ctx);
                        let trace = ctx.finish();
                        (out, trace)
                    }));
                    match out {
                        Ok((out, trace)) => {
                            sink.lock().expect("trace sink poisoned")[r] = Some(trace);
                            sched.retire(r);
                            out
                        }
                        Err(payload) => {
                            let msg = panic_message(&*payload);
                            sched.poison(r, &msg);
                            resume_unwind(Box::new(format!("rank {r} panicked: {msg}")))
                        }
                    }
                })
                .expect("spawn rank carrier thread");
            handles.push(carrier);
        }
        sched.kick();
        let mut outs = Vec::with_capacity(nranks);
        let mut failed = false;
        for h in handles {
            match h.join() {
                Ok(v) => outs.push(v),
                Err(_) => failed = true,
            }
        }
        if failed {
            // Every carrier has unwound; report the deterministic *first*
            // panic (only one rank runs at a time), not whichever join
            // happened to observe its own unwind.
            let (pr, msg) = sched
                .first_panic()
                .expect("failed world without recorded panic");
            std::panic::panic_any(format!("rank {pr} panicked: {msg}"));
        }
        outs
    });
    collect_traces(sink, results)
}

/// Drain the teardown sink into rank order next to the body results.
fn collect_traces<T>(
    sink: &Mutex<Vec<Option<RankTrace>>>,
    results: Vec<T>,
) -> (Vec<T>, Vec<RankTrace>) {
    let traces = sink
        .lock()
        .expect("trace sink poisoned")
        .iter_mut()
        .map(|slot| {
            slot.take()
                .expect("rank finished without sinking its trace")
        })
        .collect();
    (results, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use columbia_rt::fault::FaultConfig;

    #[test]
    fn ring_pass_accumulates() {
        let results = run_ranks(4, |rank| {
            let r = rank.rank();
            let next = (r + 1) % 4;
            let prev = (r + 3) % 4;
            rank.send(next, 7, vec![r as f64]);
            let got = rank.recv(prev, 7);
            got[0]
        });
        assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let results = run_ranks(2, |rank| {
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
        assert_eq!(results[1], 12.0);
    }

    #[test]
    fn allreduce_sum_and_max() {
        let results = run_ranks(5, |rank| {
            let s = rank.allreduce_sum(rank.rank() as f64);
            let m = rank.allreduce_max(rank.rank() as f64);
            (s, m)
        });
        for (s, m) in results {
            assert_eq!(s, 10.0);
            assert_eq!(m, 4.0);
        }
    }

    #[test]
    fn single_rank_world_works() {
        let results = run_ranks(1, |rank| rank.allreduce_sum(5.0));
        assert_eq!(results, vec![5.0]);
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let results = run_ranks(2, |rank| {
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
        assert_eq!(results[0].total_msgs(), 2);
        assert_eq!(results[0].total_bytes(), 15 * 8);
        assert_eq!(results[1].total_msgs(), 0);
    }

    #[test]
    fn send_to_self_is_delivered() {
        let results = run_ranks(2, |rank| {
            let me = rank.rank();
            rank.send(me, 42, vec![me as f64 + 1.0]);
            rank.recv(me, 42)[0]
        });
        assert_eq!(results, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "rank 0 panicked: rank 5 out of range")]
    fn send_out_of_range_panics() {
        // The offending rank panics with "rank 5 out of range"; the world
        // re-reports it prefixed with the failing rank's id.
        run_ranks(1, |rank| rank.send(5, 1, vec![]));
    }

    #[test]
    fn spin_budget_parks_immediately_when_oversubscribed() {
        // More ranks than cores: polling steals the sender's CPU, so the
        // budget must be zero (park on the channel condvar, let the
        // sender's notify be the wakeup token). With spare cores the full
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
    fn event_backend_panics_carry_rank_prefix_and_release_peers() {
        use columbia_exec::Executor;
        // Rank 1 panics while rank 0 is parked in a recv: the poison
        // protocol must wake rank 0 (no hang) and run_world must report
        // the *first* panic with its rank id.
        let ctx = ExecContext::default().with_executor(Executor::Events);
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
        use columbia_exec::Executor;
        let run = |exec: Executor| {
            let ctx = ExecContext::default().with_executor(exec);
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
        use columbia_exec::Executor;
        // Rank 0 recvs a message nobody sends: the thread backend would
        // park forever, the event scheduler must detect the empty queue
        // with live ranks and panic with the status table.
        let ctx = ExecContext::default().with_executor(Executor::Events);
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
        use columbia_exec::Executor;
        // Four ranks, two distinct fates: ranks 0 and 1 recv from a rank
        // that never sends; ranks 2 and 3 finish their bodies and park in
        // the teardown barrier the world can never complete. The deadlock
        // report must carry one status row per rank — no omissions, no
        // duplicates.
        let ctx = ExecContext::default().with_executor(Executor::Events);
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
        let counter = AtomicUsize::new(0);
        run_ranks(4, |rank| {
            counter.fetch_add(1, Ordering::SeqCst);
            rank.barrier();
            // After the barrier everyone must see all 4 increments.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    /// A messy mixed workload: ring pass, tagged cross-traffic, allreduce,
    /// barrier. Used to compare fault-free and faulty executions.
    fn chaos_workload(nranks: usize, plan: Option<Arc<FaultPlan>>) -> Vec<(f64, CommStats)> {
        run_world(nranks, &ExecContext::default().with_faults(plan), |rank| {
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
        let a = chaos_workload(4, plan());
        let b = chaos_workload(4, plan());
        for ((va, sa), (vb, sb)) in a.iter().zip(&b) {
            assert_eq!(va.to_bits(), vb.to_bits(), "values diverged");
            assert_eq!(sa, sb, "stats traces diverged");
        }
        // The severe plan actually exercised the fault paths.
        let f: Vec<_> = a.iter().map(|(_, s)| *s.faults()).collect();
        assert!(f.iter().any(|c| c.retries > 0), "no retries recorded");
        assert!(f.iter().any(|c| c.dup_sent > 0), "no duplicates recorded");
        assert!(f.iter().any(|c| c.delayed_msgs > 0), "no delays recorded");
    }

    #[test]
    fn faults_do_not_change_delivered_values() {
        let clean = chaos_workload(4, None);
        let faulty = chaos_workload(
            4,
            Some(Arc::new(FaultPlan::new(99, 4, FaultConfig::severe()))),
        );
        for ((vc, _), (vf, _)) in clean.iter().zip(&faulty) {
            assert_eq!(
                vc.to_bits(),
                vf.to_bits(),
                "retry/dedup/reorder protocol must hide faults from payloads"
            );
        }
    }

    #[test]
    fn fault_free_plan_matches_no_plan_exactly() {
        let clean = chaos_workload(4, None);
        for seed in [0u64, 7, 0xFEED] {
            let plan = Arc::new(FaultPlan::new(seed, 4, FaultConfig::fault_free()));
            let gated = chaos_workload(4, Some(plan));
            for ((vc, sc), (vg, sg)) in clean.iter().zip(&gated) {
                assert_eq!(vc.to_bits(), vg.to_bits());
                assert_eq!(sc, sg, "zero-rate plan must leave the trace untouched");
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
        let plan = Arc::new(FaultPlan::new(3, 2, cfg));
        let (results, _) = run_world(2, &ExecContext::faulty(plan), |rank| {
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
        assert_eq!(results[1], expect, "stream order broken by dup/delay");
    }

    #[test]
    fn drops_are_retried_to_completion() {
        let cfg = FaultConfig {
            drop_rate: 0.9,
            max_retries: 3,
            ..FaultConfig::fault_free()
        };
        let plan = Arc::new(FaultPlan::new(17, 2, cfg));
        let (results, _) = run_world(2, &ExecContext::faulty(plan), |rank| {
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
        assert!(f.retries > 0, "90% drop rate must trigger retries");
        assert!(
            f.timeouts > 0,
            "0.9^3 per-message saturation must trigger timeouts"
        );
        // Every logical message was still delivered exactly once.
        assert_eq!(results[0].total_msgs(), 30);
    }

    #[test]
    fn recvs_and_barriers_are_counted_at_delivery() {
        let results = run_ranks(2, |rank| {
            if rank.rank() == 0 {
                rank.send(1, 3, vec![0.0; 10]);
            } else {
                rank.recv(0, 3);
            }
            rank.barrier();
            rank.take_stats()
        });
        assert_eq!(results[0].total_recvs(), 0);
        assert_eq!(results[1].total_recvs(), 1);
        assert_eq!(results[1].total_recv_bytes(), 80);
        assert_eq!(results[0].barriers(), 1);
        assert_eq!(results[1].barriers(), 1);
    }

    #[test]
    fn level_context_attributes_traffic() {
        let (_, traces) = run_world(2, &ExecContext::default(), |rank| {
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
            assert_eq!(t.stats.total_msgs(), 3, "global ledger counts all");
            assert_eq!(t.per_level.len(), 2);
            assert_eq!(t.per_level[&0].total_msgs(), 1);
            assert_eq!(t.per_level[&0].total_bytes(), 32);
            assert_eq!(t.per_level[&0].total_recvs(), 1);
            assert_eq!(t.per_level[&2].total_msgs(), 1);
            assert_eq!(t.per_level[&2].total_bytes(), 16);
        }
    }

    #[test]
    fn teardown_trace_captures_untaken_ledger() {
        // Body never calls take_stats: before the teardown sink existed
        // this ledger evaporated with the Rank.
        let (_, traces) = run_world(2, &ExecContext::default(), |rank| {
            let peer = 1 - rank.rank();
            rank.send(peer, 9, vec![1.0, 2.0]);
            rank.recv(peer, 9);
        });
        for t in &traces {
            assert_eq!(t.stats.total_msgs(), 1);
            assert_eq!(t.stats.total_bytes(), 16);
            assert_eq!(t.stats.total_recvs(), 1);
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
        let plan = Arc::new(FaultPlan::new(5, 2, cfg));
        let ((), ref traces) = {
            let (r, t) = run_world(2, &ExecContext::faulty(plan), |rank| {
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
            (r.into_iter().next().unwrap(), t.clone())
        };
        assert_eq!(
            traces[0].stats.total_msgs(),
            1,
            "teardown-flushed send must land in the rank trace, not vanish"
        );
        assert_eq!(traces[0].stats.faults().delayed_msgs, 1);
    }

    #[test]
    fn rank_traces_are_deterministic_and_recordable() {
        let run = || {
            let plan = Some(Arc::new(FaultPlan::new(11, 4, FaultConfig::severe())));
            run_world(4, &ExecContext::default().with_faults(plan), |rank| {
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
        let a = run();
        let b = run();
        assert_eq!(a, b, "rank traces must be bit-identical across runs");
        // And they serialize deterministically through the trace layer.
        let render = |traces: &[RankTrace]| {
            let mut t = Tracer::logical();
            for rt in traces {
                rt.record_to(&mut t);
            }
            t.finish().to_json().render()
        };
        assert_eq!(render(&a), render(&b));
        assert!(render(&a).contains("comm.sends"));
    }

    #[test]
    fn buffer_pool_recycles_by_peer_and_capacity() {
        run_ranks(1, |rank| {
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
            assert_eq!(rank.pooled_buffers(), 2);
            // Pools never cross peers: peer 1's request misses even though
            // peer 0 has a fitting bucket parked.
            let b4 = rank.buffer(1, 4);
            assert_eq!(b4.capacity(), 4);
            rank.recycle(1, b4);
            assert_eq!(rank.pooled_buffers(), 3);
            // Zero-size requests and returns bypass the pool silently.
            assert_eq!(rank.buffer(0, 0).capacity(), 0);
            rank.recycle(0, Vec::new());
            let s = rank.take_stats();
            assert_eq!(s.pool().hits, 1);
            assert_eq!(s.pool().misses, 3);
            assert_eq!(s.pool().recycled, 4);
        });
    }

    #[test]
    fn pooled_payloads_round_trip_through_sends() {
        // A recycled buffer's capacity survives the wire: the receiver
        // recycles what the sender checked out, and the second cycle is
        // all hits on both sides.
        let stats = run_ranks(2, |rank| {
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
            assert_eq!(s.pool().misses, 1, "only the first checkout allocates");
            assert_eq!(s.pool().hits, 2);
            assert_eq!(s.pool().recycled, 3);
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
        let (pooled, _) = run_world(2, &ExecContext::default(), workload);
        let off = ExecContext::default().with_pool(columbia_exec::PoolPolicy::disabled());
        let (fresh, _) = run_world(2, &off, workload);
        for ((pu, ps), (fu, fs)) in pooled.iter().zip(&fresh) {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(pu), bits(fu), "payloads must not depend on the pool");
            assert_eq!(ps.pool().hits, 2);
            assert_eq!(ps.pool().misses, 1);
            assert_eq!(fs.pool().hits, 0, "pool off: no reuse");
            assert_eq!(fs.pool().misses, 3, "pool off: every checkout allocates");
            assert_eq!(fs.pool().recycled, 0, "pool off: recycles drop");
            assert_eq!(ps.total_msgs(), fs.total_msgs());
            assert_eq!(ps.total_bytes(), fs.total_bytes());
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
        let plan = Arc::new(FaultPlan::new(21, 3, cfg));
        let (maxima, _) = run_world(3, &ExecContext::faulty(plan), |rank| {
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
                let (a, b, c) = rank.stream_state_sizes();
                worst = (worst.0.max(a), worst.1.max(b), worst.2.max(c));
            }
            worst
        });
        for (send_seq, recv_next, pending) in maxima {
            assert!(send_seq <= 8, "send_seq map not bounded: {send_seq}");
            assert!(recv_next <= 8, "recv_next map not bounded: {recv_next}");
            assert!(pending <= 8, "pending map not bounded: {pending}");
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
        for seed in [2u64, 77, 0xABCD] {
            let plan = Arc::new(FaultPlan::new(seed, 4, cfg));
            let (results, _) = run_world(4, &ExecContext::faulty(plan), |rank| {
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
            let mut expect = Vec::new();
            for round in 0..12 {
                let sum: f64 = (0..4).map(|r| round as f64 + r as f64).sum();
                let max = (0..4)
                    .map(|r| (round as f64 + r as f64) * 0.5)
                    .fold(f64::NEG_INFINITY, f64::max);
                let nsum: f64 = (0..4).map(|r| -(round as f64 + r as f64)).sum();
                expect.extend([sum, max, nsum]);
            }
            for (r, got) in results.iter().enumerate() {
                let gb: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                let eb: Vec<u64> = expect.iter().map(|v| v.to_bits()).collect();
                assert_eq!(gb, eb, "rank {r} crossed collective streams (seed {seed})");
            }
        }
    }

    #[test]
    fn undelivered_message_at_barrier_panics_with_diagnostics() {
        // Both ranks violate quiescence symmetrically (a one-sided
        // violation would strand the innocent rank at the teardown
        // barrier once the guilty thread is down).
        run_ranks(2, |rank| {
            let peer = 1 - rank.rank();
            rank.send(peer, 6, vec![1.0]);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rank.barrier()))
                .expect_err("quiescence violation must panic");
            let msg = err
                .downcast_ref::<String>()
                .expect("panic carries a message");
            assert!(msg.contains("undelivered"), "{msg}");
            assert!(msg.contains("6, 0, 0"), "stream coordinates missing: {msg}");
        });
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
