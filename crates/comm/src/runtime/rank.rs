//! What a [`Rank`] can do: point-to-point sends and receives, barriers,
//! buffer checkout, collectives — each a few calls into the layers.

use super::wire::Outgoing;
use super::{Rank, RankTrace};
use crate::stats::CommStats;
use columbia_rt::fault::MessageAction;

/// Reserved tag space for collectives.
const TAG_COLLECTIVE: u64 = u64::MAX - 1024;

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
        self.ledger.enter(level);
    }

    /// Pop the innermost level context.
    pub fn exit_level(&mut self) {
        self.ledger.exit();
    }

    /// Check out an empty payload buffer for traffic with `peer`, with
    /// capacity at least `n`: the smallest pooled bucket for that peer
    /// that fits (pool hit), else a fresh *exact*-capacity allocation
    /// (pool miss). With the pool off (`ExecContext` pool policy) every
    /// checkout is a miss and hits and recycles stay zero.
    pub fn buffer(&mut self, peer: usize, n: usize) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        let (buf, hit) = self.pool.checkout(peer, n);
        self.ledger.tally(|s| {
            if hit {
                s.record_pool_hit()
            } else {
                s.record_pool_miss()
            }
        });
        buf
    }

    /// Return a payload buffer delivered from `peer` (or checked out for
    /// it) to that peer's pool. Only buffers obtained at *logical*
    /// program points (a `recv` return, a local checkout) may come back
    /// here — never a stale duplicate copy, whose observation depends on
    /// thread timing.
    pub fn recycle(&mut self, peer: usize, buf: Vec<f64>) {
        if buf.capacity() > 0 && self.pool.give_back(peer, buf) {
            self.ledger.tally(CommStats::record_pool_recycled);
        }
    }

    /// Record one coalesced message carrying `fields` fields (called by
    /// the multi-field exchange paths).
    pub fn record_coalesced(&mut self, fields: u64) {
        self.ledger.tally(|s| s.record_coalesced(fields));
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
        let seq = self.wire.next_seq(to, tag);
        let action = match &self.faults {
            Some(plan) => plan.message_action(self.rank, to, tag, seq),
            None => MessageAction::NONE,
        };
        if action.dropped_attempts > 0 {
            self.ledger.tally(|s| {
                s.record_retries(action.dropped_attempts as u64);
                if action.timed_out {
                    s.record_timeout();
                }
            });
        }
        // Every message already held back has waited one more send-slot;
        // the expired ones go out *after* this send — which is what
        // reorders traffic.
        self.wire.age_held();
        let out = Outgoing {
            to,
            tag,
            seq,
            data,
            duplicates: action.duplicates,
            slots_left: action.delay_slots,
            level: self.ledger.current(),
        };
        if action.delay_slots > 0 {
            self.ledger
                .tally(|s| s.record_delay(action.delay_slots as u64));
            self.wire.hold(out);
        } else {
            self.push_wire(out);
        }
        while let Some(m) = self.wire.release(false) {
            self.push_wire(m);
        }
    }

    /// Put one message on the wire, wake its receiver, count it.
    /// Send-side statistics are recorded only *after* the mailbox accepts
    /// the message, so a send that panics on a hung-up peer leaves no
    /// phantom counts behind — and they go to the level of the
    /// *originating* send call, which a delayed message keeps across the
    /// flush.
    fn push_wire(&mut self, m: Outgoing) {
        let (to, bytes, dups, level) = (m.to, m.data.len() * 8, m.duplicates as u64, m.level);
        self.wire.transmit(m);
        self.wait.notify_mail(self.rank, to, bytes as u64);
        self.ledger.tally_at(level, |s| {
            s.record_send(to, bytes);
            s.record_dup_sent(dups);
        });
    }

    /// Release every delayed message immediately. Called before any
    /// blocking operation (recv, barrier, collectives) and at rank
    /// teardown, which guarantees progress: a peer blocked on one of our
    /// delayed messages unblocks no later than our next blocking point.
    fn flush_delayed(&mut self) {
        while let Some(m) = self.wire.release(true) {
            self.push_wire(m);
        }
    }

    /// Blocking receive of one message from `from` with `tag`. Messages
    /// from other peers/tags/sequence positions arriving in between are
    /// buffered; duplicate copies are discarded.
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        self.flush_delayed();
        let data = match self.wire.take_buffered(from, tag) {
            Some(data) => data,
            None => loop {
                let msg = self.wait.pull(self.rank, &self.wire.rx);
                if let Some(data) = self.wire.accept(msg, from, tag) {
                    break data;
                }
            },
        };
        // Recvs are counted here — at delivery — never per mailbox pull:
        // pull order depends on thread timing, the sequence of `recv()`
        // returns does not.
        self.ledger.tally(|s| s.record_recv(data.len() * 8));
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
        self.ledger.tally(CommStats::record_barrier);
        if let Some(plan) = &self.faults {
            let yields = plan.barrier_stall(self.rank, occurrence);
            if yields > 0 {
                self.ledger.tally(|s| s.record_stall(yields as u64));
                for _ in 0..yields {
                    std::thread::yield_now();
                }
            }
        }
        self.wait.barrier(self.rank);
        let undelivered = self.wire.drain_and_compact();
        assert!(
            undelivered.is_empty(),
            "rank {} entered a barrier with undelivered messages — the barrier retires \
             per-stream bookkeeping, so every message must be received in the epoch it \
             was sent. Undelivered (from, tag, seq, next_expected): {:?}",
            self.rank,
            undelivered
        );
    }

    /// Sum `value` across all ranks (everyone receives the total).
    pub fn allreduce_sum(&mut self, value: f64) -> f64 {
        self.allreduce(value, |a, b| a + b)
    }

    /// Root mean square over all ranks of values whose squares sum to
    /// `sumsq` on `count` of them here: the squares are summed across
    /// ranks, then the counts; 0 where there are no values anywhere.
    pub fn allreduce_rms(&mut self, sumsq: f64, count: usize) -> f64 {
        let sumsq = self.allreduce_sum(sumsq);
        let count = self.allreduce_sum(count as f64);
        if count == 0.0 {
            0.0
        } else {
            (sumsq / count).sqrt()
        }
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
        // the shared tags. The interleaving stress test in `mod tests`
        // locks this in under heavy duplication + reorder faults.
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
        self.ledger.total()
    }

    /// Take and reset the statistics (e.g. per multigrid cycle). Flushes
    /// the injected-delay queue first: a held-back message has already been
    /// decided and counted as delayed, and its send must land in the trace
    /// being taken — not leak into the next cycle's (or nobody's) ledger.
    pub fn take_stats(&mut self) -> CommStats {
        self.flush_delayed();
        self.ledger.take_total()
    }

    /// Teardown bookkeeping: release held-back messages, then synchronise
    /// before any rank drops its receiver. The teardown barrier closes a
    /// race that fault injection makes likely: a peer can consume an
    /// injected duplicate copy, complete its body and drop its mailbox
    /// while the sender is still pushing the redundant original — which
    /// would turn a benign duplicate into a "peer rank hung up" panic (and
    /// strand every other rank). With the barrier, every send strictly
    /// precedes every receiver drop. Finally, check that no buffered
    /// out-of-order message was silently abandoned, and hand back whatever
    /// is left in the ledgers — a body that never called `take_stats` (or
    /// whose teardown flush released delayed sends *after* its last
    /// `take_stats`) must not lose those counts.
    pub(super) fn finish(&mut self) -> RankTrace {
        self.flush_delayed();
        self.wait.barrier(self.rank);
        debug_assert!(
            self.wire.pending.is_empty(),
            "rank {} exited with unconsumed out-of-order messages on streams (from, tag): {:?}",
            self.rank,
            self.wire.pending.keys()
        );
        RankTrace {
            rank: self.rank,
            stats: self.ledger.take_total(),
            per_level: self.ledger.take_levels(),
        }
    }
}
