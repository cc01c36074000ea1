//! Wire layer: sequence-numbered streams over the per-rank mailboxes.
//!
//! Every message carries a per-`(from, to, tag)` sequence number and the
//! sender's epoch: what the dedup window, the reorder buffer and the
//! injected-delay queue of the module doc one level up are made of.
//!
//! **Epochs.** Every barrier is a quiescence point: each message sent
//! before it must be received before it. [`Wire::drain_and_compact`] then
//! drains the mailbox (dropping stale duplicate copies of the closing
//! epoch), retires the whole per-stream bookkeeping and restarts sequence
//! numbering, so the maps stay bounded over arbitrarily long fills.
//! Messages carry their epoch so a fast peer's next-epoch traffic is never
//! confused with the retiring streams.
//!
//! The layer never blocks and never counts: waiting for the mailbox is
//! the wait layer's, statistics are the ledger's.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::mpsc::{Receiver, Sender};

/// A message in flight: `(from, tag, seq, epoch, payload)`.
pub(super) type Message = (usize, u64, u64, u64, Vec<f64>);

/// One logical send on its way to the destination's mailbox.
pub(super) struct Outgoing {
    pub(super) to: usize,
    pub(super) tag: u64,
    pub(super) seq: u64,
    pub(super) data: Vec<f64>,
    /// Injected extra copies travelling with the same sequence number.
    pub(super) duplicates: u32,
    /// Send-slots an injected delay still holds this message back for.
    pub(super) slots_left: u32,
    /// Multigrid-level context of the originating `send` call.
    pub(super) level: Option<usize>,
}

pub(super) struct Wire {
    rank: usize,
    tx: Vec<Sender<Message>>,
    /// This rank's mailbox, for the wait layer to pull from.
    pub(super) rx: Receiver<Message>,
    /// Reorder buffer: per `(from, tag)` stream, payloads keyed by
    /// sequence number (duplicates of a buffered or consumed sequence are
    /// discarded on arrival).
    pub(super) pending: HashMap<(usize, u64), BTreeMap<u64, Vec<f64>>>,
    /// Next sequence number to assign, per `(to, tag)` stream.
    pub(super) send_seq: HashMap<(usize, u64), u64>,
    /// Next sequence number to deliver, per `(from, tag)` stream.
    pub(super) recv_next: HashMap<(usize, u64), u64>,
    /// Outgoing messages held back by injected delays.
    delayed: VecDeque<Outgoing>,
    /// Bumped after every barrier, stamped on every outgoing message.
    epoch: u64,
}

impl Wire {
    pub(super) fn new(rank: usize, tx: Vec<Sender<Message>>, rx: Receiver<Message>) -> Self {
        Wire {
            rank,
            tx,
            rx,
            pending: HashMap::new(),
            send_seq: HashMap::new(),
            recv_next: HashMap::new(),
            delayed: VecDeque::new(),
            epoch: 0,
        }
    }

    /// Assign the next sequence number of the `(to, tag)` stream.
    pub(super) fn next_seq(&mut self, to: usize, tag: u64) -> u64 {
        let entry = self.send_seq.entry((to, tag)).or_insert(0);
        let seq = *entry;
        *entry += 1;
        seq
    }

    /// Physically enqueue one message (plus any injected duplicate
    /// copies) on the destination's mailbox.
    pub(super) fn transmit(&self, m: Outgoing) {
        for _ in 0..m.duplicates {
            // Duplicate copies preserve the original's *capacity*, not
            // just its contents: which physical copy a receiver ends up
            // delivering is timing-dependent, and the capacity-keyed pool
            // must see the same buffer either way.
            let mut copy = Vec::with_capacity(m.data.capacity());
            copy.extend_from_slice(&m.data);
            self.tx[m.to]
                .send((self.rank, m.tag, m.seq, self.epoch, copy))
                .expect("peer rank hung up");
        }
        self.tx[m.to]
            .send((self.rank, m.tag, m.seq, self.epoch, m.data))
            .expect("peer rank hung up");
    }

    /// Hold `m` back for its `slots_left` send-slots.
    pub(super) fn hold(&mut self, m: Outgoing) {
        self.delayed.push_back(m);
    }

    /// One send-slot passes for every message currently held back.
    pub(super) fn age_held(&mut self) {
        for d in &mut self.delayed {
            d.slots_left -= 1;
        }
    }

    /// Release the oldest held message whose delay has expired — or, with
    /// `force`, the oldest held message whatever its delay.
    pub(super) fn release(&mut self, force: bool) -> Option<Outgoing> {
        let i = self
            .delayed
            .iter()
            .position(|d| force || d.slots_left == 0)?;
        self.delayed.remove(i)
    }

    /// The next in-sequence message of `(from, tag)` if it already sits in
    /// the reorder buffer.
    pub(super) fn take_buffered(&mut self, from: usize, tag: u64) -> Option<Vec<f64>> {
        let key = (from, tag);
        let next = self.recv_next.entry(key).or_insert(0);
        let q = self.pending.get_mut(&key)?;
        let data = q.remove(next)?;
        *next += 1;
        if q.is_empty() {
            // Fully drained reorder buffer: retire the entry so `pending`
            // stays proportional to the streams that are actually out of
            // order right now.
            self.pending.remove(&key);
        }
        Some(data)
    }

    /// Classify one message pulled off the mailbox while `(from, tag)` is
    /// awaited: the awaited stream's next sequence is handed back, a stale
    /// duplicate is dropped, anything else is buffered.
    pub(super) fn accept(&mut self, msg: Message, from: usize, tag: u64) -> Option<Vec<f64>> {
        let (f, t, seq, ep, data) = msg;
        // Senders cannot outrun us past a barrier (the barrier waits for
        // everyone), and the barrier drain consumes the previous epoch
        // wholesale, so mid-recv traffic is always current.
        debug_assert_eq!(
            ep, self.epoch,
            "cross-epoch message outside a barrier drain"
        );
        let expected = self.recv_next.entry((f, t)).or_insert(0);
        if seq < *expected {
            // Stale duplicate of an already-delivered message. Never
            // recycled: whether we observe it here or the barrier drain
            // swallows it depends on thread timing.
            return None;
        }
        if (f, t) == (from, tag) && seq == *expected {
            *expected += 1;
            return Some(data);
        }
        // Out-of-order or foreign-stream message: buffer it. A duplicate
        // of an already-buffered sequence is dropped by the or_insert.
        self.pending
            .entry((f, t))
            .or_default()
            .entry(seq)
            .or_insert(data);
        None
    }

    /// Post-barrier stream compaction. The barrier's happens-before edge
    /// guarantees everything sent to us before it is already in our
    /// mailbox, so one non-blocking drain sees the complete closing epoch:
    /// stale duplicate copies are dropped here instead of haunting the
    /// restarted sequence space, an undelivered *non*-duplicate is a
    /// quiescence violation, and a fast peer's next-epoch traffic (it may
    /// clear the barrier and resume sending while we drain) is stashed and
    /// re-buffered after the reset. The drained set is deterministic — all
    /// pre-barrier sends minus all pre-barrier deliveries — even though
    /// the interleaving that put it there is not.
    ///
    /// Returns the violations as `(from, tag, seq, next_expected)`,
    /// sorted; when there are any the epoch is *not* closed (the caller
    /// panics with them).
    pub(super) fn drain_and_compact(&mut self) -> Vec<(usize, u64, u64, u64)> {
        let mut stashed: Vec<Message> = Vec::new();
        let mut violations = Vec::new();
        let expected = |recv_next: &HashMap<(usize, u64), u64>, f, t| {
            recv_next.get(&(f, t)).copied().unwrap_or(0)
        };
        // Empty and Disconnected both end the drain.
        while let Ok((f, t, seq, ep, data)) = self.rx.try_recv() {
            if ep == self.epoch {
                let expected = expected(&self.recv_next, f, t);
                if seq >= expected {
                    violations.push((f, t, seq, expected));
                }
                // else: stale duplicate of a delivered message.
            } else {
                debug_assert_eq!(
                    ep,
                    self.epoch + 1,
                    "message skipped an epoch (from {f}, tag {t})"
                );
                stashed.push((f, t, seq, ep, data));
            }
        }
        for (&(f, t), q) in &self.pending {
            let expected = expected(&self.recv_next, f, t);
            violations.extend(q.keys().map(|&seq| (f, t, seq, expected)));
        }
        if !violations.is_empty() {
            violations.sort_unstable();
            return violations;
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
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    /// Two wires joined by their mailboxes, driven from one thread.
    fn pair() -> (Wire, Wire) {
        let (tx0, rx0) = channel();
        let (tx1, rx1) = channel();
        let tx = vec![tx0, tx1];
        (Wire::new(0, tx.clone(), rx0), Wire::new(1, tx, rx1))
    }

    fn msg(to: usize, tag: u64, seq: u64, value: f64, duplicates: u32) -> Outgoing {
        Outgoing {
            to,
            tag,
            seq,
            data: vec![value],
            duplicates,
            slots_left: 0,
            level: None,
        }
    }

    /// `Rank::recv` without the blocking: whatever is deliverable now.
    fn recv_now(w: &mut Wire, from: usize, tag: u64) -> Option<f64> {
        if let Some(d) = w.take_buffered(from, tag) {
            return Some(d[0]);
        }
        while let Ok(m) = w.rx.try_recv() {
            if let Some(d) = w.accept(m, from, tag) {
                return Some(d[0]);
            }
        }
        None
    }

    #[test]
    fn duplicates_are_dropped_and_reordered_sequences_reassembled() {
        let (mut a, mut b) = pair();
        let seqs: Vec<u64> = (0..4).map(|_| a.next_seq(1, 5)).collect();
        assert_eq!(seqs, [0, 1, 2, 3]);
        // On the wire in the order 2, 0, 3, 1 — each with two extra copies.
        for &s in &[2u64, 0, 3, 1] {
            a.transmit(msg(1, 5, s, s as f64, 2));
        }
        let got: Vec<f64> = (0..4).map(|_| recv_now(&mut b, 0, 5).unwrap()).collect();
        assert_eq!(got, [0.0, 1.0, 2.0, 3.0]);
        assert_eq!(
            recv_now(&mut b, 0, 5),
            None,
            "every copy beyond the first is gone"
        );
        assert!(b.pending.is_empty());
        // The stale copies still parked in the mailbox are not violations.
        assert!(b.drain_and_compact().is_empty());
    }

    #[test]
    fn foreign_streams_are_buffered_until_asked_for() {
        let (mut a, mut b) = pair();
        for tag in [1u64, 2] {
            let seq = a.next_seq(1, tag);
            a.transmit(msg(1, tag, seq, tag as f64, 0));
        }
        assert_eq!(recv_now(&mut b, 0, 2), Some(2.0));
        assert_eq!(b.pending[&(0, 1)].len(), 1);
        assert_eq!(recv_now(&mut b, 0, 1), Some(1.0));
        assert!(b.pending.is_empty(), "drained reorder entries are retired");
    }

    #[test]
    fn held_messages_age_per_send_slot_and_flush_in_order() {
        let (mut a, _b) = pair();
        for (seq, slots) in [(0u64, 2u32), (1, 1), (2, 5)] {
            a.hold(Outgoing {
                slots_left: slots,
                ..msg(1, 9, seq, 0.0, 0)
            });
        }
        assert!(a.release(false).is_none());
        a.age_held();
        assert_eq!(a.release(false).map(|m| m.seq), Some(1));
        assert!(a.release(false).is_none());
        assert_eq!(a.delayed.len(), 2);
        assert_eq!(a.release(true).map(|m| m.seq), Some(0));
        assert_eq!(a.release(true).map(|m| m.seq), Some(2));
        assert!(a.release(true).is_none());
    }

    #[test]
    fn drain_reports_exactly_the_undelivered_set() {
        let (a, mut b) = pair();
        // Stream (0, 6): seq 0 delivered (its copy arrives stale), seq 2
        // pulled into the reorder buffer, seq 1 and its copy left in the
        // mailbox. Stream (0, 7): one message, never asked for.
        for (tag, seq, dups) in [(6u64, 0u64, 1u32), (6, 2, 0), (7, 0, 0), (6, 1, 1)] {
            a.transmit(msg(1, tag, seq, 0.0, dups));
        }
        assert!(recv_now(&mut b, 0, 6).is_some());
        for _ in 0..2 {
            let m = b.rx.try_recv().unwrap();
            assert!(b.accept(m, 0, 6).is_none());
        }
        assert_eq!(b.pending[&(0, 6)].len(), 1);
        let before = (b.send_seq.len(), b.recv_next.len(), b.pending.len());
        assert_eq!(
            b.drain_and_compact(),
            [(0, 6, 1, 1), (0, 6, 1, 1), (0, 6, 2, 1), (0, 7, 0, 0)],
            "each undelivered copy, sorted; the delivered seq 0 and its copy are not listed"
        );
        assert_eq!(
            (b.send_seq.len(), b.recv_next.len(), b.pending.len()),
            before,
            "a violated epoch is not closed"
        );
    }

    #[test]
    fn next_epoch_traffic_survives_the_reset() {
        let (mut a, mut b) = pair();
        let seq = a.next_seq(1, 3);
        a.transmit(msg(1, 3, seq, 1.0, 1));
        assert_eq!(recv_now(&mut b, 0, 3), Some(1.0));
        // `a` clears the barrier first and resumes sending in epoch 1
        // while `b` has not drained yet.
        assert!(a.drain_and_compact().is_empty());
        let seq = a.next_seq(1, 3);
        assert_eq!(seq, 0, "sequence numbering restarts per epoch");
        a.transmit(msg(1, 3, seq, 2.0, 0));
        assert!(b.drain_and_compact().is_empty());
        assert_eq!(b.recv_next.len(), 0, "bookkeeping retired");
        assert_eq!(
            b.pending[&(0, 3)].len(),
            1,
            "epoch-1 message stashed, not dropped"
        );
        assert_eq!(recv_now(&mut b, 0, 3), Some(2.0));
    }
}
