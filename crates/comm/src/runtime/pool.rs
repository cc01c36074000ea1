//! Pool layer: recycled payload buffers, bucketed by `(peer, exact
//! capacity)` — the moral equivalent of MPI persistent requests, one set
//! of recycled buffers per neighbour.
//!
//! Pools are per peer because that makes the zero-miss steady state an
//! invariant rather than an accident: both ends of a pair perform the same
//! pair ops in the same order with symmetric sizes, so the two per-peer
//! pools evolve as mirror images (identical multisets pick identical
//! best-fit capacities, and each send is answered by a buffer of the same
//! capacity). During warm-up the pool only grows (a hit circulates back, a
//! miss adds its exact size), so by cycle two every request in the
//! sequence has a resident fit. A shared pool has no such guarantee — a
//! near-fit buffer drifts to another peer and its home request misses
//! forever. Misses allocate exactly the requested capacity, so every
//! hit/miss is a function of the logical program order, never of thread
//! timing.

use std::collections::BTreeMap;

pub(super) struct Pool {
    /// LIFO within a bucket so the hottest buffer stays cache-warm.
    pub(super) buckets: BTreeMap<(usize, usize), Vec<Vec<f64>>>,
    /// Buffer-pool policy of the launching `ExecContext`: when off, every
    /// checkout allocates fresh and returns drop.
    on: bool,
}

impl Pool {
    pub(super) fn new(on: bool) -> Self {
        Pool {
            buckets: BTreeMap::new(),
            on,
        }
    }

    /// An empty buffer of capacity at least `n > 0` for traffic with
    /// `peer`, and whether it was a pool hit: the smallest parked bucket
    /// of that peer that fits, else a fresh *exact*-capacity allocation.
    pub(super) fn checkout(&mut self, peer: usize, n: usize) -> (Vec<f64>, bool) {
        if !self.on {
            return (Vec::with_capacity(n), false);
        }
        // Exact-capacity fast path: misses allocate exact capacities and
        // steady state re-requests the same sizes, so one tree probe
        // answers almost every checkout. Buckets are never retired when
        // they drain — the empty `Vec` (and its spine) stays resident, so
        // the ping-pong refill on the next `give_back` is
        // push-into-capacity rather than a fresh bucket allocation.
        let hit = match self.buckets.get_mut(&(peer, n)) {
            Some(bucket) if !bucket.is_empty() => bucket.pop(),
            _ => self
                .buckets
                .range_mut((peer, n)..=(peer, usize::MAX))
                .find_map(|(_, bucket)| bucket.pop()),
        };
        match hit {
            Some(mut buf) => {
                buf.clear();
                (buf, true)
            }
            None => (Vec::with_capacity(n), false),
        }
    }

    /// Park `buf` (capacity > 0) in `peer`'s pool; `false` when the pool
    /// is off and the buffer was dropped instead.
    pub(super) fn give_back(&mut self, peer: usize, buf: Vec<f64>) -> bool {
        if self.on {
            self.buckets
                .entry((peer, buf.capacity()))
                .or_default()
                .push(buf);
        }
        self.on
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_fit_is_per_peer_and_off_means_fresh() {
        let mut pool = Pool::new(true);
        let (b, hit) = pool.checkout(0, 10);
        assert!(!hit && b.capacity() == 10);
        assert!(pool.give_back(0, b));
        let (b, hit) = pool.checkout(0, 4);
        assert!(hit && b.capacity() == 10, "smallest fitting bucket");
        assert!(pool.give_back(0, b));
        assert!(!pool.checkout(1, 4).1, "pools never cross peers");
        assert!(!pool.checkout(0, 11).1, "nothing parked fits");

        let mut off = Pool::new(false);
        let (b, hit) = off.checkout(0, 8);
        assert!(!hit && b.capacity() == 8);
        assert!(!off.give_back(0, b));
        assert!(!off.checkout(0, 8).1 && off.buckets.is_empty());
    }
}
