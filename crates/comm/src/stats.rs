//! Communication instrumentation.
//!
//! The scalability figures are regenerated by replaying *measured*
//! communication patterns through the machine model; these counters are the
//! measurement. Semantics follow what the paper's analysis needs: message
//! counts (latency-bound term), byte volumes (bandwidth-bound term) and the
//! peer set (communication-graph degree).

use columbia_rt::trace::Tracer;
use std::collections::BTreeMap;

/// Send-side fault-protocol counters. All counters are recorded on the
/// sending rank from the deterministic fault schedule (never from arrival
/// timing), so two runs with the same fault seed produce bit-identical
/// values — which is what makes chaos traces comparable and replayable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Send attempts dropped by the fabric and retried.
    pub retries: u64,
    /// Messages whose whole retry budget dropped (escalated to the
    /// reliable fallback path).
    pub timeouts: u64,
    /// Extra message copies injected (receivers deduplicate them).
    pub dup_sent: u64,
    /// Messages held back in the sender's queue by an injected delay.
    pub delayed_msgs: u64,
    /// Total injected delay, in send-slots.
    pub delay_slots: u64,
    /// Barrier entries at which this rank stalled.
    pub stalls: u64,
    /// Total stall length, in scheduler yields.
    pub stall_yields: u64,
}

impl FaultCounters {
    /// True when no fault-protocol event was recorded.
    pub fn is_clean(&self) -> bool {
        *self == FaultCounters::default()
    }

    /// Accumulate another rank's (or cycle's) counters.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.dup_sent += other.dup_sent;
        self.delayed_msgs += other.delayed_msgs;
        self.delay_slots += other.delay_slots;
        self.stalls += other.stalls;
        self.stall_yields += other.stall_yields;
    }
}

/// Buffer-pool and message-coalescing counters. Pool events are recorded
/// at logical checkout/return points (never from arrival timing), and
/// payload capacities are deterministic by construction, so these counters
/// participate in trace equality exactly like the message ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Checkouts served from a recycled buffer.
    pub hits: u64,
    /// Checkouts that had to allocate (cold pool or capacity shortfall).
    pub misses: u64,
    /// Delivered or scratch buffers returned to the pool.
    pub recycled: u64,
    /// Messages that carried more than one field in one buffer.
    pub coalesced_msgs: u64,
    /// Total fields carried by those coalesced messages.
    pub coalesced_fields: u64,
}

impl PoolCounters {
    /// Accumulate another rank's (or cycle's) counters.
    pub fn merge(&mut self, other: &PoolCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.recycled += other.recycled;
        self.coalesced_msgs += other.coalesced_msgs;
        self.coalesced_fields += other.coalesced_fields;
    }
}

/// Per-rank communication statistics.
///
/// Sends are the primary ledger (recorded per peer); receives and barrier
/// entries are counted at their *delivery points* — one per logical
/// `recv()` / `barrier()` call, never per channel pull — so the counters
/// are as deterministic as the payloads themselves.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommStats {
    /// Per-peer `(messages, bytes)`.
    per_peer: BTreeMap<usize, (u64, u64)>,
    /// Messages delivered to this rank (logical deliveries, post-dedup).
    recvs: u64,
    /// Bytes delivered to this rank.
    recv_bytes: u64,
    /// Barrier entries by this rank.
    barriers: u64,
    /// Fault-protocol event counters.
    faults: FaultCounters,
    /// Buffer-pool and coalescing counters.
    pool: PoolCounters,
}

impl CommStats {
    /// Record one sent message of `bytes` to `peer`.
    pub fn record_send(&mut self, peer: usize, bytes: usize) {
        let e = self.per_peer.entry(peer).or_insert((0, 0));
        e.0 += 1;
        e.1 += bytes as u64;
    }

    /// Record `n` dropped-and-retried send attempts.
    pub fn record_retries(&mut self, n: u64) {
        self.faults.retries += n;
    }

    /// Record one retry-budget exhaustion (reliable-fallback escalation).
    pub fn record_timeout(&mut self) {
        self.faults.timeouts += 1;
    }

    /// Record `n` injected duplicate copies.
    pub fn record_dup_sent(&mut self, n: u64) {
        self.faults.dup_sent += n;
    }

    /// Record one message delayed by `slots` send-slots.
    pub fn record_delay(&mut self, slots: u64) {
        self.faults.delayed_msgs += 1;
        self.faults.delay_slots += slots;
    }

    /// Record one barrier stall of `yields` scheduler yields.
    pub fn record_stall(&mut self, yields: u64) {
        self.faults.stalls += 1;
        self.faults.stall_yields += yields;
    }

    /// Record one buffer checkout served from the pool.
    pub fn record_pool_hit(&mut self) {
        self.pool.hits += 1;
    }

    /// Record one buffer checkout that had to allocate.
    pub fn record_pool_miss(&mut self) {
        self.pool.misses += 1;
    }

    /// Record one buffer returned to the pool.
    pub fn record_pool_recycled(&mut self) {
        self.pool.recycled += 1;
    }

    /// Record one coalesced message carrying `fields` fields.
    pub fn record_coalesced(&mut self, fields: u64) {
        self.pool.coalesced_msgs += 1;
        self.pool.coalesced_fields += fields;
    }

    /// Buffer-pool and coalescing counters.
    pub fn pool(&self) -> &PoolCounters {
        &self.pool
    }

    /// Record one delivered message of `bytes` (logical delivery,
    /// duplicates already discarded).
    pub fn record_recv(&mut self, bytes: usize) {
        self.recvs += 1;
        self.recv_bytes += bytes as u64;
    }

    /// Record one barrier entry.
    pub fn record_barrier(&mut self) {
        self.barriers += 1;
    }

    /// Fault-protocol counters.
    pub fn faults(&self) -> &FaultCounters {
        &self.faults
    }

    /// Total messages sent.
    pub fn total_msgs(&self) -> u64 {
        self.per_peer.values().map(|&(m, _)| m).sum()
    }

    /// Total bytes sent.
    pub fn total_bytes(&self) -> u64 {
        self.per_peer.values().map(|&(_, b)| b).sum()
    }

    /// Total messages delivered to this rank.
    pub fn total_recvs(&self) -> u64 {
        self.recvs
    }

    /// Total bytes delivered to this rank.
    pub fn total_recv_bytes(&self) -> u64 {
        self.recv_bytes
    }

    /// Barrier entries by this rank.
    pub fn barriers(&self) -> u64 {
        self.barriers
    }

    /// Number of distinct peers (communication-graph degree).
    pub fn degree(&self) -> usize {
        self.per_peer.len()
    }

    /// Iterate `(peer, messages, bytes)`.
    pub fn peers(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        self.per_peer.iter().map(|(&p, &(m, b))| (p, m, b))
    }

    /// Merge another rank's stats (for world totals, or accumulating over
    /// cycles). Overlapping peer sets are
    /// summed per peer; fault counters accumulate.
    pub fn merge(&mut self, other: &CommStats) {
        for (&p, &(m, b)) in &other.per_peer {
            let e = self.per_peer.entry(p).or_insert((0, 0));
            e.0 += m;
            e.1 += b;
        }
        self.recvs += other.recvs;
        self.recv_bytes += other.recv_bytes;
        self.barriers += other.barriers;
        self.faults.merge(&other.faults);
        self.pool.merge(&other.pool);
    }

    /// The trace-counter view of this ledger: every metric as a named
    /// monotone counter, in a fixed order. This is how `CommStats` streams
    /// are absorbed into `columbia_rt::trace` spans.
    pub fn counter_pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("comm.sends", self.total_msgs()),
            ("comm.send_bytes", self.total_bytes()),
            ("comm.recvs", self.recvs),
            ("comm.recv_bytes", self.recv_bytes),
            ("comm.barriers", self.barriers),
            ("comm.degree", self.degree() as u64),
            ("fault.retries", self.faults.retries),
            ("fault.timeouts", self.faults.timeouts),
            ("fault.dup_sent", self.faults.dup_sent),
            ("fault.delayed_msgs", self.faults.delayed_msgs),
            ("fault.delay_slots", self.faults.delay_slots),
            ("fault.stalls", self.faults.stalls),
            ("fault.stall_yields", self.faults.stall_yields),
            ("pool.hits", self.pool.hits),
            ("pool.misses", self.pool.misses),
            ("pool.recycled", self.pool.recycled),
            ("pool.coalesced_msgs", self.pool.coalesced_msgs),
            ("pool.coalesced_fields", self.pool.coalesced_fields),
        ]
    }

    /// Add every non-zero counter onto the tracer's innermost open span.
    pub fn record_to(&self, tracer: &mut Tracer) {
        for (name, value) in self.counter_pairs() {
            tracer.add(name, value);
        }
    }
}

/// Aggregate per-rank stats across a whole world into summary numbers the
/// machine model consumes.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorldCommSummary {
    /// Max over ranks of messages sent.
    pub max_msgs_per_rank: u64,
    /// Max over ranks of bytes sent.
    pub max_bytes_per_rank: u64,
    /// Max communication degree.
    pub max_degree: usize,
    /// Total bytes over all ranks.
    pub total_bytes: u64,
    /// World-total fault-protocol counters.
    pub faults: FaultCounters,
}

impl WorldCommSummary {
    /// Summarise a world's per-rank stats.
    pub fn from_ranks(stats: &[CommStats]) -> Self {
        let mut faults = FaultCounters::default();
        for s in stats {
            faults.merge(s.faults());
        }
        WorldCommSummary {
            max_msgs_per_rank: stats.iter().map(|s| s.total_msgs()).max().unwrap_or(0),
            max_bytes_per_rank: stats.iter().map(|s| s.total_bytes()).max().unwrap_or(0),
            max_degree: stats.iter().map(|s| s.degree()).max().unwrap_or(0),
            total_bytes: stats.iter().map(|s| s.total_bytes()).sum(),
            faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut s = CommStats::default();
        s.record_send(1, 100);
        s.record_send(1, 50);
        s.record_send(3, 10);
        assert_eq!(s.total_msgs(), 3);
        assert_eq!(s.total_bytes(), 160);
        assert_eq!(s.degree(), 2);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CommStats::default();
        a.record_send(0, 8);
        let mut b = CommStats::default();
        b.record_send(0, 8);
        b.record_send(2, 16);
        a.merge(&b);
        assert_eq!(a.total_msgs(), 3);
        assert_eq!(a.total_bytes(), 32);
        assert_eq!(a.degree(), 2);
    }

    #[test]
    fn world_summary_takes_maxima() {
        let mut a = CommStats::default();
        a.record_send(1, 100);
        let mut b = CommStats::default();
        b.record_send(0, 10);
        b.record_send(2, 10);
        let sum = WorldCommSummary::from_ranks(&[a, b]);
        assert_eq!(sum.max_msgs_per_rank, 2);
        assert_eq!(sum.max_bytes_per_rank, 100);
        assert_eq!(sum.max_degree, 2);
        assert_eq!(sum.total_bytes, 120);
    }

    #[test]
    fn empty_world_summary_is_zero() {
        let s = WorldCommSummary::from_ranks(&[]);
        assert_eq!(s.max_msgs_per_rank, 0);
        assert_eq!(s.total_bytes, 0);
        assert!(s.faults.is_clean());
    }

    #[test]
    fn fault_counters_accumulate_and_merge() {
        let mut a = CommStats::default();
        a.record_retries(3);
        a.record_timeout();
        a.record_dup_sent(2);
        a.record_delay(4);
        a.record_stall(8);
        let mut b = CommStats::default();
        b.record_retries(1);
        b.record_delay(2);
        a.merge(&b);
        let f = a.faults();
        assert_eq!(f.retries, 4);
        assert_eq!(f.timeouts, 1);
        assert_eq!(f.dup_sent, 2);
        assert_eq!(f.delayed_msgs, 2);
        assert_eq!(f.delay_slots, 6);
        assert_eq!(f.stalls, 1);
        assert_eq!(f.stall_yields, 8);
        assert!(!f.is_clean());
        assert!(CommStats::default().faults().is_clean());
    }

    #[test]
    fn recv_and_barrier_counters_accumulate() {
        let mut a = CommStats::default();
        a.record_recv(80);
        a.record_recv(16);
        a.record_barrier();
        assert_eq!(a.total_recvs(), 2);
        assert_eq!(a.total_recv_bytes(), 96);
        assert_eq!(a.barriers(), 1);
        let mut b = CommStats::default();
        b.record_recv(8);
        b.record_barrier();
        a.merge(&b);
        assert_eq!(a.total_recvs(), 3);
        assert_eq!(a.total_recv_bytes(), 104);
        assert_eq!(a.barriers(), 2);
        // Recv events participate in trace equality like everything else.
        assert_ne!(a, b);
    }

    #[test]
    fn counter_pairs_cover_the_ledger() {
        let mut s = CommStats::default();
        s.record_send(1, 8);
        s.record_recv(8);
        s.record_barrier();
        s.record_retries(2);
        let pairs = s.counter_pairs();
        let get = |n: &str| pairs.iter().find(|(k, _)| *k == n).unwrap().1;
        assert_eq!(get("comm.sends"), 1);
        assert_eq!(get("comm.send_bytes"), 8);
        assert_eq!(get("comm.recvs"), 1);
        assert_eq!(get("comm.barriers"), 1);
        assert_eq!(get("fault.retries"), 2);

        let mut t = Tracer::logical();
        t.begin(columbia_rt::trace::SpanKey::new("x"));
        s.record_to(&mut t);
        t.end();
        let trace = t.finish();
        assert_eq!(trace.counter_total("comm.sends"), 1);
        assert_eq!(trace.counter_total("fault.retries"), 2);
        // Zero counters are elided entirely.
        assert_eq!(
            trace.find("x").unwrap().counters.get("fault.timeouts"),
            None
        );
    }

    #[test]
    fn pool_counters_merge_absorb_and_trace() {
        let mut a = CommStats::default();
        a.record_pool_miss();
        a.record_pool_hit();
        a.record_pool_hit();
        a.record_pool_recycled();
        a.record_coalesced(2);
        let mut b = CommStats::default();
        b.record_pool_hit();
        b.record_coalesced(3);
        a.merge(&b);
        assert_eq!(a.pool().hits, 3);
        assert_eq!(a.pool().misses, 1);
        assert_eq!(a.pool().recycled, 1);
        assert_eq!(a.pool().coalesced_msgs, 2);
        assert_eq!(a.pool().coalesced_fields, 5);
        // Pool counters participate in equality and the counter view.
        assert_eq!(a.total_msgs(), 0);
        assert_ne!(a, CommStats::default());
        let pairs = a.counter_pairs();
        let get = |n: &str| pairs.iter().find(|(k, _)| *k == n).unwrap().1;
        assert_eq!(get("pool.hits"), 3);
        assert_eq!(get("pool.coalesced_fields"), 5);
    }

    #[test]
    fn fault_counters_flow_into_world_summary_and_equality() {
        let mut a = CommStats::default();
        a.record_send(1, 8);
        let mut b = a.clone();
        assert_eq!(a, b);
        b.record_retries(1);
        // Two traces differing only in fault events must not compare equal.
        assert_ne!(a, b, "fault counters must participate in trace equality");
        let sum = WorldCommSummary::from_ranks(&[a, b]);
        assert_eq!(sum.faults.retries, 1);
    }
}
