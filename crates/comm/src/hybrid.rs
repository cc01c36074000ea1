//! Hybrid MPI x OpenMP layouts (paper §III, Figure 7).
//!
//! Under the hybrid model each MPI process owns several partitions, one
//! OpenMP thread per partition. Exchanges between partitions of the same
//! process are shared-memory copies; messages to partitions of another
//! process are packed by all threads into **one buffer per remote process**
//! and sent by the master thread alone (the strategy the paper adopts after
//! finding thread-parallel MPI "locks" and serialises).
//!
//! This module computes, from per-partition exchange plans, the *aggregated*
//! per-process message statistics — the quantity the Columbia machine model
//! needs to price a hybrid run.

use crate::exchange::Decomposition;
use crate::stats::CommStats;

/// Assignment of partitions to MPI ranks.
#[derive(Clone, Debug)]
pub struct HybridLayout {
    /// Number of MPI ranks.
    pub nranks: usize,
    /// OpenMP threads (= partitions) per rank.
    pub threads_per_rank: usize,
    /// `part_to_rank[p]` = owning MPI rank of partition `p`.
    pub part_to_rank: Vec<usize>,
}

impl HybridLayout {
    /// Block layout: partition `p` belongs to rank `p / threads_per_rank`.
    /// This matches the solver practice of keeping neighbouring partitions
    /// (which METIS numbers contiguously only loosely) on one node; block
    /// assignment over a locality-ordered partition vector is the standard
    /// choice.
    ///
    /// Uneven layouts are first-class: when `threads_per_rank` does not
    /// divide `nparts`, the **last rank absorbs the remainder** (the paper's
    /// own runs were uneven — e.g. 508 OpenMP threads on 512-CPU nodes).
    /// With fewer partitions than threads per rank, everything lands on one
    /// rank (pure OpenMP).
    ///
    /// # Panics
    /// If `threads_per_rank` or `nparts` is zero.
    pub fn block(nparts: usize, threads_per_rank: usize) -> Self {
        assert!(threads_per_rank > 0, "threads_per_rank must be positive");
        assert!(nparts > 0, "layout needs at least one partition");
        let nranks = (nparts / threads_per_rank).max(1);
        let part_to_rank = (0..nparts)
            .map(|p| (p / threads_per_rank).min(nranks - 1))
            .collect();
        HybridLayout {
            nranks,
            threads_per_rank,
            part_to_rank,
        }
    }

    /// Pure-MPI layout (one partition per rank).
    pub fn pure_mpi(nparts: usize) -> Self {
        Self::block(nparts, 1)
    }

    /// Aggregate per-partition exchange plans into per-MPI-rank send
    /// statistics: intra-rank traffic disappears (shared memory); messages
    /// from all threads of rank r to all threads of rank s merge into a
    /// single master-thread message (one per remote peer rank), with summed
    /// bytes.
    ///
    /// `bytes_per_entry` is the payload size per exchanged vertex (e.g.
    /// `6 * 8` for the six-variable RANS state).
    pub fn aggregate(&self, decomp: &Decomposition, bytes_per_entry: usize) -> Vec<CommStats> {
        let mut stats = vec![CommStats::default(); self.nranks];
        // Accumulate bytes per (rank, peer rank) pair.
        let mut bytes = vec![std::collections::BTreeMap::<usize, u64>::new(); self.nranks];
        for (p, plan) in decomp.plans.iter().enumerate() {
            let rp = self.part_to_rank[p];
            for (peer_part, idx) in plan.send_peers() {
                let rq = self.part_to_rank[peer_part];
                if rq == rp {
                    continue; // shared memory copy
                }
                *bytes[rp].entry(rq).or_insert(0) += (idx.len() * bytes_per_entry) as u64;
            }
        }
        for (r, per_peer) in bytes.into_iter().enumerate() {
            for (peer, b) in per_peer {
                // One aggregated message per peer rank.
                stats[r].record_send(peer, b as usize);
            }
        }
        stats
    }

    /// Merge *measured* per-partition send statistics into per-MPI-rank
    /// statistics under this layout.
    ///
    /// Partition peers are mapped to their owning ranks; intra-rank traffic
    /// disappears (shared-memory copies); and traffic from all threads of a
    /// rank towards the same remote rank is **summed** — sibling partitions
    /// routinely share remote peers, so overlapping peer sets must
    /// accumulate rather than overwrite (the bug this method replaces:
    /// naively inserting per-partition peer tables into the rank table
    /// silently kept only the last thread's counts). Fault-protocol
    /// counters are per sending thread and accumulate over the rank's
    /// partitions unchanged.
    ///
    /// # Panics
    /// If `per_part` does not have exactly one entry per partition.
    pub fn aggregate_measured(&self, per_part: &[CommStats]) -> Vec<CommStats> {
        assert_eq!(
            per_part.len(),
            self.part_to_rank.len(),
            "one CommStats per partition required"
        );
        let mut out = vec![CommStats::default(); self.nranks];
        for (p, s) in per_part.iter().enumerate() {
            let rp = self.part_to_rank[p];
            for (peer_part, msgs, bytes) in s.peers() {
                let rq = self.part_to_rank[peer_part];
                if rq == rp {
                    continue; // shared-memory copy
                }
                out[rp].record_sends(rq, msgs, bytes);
            }
            out[rp].absorb_faults(s.faults());
            out[rp].absorb_pool(s.pool());
        }
        out
    }

    /// Fraction of exchanged vertex entries that stay inside a rank
    /// (shared-memory) — rises with `threads_per_rank`, the reason hybrid
    /// runs need fewer, larger messages.
    pub fn shared_memory_fraction(&self, decomp: &Decomposition) -> f64 {
        let mut intra = 0usize;
        let mut total = 0usize;
        for (p, plan) in decomp.plans.iter().enumerate() {
            let rp = self.part_to_rank[p];
            for (peer_part, idx) in plan.send_peers() {
                total += idx.len();
                if self.part_to_rank[peer_part] == rp {
                    intra += idx.len();
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            intra as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::decompose;

    /// Chain of 8 vertices in 4 partitions of 2.
    fn chain4() -> Decomposition {
        let edges: Vec<(u32, u32)> = (0..7).map(|i| (i, i + 1)).collect();
        let part = vec![0u32, 0, 1, 1, 2, 2, 3, 3];
        decompose(8, &part, 4, &edges)
    }

    #[test]
    fn pure_mpi_keeps_all_messages() {
        let d = chain4();
        let layout = HybridLayout::pure_mpi(4);
        let stats = layout.aggregate(&d, 8);
        // Middle ranks talk to two peers, end ranks to one.
        assert_eq!(stats[0].total_msgs(), 1);
        assert_eq!(stats[1].total_msgs(), 2);
        assert_eq!(layout.shared_memory_fraction(&d), 0.0);
    }

    #[test]
    fn two_threads_per_rank_halve_the_peers() {
        let d = chain4();
        let layout = HybridLayout::block(4, 2);
        assert_eq!(layout.nranks, 2);
        let stats = layout.aggregate(&d, 8);
        // Only the single 1<->2 partition boundary crosses ranks now.
        assert_eq!(stats[0].total_msgs(), 1);
        assert_eq!(stats[1].total_msgs(), 1);
        assert_eq!(stats[0].total_bytes(), 8);
        assert!(layout.shared_memory_fraction(&d) > 0.5);
    }

    #[test]
    fn all_threads_one_rank_is_pure_openmp() {
        let d = chain4();
        let layout = HybridLayout::block(4, 4);
        let stats = layout.aggregate(&d, 8);
        assert_eq!(stats[0].total_msgs(), 0);
        assert_eq!(layout.shared_memory_fraction(&d), 1.0);
    }

    #[test]
    fn aggregation_merges_messages_per_peer_rank() {
        // 2-D: 4 partitions in a square, 2 ranks of 2. Rank 0 = parts {0,1},
        // rank 1 = parts {2,3}; both 0-2 and 1-3 boundaries merge into ONE
        // message rank0->rank1.
        let id = |x: usize, y: usize| (x + 4 * y) as u32;
        let mut edges = Vec::new();
        for y in 0..4 {
            for x in 0..4 {
                if x + 1 < 4 {
                    edges.push((id(x, y), id(x + 1, y)));
                }
                if y + 1 < 4 {
                    edges.push((id(x, y), id(x, y + 1)));
                }
            }
        }
        // Quadrant partitions: 0 = SW, 1 = SE, 2 = NW, 3 = NE.
        let part: Vec<u32> = (0..16)
            .map(|v| {
                let (x, y) = (v % 4, v / 4);
                ((x / 2) + 2 * (y / 2)) as u32
            })
            .collect();
        let d = decompose(16, &part, 4, &edges);
        let layout = HybridLayout::block(4, 2);
        let stats = layout.aggregate(&d, 8);
        // Each rank sends exactly one aggregated message to the other.
        assert_eq!(stats[0].total_msgs(), 1);
        assert_eq!(stats[1].total_msgs(), 1);
        assert_eq!(stats[0].degree(), 1);
        // Bytes: the full horizontal boundary (4 vertices) in one buffer.
        assert_eq!(stats[0].total_bytes(), 4 * 8);
    }

    #[test]
    fn uneven_layout_last_rank_absorbs_remainder() {
        // 5 partitions, 2 threads/rank: 2 ranks, the last takes 3 parts.
        let layout = HybridLayout::block(5, 2);
        assert_eq!(layout.nranks, 2);
        assert_eq!(layout.part_to_rank, vec![0, 0, 1, 1, 1]);
        // Fewer partitions than threads per rank degenerates to one rank.
        let tiny = HybridLayout::block(3, 4);
        assert_eq!(tiny.nranks, 1);
        assert_eq!(tiny.part_to_rank, vec![0, 0, 0]);
        // Aggregation works over the uneven mapping: a chain of 10 vertices
        // in 5 partitions of 2 has rank boundaries only at the 1|2 cut.
        let edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        let part: Vec<u32> = (0..10u32).map(|v| v / 2).collect();
        let d = decompose(10, &part, 5, &edges);
        let stats = layout.aggregate(&d, 8);
        assert_eq!(stats[0].total_msgs(), 1);
        assert_eq!(stats[1].total_msgs(), 1);
        assert!(layout.shared_memory_fraction(&d) > 0.5);
    }

    #[test]
    fn measured_aggregation_sums_overlapping_peers() {
        // 4 partitions, 2 ranks of 2. Partitions 0 and 1 (both rank 0)
        // each send to partitions 2 and 3 (both rank 1): after mapping,
        // all four streams land on the SAME peer rank and must sum.
        let layout = HybridLayout::block(4, 2);
        let mut parts = vec![CommStats::default(); 4];
        parts[0].record_send(2, 100);
        parts[0].record_send(3, 10);
        parts[0].record_send(1, 999); // intra-rank: must vanish
        parts[1].record_send(2, 1);
        parts[1].record_send(3, 1);
        parts[1].record_retries(2);
        parts[2].record_send(0, 5);
        parts[3].record_send(1, 7);
        parts[3].record_stall(4);
        let ranks = layout.aggregate_measured(&parts);
        // Rank 0: 4 inter-rank messages, summed bytes, single peer.
        assert_eq!(ranks[0].total_msgs(), 4);
        assert_eq!(ranks[0].total_bytes(), 112);
        assert_eq!(ranks[0].degree(), 1);
        assert_eq!(ranks[0].faults().retries, 2);
        // Rank 1: two messages back to rank 0, faults carried over.
        assert_eq!(ranks[1].total_msgs(), 2);
        assert_eq!(ranks[1].total_bytes(), 12);
        assert_eq!(ranks[1].faults().stalls, 1);
        assert_eq!(ranks[1].faults().stall_yields, 4);
    }

    #[test]
    #[should_panic(expected = "one CommStats per partition")]
    fn measured_aggregation_rejects_wrong_arity() {
        let layout = HybridLayout::block(4, 2);
        layout.aggregate_measured(&vec![CommStats::default(); 2]);
    }
}
