//! Regression for `HybridLayout::aggregate_measured` fed with *measured*,
//! threaded per-partition statistics whose peer sets overlap: sibling
//! partitions of one hybrid rank routinely talk to the same remote
//! partition, and their message counts must accumulate per remote rank —
//! never overwrite.

use columbia_comm::{run_world, CommStats, HybridLayout};

mod common;
use common::{on, EXECUTORS};

#[test]
fn threaded_measured_stats_aggregate_overlapping_peer_sets() {
    // Four partitions, measured on each executor: a send ring plus everyone
    // reporting to partition 0. Under a 2-threads-per-rank layout the two
    // partitions of rank 1 both target partition 0 — an overlapping peer
    // set after mapping to ranks.
    let nparts = 4;
    for exec in EXECUTORS {
        let (per_part, _): (Vec<CommStats>, _) = run_world(nparts, &on(exec), |rank| {
            let me = rank.rank();
            let n = rank.nranks();
            rank.send((me + 1) % n, 1, vec![me as f64]);
            let _ = rank.recv((me + n - 1) % n, 1);
            if me == 0 {
                for p in 1..n {
                    let _ = rank.recv(p, 2);
                }
            } else {
                rank.send(0, 2, vec![1.0, 2.0]);
            }
            rank.barrier();
            rank.take_stats()
        });

        // Partitions {0,1} -> rank 0, {2,3} -> rank 1.
        let layout = HybridLayout::block(nparts, 2);
        let agg = layout.aggregate_measured(&per_part);
        assert_eq!(agg.len(), 2);

        // Rank 0's only cross-rank send is partition 1's ring message to
        // partition 2 (1 message, 8 bytes).
        assert_eq!(agg[0].total_msgs(), 1);
        assert_eq!(agg[0].total_bytes(), 8);
        assert_eq!(agg[0].degree(), 1);

        // Rank 1 sends three cross-rank messages, all towards rank 0:
        // partition 3's ring message (8 bytes) plus both partitions' reports
        // to partition 0 (16 bytes each). A naive per-partition insert would
        // keep only one partition's counts.
        assert_eq!(agg[1].total_msgs(), 3);
        assert_eq!(agg[1].total_bytes(), 8 + 16 + 16);
        assert_eq!(agg[1].degree(), 1, "both targets map to rank 0");

        // Conservation: cross-rank messages in equal cross-rank messages out
        // of the per-partition ledgers.
        let cross: u64 = per_part
            .iter()
            .enumerate()
            .map(|(p, s)| {
                s.peers()
                    .filter(|&(q, _, _)| layout.part_to_rank[q] != layout.part_to_rank[p])
                    .map(|(_, m, _)| m)
                    .sum::<u64>()
            })
            .sum();
        let agg_total: u64 = agg.iter().map(|s| s.total_msgs()).sum();
        assert_eq!(agg_total, cross);

        // Clean run: no fault counters leak through aggregation.
        assert!(agg.iter().all(|s| s.faults().is_clean()));
    }
}
