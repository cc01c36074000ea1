//! Digests shared by the bit-identity suites (`exec_context`,
//! `executor_parity`, `fabric_contention`). Their goldens were recorded
//! with exactly these byte orders, so neither function may change.

use columbia_comm::CommStats;
use columbia_rt::fnv;

/// FNV-1a over the bit patterns of a stream of doubles.
pub fn digest_f64s<'a>(vals: impl Iterator<Item = &'a f64>) -> u64 {
    vals.fold(fnv::OFFSET, |h, v| fnv::word(h, v.to_bits()))
}

/// FNV-1a over every named counter and per-peer ledger of each rank.
pub fn digest_stats(stats: &[CommStats]) -> u64 {
    let mut h = fnv::OFFSET;
    for s in stats {
        for (name, v) in s.counter_pairs() {
            h = fnv::bytes(h, name.as_bytes());
            h = fnv::word(h, v);
        }
        for (peer, msgs, bytes) in s.peers() {
            h = fnv::word(h, peer as u64);
            h = fnv::word(h, msgs);
            h = fnv::word(h, bytes);
        }
    }
    h
}
