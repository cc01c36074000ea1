//! Domain decomposition and ghost exchange (paper Figure 6(a)).
//!
//! For each partition, edges straddling two partitions are assigned to one
//! side, and a **ghost vertex** mirrors the off-partition endpoint. During a
//! residual evaluation fluxes accumulate at ghosts and are sent back to be
//! **added** at the owning vertex ([`ExchangePlan::exchange_add_field`]);
//! updated state is then **copied** owner → ghost
//! ([`ExchangePlan::exchange_copy_field`]). All values destined for one
//! peer travel in a single packed buffer.
//!
//! The exchanges are allocation-free in the steady state: each plan lazily
//! compiles a [`PackedSchedule`] — contiguous pack/unpack index tables with
//! per-peer ranges — and payloads are checked out of the rank's buffer pool
//! with a capacity request of `width * max(send entries, recv entries)` per
//! peer, so both directions of a peer pair ping-pong the same buffer and
//! the pool reaches a zero-miss fixed point after one warm-up cycle.
//! [`ExchangePlan::exchange_add2_field`] coalesces two fields into one
//! message per peer (the paper's "fewer larger messages").
//!
//! Fields are addressed through the [`HaloField`] trait, so the same
//! compiled schedule packs AoS block slices (`[[f64; N]]`), scalar planes
//! (`[f64]`), and plane-resident [`SoaStates`] storage without an AoS
//! round-trip: the wire format (entry-major, `WIDTH` values per exchanged
//! vertex in component order) and the pooled-buffer sizing are identical
//! for every layout, so payload bytes — and therefore digests — do not
//! depend on how the field is stored.

use crate::runtime::Rank;
use columbia_linalg::SoaStates;
use std::collections::HashMap;
use std::sync::OnceLock;

/// A field the packed halo exchange can pack and unpack entry by entry,
/// independent of its memory layout. `WIDTH` values travel per exchanged
/// vertex, in component order; implementations must read and write those
/// values in exactly that order so the wire bytes match the historical
/// AoS path bit for bit.
pub trait HaloField {
    /// Values per exchanged entry.
    const WIDTH: usize;
    /// Append entry `i`'s `WIDTH` values to `buf`, in component order.
    fn pack_entry(&self, i: usize, buf: &mut Vec<f64>);
    /// Overwrite entry `i` from `vals` (`WIDTH` values, component order).
    fn set_entry(&mut self, i: usize, vals: &[f64]);
    /// Accumulate `vals` into entry `i`, component by component in order.
    fn add_entry(&mut self, i: usize, vals: &[f64]);
    /// Zero entry `i` (ghost reset after an accumulation pack).
    fn zero_entry(&mut self, i: usize);
}

impl<const N: usize> HaloField for [[f64; N]] {
    const WIDTH: usize = N;

    #[inline]
    fn pack_entry(&self, i: usize, buf: &mut Vec<f64>) {
        buf.extend_from_slice(&self[i]);
    }

    #[inline]
    fn set_entry(&mut self, i: usize, vals: &[f64]) {
        self[i].copy_from_slice(vals);
    }

    #[inline]
    fn add_entry(&mut self, i: usize, vals: &[f64]) {
        let row = &mut self[i];
        for c in 0..N {
            row[c] += vals[c];
        }
    }

    #[inline]
    fn zero_entry(&mut self, i: usize) {
        self[i] = [0.0; N];
    }
}

/// A bare scalar plane (one value per vertex). Wire-compatible with the
/// old `[[f64; 1]]` staging buffers, so migrating a `Vec<[f64; 1]>`
/// round-trip to a direct `Vec<f64>` exchange changes no payload byte.
impl HaloField for [f64] {
    const WIDTH: usize = 1;

    #[inline]
    fn pack_entry(&self, i: usize, buf: &mut Vec<f64>) {
        buf.push(self[i]);
    }

    #[inline]
    fn set_entry(&mut self, i: usize, vals: &[f64]) {
        self[i] = vals[0];
    }

    #[inline]
    fn add_entry(&mut self, i: usize, vals: &[f64]) {
        self[i] += vals[0];
    }

    #[inline]
    fn zero_entry(&mut self, i: usize) {
        self[i] = 0.0;
    }
}

/// Plane-resident state: entries gather and scatter across the component
/// planes with stride `len`, producing the same component-ordered wire
/// values as the AoS impl — no transpose buffer on the hot path.
impl<const N: usize> HaloField for SoaStates<N> {
    const WIDTH: usize = N;

    #[inline]
    fn pack_entry(&self, i: usize, buf: &mut Vec<f64>) {
        for k in 0..N {
            buf.push(self.at(k, i));
        }
    }

    #[inline]
    fn set_entry(&mut self, i: usize, vals: &[f64]) {
        for (k, v) in vals.iter().enumerate() {
            *self.at_mut(k, i) = *v;
        }
    }

    #[inline]
    fn add_entry(&mut self, i: usize, vals: &[f64]) {
        for (k, v) in vals.iter().enumerate() {
            *self.at_mut(k, i) += *v;
        }
    }

    #[inline]
    fn zero_entry(&mut self, i: usize) {
        for k in 0..N {
            *self.at_mut(k, i) = 0.0;
        }
    }
}

/// Packed ghost-exchange schedule for one partition.
pub struct ExchangePlan {
    /// Per peer: `(peer, owned local indices whose values this partition
    /// sends)`. Sorted by peer; index lists sorted by global id on both
    /// sides so buffers line up.
    pub sends: Vec<(usize, Vec<u32>)>,
    /// Per peer: `(peer, ghost local indices this partition receives into)`.
    pub recvs: Vec<(usize, Vec<u32>)>,
    /// Lazily compiled flat pack/unpack tables (built once per plan; a
    /// clone recompiles on first use).
    compiled: OnceLock<PackedSchedule>,
}

impl Clone for ExchangePlan {
    fn clone(&self) -> Self {
        ExchangePlan {
            sends: self.sends.clone(),
            recvs: self.recvs.clone(),
            compiled: OnceLock::new(),
        }
    }
}

impl Default for ExchangePlan {
    fn default() -> Self {
        ExchangePlan {
            sends: Vec::new(),
            recvs: Vec::new(),
            compiled: OnceLock::new(),
        }
    }
}

impl std::fmt::Debug for ExchangePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExchangePlan")
            .field("sends", &self.sends)
            .field("recvs", &self.recvs)
            .finish()
    }
}

/// One peer's contiguous slice of a [`PackedSchedule`] direction.
#[derive(Clone, Copy, Debug)]
pub struct PeerRange {
    /// Peer partition.
    pub peer: usize,
    /// Start of this peer's indices in the flat table.
    pub start: u32,
    /// One past the end of this peer's indices.
    pub end: u32,
    /// `max(send entries, recv entries)` for this peer: the pooled
    /// payload request is `width * max_n`, identical in both directions,
    /// so one recycled buffer serves the whole peer pair.
    pub max_n: u32,
}

/// Flat pack/unpack tables compiled once from an [`ExchangePlan`]: the
/// per-peer index lists flattened into two contiguous arrays with
/// `(peer, range)` descriptors, walked without pointer chasing on every
/// exchange.
#[derive(Clone, Debug, Default)]
pub struct PackedSchedule {
    /// Per send peer, in plan order.
    pub send: Vec<PeerRange>,
    /// All send indices, peers back to back.
    pub send_idx: Vec<u32>,
    /// Per recv peer, in plan order.
    pub recv: Vec<PeerRange>,
    /// All recv indices, peers back to back.
    pub recv_idx: Vec<u32>,
}

impl PackedSchedule {
    fn compile(sends: &[(usize, Vec<u32>)], recvs: &[(usize, Vec<u32>)]) -> Self {
        let mut entries: HashMap<usize, u32> = HashMap::new();
        for (peer, idx) in sends.iter().chain(recvs) {
            let e = entries.entry(*peer).or_insert(0);
            *e = (*e).max(idx.len() as u32);
        }
        let flatten = |lists: &[(usize, Vec<u32>)]| {
            let mut ranges = Vec::with_capacity(lists.len());
            let mut flat = Vec::with_capacity(lists.iter().map(|(_, v)| v.len()).sum());
            for (peer, idx) in lists {
                let start = flat.len() as u32;
                flat.extend_from_slice(idx);
                ranges.push(PeerRange {
                    peer: *peer,
                    start,
                    end: flat.len() as u32,
                    max_n: entries[peer],
                });
            }
            (ranges, flat)
        };
        let (send, send_idx) = flatten(sends);
        let (recv, recv_idx) = flatten(recvs);
        PackedSchedule {
            send,
            send_idx,
            recv,
            recv_idx,
        }
    }
}

/// Diagnose a halo-exchange framing error with everything a chaos-run
/// triage needs: the receiving rank, the sending peer, the tag, and how
/// the element counts disagree.
#[inline]
fn check_len(rank: &Rank, peer: usize, tag: u64, entries: usize, width: usize, got: usize) {
    let expected = entries * width;
    assert!(
        got == expected,
        "rank {}: exchange buffer size mismatch from peer {peer} on tag {tag}: \
         expected {entries} entries x {width} values = {expected} elements, got {got}",
        rank.rank(),
    );
}

impl ExchangePlan {
    /// The flat pack/unpack tables, compiled on first use.
    pub fn compiled(&self) -> &PackedSchedule {
        self.compiled
            .get_or_init(|| PackedSchedule::compile(&self.sends, &self.recvs))
    }

    /// Copy owner values out to ghosts: pack `data[send_idx]`, send one
    /// buffer per peer, unpack into `data[recv_idx]` (overwrite).
    /// Payloads come from (and return to) the rank's buffer pool. Wire
    /// bytes, peer order, and pooled buffer sizing are identical for every
    /// [`HaloField`] layout.
    pub fn exchange_copy_field<F: HaloField + ?Sized>(
        &self,
        rank: &mut Rank,
        tag: u64,
        data: &mut F,
    ) {
        let w = F::WIDTH;
        let sched = self.compiled();
        for pr in &sched.send {
            let mut buf = rank.buffer(pr.peer, w * pr.max_n as usize);
            for &i in &sched.send_idx[pr.start as usize..pr.end as usize] {
                data.pack_entry(i as usize, &mut buf);
            }
            rank.send(pr.peer, tag, buf);
        }
        for pr in &sched.recv {
            let idx = &sched.recv_idx[pr.start as usize..pr.end as usize];
            let buf = rank.recv(pr.peer, tag);
            check_len(rank, pr.peer, tag, idx.len(), w, buf.len());
            for (k, &i) in idx.iter().enumerate() {
                data.set_entry(i as usize, &buf[k * w..(k + 1) * w]);
            }
            rank.recycle(pr.peer, buf);
        }
    }

    /// Accumulate ghost contributions at owners: pack `data[recv_idx]`
    /// (the ghosts), send to the owner, **add** into `data[send_idx]`.
    /// The ghosts are zeroed after packing so repeated accumulation passes
    /// stay consistent. Payloads come from (and return to) the rank's
    /// buffer pool.
    pub fn exchange_add_field<F: HaloField + ?Sized>(
        &self,
        rank: &mut Rank,
        tag: u64,
        data: &mut F,
    ) {
        let w = F::WIDTH;
        let sched = self.compiled();
        for pr in &sched.recv {
            let mut buf = rank.buffer(pr.peer, w * pr.max_n as usize);
            for &i in &sched.recv_idx[pr.start as usize..pr.end as usize] {
                data.pack_entry(i as usize, &mut buf);
                data.zero_entry(i as usize);
            }
            rank.send(pr.peer, tag, buf);
        }
        for pr in &sched.send {
            let idx = &sched.send_idx[pr.start as usize..pr.end as usize];
            let buf = rank.recv(pr.peer, tag);
            check_len(rank, pr.peer, tag, idx.len(), w, buf.len());
            for (k, &i) in idx.iter().enumerate() {
                data.add_entry(i as usize, &buf[k * w..(k + 1) * w]);
            }
            rank.recycle(pr.peer, buf);
        }
    }

    /// Coalesced two-field accumulation: one message per peer carries
    /// field `a` (width `A`) and field `b` (width `B`) interleaved per
    /// entry — `A + B` values per exchanged vertex — halving the
    /// per-sweep message count relative to two back-to-back
    /// [`ExchangePlan::exchange_add_field`] calls. Peers are walked in the
    /// same sorted order as the per-field path, so per-slot addition order
    /// — and therefore every bit of the result — is identical. The two
    /// fields may use different [`HaloField`] layouts (e.g. plane-resident
    /// state riding with an AoS scratch block) — the interleaved wire
    /// format is unchanged.
    pub fn exchange_add2_field<FA: HaloField + ?Sized, FB: HaloField + ?Sized>(
        &self,
        rank: &mut Rank,
        tag: u64,
        a: &mut FA,
        b: &mut FB,
    ) {
        let (wa, wb) = (FA::WIDTH, FB::WIDTH);
        let w = wa + wb;
        let sched = self.compiled();
        for pr in &sched.recv {
            let mut buf = rank.buffer(pr.peer, w * pr.max_n as usize);
            for &i in &sched.recv_idx[pr.start as usize..pr.end as usize] {
                a.pack_entry(i as usize, &mut buf);
                b.pack_entry(i as usize, &mut buf);
                a.zero_entry(i as usize);
                b.zero_entry(i as usize);
            }
            rank.send(pr.peer, tag, buf);
            rank.record_coalesced(2);
        }
        for pr in &sched.send {
            let idx = &sched.send_idx[pr.start as usize..pr.end as usize];
            let buf = rank.recv(pr.peer, tag);
            check_len(rank, pr.peer, tag, idx.len(), w, buf.len());
            for (k, &i) in idx.iter().enumerate() {
                let base = k * w;
                a.add_entry(i as usize, &buf[base..base + wa]);
                b.add_entry(i as usize, &buf[base + wa..base + w]);
            }
            rank.recycle(pr.peer, buf);
        }
    }

    /// The seed (pre-pool) copy path: fresh allocation per peer, no pool
    /// interaction. Kept as the reference the pooled-equivalence property
    /// suite and the exchange bench compare against.
    pub fn exchange_copy_ref<const N: usize>(
        &self,
        rank: &mut Rank,
        tag: u64,
        data: &mut [[f64; N]],
    ) {
        for (peer, idx) in &self.sends {
            let mut buf = Vec::with_capacity(idx.len() * N);
            for &i in idx {
                buf.extend_from_slice(&data[i as usize]);
            }
            rank.send(*peer, tag, buf);
        }
        for (peer, idx) in &self.recvs {
            let buf = rank.recv(*peer, tag);
            check_len(rank, *peer, tag, idx.len(), N, buf.len());
            for (k, &i) in idx.iter().enumerate() {
                let row = &mut data[i as usize];
                row.copy_from_slice(&buf[k * N..(k + 1) * N]);
            }
        }
    }

    /// The seed (pre-pool) accumulate path; see
    /// [`ExchangePlan::exchange_copy_ref`].
    pub fn exchange_add_ref<const N: usize>(
        &self,
        rank: &mut Rank,
        tag: u64,
        data: &mut [[f64; N]],
    ) {
        for (peer, idx) in &self.recvs {
            let mut buf = Vec::with_capacity(idx.len() * N);
            for &i in idx {
                buf.extend_from_slice(&data[i as usize]);
                data[i as usize] = [0.0; N];
            }
            rank.send(*peer, tag, buf);
        }
        for (peer, idx) in &self.sends {
            let buf = rank.recv(*peer, tag);
            check_len(rank, *peer, tag, idx.len(), N, buf.len());
            for (k, &i) in idx.iter().enumerate() {
                let row = &mut data[i as usize];
                for c in 0..N {
                    row[c] += buf[k * N + c];
                }
            }
        }
    }

    /// Number of peer partitions.
    pub fn degree(&self) -> usize {
        self.sends.len().max(self.recvs.len())
    }
}

/// A full domain decomposition over `nparts` partitions.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// Per partition: global ids, owned vertices first, then ghosts
    /// (sorted by global id within each class).
    pub local_to_global: Vec<Vec<u32>>,
    /// Per partition: number of owned vertices (prefix of `local_to_global`).
    pub n_owned: Vec<usize>,
    /// Per partition: ghost-exchange plan.
    pub plans: Vec<ExchangePlan>,
    /// The partition vector this decomposition was built from.
    pub part: Vec<u32>,
}

impl Decomposition {
    /// Number of partitions.
    pub fn nparts(&self) -> usize {
        self.local_to_global.len()
    }

    /// Local index of global vertex `g` in partition `p` (linear scan of the
    /// ghost section is avoided by binary search in each sorted class).
    pub fn local_index(&self, p: usize, g: u32) -> Option<u32> {
        let l2g = &self.local_to_global[p];
        let no = self.n_owned[p];
        if let Ok(i) = l2g[..no].binary_search(&g) {
            return Some(i as u32);
        }
        l2g[no..].binary_search(&g).ok().map(|i| (no + i) as u32)
    }
}

/// Build a decomposition from a partition vector and the global edge list.
///
/// Ghosts of partition `p` are all off-partition endpoints of edges with one
/// endpoint in `p`. Send/recv lists are ordered by global vertex id, so both
/// sides of every peer pair agree on buffer layout without negotiation.
pub fn decompose(
    nvertices: usize,
    part: &[u32],
    nparts: usize,
    edges: &[(u32, u32)],
) -> Decomposition {
    assert_eq!(part.len(), nvertices);
    // Owned lists.
    let mut owned: Vec<Vec<u32>> = vec![Vec::new(); nparts];
    for v in 0..nvertices as u32 {
        owned[part[v as usize] as usize].push(v);
    }
    // Ghost sets per partition (global ids, deduplicated via sort).
    let mut ghosts: Vec<Vec<u32>> = vec![Vec::new(); nparts];
    for &(a, b) in edges {
        let pa = part[a as usize] as usize;
        let pb = part[b as usize] as usize;
        if pa != pb {
            ghosts[pa].push(b);
            ghosts[pb].push(a);
        }
    }
    for g in ghosts.iter_mut() {
        g.sort_unstable();
        g.dedup();
    }

    // Local numbering: owned (sorted) then ghosts (sorted).
    let mut local_to_global = Vec::with_capacity(nparts);
    let mut n_owned = Vec::with_capacity(nparts);
    for p in 0..nparts {
        let mut l2g = owned[p].clone(); // already ascending
        n_owned.push(l2g.len());
        l2g.extend_from_slice(&ghosts[p]);
        local_to_global.push(l2g);
    }

    // Exchange plans: partition p receives ghost g from part[g]; the owner
    // sends it. Group by peer.
    let mut plans: Vec<ExchangePlan> = vec![ExchangePlan::default(); nparts];
    // For quick local lookup build per-part hash of global→local.
    let g2l: Vec<HashMap<u32, u32>> = local_to_global
        .iter()
        .map(|l2g| {
            l2g.iter()
                .enumerate()
                .map(|(i, &g)| (g, i as u32))
                .collect()
        })
        .collect();
    for p in 0..nparts {
        // recvs: my ghosts grouped by owner, in global-id order.
        let mut by_owner: HashMap<usize, (Vec<u32>, Vec<u32>)> = HashMap::new();
        for &g in &ghosts[p] {
            let owner = part[g as usize] as usize;
            let e = by_owner.entry(owner).or_default();
            e.0.push(g2l[p][&g]); // my ghost local index
            e.1.push(g2l[owner][&g]); // owner's local index (owned section)
        }
        let mut owners: Vec<usize> = by_owner.keys().copied().collect();
        owners.sort_unstable();
        for o in owners {
            let (recv_idx, send_idx) = by_owner.remove(&o).unwrap();
            plans[p].recvs.push((o, recv_idx));
            plans[o].sends.push((p, send_idx));
        }
    }
    // Deterministic peer order.
    for plan in plans.iter_mut() {
        plan.sends.sort_by_key(|(p, _)| *p);
        plan.recvs.sort_by_key(|(p, _)| *p);
    }

    Decomposition {
        local_to_global,
        n_owned,
        plans,
        part: part.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_ranks;

    /// 1-D chain of 6 vertices split into 3 partitions of 2.
    fn chain_decomp() -> Decomposition {
        let edges: Vec<(u32, u32)> = (0..5).map(|i| (i, i + 1)).collect();
        let part = vec![0u32, 0, 1, 1, 2, 2];
        decompose(6, &part, 3, &edges)
    }

    #[test]
    fn ghosts_and_owned_counts() {
        let d = chain_decomp();
        assert_eq!(d.n_owned, vec![2, 2, 2]);
        // Middle partition sees one ghost on each side.
        assert_eq!(d.local_to_global[1], vec![2, 3, 1, 4]);
        assert_eq!(d.local_to_global[0], vec![0, 1, 2]);
    }

    #[test]
    fn plans_are_symmetric() {
        let d = chain_decomp();
        // Partition 0 sends vertex 1 to partition 1 and receives vertex 2.
        let p0 = &d.plans[0];
        assert_eq!(p0.sends.len(), 1);
        assert_eq!(p0.sends[0].0, 1);
        assert_eq!(p0.recvs[0].0, 1);
        let p1 = &d.plans[1];
        assert_eq!(p1.degree(), 2);
    }

    #[test]
    fn exchange_copy_fills_ghosts_with_owner_values() {
        let d = chain_decomp();
        let results = run_ranks(3, |rank| {
            let p = rank.rank();
            let l2g = &d.local_to_global[p];
            // State = global id at owned vertices, NaN at ghosts.
            let mut data: Vec<[f64; 2]> = l2g
                .iter()
                .enumerate()
                .map(|(i, &g)| {
                    if i < d.n_owned[p] {
                        [g as f64, (g * 10) as f64]
                    } else {
                        [f64::NAN, f64::NAN]
                    }
                })
                .collect();
            d.plans[p].exchange_copy_field(rank, 1, &mut data[..]);
            data
        });
        for (p, data) in results.iter().enumerate() {
            for (i, &g) in chain_decomp().local_to_global[p].iter().enumerate() {
                assert_eq!(data[i][0], g as f64, "part {p} slot {i}");
                assert_eq!(data[i][1], (g * 10) as f64);
            }
        }
    }

    #[test]
    fn exchange_add_accumulates_at_owner_and_zeroes_ghosts() {
        let d = chain_decomp();
        let results = run_ranks(3, |rank| {
            let p = rank.rank();
            let n = d.local_to_global[p].len();
            // Every local slot (owned and ghost) holds 1.0.
            let mut data = vec![[1.0f64; 1]; n];
            d.plans[p].exchange_add_field(rank, 2, &mut data[..]);
            data
        });
        // Global vertices 1, 2, 3, 4 are each ghosted by exactly one other
        // partition, so their owners accumulate 1 + 1 = 2.
        let expect = |g: u32| if (1..=4).contains(&g) { 2.0 } else { 1.0 };
        let d = chain_decomp();
        for (p, res) in results.iter().enumerate() {
            for (i, &g) in d.local_to_global[p].iter().enumerate() {
                if i < d.n_owned[p] {
                    assert_eq!(res[i][0], expect(g), "owner value at {g}");
                } else {
                    assert_eq!(res[i][0], 0.0, "ghost not zeroed at {g}");
                }
            }
        }
    }

    #[test]
    fn local_index_lookup() {
        let d = chain_decomp();
        assert_eq!(d.local_index(1, 2), Some(0));
        assert_eq!(d.local_index(1, 4), Some(3));
        assert_eq!(d.local_index(1, 5), None);
    }

    mod proptests {
        use super::*;

        columbia_rt::props! {
            config: columbia_rt::props::Config::with_cases(16);
            /// Conservation: exchange_add never creates or destroys mass —
            /// the global sum over owned slots after the exchange equals
            /// the global sum over all slots before it.
            fn prop_exchange_add_conserves_sum(
                n in 4usize..40,
                nparts in 2usize..5,
                seed in columbia_rt::props::array::<_, 16>(0.0f64..10.0),
            ) {
                let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
                let part: Vec<u32> = (0..n).map(|v| ((v * nparts) / n) as u32).collect();
                let d = decompose(n, &part, nparts, &edges);
                let d2 = d.clone();
                // Initial values: owned slot for global g holds seed[g%16];
                // ghosts hold a copy too (simulating accumulated partials).
                let total_before: f64 = (0..nparts)
                    .flat_map(|p| d.local_to_global[p].iter().map(|&g| seed[g as usize % 16]))
                    .sum();
                let results = run_ranks(nparts, move |rank| {
                    let p = rank.rank();
                    let mut data: Vec<[f64; 1]> = d2.local_to_global[p]
                        .iter()
                        .map(|&g| [seed[g as usize % 16]])
                        .collect();
                    d2.plans[p].exchange_add_field(rank, 5, &mut data[..]);
                    // Owned sums only; ghosts are zeroed by the exchange.
                    data[..d2.n_owned[p]].iter().map(|x| x[0]).sum::<f64>()
                        + data[d2.n_owned[p]..].iter().map(|x| x[0]).sum::<f64>()
                });
                let total_after: f64 = results.iter().sum();
                assert!((total_after - total_before).abs() < 1e-9 * (1.0 + total_before.abs()));
            }

            /// exchange_copy is idempotent: a second copy changes nothing.
            fn prop_exchange_copy_idempotent(n in 4usize..30, nparts in 2usize..4) {
                let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
                let part: Vec<u32> = (0..n).map(|v| ((v * nparts) / n) as u32).collect();
                let d = decompose(n, &part, nparts, &edges);
                let results = run_ranks(nparts, |rank| {
                    let p = rank.rank();
                    let mut data: Vec<[f64; 2]> = d.local_to_global[p]
                        .iter()
                        .map(|&g| [g as f64, -(g as f64)])
                        .collect();
                    d.plans[p].exchange_copy_field(rank, 6, &mut data[..]);
                    let snap = data.clone();
                    d.plans[p].exchange_copy_field(rank, 7, &mut data[..]);
                    snap == data
                });
                assert!(results.iter().all(|&ok| ok));
            }
        }
    }

    #[test]
    fn decompose_2d_grid_parallel_sum_matches_serial() {
        // Residual-style check on a 2-D grid: each vertex accumulates the sum
        // of its neighbours' global ids; parallel with ghosts must equal
        // serial.
        let (nx, ny) = (8, 6);
        let id = |x: usize, y: usize| (x + nx * y) as u32;
        let mut edges = Vec::new();
        for y in 0..ny {
            for x in 0..nx {
                if x + 1 < nx {
                    edges.push((id(x, y), id(x + 1, y)));
                }
                if y + 1 < ny {
                    edges.push((id(x, y), id(x, y + 1)));
                }
            }
        }
        let n = nx * ny;
        // 4 vertical strips.
        let part: Vec<u32> = (0..n).map(|v| ((v % nx) * 4 / nx) as u32).collect();
        let d = decompose(n, &part, 4, &edges);

        // Serial reference.
        let mut serial = vec![0.0f64; n];
        for &(a, b) in &edges {
            serial[a as usize] += b as f64;
            serial[b as usize] += a as f64;
        }

        // Parallel: each partition owns the edges whose "a" endpoint it owns
        // or whose "a" is a ghost but "b" owned... assign each edge to the
        // partition owning its smaller endpoint.
        let d2 = d.clone();
        let edges2 = edges.clone();
        let results = run_ranks(4, move |rank| {
            let p = rank.rank();
            let nloc = d2.local_to_global[p].len();
            let mut acc = vec![[0.0f64; 1]; nloc];
            for &(a, b) in &edges2 {
                let owner = d2.part[a.min(b) as usize] as usize;
                if owner != p {
                    continue;
                }
                let la = d2.local_index(p, a).expect("edge endpoint not local");
                let lb = d2.local_index(p, b).expect("edge endpoint not local");
                acc[la as usize][0] += b as f64;
                acc[lb as usize][0] += a as f64;
            }
            d2.plans[p].exchange_add_field(rank, 9, &mut acc[..]);
            acc
        });
        for (p, res) in results.iter().enumerate() {
            for (i, &g) in d.local_to_global[p].iter().enumerate().take(d.n_owned[p]) {
                assert!(
                    (res[i][0] - serial[g as usize]).abs() < 1e-12,
                    "mismatch at global {g}: {} vs {}",
                    res[i][0],
                    serial[g as usize]
                );
            }
        }
    }
}
