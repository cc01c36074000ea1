//! Domain decomposition and ghost exchange (paper Figure 6(a)).
//!
//! [`Decomposition`] is the one owner of what a rank holds: its owned
//! vertices, a **ghost vertex** for every off-partition endpoint of an edge
//! touching them, and the elements (edges, faces) it assembles, each on
//! the rank that owns its `a` end ([`Decomposition::localize`]). During a
//! residual evaluation fluxes accumulate at ghosts and are sent back to be
//! **added** at the owning vertex ([`ExchangePlan::exchange_add_field`]);
//! updated state is then **copied** owner → ghost
//! ([`ExchangePlan::exchange_copy_field`]). All values destined for one
//! peer travel in a single packed buffer.
//!
//! The exchanges are allocation-free in the steady state: a plan is two
//! contiguous pack/unpack index tables with per-peer ranges, built once by
//! [`ExchangePlan::new`], and payloads are checked out of the rank's buffer
//! pool with a capacity request of `width * max(send entries, recv entries)`
//! per peer, so both directions of a peer pair ping-pong the same buffer and
//! the pool reaches a zero-miss fixed point after one warm-up cycle.
//! A pair of fields is itself a [`HaloField`]: one message per peer carries
//! both (the paper's "fewer larger messages").
//!
//! Fields are addressed through the [`HaloField`] trait, so the same
//! schedule packs AoS block slices (`[[f64; N]]`), scalar planes
//! (`[f64]`), and plane-resident [`SoaStates`] storage without an AoS
//! round-trip: the wire format (entry-major, `WIDTH` values per exchanged
//! vertex in component order) and the pooled-buffer sizing are identical
//! for every layout, so payload bytes — and therefore digests — do not
//! depend on how the field is stored.

use crate::runtime::Rank;
use columbia_linalg::SoaStates;
use std::collections::BTreeMap;

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
    /// Fields one entry carries: an add exchange of more than one counts
    /// each of its messages as coalesced in the pool counters.
    const FIELDS: u64 = 1;
}

/// Two fields coalesced into one, of any layouts: per entry `A`'s values,
/// then `B`'s, packed, set, added and zeroed `A` first. Pairs nest.
impl<A: HaloField + ?Sized, B: HaloField + ?Sized> HaloField for (&mut A, &mut B) {
    const WIDTH: usize = A::WIDTH + B::WIDTH;
    const FIELDS: u64 = A::FIELDS + B::FIELDS;

    fn pack_entry(&self, i: usize, buf: &mut Vec<f64>) {
        self.0.pack_entry(i, buf);
        self.1.pack_entry(i, buf);
    }

    fn set_entry(&mut self, i: usize, vals: &[f64]) {
        self.0.set_entry(i, &vals[..A::WIDTH]);
        self.1.set_entry(i, &vals[A::WIDTH..]);
    }

    fn add_entry(&mut self, i: usize, vals: &[f64]) {
        self.0.add_entry(i, &vals[..A::WIDTH]);
        self.1.add_entry(i, &vals[A::WIDTH..]);
    }

    fn zero_entry(&mut self, i: usize) {
        self.0.zero_entry(i);
        self.1.zero_entry(i);
    }
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

/// One peer's contiguous slice of a direction's flat index table.
#[derive(Clone, Copy, Debug)]
struct PeerRange {
    peer: usize,
    start: u32,
    end: u32,
    /// `max(send entries, recv entries)` for this peer: the pooled
    /// payload request is `width * max_n`, identical in both directions,
    /// so one recycled buffer serves the whole peer pair.
    max_n: u32,
}

impl PeerRange {
    #[inline]
    fn of<'a>(&self, idx: &'a [u32]) -> &'a [u32] {
        &idx[self.start as usize..self.end as usize]
    }
}

/// Packed ghost-exchange schedule for one partition: per direction, the
/// per-peer index lists flattened into one contiguous array with `(peer,
/// range)` descriptors, walked without pointer chasing on every exchange.
#[derive(Clone, Debug, Default)]
pub struct ExchangePlan {
    /// Per send peer, ascending by peer.
    send: Vec<PeerRange>,
    /// Owned local indices whose values this partition sends, peers back
    /// to back; sorted by global id on both sides so buffers line up.
    send_idx: Vec<u32>,
    /// Per recv peer, ascending by peer.
    recv: Vec<PeerRange>,
    /// Ghost local indices this partition receives into, peers back to back.
    recv_idx: Vec<u32>,
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
    /// Build the schedule from per-peer `(peer, local indices)` lists — the
    /// owned indices to send and the ghost indices to receive into — put
    /// into ascending peer order (each peer at most once per direction).
    pub fn new(mut sends: Vec<(usize, Vec<u32>)>, mut recvs: Vec<(usize, Vec<u32>)>) -> Self {
        sends.sort_by_key(|(peer, _)| *peer);
        recvs.sort_by_key(|(peer, _)| *peer);
        let mut max_n: BTreeMap<usize, u32> = BTreeMap::new();
        for (peer, idx) in sends.iter().chain(&recvs) {
            let e = max_n.entry(*peer).or_insert(0);
            *e = (*e).max(idx.len() as u32);
        }
        let flatten = |lists: Vec<(usize, Vec<u32>)>| {
            let mut ranges = Vec::with_capacity(lists.len());
            let mut flat = Vec::with_capacity(lists.iter().map(|(_, v)| v.len()).sum());
            for (peer, idx) in lists {
                let start = flat.len() as u32;
                flat.extend_from_slice(&idx);
                ranges.push(PeerRange {
                    peer,
                    start,
                    end: flat.len() as u32,
                    max_n: max_n[&peer],
                });
            }
            (ranges, flat)
        };
        let (send, send_idx) = flatten(sends);
        let (recv, recv_idx) = flatten(recvs);
        ExchangePlan {
            send,
            send_idx,
            recv,
            recv_idx,
        }
    }

    /// Per send peer, ascending: `(peer, owned local indices sent to it)`.
    pub fn send_peers(&self) -> impl Iterator<Item = (usize, &[u32])> {
        self.send.iter().map(|pr| (pr.peer, pr.of(&self.send_idx)))
    }

    /// Per recv peer, ascending: `(peer, ghost local indices it fills)`.
    pub fn recv_peers(&self) -> impl Iterator<Item = (usize, &[u32])> {
        self.recv.iter().map(|pr| (pr.peer, pr.of(&self.recv_idx)))
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
        for pr in &self.send {
            let mut buf = rank.buffer(pr.peer, w * pr.max_n as usize);
            for &i in pr.of(&self.send_idx) {
                data.pack_entry(i as usize, &mut buf);
            }
            rank.send(pr.peer, tag, buf);
        }
        for pr in &self.recv {
            let idx = pr.of(&self.recv_idx);
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
        for pr in &self.recv {
            let mut buf = rank.buffer(pr.peer, w * pr.max_n as usize);
            for &i in pr.of(&self.recv_idx) {
                data.pack_entry(i as usize, &mut buf);
                data.zero_entry(i as usize);
            }
            rank.send(pr.peer, tag, buf);
            if F::FIELDS > 1 {
                rank.record_coalesced(F::FIELDS);
            }
        }
        for pr in &self.send {
            let idx = pr.of(&self.send_idx);
            let buf = rank.recv(pr.peer, tag);
            check_len(rank, pr.peer, tag, idx.len(), w, buf.len());
            for (k, &i) in idx.iter().enumerate() {
                data.add_entry(i as usize, &buf[k * w..(k + 1) * w]);
            }
            rank.recycle(pr.peer, buf);
        }
    }

    /// [`ExchangePlan::exchange_add_field`] over the pair `(a, b)`: one
    /// message per peer, `A + B` values per exchanged vertex.
    pub fn exchange_add2_field<FA: HaloField + ?Sized, FB: HaloField + ?Sized>(
        &self,
        rank: &mut Rank,
        tag: u64,
        a: &mut FA,
        b: &mut FB,
    ) {
        self.exchange_add_field(rank, tag, &mut (a, b));
    }

    /// Number of peer partitions.
    pub fn degree(&self) -> usize {
        self.send.len().max(self.recv.len())
    }
}

/// A full domain decomposition over `nparts` partitions: what each rank
/// holds, the exact halo it mirrors, and the plans that keep it current.
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

    /// The rank that owns global vertex `g`.
    pub fn owner(&self, g: u32) -> usize {
        self.part[g as usize] as usize
    }

    /// Ghosts rank `p` mirrors: the distinct off-rank endpoints of the
    /// edges that touch its owned vertices, each counted once.
    pub fn ghosts(&self, p: usize) -> usize {
        self.local_to_global[p].len() - self.n_owned[p]
    }

    /// The exact halo: `(mean ghosts per rank that owns a vertex, largest
    /// number of peers a rank exchanges with)`.
    pub fn halo(&self) -> (f64, usize) {
        let holding = self.n_owned.iter().filter(|&&n| n > 0).count().max(1);
        let ghosts: usize = (0..self.nparts()).map(|p| self.ghosts(p)).sum();
        let degree = self.plans.iter().map(ExchangePlan::degree).max();
        (ghosts as f64 / holding as f64, degree.unwrap_or(0))
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

    /// THE ownership rule: an element (edge or face) with ends `(a, b)`
    /// belongs to the rank that owns `a`, and so does a boundary face
    /// (`b = None`). One pass over `ends` buckets every element on its
    /// rank, in global order, as `local(element index, local a, local b)`.
    pub fn localize<T>(
        &self,
        ends: impl IntoIterator<Item = (u32, Option<u32>)>,
        mut local: impl FnMut(usize, u32, Option<u32>) -> T,
    ) -> Vec<Vec<T>> {
        let mut out: Vec<Vec<T>> = (0..self.nparts()).map(|_| Vec::new()).collect();
        for (e, (a, b)) in ends.into_iter().enumerate() {
            let p = self.owner(a);
            let at = |g| {
                self.local_index(p, g)
                    .expect("an element's ends are on its rank")
            };
            out[p].push(local(e, at(a), b.map(at)));
        }
        out
    }

    /// The global array whose owned rows rank `p` holds as `owned[p]`, in
    /// its local order.
    pub fn gather_owned<T: Copy + Default>(
        &self,
        owned: impl IntoIterator<Item = Vec<T>>,
    ) -> Vec<T> {
        let mut global = vec![T::default(); self.part.len()];
        for ((l2g, &no), rows) in self.local_to_global.iter().zip(&self.n_owned).zip(owned) {
            for (&g, row) in l2g[..no].iter().zip(rows) {
                global[g as usize] = row;
            }
        }
        global
    }
}

/// One fine→coarse transfer pair, local indices on both sides.
#[derive(Clone, Copy, Debug)]
pub struct TransferPair {
    /// Owned fine vertex (local index on the fine rank).
    pub fine_local: u32,
    /// Target coarse vertex (local index on the coarse rank).
    pub coarse_local: u32,
}

/// The inter-grid transfer schedule between two decomposed levels: every
/// fine vertex goes from its fine owner to the owner of its coarse vertex.
#[derive(Clone, Debug, Default)]
pub struct TransferSchedule {
    /// `local[rank]`: same-rank pairs.
    pub local: Vec<Vec<TransferPair>>,
    /// `sends[fine_rank]`: per peer coarse rank, ordered pairs (the fine
    /// side packs `fine_local` in list order).
    pub sends: Vec<Vec<(usize, Vec<TransferPair>)>>,
    /// `recvs[coarse_rank]`: per peer fine rank, the coarse-local targets
    /// in the exact order the fine side packs them.
    pub recvs: Vec<Vec<(usize, Vec<u32>)>>,
}

impl TransferSchedule {
    /// The schedule from `fine` to `coarse`, where fine vertex `v` maps to
    /// coarse vertex `fine_to_coarse[v]`. Pairs are grouped by (fine rank,
    /// coarse rank) and ordered by (coarse global, fine global), so both
    /// sides agree on layout and every rank's peers ascend.
    pub fn new(fine: &Decomposition, coarse: &Decomposition, fine_to_coarse: &[u32]) -> Self {
        let nparts = fine.nparts();
        let mut sched = TransferSchedule {
            local: vec![Vec::new(); nparts],
            sends: vec![Vec::new(); nparts],
            recvs: vec![Vec::new(); nparts],
        };
        // Key: (fine rank, coarse rank); entry: (coarse global, fine
        // local, coarse local).
        let mut grouped: BTreeMap<_, Vec<_>> = BTreeMap::new();
        for (v, &g) in fine_to_coarse.iter().enumerate() {
            let (fr, cr) = (fine.owner(v as u32), coarse.owner(g));
            let fl = fine.local_index(fr, v as u32).expect("owned fine vertex");
            let cl = coarse.local_index(cr, g).expect("owned coarse vertex");
            grouped.entry((fr, cr)).or_default().push((g, fl, cl));
        }
        for ((fr, cr), mut pairs) in grouped {
            pairs.sort_unstable();
            let tp: Vec<TransferPair> = pairs
                .iter()
                .map(|&(_, fine_local, coarse_local)| TransferPair {
                    fine_local,
                    coarse_local,
                })
                .collect();
            if fr == cr {
                sched.local[fr] = tp;
            } else {
                sched.recvs[cr].push((fr, tp.iter().map(|p| p.coarse_local).collect()));
                sched.sends[fr].push((cr, tp));
            }
        }
        sched
    }

    /// Fraction of fine vertices whose transfer crosses ranks.
    pub fn nonlocal_fraction(&self) -> f64 {
        let local: usize = self.local.iter().map(Vec::len).sum();
        let remote: usize = self.sends.iter().flatten().map(|(_, v)| v.len()).sum();
        if local + remote == 0 {
            0.0
        } else {
            remote as f64 / (local + remote) as f64
        }
    }
}

/// Build a decomposition from a partition vector and the global edge list.
///
/// Ghosts of partition `p` are all off-partition endpoints of edges with one
/// endpoint in `p`. Send/recv lists are ordered by global vertex id, so both
/// sides of every peer pair agree on buffer layout without negotiation.
///
/// # Panics
/// If `part` does not have one entry per vertex, assigns a vertex to a
/// partition `>= nparts`, or an edge names a vertex `>= nvertices`.
pub fn decompose(
    nvertices: usize,
    part: &[u32],
    nparts: usize,
    edges: &[(u32, u32)],
) -> Decomposition {
    assert_eq!(part.len(), nvertices);
    if let Some(v) = part.iter().position(|&p| p as usize >= nparts) {
        panic!(
            "vertex {v} is assigned to partition {}, but there are only {nparts} partitions",
            part[v]
        );
    }
    if let Some(e) = edges
        .iter()
        .position(|&(a, b)| a.max(b) as usize >= nvertices)
    {
        panic!(
            "edge {e} = {:?} names a vertex outside 0..{nvertices}",
            edges[e]
        );
    }
    // Owned lists (ascending by construction).
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

    // Exchange plans: partition p receives ghost g from part[g]; the owner
    // sends it. Local numbering is owned (sorted) then ghosts (sorted), so
    // ghost k of p is local `owned[p].len() + k` and an owner's local index
    // is the vertex's position in its ascending owned list.
    let mut sends: Vec<Vec<(usize, Vec<u32>)>> = vec![Vec::new(); nparts];
    let mut recvs = sends.clone();
    for p in 0..nparts {
        // My ghosts grouped by owner, in global-id order.
        let mut by_owner: BTreeMap<usize, (Vec<u32>, Vec<u32>)> = BTreeMap::new();
        for (k, &g) in ghosts[p].iter().enumerate() {
            let owner = part[g as usize] as usize;
            let at_owner = owned[owner]
                .binary_search(&g)
                .expect("owner lists its vertex");
            let e = by_owner.entry(owner).or_default();
            e.0.push((owned[p].len() + k) as u32);
            e.1.push(at_owner as u32);
        }
        for (owner, (recv_idx, send_idx)) in by_owner {
            recvs[p].push((owner, recv_idx));
            sends[owner].push((p, send_idx));
        }
    }

    let n_owned = owned.iter().map(Vec::len).collect();
    let mut local_to_global = owned;
    for (l2g, g) in local_to_global.iter_mut().zip(&ghosts) {
        l2g.extend_from_slice(g);
    }
    Decomposition {
        local_to_global,
        n_owned,
        plans: sends
            .into_iter()
            .zip(recvs)
            .map(|(s, r)| ExchangePlan::new(s, r))
            .collect(),
        part: part.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run_world, EXECUTORS};
    use columbia_exec::ExecContext;

    /// Each rank's result of one clean world, run on every executor: the
    /// backends must agree exactly, and the agreed results come back.
    fn world<T: Send + PartialEq + std::fmt::Debug>(
        nranks: usize,
        body: impl Fn(&mut Rank) -> T + Sync,
    ) -> Vec<T> {
        let [threads, events] = EXECUTORS
            .map(|exec| run_world(nranks, &ExecContext::default().with_executor(exec), &body).0);
        assert_eq!(threads, events, "the executors disagree");
        threads
    }

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
        assert_eq!(p0.send_peers().collect::<Vec<_>>(), [(1, &[1u32][..])]);
        assert_eq!(p0.recv_peers().collect::<Vec<_>>(), [(1, &[2u32][..])]);
        let p1 = &d.plans[1];
        assert_eq!(p1.degree(), 2);
    }

    #[test]
    #[should_panic(expected = "vertex 3 is assigned to partition 7, but there are only 3")]
    fn partition_id_out_of_range_names_the_vertex() {
        decompose(6, &[0, 0, 1, 7, 2, 2], 3, &[(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "edge 1 = (4, 6) names a vertex outside 0..6")]
    fn edge_endpoint_out_of_range_names_the_edge() {
        decompose(6, &[0, 0, 1, 1, 2, 2], 3, &[(0, 1), (4, 6)]);
    }

    #[test]
    fn exchange_copy_fills_ghosts_with_owner_values() {
        let d = chain_decomp();
        let results = world(3, |rank| {
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
        let results = world(3, |rank| {
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
    fn ghost_counted_once_per_part() {
        // Star: center 0 in part 0, leaves in part 1. Center is one ghost
        // for part 1 even though three leaves touch it.
        let d = decompose(4, &[0, 1, 1, 1], 2, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!((d.ghosts(0), d.ghosts(1)), (3, 1));
        assert_eq!(d.halo(), (2.0, 1));
    }

    /// A ghost whose neighbours lie in parts 1, 2, 1 in element order is
    /// still one ghost of part 1: a per-vertex stamp of the last part that
    /// counted it would count it twice.
    #[test]
    fn interleaved_parts_count_a_ghost_once() {
        let d = decompose(4, &[0, 1, 2, 1], 3, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!([d.ghosts(0), d.ghosts(1), d.ghosts(2)], [3, 1, 1]);
        assert_eq!(d.halo(), (5.0 / 3.0, 2));
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
            /// On random partitions of random graphs, what `p` receives
            /// from `q` is what `q` sends to `p`: the same global ids in
            /// ascending order, owned by `q`, ghosts at `p` — and every
            /// ghost of `p` is received exactly once.
            fn prop_plans_pair_up_by_global_id(
                n in 1usize..60,
                nparts in 1usize..9,
                raw_part in columbia_rt::props::vec(0u32..64, 60..61),
                raw_edges in columbia_rt::props::vec((0u32..4096, 0u32..4096), 0..200),
            ) {
                let part: Vec<u32> = raw_part[..n].iter().map(|p| p % nparts as u32).collect();
                let edges: Vec<(u32, u32)> = raw_edges
                    .iter()
                    .map(|&(a, b)| (a % n as u32, b % n as u32))
                    .collect();
                let d = decompose(n, &part, nparts, &edges);
                let globals = |p: usize, idx: &[u32]| -> Vec<u32> {
                    idx.iter().map(|&i| d.local_to_global[p][i as usize]).collect()
                };
                for p in 0..nparts {
                    let mut received = 0;
                    for (q, idx) in d.plans[p].recv_peers() {
                        let g = globals(p, idx);
                        assert!(g.windows(2).all(|w| w[0] < w[1]), "ascending global ids");
                        assert!(idx.iter().all(|&i| i as usize >= d.n_owned[p]));
                        assert!(g.iter().all(|&v| part[v as usize] as usize == q));
                        let (_, back) = d.plans[q]
                            .send_peers()
                            .find(|(peer, _)| *peer == p)
                            .expect("the owner sends what the ghost side receives");
                        assert!(back.iter().all(|&i| (i as usize) < d.n_owned[q]));
                        assert_eq!(globals(q, back), g);
                        received += idx.len();
                    }
                    assert_eq!(received, d.local_to_global[p].len() - d.n_owned[p]);
                    let sent: usize = d.plans[p].send_peers().map(|(_, i)| i.len()).sum();
                    let wanted: usize = (0..nparts)
                        .flat_map(|q| d.plans[q].recv_peers())
                        .filter(|(peer, _)| *peer == p)
                        .map(|(_, i)| i.len())
                        .sum();
                    assert_eq!(sent, wanted, "no send without a matching receive");
                }
            }
        }

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
                let results = world(nparts, move |rank| {
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
                let results = world(nparts, |rank| {
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

        // Parallel: each partition assembles the edges `localize` gives it.
        let ends = edges.iter().map(|&(a, b)| (a, Some(b)));
        let local_edges = d.localize(ends, |e, la, lb| (e, la, lb.unwrap()));
        let results = world(4, |rank| {
            let p = rank.rank();
            let nloc = d.local_to_global[p].len();
            let mut acc = vec![[0.0f64; 1]; nloc];
            for &(e, la, lb) in &local_edges[p] {
                let (a, b) = edges[e];
                acc[la as usize][0] += b as f64;
                acc[lb as usize][0] += a as f64;
            }
            d.plans[p].exchange_add_field(rank, 9, &mut acc[..]);
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
