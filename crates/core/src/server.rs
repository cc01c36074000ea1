//! Aero-database server (paper §IV): the filled (deflection, Mach, alpha)
//! tables as a high-throughput lookup *service*.
//!
//! The paper's digital-flight workflow queries a filled database millions of
//! times — 6-DOF integrations, trim sweeps, G&C Monte Carlo — and those
//! query streams are heavily clustered: a trajectory dwells in a handful of
//! interpolation cells for thousands of consecutive steps. [`DatabaseServer`]
//! exploits that structure:
//!
//! * **hot-region cache** — an O(1) LRU of gathered interpolation cells
//!   (the 8 corner loads + quarantine bits), keyed by cell index, so a
//!   cache hit replaces three binary searches and 16 scattered table reads
//!   with one hash probe and a register-resident blend;
//! * **batch dedup** — identical queries inside one [`Self::serve_batch`]
//!   call (bit-exact coordinates) are answered once and copied;
//! * **quarantine policy** — a query whose stencil touches a masked hole is
//!   a typed [`LookupError::QuarantinedRegion`] under the strict policy, or
//!   a nearest-valid-node answer flagged [`Response::degraded`] under the
//!   opt-in [`FallbackKind::Nearest`] policy — never a silent blend of
//!   placeholder loads;
//! * **refinement queue** — blocked queries enqueue their hole nodes;
//!   [`Self::drain_refinement`] schedules them by observed query density so
//!   an incremental [`DatabaseFill::rerun`] ([`Self::refine_with`]) repairs
//!   the holes that actually gate the query stream first.
//!
//! Every path is deterministic: the cache, dedup memo, fallback search and
//! refinement order depend only on the query stream and the table, so a
//! replayed storm is bit-identical (pinned by `tests/database_server.rs`).

use std::collections::HashMap;

use crate::database::{DatabaseFill, ExecContext};
use crate::flight::{AeroDatabase, LookupError};
use columbia_mesh::Vec3;

pub use columbia_exec::{Fallback, FallbackKind, ServePolicy};

/// One interpolation query: a flight condition in table coordinates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Query {
    pub deflection: f64,
    pub mach: f64,
    pub alpha: f64,
}

impl From<(f64, f64, f64)> for Query {
    fn from((deflection, mach, alpha): (f64, f64, f64)) -> Self {
        Query {
            deflection,
            mach,
            alpha,
        }
    }
}

/// A served answer: interpolated loads, plus whether the strict answer was
/// unavailable and a nearest-valid-node fallback was substituted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Response {
    pub force: Vec3,
    pub moment: Vec3,
    /// `true` when the interpolation stencil touched quarantine holes and
    /// the configured [`FallbackKind::Nearest`] policy answered from the
    /// nearest valid grid node instead. Strict-policy answers are never
    /// degraded (blocked queries error instead).
    pub degraded: bool,
}

/// Monotonic service counters (all start at zero).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Queries served (including errors).
    pub queries: u64,
    /// Answers assembled from a cached cell gather.
    pub cache_hits: u64,
    /// Answers that had to gather a cell from the table.
    pub cache_misses: u64,
    /// Answers copied from an identical earlier query in the same batch
    /// (these touch neither the cache nor the table).
    pub dedup_hits: u64,
    /// Cells evicted from the hot-region cache.
    pub evictions: u64,
    /// Degraded (nearest-valid-node) answers.
    pub degraded: u64,
    /// Typed lookup errors returned.
    pub errors: u64,
    /// Quarantine holes repaired via [`DatabaseServer::apply_refinement`].
    pub refined: u64,
}

/// A gathered interpolation cell: the 8 corner loads in `dd<<2 | dm<<1 | da`
/// order (clamped on degenerate axes) plus the corner quarantine bits.
#[derive(Clone, Copy)]
struct CachedCell {
    force: [Vec3; 8],
    moment: [Vec3; 8],
    holes: u8,
}

/// Multiply-xor finalizer for cell keys (splitmix64's mixing rounds).
#[inline]
fn mix_key(key: u64) -> u64 {
    let mut h = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

const FREE: u32 = u32::MAX;

/// Open-addressing `cell key -> LRU slot` index with linear probing and
/// backward-shift deletion — the per-query map probe is one multiply mix
/// and (at the fixed <= 25% load factor) almost always one slot read.
struct CellMap {
    mask: usize,
    slots: Vec<(u64, u32)>,
}

impl CellMap {
    fn new(capacity: usize) -> Self {
        let n = (4 * capacity.max(2)).next_power_of_two();
        CellMap {
            mask: n - 1,
            slots: vec![(0, FREE); n],
        }
    }

    fn find(&self, key: u64) -> Option<usize> {
        let mut i = mix_key(key) as usize & self.mask;
        loop {
            let (k, v) = self.slots[i & self.mask];
            if v == FREE {
                return None;
            }
            if k == key {
                return Some(i & self.mask);
            }
            i += 1;
        }
    }

    fn get(&self, key: u64) -> Option<u32> {
        self.find(key).map(|i| self.slots[i].1)
    }

    /// Insert or overwrite.
    fn set(&mut self, key: u64, val: u32) {
        let mut i = mix_key(key) as usize & self.mask;
        loop {
            let (k, v) = self.slots[i & self.mask];
            if v == FREE || k == key {
                self.slots[i & self.mask] = (key, val);
                return;
            }
            i += 1;
        }
    }

    /// Remove `key`, compacting the probe chain behind it (backward-shift
    /// deletion keeps `find` tombstone-free).
    fn remove(&mut self, key: u64) -> Option<u32> {
        let mut i = self.find(key)?;
        let val = self.slots[i].1;
        let mut j = i;
        'fill: loop {
            self.slots[i] = (0, FREE);
            loop {
                j = (j + 1) & self.mask;
                let (k, v) = self.slots[j];
                if v == FREE {
                    break 'fill;
                }
                // `k` may slide back into the emptied slot only if its home
                // position is cyclically outside (i, j].
                let home = mix_key(k) as usize & self.mask;
                if j.wrapping_sub(home) & self.mask >= j.wrapping_sub(i) & self.mask {
                    self.slots[i] = (k, v);
                    i = j;
                    continue 'fill;
                }
            }
        }
        Some(val)
    }
}

/// Intrusive doubly-linked LRU slot.
struct Slot {
    key: u64,
    cell: CachedCell,
    /// Queries served out of this slot since it was last folded into the
    /// server's density map — the hot-region signal for refinement.
    heat: u64,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// O(1) LRU of gathered cells: [`CellMap`] key -> slot index, slots
/// threaded on an intrusive most-recent-first list.
struct LruCache {
    capacity: usize,
    map: CellMap,
    slots: Vec<Slot>,
    head: usize,
    tail: usize,
}

impl LruCache {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LruCache {
            capacity,
            map: CellMap::new(capacity),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    /// Look up and touch (move to front, bump heat). Returns a copy of
    /// the cell.
    fn get(&mut self, key: u64) -> Option<CachedCell> {
        let i = self.map.get(key)? as usize;
        self.slots[i].heat += 1;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        Some(self.slots[i].cell)
    }

    /// Insert a fresh cell, evicting the least-recently-used slot when at
    /// capacity. Returns the evicted `(key, heat)` for density folding.
    fn insert(&mut self, key: u64, cell: CachedCell) -> Option<(u64, u64)> {
        debug_assert!(self.map.get(key).is_none(), "insert after miss only");
        if self.slots.len() < self.capacity {
            let i = self.slots.len();
            self.slots.push(Slot {
                key,
                cell,
                heat: 1,
                prev: NIL,
                next: NIL,
            });
            self.map.set(key, i as u32);
            self.push_front(i);
            return None;
        }
        // Reuse the tail slot.
        let i = self.tail;
        self.unlink(i);
        let evicted = (self.slots[i].key, self.slots[i].heat);
        self.map.remove(self.slots[i].key);
        self.slots[i].key = key;
        self.slots[i].cell = cell;
        self.slots[i].heat = 1;
        self.map.set(key, i as u32);
        self.push_front(i);
        Some(evicted)
    }

    /// Drop a key if present (refinement invalidation), returning its
    /// accumulated heat.
    fn remove(&mut self, key: u64) -> Option<(u64, u64)> {
        let i = self.map.remove(key)? as usize;
        self.unlink(i);
        let heat = self.slots[i].heat;
        // Swap-remove the slot vector, fixing the moved slot's links.
        let last = self.slots.len() - 1;
        self.slots.swap(i, last);
        self.slots.pop();
        if i < last {
            self.map.set(self.slots[i].key, i as u32);
            let (prev, next) = (self.slots[i].prev, self.slots[i].next);
            match prev {
                NIL => self.head = i,
                p => self.slots[p].next = i,
            }
            match next {
                NIL => self.tail = i,
                n => self.slots[n].prev = i,
            }
        }
        Some((key, heat))
    }

    /// Fold every live slot's heat into `density` and reset the counters.
    fn fold_heat(&mut self, density: &mut HashMap<u64, u64>) {
        for slot in &mut self.slots {
            if slot.heat > 0 {
                *density.entry(slot.key).or_insert(0) += slot.heat;
                slot.heat = 0;
            }
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }
}

/// The database server. See the module docs for the architecture.
pub struct DatabaseServer {
    db: AeroDatabase,
    cache: LruCache,
    /// Quarantine policy and refinement budget, resolved once at
    /// construction so a replayed storm cannot be perturbed by mid-run
    /// environment changes.
    fallback: FallbackKind,
    refine_budget: usize,
    /// Query count per cell key — the density signal that orders the
    /// refinement queue.
    density: HashMap<u64, u64>,
    /// Hole nodes awaiting refinement, in first-blocked order.
    pending: Vec<usize>,
    /// Persistent batch-dedup memo: `(query bits, answer index, epoch)`
    /// open-addressing slots, invalidated wholesale by bumping `epoch`
    /// instead of reallocating per batch (and cleared outright on the
    /// astronomically rare epoch wrap).
    memo: Vec<([u64; 3], u32, u32)>,
    epoch: u32,
    stats: ServerStats,
}

impl DatabaseServer {
    /// Serve `db` under `policy`. `Auto` fields resolve through the typed
    /// `COLUMBIA_DB_*` environment knobs exactly once, here.
    pub fn new(db: AeroDatabase, policy: &ServePolicy) -> Self {
        DatabaseServer {
            cache: LruCache::new(policy.resolve_cache_capacity()),
            fallback: policy.fallback.resolve(),
            refine_budget: policy.resolve_refine_budget(),
            db,
            density: HashMap::new(),
            pending: Vec::new(),
            memo: Vec::new(),
            epoch: 0,
            stats: ServerStats::default(),
        }
    }

    /// The served table (holes shrink as refinement lands).
    pub fn database(&self) -> &AeroDatabase {
        &self.db
    }

    /// Service counters so far.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Resolved quarantine policy.
    pub fn fallback(&self) -> FallbackKind {
        self.fallback
    }

    /// Cells currently resident in the hot-region cache.
    pub fn cached_cells(&self) -> usize {
        self.cache.len()
    }

    /// Hole nodes currently queued for refinement.
    pub fn pending_refinements(&self) -> usize {
        self.pending.len()
    }

    fn key_of(&self, id: usize, im: usize, ia: usize) -> u64 {
        let (_, nm, na) = self.db.shape();
        ((id * nm + im) * na + ia) as u64
    }

    /// Serve one batch. Responses are positionally aligned with `queries`;
    /// identical queries (bit-exact coordinates) are answered once per
    /// batch and copied.
    ///
    /// The dedup memo is a flat open-addressing table over the queries'
    /// raw bit patterns — in a trajectory-dwell storm the overwhelming
    /// majority of queries resolve to one multiply-mix hash, one probe and
    /// a 64-byte copy, which is where the hot-storm throughput of
    /// `bench_e2e`'s `db_serve_hot` comes from.
    pub fn serve_batch(&mut self, queries: &[Query]) -> Vec<Result<Response, LookupError>> {
        let cap = (2 * queries.len().max(1)).next_power_of_two();
        if self.memo.len() < cap {
            self.memo.resize(cap, ([0; 3], 0, 0));
        }
        let cap = self.memo.len();
        // A slot whose epoch predates this batch is free; bumping the
        // epoch empties the whole memo without touching it.
        if self.epoch == u32::MAX {
            self.memo.fill(([0; 3], 0, 0));
            self.epoch = 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        // Probe pass: each query resolves to an index into the batch's
        // distinct-answer list — a dedup hit is a hash, one slot read and
        // a 4-byte write, with no response copied yet.
        let mut answers: Vec<Result<Response, LookupError>> = Vec::new();
        let mut order: Vec<u32> = Vec::with_capacity(queries.len());
        for q in queries {
            let bits = [q.deflection.to_bits(), q.mach.to_bits(), q.alpha.to_bits()];
            let mut i = Self::mix(bits) as usize & (cap - 1);
            loop {
                let (slot_bits, ans, slot_epoch) = self.memo[i];
                if slot_epoch != epoch {
                    let idx = answers.len() as u32;
                    let r = self.serve_one(*q);
                    self.memo[i] = (bits, idx, epoch);
                    answers.push(r);
                    order.push(idx);
                    break;
                }
                if slot_bits == bits {
                    order.push(ans);
                    break;
                }
                i = (i + 1) & (cap - 1);
            }
        }
        // Fold the dedup copies into the counters. `serve_one` already
        // counted each distinct answer once; per-answer attribution of the
        // copies is only needed when the batch held degraded or failing
        // answers at all.
        let dedup = (queries.len() - answers.len()) as u64;
        self.stats.queries += dedup;
        self.stats.dedup_hits += dedup;
        let special = answers
            .iter()
            .any(|r| !matches!(r, Ok(resp) if !resp.degraded));
        if special {
            let mut counts = vec![0u64; answers.len()];
            for &ix in &order {
                counts[ix as usize] += 1;
            }
            for (r, &n) in answers.iter().zip(&counts) {
                match r {
                    Ok(resp) if resp.degraded => self.stats.degraded += n - 1,
                    Ok(_) => {}
                    Err(_) => self.stats.errors += n - 1,
                }
            }
        }
        // Gather pass: materialize the positional responses from the
        // (small, cache-resident) distinct-answer list.
        order.iter().map(|&ix| answers[ix as usize]).collect()
    }

    /// Single-multiply mix of a query's bit pattern for the batch memo.
    /// The rotations keep permuted coordinates from cancelling; one
    /// multiply plus a shift-xor is enough spread for a table that only
    /// has to separate a batch's distinct queries.
    #[inline]
    fn mix(bits: [u64; 3]) -> u64 {
        let h = bits[0] ^ bits[1].rotate_left(21) ^ bits[2].rotate_left(43);
        let h = (h ^ (h >> 31)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 32)
    }

    /// Serve a single query (counted like a one-element batch, without the
    /// dedup memo).
    pub fn serve_one(&mut self, q: Query) -> Result<Response, LookupError> {
        self.stats.queries += 1;
        if !(q.deflection.is_finite() && q.mach.is_finite() && q.alpha.is_finite()) {
            self.stats.errors += 1;
            return Err(LookupError::NonFiniteQuery {
                deflection: q.deflection,
                mach: q.mach,
                alpha: q.alpha,
            });
        }
        let [(id, td), (im, tm), (ia, ta)] = self.db.cell(q.deflection, q.mach, q.alpha);
        let key = self.key_of(id, im, ia);
        // Query density is tallied as per-slot heat (folded into `density`
        // on eviction/removal/drain), not a map update per query.
        let cell = match self.cache.get(key) {
            Some(c) => {
                self.stats.cache_hits += 1;
                c
            }
            None => {
                self.stats.cache_misses += 1;
                let c = self.gather(id, im, ia);
                if let Some((old_key, heat)) = self.cache.insert(key, c) {
                    self.stats.evictions += 1;
                    *self.density.entry(old_key).or_insert(0) += heat;
                }
                c
            }
        };
        // Blend the 8 corners. A corner participates under exactly the
        // stencil-visit rule of `AeroDatabase::lookup_checked`: the upper
        // offset on an axis is skipped when its weight is zero, the lower
        // offset never is — so a hole at a zero-weight *lower* corner still
        // blocks, matching the table's typed semantics bit for bit.
        let mut force = Vec3::ZERO;
        let mut moment = Vec3::ZERO;
        let mut holes = 0usize;
        for (corner, w) in Self::stencil(td, tm, ta) {
            if cell.holes >> corner & 1 == 1 {
                holes += 1;
                continue;
            }
            force += cell.force[corner as usize] * w;
            moment += cell.moment[corner as usize] * w;
        }
        if holes == 0 {
            return Ok(Response {
                force,
                moment,
                degraded: false,
            });
        }
        // Blocked: enqueue every hole node under the stencil, then apply
        // the degraded-answer policy.
        self.enqueue_holes(id, im, ia, td, tm, ta);
        match self.fallback {
            FallbackKind::Strict => {
                self.stats.errors += 1;
                Err(LookupError::QuarantinedRegion {
                    deflection: q.deflection,
                    mach: q.mach,
                    alpha: q.alpha,
                    holes,
                })
            }
            FallbackKind::Nearest => {
                let (d, m, a) = self.nearest_valid(id, im, ia, td, tm, ta).ok_or({
                    // Every node is a hole: nothing valid to degrade to.
                    LookupError::QuarantinedRegion {
                        deflection: q.deflection,
                        mach: q.mach,
                        alpha: q.alpha,
                        holes,
                    }
                })?;
                self.stats.degraded += 1;
                let (force, moment) = self.db.node(d, m, a);
                Ok(Response {
                    force,
                    moment,
                    degraded: true,
                })
            }
        }
    }

    /// The visited stencil corners and weights for cell weights
    /// `(td, tm, ta)`, in `dd<<2 | dm<<1 | da` order. Mirrors the loop
    /// structure (and skip rule) of `AeroDatabase::lookup_checked`.
    fn stencil(td: f64, tm: f64, ta: f64) -> impl Iterator<Item = (u8, f64)> {
        let axes = [td, tm, ta];
        (0u8..8).filter_map(move |corner| {
            let mut w = 1.0;
            for (axis, &t) in axes.iter().enumerate() {
                let upper = corner >> (2 - axis) & 1 == 1;
                let wt = if upper { t } else { 1.0 - t };
                if upper && wt == 0.0 {
                    return None;
                }
                w *= wt;
            }
            Some((corner, w))
        })
    }

    /// Gather one interpolation cell from the table (16 scattered reads).
    fn gather(&self, id: usize, im: usize, ia: usize) -> CachedCell {
        let (nd, nm, na) = self.db.shape();
        let mut cell = CachedCell {
            force: [Vec3::ZERO; 8],
            moment: [Vec3::ZERO; 8],
            holes: 0,
        };
        for corner in 0u8..8 {
            let d = (id + (corner >> 2 & 1) as usize).min(nd - 1);
            let m = (im + (corner >> 1 & 1) as usize).min(nm - 1);
            let a = (ia + (corner & 1) as usize).min(na - 1);
            let (f, mo) = self.db.node(d, m, a);
            cell.force[corner as usize] = f;
            cell.moment[corner as usize] = mo;
            if self.db.node_quarantined(d, m, a) {
                cell.holes |= 1 << corner;
            }
        }
        cell
    }

    /// Queue every hole node under the visited stencil (deduplicated).
    fn enqueue_holes(&mut self, id: usize, im: usize, ia: usize, td: f64, tm: f64, ta: f64) {
        let (nd, nm, na) = self.db.shape();
        for (corner, _) in Self::stencil(td, tm, ta) {
            let d = (id + (corner >> 2 & 1) as usize).min(nd - 1);
            let m = (im + (corner >> 1 & 1) as usize).min(nm - 1);
            let a = (ia + (corner & 1) as usize).min(na - 1);
            if self.db.node_quarantined(d, m, a) {
                let node = (d * nm + m) * na + a;
                if !self.pending.contains(&node) {
                    self.pending.push(node);
                }
            }
        }
    }

    /// Nearest valid (non-hole) node to the query point, by expanding
    /// Chebyshev shells in index space around the query's nearest node.
    /// Within a shell, ties break in (d, m, a) node order — fully
    /// deterministic.
    fn nearest_valid(
        &self,
        id: usize,
        im: usize,
        ia: usize,
        td: f64,
        tm: f64,
        ta: f64,
    ) -> Option<(usize, usize, usize)> {
        let (nd, nm, na) = self.db.shape();
        let near = |i: usize, t: f64, n: usize| -> isize {
            (if t > 0.5 { (i + 1).min(n - 1) } else { i }) as isize
        };
        let (cd, cm, ca) = (near(id, td, nd), near(im, tm, nm), near(ia, ta, na));
        let max_r = (nd.max(nm).max(na)) as isize;
        for r in 0..=max_r {
            for d in (cd - r).max(0)..=(cd + r).min(nd as isize - 1) {
                for m in (cm - r).max(0)..=(cm + r).min(nm as isize - 1) {
                    for a in (ca - r).max(0)..=(ca + r).min(na as isize - 1) {
                        let on_shell = (d - cd).abs().max((m - cm).abs()).max((a - ca).abs()) == r;
                        if !on_shell {
                            continue;
                        }
                        let (d, m, a) = (d as usize, m as usize, a as usize);
                        if !self.db.node_quarantined(d, m, a) {
                            return Some((d, m, a));
                        }
                    }
                }
            }
        }
        None
    }

    /// Drain up to the policy's refinement budget of queued hole nodes,
    /// hottest first: nodes are ordered by the summed query density of
    /// their incident cells (descending), ties by node index (ascending).
    /// Returns grid coordinates ready to hand to [`DatabaseFill::rerun`].
    pub fn drain_refinement(&mut self) -> Vec<(usize, usize, usize)> {
        let budget = self.refine_budget.min(self.pending.len());
        if budget == 0 {
            return Vec::new();
        }
        // Pull live cache heat into the density map so the ranking sees
        // the full query history.
        self.cache.fold_heat(&mut self.density);
        let (_, nm, na) = self.db.shape();
        let heat = |node: usize| -> u64 {
            let (d, m, a) = (node / (nm * na), (node / na) % nm, node % na);
            // Cells incident to a node have lower corner in
            // {d-1, d} x {m-1, m} x {a-1, a} (clipped to valid cell range).
            let mut h = 0u64;
            for dd in d.saturating_sub(1)..=d {
                for dm in m.saturating_sub(1)..=m {
                    for da in a.saturating_sub(1)..=a {
                        let key = ((dd * nm + dm) * na + da) as u64;
                        h += self.density.get(&key).copied().unwrap_or(0);
                    }
                }
            }
            h
        };
        let mut ranked: Vec<(u64, usize)> = self.pending.iter().map(|&n| (heat(n), n)).collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let take: Vec<usize> = ranked.into_iter().take(budget).map(|(_, n)| n).collect();
        self.pending.retain(|n| !take.contains(n));
        take.into_iter()
            .map(|n| (n / (nm * na), (n / na) % nm, n % na))
            .collect()
    }

    /// Land a converged re-run at hole node `(d, m, a)`: repairs the table
    /// and invalidates every cached cell whose stencil could touch the
    /// node. Returns `false` (no change) if the node was not a hole.
    pub fn apply_refinement(
        &mut self,
        d: usize,
        m: usize,
        a: usize,
        force: Vec3,
        moment: Vec3,
    ) -> bool {
        if !self.db.fill_node(d, m, a, force, moment) {
            return false;
        }
        self.stats.refined += 1;
        let (_, nm, na) = self.db.shape();
        for dd in d.saturating_sub(1)..=d {
            for dm in m.saturating_sub(1)..=m {
                for da in a.saturating_sub(1)..=a {
                    if let Some((key, heat)) = self.cache.remove(((dd * nm + dm) * na + da) as u64)
                    {
                        *self.density.entry(key).or_insert(0) += heat;
                    }
                }
            }
        }
        true
    }

    /// Closed-loop refinement: drain the hottest queued holes and re-run
    /// each through `fill` under the context's full retry/quarantine/chaos
    /// policy ([`DatabaseFill::rerun`]). A converged or recovered re-run
    /// repairs its node; a re-quarantined one leaves the hole masked (and
    /// re-queued by the next blocked query). The chaos case id is the flat
    /// grid-node index, so injected failures address refinement
    /// deterministically. Returns `(repaired, still_failing)` counts.
    pub fn refine_with(
        &mut self,
        fill: &DatabaseFill,
        beta: f64,
        cycles: usize,
        ctx: &mut ExecContext,
    ) -> (usize, usize) {
        let nodes = self.drain_refinement();
        let (_, nm, na) = self.db.shape();
        let (axes_d, axes_m, axes_a) = {
            let (d, m, a) = self.db.axes();
            (d.to_vec(), m.to_vec(), a.to_vec())
        };
        let mut repaired = 0;
        let mut failing = 0;
        for (d, m, a) in nodes {
            let case_id = ((d * nm + m) * na + a) as u64;
            let entry = fill.rerun(case_id, axes_d[d], axes_m[m], axes_a[a], beta, cycles, ctx);
            if entry.status.is_ok() {
                self.apply_refinement(d, m, a, entry.forces.force, entry.forces.moment);
                repaired += 1;
            } else {
                failing += 1;
            }
        }
        (repaired, failing)
    }
}

/// FNV-1a over the raw bits of a response stream — the replay parity
/// digest used by the server tests and `scaling_report --database`.
pub fn digest_responses(responses: &[Result<Response, LookupError>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in responses {
        match r {
            Ok(resp) => {
                eat(1);
                for v in [resp.force, resp.moment] {
                    eat(v.x.to_bits());
                    eat(v.y.to_bits());
                    eat(v.z.to_bits());
                }
                eat(resp.degraded as u64);
            }
            Err(e) => {
                eat(2);
                match e {
                    LookupError::QuarantinedRegion { holes, .. } => {
                        eat(3);
                        eat(*holes as u64);
                    }
                    LookupError::NonFiniteQuery { .. } => eat(4),
                }
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use columbia_exec::Fallback;

    /// A synthetic hole-free table with a smooth analytic field.
    fn table(nd: usize, nm: usize, na: usize) -> AeroDatabase {
        let axis = |n: usize, lo: f64, hi: f64| -> Vec<f64> {
            (0..n)
                .map(|i| lo + (hi - lo) * i as f64 / (n - 1).max(1) as f64)
                .collect()
        };
        let (ds, ms, aas) = (axis(nd, -0.3, 0.3), axis(nm, 0.6, 3.0), axis(na, -0.1, 0.1));
        let mut force = Vec::new();
        let mut moment = Vec::new();
        for &d in &ds {
            for &m in &ms {
                for &a in &aas {
                    force.push(Vec3::new(0.1 * m * m, d * a, 2.0 * a + 0.05 * d));
                    moment.push(Vec3::new(0.0, -0.4 * a + 0.1 * d, 0.0));
                }
            }
        }
        AeroDatabase::from_axes(ds, ms, aas, force, moment).unwrap()
    }

    fn strict_policy(cache: usize) -> ServePolicy {
        ServePolicy {
            cache_capacity: Some(cache),
            fallback: Fallback::Strict,
            refine_budget: Some(4),
        }
    }

    #[test]
    fn served_answers_match_direct_lookup_exactly() {
        let db = table(3, 5, 4);
        let mut server = DatabaseServer::new(db.clone(), &strict_policy(8));
        let queries: Vec<Query> = (0..200)
            .map(|i| {
                let t = i as f64 / 199.0;
                Query {
                    deflection: -0.35 + 0.7 * t,
                    mach: 0.5 + 2.6 * t,
                    alpha: -0.12 + 0.24 * (1.0 - t),
                }
            })
            .collect();
        for (q, r) in queries.iter().zip(server.serve_batch(&queries)) {
            let (f, m) = db.lookup(q.deflection, q.mach, q.alpha);
            let r = r.expect("hole-free table never errors on finite queries");
            assert_eq!(r.force, f, "force mismatch at {q:?}");
            assert_eq!(r.moment, m, "moment mismatch at {q:?}");
            assert!(!r.degraded);
        }
    }

    #[test]
    fn lru_capacity_one_still_answers_transparently_and_evicts() {
        let db = table(3, 4, 3);
        let mut server = DatabaseServer::new(db.clone(), &strict_policy(1));
        // Alternate between two distinct cells so every probe misses.
        let qs = [
            Query {
                deflection: 0.0,
                mach: 0.8,
                alpha: 0.0,
            },
            Query {
                deflection: 0.0,
                mach: 2.5,
                alpha: 0.0,
            },
        ];
        for _ in 0..5 {
            for q in qs {
                let r = server.serve_one(q).unwrap();
                let (f, _) = db.lookup(q.deflection, q.mach, q.alpha);
                assert_eq!(r.force, f);
            }
        }
        let s = server.stats();
        assert_eq!(s.cache_hits, 0, "{s:?}");
        assert_eq!(s.cache_misses, 10, "{s:?}");
        assert_eq!(s.evictions, 9, "{s:?}");
        assert_eq!(server.cached_cells(), 1);
    }

    #[test]
    fn batch_dedup_answers_identical_queries_once() {
        let db = table(3, 4, 3);
        let mut server = DatabaseServer::new(db, &strict_policy(8));
        let q = Query {
            deflection: 0.1,
            mach: 1.7,
            alpha: 0.02,
        };
        let batch = vec![q; 100];
        let rs = server.serve_batch(&batch);
        assert!(rs.windows(2).all(|w| w[0] == w[1]));
        let s = server.stats();
        assert_eq!(s.queries, 100);
        assert_eq!(s.dedup_hits, 99);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hits, 0, "dedup must bypass the cache entirely");
    }

    #[test]
    fn non_finite_queries_are_typed_errors_and_counted() {
        let db = table(2, 2, 2);
        let mut server = DatabaseServer::new(db, &strict_policy(4));
        let r = server.serve_one(Query {
            deflection: f64::NAN,
            mach: 1.0,
            alpha: 0.0,
        });
        assert!(matches!(r, Err(LookupError::NonFiniteQuery { .. })));
        assert_eq!(server.stats().errors, 1);
    }
}
