//! Aero-database server (paper §IV): the filled (deflection, Mach, alpha)
//! tables as a high-throughput lookup *service*.
//!
//! The paper's digital-flight workflow queries a filled database millions of
//! times — 6-DOF integrations, trim sweeps, G&C Monte Carlo — and those
//! query streams are heavily clustered: a trajectory dwells at a handful of
//! conditions for thousands of consecutive steps. [`DatabaseServer`] is
//! three things in front of an [`AeroDatabase`], which does all the
//! interpolation itself ([`AeroDatabase::cell`] + [`AeroDatabase::blend`]):
//!
//! * **batch dedup** — identical queries inside one [`Self::serve_batch`]
//!   call (bit-exact coordinates) are answered once and copied;
//! * **quarantine policy** — a query whose stencil touches a masked hole is
//!   a typed [`LookupError::QuarantinedRegion`] under the strict policy, or
//!   a nearest-valid-node answer flagged [`Response::degraded`] under the
//!   opt-in [`Fallback::Nearest`] policy — never a silent blend of
//!   placeholder loads;
//! * **refinement queue** — blocked queries enqueue their hole nodes;
//!   [`Self::drain_refinement`] schedules them by observed query density so
//!   an incremental [`DatabaseFill::rerun`] ([`Self::refine_with`]) repairs
//!   the holes that actually gate the query stream first.
//!
//! There is no cell cache: the table is a dense in-memory array, and
//! `bench_e2e` measured a copy of it in front of it as a loss (DESIGN.md
//! §15).
//!
//! Every path is deterministic: the dedup memo, fallback search and
//! refinement order depend only on the query stream and the table, so a
//! replayed storm is bit-identical (pinned by `tests/database_server.rs`).

use crate::database::{DatabaseFill, ExecContext};
use crate::flight::{AeroDatabase, LookupError};
use columbia_mesh::Vec3;
use columbia_rt::fnv;

/// Degraded-answer policy of a [`DatabaseServer`] facing quarantine holes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Fallback {
    /// A query whose interpolation stencil touches a quarantined node is a
    /// typed error ([`LookupError::QuarantinedRegion`]). The safe default:
    /// no answer is better than a placeholder-blended one.
    #[default]
    Strict,
    /// Answer from the nearest valid grid node, with the response
    /// explicitly flagged degraded. Opt-in, for consumers (e.g. a
    /// virtual-flight sweep) that prefer a marked approximation over a hole
    /// while the refinement queue re-runs the case.
    Nearest,
}

/// Query-serving policy of a [`DatabaseServer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServePolicy {
    /// Degraded-answer policy for quarantine holes.
    pub fallback: Fallback,
    /// Hole nodes handed out per [`DatabaseServer::drain_refinement`].
    pub refine_budget: usize,
}

impl Default for ServePolicy {
    fn default() -> Self {
        ServePolicy {
            fallback: Fallback::Strict,
            refine_budget: 4,
        }
    }
}

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
    /// the configured [`Fallback::Nearest`] policy answered from the
    /// nearest valid grid node instead. Strict-policy answers are never
    /// degraded (blocked queries error instead).
    pub degraded: bool,
}

/// Monotonic service counters (all start at zero).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Queries served (including errors).
    pub queries: u64,
    /// Always 0 (the server has no cache). Declared only until a
    /// `benchmark` PR retires `bench_e2e`'s `core.server.hit_ratio`.
    pub cache_hits: u64,
    /// Answers computed from the table (every finite query that is not a
    /// dedup copy).
    pub cache_misses: u64,
    /// Answers copied from an identical earlier query in the same batch
    /// (these never touch the table).
    pub dedup_hits: u64,
    /// Always 0, kept like `cache_hits` until `bench_e2e`'s
    /// `core.server.evictions_per_query` is retired.
    pub evictions: u64,
    /// Degraded (nearest-valid-node) answers.
    pub degraded: u64,
    /// Typed lookup errors returned.
    pub errors: u64,
    /// Quarantine holes repaired via [`DatabaseServer::apply_refinement`].
    pub refined: u64,
}

/// The database server. See the module docs for the architecture.
pub struct DatabaseServer {
    db: AeroDatabase,
    policy: ServePolicy,
    /// Queries answered from the table per interpolation cell, indexed by
    /// [`Self::key_of`] — the density signal that orders the refinement
    /// queue.
    density: Vec<u64>,
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
    /// Serve `db` under `policy`.
    pub fn new(db: AeroDatabase, policy: &ServePolicy) -> Self {
        let (nd, nm, na) = db.shape();
        DatabaseServer {
            policy: *policy,
            density: vec![0; nd * nm * na],
            db,
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

    /// Hole nodes currently queued for refinement.
    pub fn pending_refinements(&self) -> usize {
        self.pending.len()
    }

    /// Flat index of the cell (equally: of the node) at `(id, im, ia)`.
    fn key_of(&self, id: usize, im: usize, ia: usize) -> usize {
        let (_, nm, na) = self.db.shape();
        (id * nm + im) * na + ia
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
        let cell = self.db.cell(q.deflection, q.mach, q.alpha);
        let key = self.key_of(cell[0].0, cell[1].0, cell[2].0);
        self.density[key] += 1;
        self.stats.cache_misses += 1;
        let holes = match self.db.blend(cell) {
            Ok((force, moment)) => {
                return Ok(Response {
                    force,
                    moment,
                    degraded: false,
                })
            }
            Err(holes) => holes,
        };
        // Blocked: enqueue every hole node under the stencil, then apply
        // the degraded-answer policy.
        let pending = &mut self.pending;
        self.db.stencil(cell, |node, _, quarantined| {
            if quarantined && !pending.contains(&node) {
                pending.push(node);
            }
        });
        let fallback = match self.policy.fallback {
            Fallback::Strict => None,
            // `None` here too when every node is a hole: nothing valid to
            // degrade to.
            Fallback::Nearest => self.nearest_valid(cell),
        };
        match fallback {
            Some((d, m, a)) => {
                self.stats.degraded += 1;
                let (force, moment) = self.db.node(d, m, a);
                Ok(Response {
                    force,
                    moment,
                    degraded: true,
                })
            }
            None => {
                self.stats.errors += 1;
                Err(LookupError::QuarantinedRegion {
                    deflection: q.deflection,
                    mach: q.mach,
                    alpha: q.alpha,
                    holes,
                })
            }
        }
    }

    /// Nearest valid (non-hole) node to the query point, by expanding
    /// Chebyshev shells in index space around the query's nearest node.
    /// Within a shell, ties break in (d, m, a) node order — fully
    /// deterministic.
    fn nearest_valid(&self, cell: [(usize, f64); 3]) -> Option<(usize, usize, usize)> {
        let [(id, td), (im, tm), (ia, ta)] = cell;
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
        let budget = self.policy.refine_budget.min(self.pending.len());
        if budget == 0 {
            return Vec::new();
        }
        let (_, nm, na) = self.db.shape();
        let heat = |node: usize| -> u64 {
            let (d, m, a) = (node / (nm * na), (node / na) % nm, node % na);
            // Cells incident to a node have lower corner in
            // {d-1, d} x {m-1, m} x {a-1, a} (clipped to valid cell range).
            let mut h = 0u64;
            for dd in d.saturating_sub(1)..=d {
                for dm in m.saturating_sub(1)..=m {
                    for da in a.saturating_sub(1)..=a {
                        h += self.density[self.key_of(dd, dm, da)];
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

    /// Land a converged re-run at hole node `(d, m, a)`: repairs the
    /// table. Returns `false` (no change) if the node was not a hole.
    pub fn apply_refinement(
        &mut self,
        d: usize,
        m: usize,
        a: usize,
        force: Vec3,
        moment: Vec3,
    ) -> bool {
        let repaired = self.db.fill_node(d, m, a, force, moment);
        self.stats.refined += repaired as u64;
        repaired
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
    let mut h = fnv::OFFSET;
    let mut eat = |x: u64| h = fnv::word(h, x);
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
    use crate::database::{CaseStatus, DatabaseEntry};

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

    #[test]
    fn served_answers_match_direct_lookup_exactly() {
        let db = table(3, 5, 4);
        let mut server = DatabaseServer::new(db.clone(), &ServePolicy::default());
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
    fn alternating_cells_answer_like_the_direct_lookup() {
        let db = table(3, 4, 3);
        let mut server = DatabaseServer::new(db.clone(), &ServePolicy::default());
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
        assert_eq!((s.queries, s.cache_misses, s.dedup_hits), (10, 10, 0));
    }

    #[test]
    fn batch_dedup_answers_identical_queries_once() {
        let db = table(3, 4, 3);
        let mut server = DatabaseServer::new(db, &ServePolicy::default());
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
        assert_eq!(s.cache_misses, 1, "dedup copies never touch the table");
    }

    #[test]
    fn non_finite_queries_are_typed_errors_and_counted() {
        let db = table(2, 2, 2);
        let mut server = DatabaseServer::new(db, &ServePolicy::default());
        let r = server.serve_one(Query {
            deflection: f64::NAN,
            mach: 1.0,
            alpha: 0.0,
        });
        assert!(matches!(r, Err(LookupError::NonFiniteQuery { .. })));
        assert_eq!(server.stats().errors, 1);
    }

    /// Regression: with every node quarantined `Fallback::Nearest` has
    /// nothing to degrade to; that error used to leave `serve_one` without
    /// being counted, so a batch of 10 reported `errors == 9`.
    #[test]
    fn nearest_fallback_with_no_valid_node_counts_every_error() {
        let mut entries = Vec::new();
        for d in [-0.1, 0.1] {
            for m in [1.0, 2.0] {
                for a in [0.0, 0.05] {
                    entries.push(DatabaseEntry {
                        deflection: d,
                        mach: m,
                        alpha: a,
                        beta: 0.0,
                        forces: Default::default(),
                        orders: 0.0,
                        cycles: 0,
                        guard_trips: 0,
                        status: CaseStatus::Quarantined {
                            attempts: 3,
                            reason: "injected".into(),
                        },
                    });
                }
            }
        }
        let db = AeroDatabase::from_entries_masked(&entries).unwrap();
        let policy = ServePolicy {
            fallback: Fallback::Nearest,
            ..ServePolicy::default()
        };
        let mut server = DatabaseServer::new(db, &policy);
        let q = Query {
            deflection: 0.0,
            mach: 1.5,
            alpha: 0.02,
        };
        let rs = server.serve_batch(&[q; 10]);
        assert!(rs
            .iter()
            .all(|r| matches!(r, Err(LookupError::QuarantinedRegion { holes: 8, .. }))));
        let s = server.stats();
        assert_eq!((s.queries, s.errors, s.degraded), (10, 10, 0), "{s:?}");
    }
}
