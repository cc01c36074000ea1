//! Property suite for the aero-database lookup path: random tables and
//! random queries pin the interpolation invariants the server relies on —
//! bracket weights in `[0, 1]`, convexity of the blend (answers bounded
//! by the stencil's corner values), edge clamping, bit-exact server/table
//! agreement, and the quarantine policy on randomly holed tables.

use columbia_bench::database::poison_entries;
use columbia_core::{
    AeroDatabase, CaseStatus, DatabaseEntry, DatabaseServer, Fallback, LookupError, Query,
    ServePolicy,
};
use columbia_euler::Forces;
use columbia_mesh::Vec3;
use columbia_rt::rng::Pcg32;

/// Random strictly increasing axis of `len` breakpoints in roughly
/// `[lo, hi]` (gaps are random but bounded away from zero).
fn random_axis(rng: &mut Pcg32, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut v = Vec::with_capacity(len);
    let mut x = lo + rng.gen_range(0.0..0.1) * (hi - lo);
    let step = (hi - lo) / len as f64;
    for _ in 0..len {
        v.push(x);
        x += step * rng.gen_range(0.1..=1.0);
    }
    v
}

/// Random filled table with axis lengths in `1..=4` per dimension
/// (length-1 axes exercise the degenerate-axis path).
fn random_db(rng: &mut Pcg32) -> AeroDatabase {
    let nd = rng.gen_range(1usize..5);
    let nm = rng.gen_range(1usize..5);
    let na = rng.gen_range(1usize..5);
    let ds = random_axis(rng, nd, -0.5, 0.5);
    let ms = random_axis(rng, nm, 0.5, 3.0);
    let aas = random_axis(rng, na, -0.2, 0.2);
    let mut force = Vec::with_capacity(nd * nm * na);
    let mut moment = Vec::with_capacity(nd * nm * na);
    for _ in 0..nd * nm * na {
        let v3 = |rng: &mut Pcg32| {
            Vec3::new(
                rng.gen_range(-1.0..=1.0),
                rng.gen_range(-1.0..=1.0),
                rng.gen_range(-1.0..=1.0),
            )
        };
        force.push(v3(rng));
        moment.push(v3(rng));
    }
    AeroDatabase::from_axes(ds, ms, aas, force, moment).expect("axes built strictly increasing")
}

/// Random query over (and 20% beyond) the table envelope.
fn random_query(rng: &mut Pcg32, db: &AeroDatabase) -> (f64, f64, f64) {
    let (ds, ms, aas) = db.axes();
    let sample = |v: &[f64], rng: &mut Pcg32| {
        let (lo, hi) = (v[0], v[v.len() - 1]);
        let pad = 0.2 * (hi - lo).max(0.1);
        rng.gen_range(lo - pad..=hi + pad)
    };
    (sample(ds, rng), sample(ms, rng), sample(aas, rng))
}

/// `random_db` with a random number of its nodes quarantined: none, all,
/// or anything in between.
fn random_masked_db(rng: &mut Pcg32) -> AeroDatabase {
    let db = random_db(rng);
    let (ds, ms, aas) = db.axes();
    let mut entries = Vec::new();
    for (d, &deflection) in ds.iter().enumerate() {
        for (m, &mach) in ms.iter().enumerate() {
            for (a, &alpha) in aas.iter().enumerate() {
                let (force, moment) = db.node(d, m, a);
                entries.push(DatabaseEntry {
                    deflection,
                    mach,
                    alpha,
                    beta: 0.0,
                    forces: Forces { force, moment },
                    orders: 6.0,
                    cycles: 0,
                    guard_trips: 0,
                    status: CaseStatus::Converged,
                });
            }
        }
    }
    let nholes = match rng.gen_range(0u32..4) {
        0 => 0,
        1 => entries.len(),
        _ => rng.gen_range(0..entries.len() + 1),
    };
    poison_entries(&mut entries, nholes, rng.next_u64());
    AeroDatabase::from_entries_masked(&entries).expect("masked build admits holes")
}

columbia_rt::props! {
    config: columbia_rt::props::Config::with_cases(64);

    /// `bracket` always lands inside the axis with a weight in `[0, 1]`,
    /// and reconstructing the coordinate from `(i, t)` recovers the
    /// clamped input.
    fn prop_bracket_weights_in_unit_interval(seed in 0u64..u64::MAX) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let len = rng.gen_range(2usize..12);
        let axis = random_axis(&mut rng, len, -2.0, 2.0);
        for _ in 0..32 {
            let x = rng.gen_range(-3.0..=3.0);
            let (i, t) = AeroDatabase::bracket(&axis, x);
            assert!(i + 1 < axis.len(), "bracket index {i} out of axis");
            assert!((0.0..=1.0).contains(&t), "weight {t} outside [0, 1]");
            let rebuilt = axis[i] + t * (axis[i + 1] - axis[i]);
            let clamped = x.clamp(axis[0], axis[len - 1]);
            assert!(
                (rebuilt - clamped).abs() <= 1e-12 * (1.0 + clamped.abs()),
                "seed {seed}: bracket({x}) = ({i}, {t}) rebuilds {rebuilt}, want {clamped}"
            );
        }
    }

    /// The trilinear blend is convex: every component of a looked-up load
    /// lies within the min/max of the stencil's corner nodes.
    fn prop_lookup_is_convex_in_corner_values(seed in 0u64..u64::MAX) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let db = random_db(&mut rng);
        for _ in 0..16 {
            let (d, m, a) = random_query(&mut rng, &db);
            let [(id, _), (im, _), (ia, _)] = db.cell(d, m, a);
            let (nd, nm, na) = db.shape();
            let mut lo = [f64::INFINITY; 6];
            let mut hi = [f64::NEG_INFINITY; 6];
            for corner in 0..8 {
                let cd = (id + (corner >> 2 & 1)).min(nd - 1);
                let cm = (im + (corner >> 1 & 1)).min(nm - 1);
                let ca = (ia + (corner & 1)).min(na - 1);
                let (f, mo) = db.node(cd, cm, ca);
                for (k, c) in [f.x, f.y, f.z, mo.x, mo.y, mo.z].into_iter().enumerate() {
                    lo[k] = lo[k].min(c);
                    hi[k] = hi[k].max(c);
                }
            }
            let (f, mo) = db.lookup(d, m, a);
            for (k, c) in [f.x, f.y, f.z, mo.x, mo.y, mo.z].into_iter().enumerate() {
                assert!(
                    c >= lo[k] - 1e-12 && c <= hi[k] + 1e-12,
                    "seed {seed}: component {k} = {c} escapes [{}, {}]",
                    lo[k],
                    hi[k]
                );
            }
        }
    }

    /// Out-of-envelope queries clamp: the answer equals the answer at the
    /// nearest in-envelope coordinate, bit for bit.
    fn prop_lookup_clamps_at_the_envelope(seed in 0u64..u64::MAX) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let db = random_db(&mut rng);
        let (ds, ms, aas) = db.axes();
        let (ds, ms, aas) = (ds.to_vec(), ms.to_vec(), aas.to_vec());
        let clamp = |v: &[f64], x: f64| x.clamp(v[0], v[v.len() - 1]);
        for _ in 0..16 {
            let (d, m, a) = random_query(&mut rng, &db);
            let far = db.lookup(d, m, a);
            let near = db.lookup(clamp(&ds, d), clamp(&ms, m), clamp(&aas, a));
            assert_eq!(far, near, "seed {seed}: clamped lookup diverged");
        }
    }

    /// The server is transparent on clean tables: served answers equal the
    /// direct table lookup bit for bit.
    fn prop_server_matches_table_bitwise(seed in 0u64..u64::MAX) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let db = random_db(&mut rng);
        let queries: Vec<Query> = (0..48)
            .map(|_| random_query(&mut rng, &db).into())
            .collect();
        let mut server = DatabaseServer::new(db.clone(), &ServePolicy::default());
        for (q, r) in queries.iter().zip(server.serve_batch(&queries)) {
            let (force, moment) = db.lookup(q.deflection, q.mach, q.alpha);
            let r = r.expect("clean table never errors");
            assert!(!r.degraded);
            assert_eq!(
                (r.force, r.moment),
                (force, moment),
                "seed {seed}: server diverged from the table"
            );
        }
    }

    /// On holed tables the server is *right*, not merely stable: whatever
    /// the mask, the queries and the policy, a batch never panics, clean
    /// answers are the table's, blocked ones follow the policy, and the
    /// counters add up to the responses.
    fn prop_server_is_right_on_holed_tables(seed in 0u64..u64::MAX) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let db = random_masked_db(&mut rng);
        let (nd, nm, na) = db.shape();
        let mut distinct: Vec<Query> = (0..24)
            .map(|_| random_query(&mut rng, &db).into())
            .collect();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut q = distinct[rng.gen_range(0usize..24)];
            match rng.gen_range(0u32..3) {
                0 => q.deflection = bad,
                1 => q.mach = bad,
                _ => q.alpha = bad,
            }
            distinct.push(q);
        }
        // A batch with duplicates: the dedup copies must be counted too.
        let batch: Vec<Query> = (0..96)
            .map(|_| distinct[rng.gen_range(0..distinct.len())])
            .collect();
        for fallback in [Fallback::Strict, Fallback::Nearest] {
            let policy = ServePolicy { fallback, ..ServePolicy::default() };
            let mut server = DatabaseServer::new(db.clone(), &policy);
            let responses = server.serve_batch(&batch);
            let (mut degraded, mut errors) = (0u64, 0u64);
            for (q, r) in batch.iter().zip(&responses) {
                let direct = db.lookup_checked(q.deflection, q.mach, q.alpha);
                match (r, direct) {
                    (Ok(resp), Ok(loads)) => {
                        assert!(!resp.degraded, "seed {seed}: clean answer flagged at {q:?}");
                        assert_eq!((resp.force, resp.moment), loads, "seed {seed}: {q:?}");
                    }
                    (Ok(resp), Err(LookupError::QuarantinedRegion { .. })) => {
                        degraded += 1;
                        assert!(
                            fallback == Fallback::Nearest && resp.degraded,
                            "seed {seed}: {fallback:?} answered the blocked {q:?} with {resp:?}"
                        );
                        let from_valid_node = (0..nd * nm * na).any(|n| {
                            let (d, m, a) = (n / (nm * na), (n / na) % nm, n % na);
                            !db.node_quarantined(d, m, a)
                                && db.node(d, m, a) == (resp.force, resp.moment)
                        });
                        assert!(from_valid_node, "seed {seed}: {resp:?} is no valid node's load");
                    }
                    (
                        Err(LookupError::QuarantinedRegion { holes, .. }),
                        Err(LookupError::QuarantinedRegion { holes: want, .. }),
                    ) => {
                        errors += 1;
                        assert_eq!(*holes, want, "seed {seed}: hole count at {q:?}");
                        // Nearest errors only with no valid node to degrade to.
                        assert!(
                            fallback == Fallback::Strict || db.holes() == nd * nm * na,
                            "seed {seed}: Nearest refused {q:?} with valid nodes left"
                        );
                    }
                    (
                        Err(LookupError::NonFiniteQuery { .. }),
                        Err(LookupError::NonFiniteQuery { .. }),
                    ) => errors += 1,
                    (r, direct) => panic!(
                        "seed {seed}: {fallback:?} served {r:?} where the table says {direct:?}"
                    ),
                }
            }
            let stats = server.stats();
            assert_eq!(
                (stats.queries, stats.degraded, stats.errors),
                (batch.len() as u64, degraded, errors),
                "seed {seed}: {fallback:?} counters disagree with the responses: {stats:?}"
            );
        }
    }
}
