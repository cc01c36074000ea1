//! Database-server storms: seeded query storms against a filled
//! aero-database served by `columbia_core::server::DatabaseServer`, with a
//! closed refinement loop over an injected-hole table.
//!
//! Everything in [`database_storm`] is deterministic — synthetic
//! tables, seeded storms, policies fixed in code ([`storm_policy`]) —
//! so the section is byte-identical across runs and machines (CI's
//! `scaling_report --database` double run). Wall-clock throughput of the
//! same table and storms is `bench_e2e`'s `db_serve_hot`/`db_serve_cold`.

use crate::sections::{Opts, Rendered};
use crate::table::line;
use columbia_core::{
    digest_responses, AeroDatabase, CaseStatus, DatabaseEntry, DatabaseServer, Fallback,
    LookupError, Query, Response, ServePolicy,
};
use columbia_euler::Forces;
use columbia_mesh::Vec3;
use columbia_rt::{derive_seed, Json, Pcg32};

/// Grid shape `(nd, nm, na)` of the synthetic database. Sized so the
/// flattened tables (~7.8 MB) dwarf the last-level cache: a trilinear
/// lookup pays 16 scattered table reads, which is the cost the server's
/// batch dedup saves on every repeated query.
pub const DB_SHAPE: (usize, usize, usize) = (17, 97, 49);

/// Base seed for every storm (query streams derive sub-seeds from it).
pub const STORM_SEED: u64 = 0xDB_5E_ED;

/// Queries per batch — one [`DatabaseServer::serve_batch`] call.
pub const BATCH_LEN: usize = 4096;

/// Distinct flight conditions in the hot storm, sampled [`BATCH_LEN`]
/// times per batch (a few dozen concurrent trajectories dwelling at fixed
/// table conditions).
pub const HOT_DISTINCT: usize = 32;

/// Batches per storm in the deterministic section.
pub const STORM_BATCHES: usize = 8;

/// Holes punched into the degraded-storm table.
pub const STORM_HOLES: usize = 12;

/// The analytic load field the synthetic database tabulates: smooth,
/// anisotropic, and non-separable so trilinear weights all matter.
pub fn analytic_loads(d: f64, m: f64, a: f64) -> (Vec3, Vec3) {
    let force = Vec3::new(
        0.12 * m * m + 0.4 * a * a + 0.05 * (3.0 * d).sin(),
        0.3 * d * a + 0.01 * (m - 1.0),
        2.1 * a + 0.07 * d + 0.02 * a * m,
    );
    let moment = Vec3::new(
        0.02 * d,
        -0.45 * a + 0.11 * d - 0.01 * (a * m).cos() * a,
        0.005 * d * m,
    );
    (force, moment)
}

/// Breakpoint axes of the synthetic grid.
pub fn storm_axes() -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (nd, nm, na) = DB_SHAPE;
    let axis = |n: usize, lo: f64, hi: f64| -> Vec<f64> {
        (0..n)
            .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
            .collect()
    };
    (
        axis(nd, -0.4, 0.4),
        axis(nm, 0.6, 3.0),
        axis(na, -0.12, 0.12),
    )
}

/// Synthetic fill output: one converged [`DatabaseEntry`] per grid node of
/// [`DB_SHAPE`], loads from [`analytic_loads`].
pub fn synthetic_entries() -> Vec<DatabaseEntry> {
    let (ds, ms, aas) = storm_axes();
    let mut out = Vec::with_capacity(ds.len() * ms.len() * aas.len());
    for &d in &ds {
        for &m in &ms {
            for &a in &aas {
                let (force, moment) = analytic_loads(d, m, a);
                out.push(DatabaseEntry {
                    deflection: d,
                    mach: m,
                    alpha: a,
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
    out
}

/// Quarantine `nholes` deterministic entries (placeholder zero loads, the
/// exact failure mode a lost fill case leaves behind). Returns the flat
/// node indices of the holes.
pub fn poison_entries(entries: &mut [DatabaseEntry], nholes: usize, seed: u64) -> Vec<usize> {
    let mut rng = Pcg32::seed_from_u64(derive_seed(seed, 0x401E));
    let mut holes = Vec::new();
    while holes.len() < nholes {
        let i = rng.gen_range(0..entries.len());
        if holes.contains(&i) {
            continue;
        }
        holes.push(i);
        entries[i].forces = Forces::default();
        entries[i].orders = 0.0;
        entries[i].status = CaseStatus::Quarantined {
            attempts: 3,
            reason: "injected node loss".into(),
        };
    }
    holes.sort_unstable();
    holes
}

/// Envelope-wide storm: every query lands somewhere new, so every answer
/// is a table lookup (nothing for the batch dedup to collapse).
pub fn cold_queries(n: usize, seed: u64) -> Vec<Query> {
    let (ds, ms, aas) = storm_axes();
    let mut rng = Pcg32::seed_from_u64(derive_seed(seed, 0xC01D));
    let span = |v: &[f64]| (v[0], *v.last().unwrap());
    let ((d0, d1), (m0, m1), (a0, a1)) = (span(&ds), span(&ms), span(&aas));
    (0..n)
        .map(|_| Query {
            // 5% overhang each side exercises the clamp path too.
            deflection: rng.gen_range(d0 - 0.05 * (d1 - d0)..d1 + 0.05 * (d1 - d0)),
            mach: rng.gen_range(m0 - 0.05 * (m1 - m0)..m1 + 0.05 * (m1 - m0)),
            alpha: rng.gen_range(a0 - 0.05 * (a1 - a0)..a1 + 0.05 * (a1 - a0)),
        })
        .collect()
}

/// Dwell storm: `n` samples drawn from [`HOT_DISTINCT`] fixed flight
/// conditions across the envelope — the access pattern of a batch of
/// concurrent trajectories / Monte Carlo particles, where each batch
/// repeats a small distinct query set the server's dedup collapses.
pub fn hot_queries(n: usize, seed: u64) -> Vec<Query> {
    let distinct = cold_queries(HOT_DISTINCT, derive_seed(seed, 0x407));
    let mut rng = Pcg32::seed_from_u64(derive_seed(seed, 0x408));
    (0..n)
        .map(|_| distinct[rng.gen_range(0..distinct.len())])
        .collect()
}

/// Hole-seeking storm: queries jittered around quarantined nodes so most
/// stencils are blocked — the degraded-service worst case.
pub fn degraded_queries(db: &AeroDatabase, n: usize, seed: u64) -> Vec<Query> {
    let holes = db.hole_coords();
    assert!(!holes.is_empty(), "degraded storm needs a holed table");
    let (ds, ms, aas) = db.axes();
    let (ds, ms, aas) = (ds.to_vec(), ms.to_vec(), aas.to_vec());
    let mut rng = Pcg32::seed_from_u64(derive_seed(seed, 0xDE64));
    (0..n)
        .map(|_| {
            let (d, m, a) = holes[rng.gen_range(0..holes.len())];
            let jitter = |v: &[f64], i: usize, rng: &mut Pcg32| {
                let lo = v[i.saturating_sub(1)];
                let hi = v[(i + 1).min(v.len() - 1)];
                rng.gen_range(lo..=hi)
            };
            Query {
                deflection: jitter(&ds, d, &mut rng),
                mach: jitter(&ms, m, &mut rng),
                alpha: jitter(&aas, a, &mut rng),
            }
        })
        .collect()
}

/// Serve a storm in [`BATCH_LEN`] batches, returning all responses in
/// order.
pub fn serve_storm(
    server: &mut DatabaseServer,
    queries: &[Query],
) -> Vec<Result<Response, LookupError>> {
    let mut out = Vec::with_capacity(queries.len());
    for batch in queries.chunks(BATCH_LEN) {
        out.extend(server.serve_batch(batch));
    }
    out
}

/// The policy every storm runs under (refinement budget 4).
pub fn storm_policy(fallback: Fallback) -> ServePolicy {
    ServePolicy {
        fallback,
        refine_budget: 4,
    }
}

fn stats_json(server: &DatabaseServer) -> Json {
    let s = server.stats();
    Json::obj([
        ("queries", Json::UInt(s.queries)),
        ("dedup_hits", Json::UInt(s.dedup_hits)),
        ("degraded", Json::UInt(s.degraded)),
        ("errors", Json::UInt(s.errors)),
        ("refined", Json::UInt(s.refined)),
    ])
}

/// The deterministic section: cold and hot storms on a clean table, then
/// the closed refinement loop on a holed table — a degraded storm under
/// the nearest-valid policy, hottest holes drained and "re-run" (the
/// analytic truth stands in for a converged [`columbia_core::DatabaseFill`]
/// re-run; every third node fails its first re-run to exercise re-queue),
/// repeated until the table is hole-free and the storm digest matches the
/// clean table's answers for the same stream. This is `--database`.
pub fn database_storm(_: &Opts) -> Rendered {
    let entries = synthetic_entries();
    let db = AeroDatabase::from_entries(&entries).expect("synthetic fill is clean");
    let n = STORM_BATCHES * BATCH_LEN;

    // Cold storm: strict policy, envelope-wide.
    let mut cold_server = DatabaseServer::new(db.clone(), &storm_policy(Fallback::Strict));
    let cold = serve_storm(&mut cold_server, &cold_queries(n, STORM_SEED));
    assert!(cold.iter().all(|r| r.is_ok()), "clean table never errors");

    // Hot storm: strict policy, trajectory dwell.
    let mut hot_server = DatabaseServer::new(db.clone(), &storm_policy(Fallback::Strict));
    let hot = serve_storm(&mut hot_server, &hot_queries(n, STORM_SEED));

    // Degraded storm + closed refinement loop on a holed copy.
    let mut holed = entries;
    let holes = poison_entries(&mut holed, STORM_HOLES, STORM_SEED);
    let holed_db = AeroDatabase::from_entries_masked(&holed).expect("masked build admits holes");
    assert_eq!(holed_db.holes(), STORM_HOLES);
    let mut server = DatabaseServer::new(holed_db, &storm_policy(Fallback::Nearest));
    let storm = degraded_queries(server.database(), BATCH_LEN, STORM_SEED);
    let (dsx, msx, asx) = storm_axes();
    let mut failed_once: Vec<usize> = Vec::new();
    let mut rounds = Vec::new();
    let mut final_digest = 0u64;
    for round in 0..8 {
        let responses = serve_storm(&mut server, &storm);
        let degraded = responses
            .iter()
            .filter(|r| matches!(r, Ok(resp) if resp.degraded))
            .count();
        final_digest = digest_responses(&responses);
        rounds.push(Json::obj([
            ("round", Json::UInt(round as u64)),
            ("degraded", Json::UInt(degraded as u64)),
            ("holes", Json::UInt(server.database().holes() as u64)),
            ("digest", Json::Str(format!("{final_digest:016x}"))),
        ]));
        if server.database().holes() == 0 {
            break;
        }
        // Background refill: drain the hottest queued holes and land the
        // analytic truth, except each `node % 3 == 0` hole fails its first
        // re-run (stays masked, is re-queued by the next blocked query).
        let (_, nm, na) = DB_SHAPE;
        for (d, m, a) in server.drain_refinement() {
            let node = (d * nm + m) * na + a;
            if node % 3 == 0 && !failed_once.contains(&node) {
                failed_once.push(node);
                continue;
            }
            let (force, moment) = analytic_loads(dsx[d], msx[m], asx[a]);
            assert!(server.apply_refinement(d, m, a, force, moment));
        }
    }
    assert_eq!(
        server.database().holes(),
        0,
        "refinement loop must converge"
    );
    // Post-refill answers must be bit-identical to a clean-table server.
    let mut clean = DatabaseServer::new(db, &storm_policy(Fallback::Nearest));
    let clean_digest = digest_responses(&serve_storm(&mut clean, &storm));
    assert_eq!(
        final_digest, clean_digest,
        "refined table must answer exactly like a never-holed one"
    );

    let nrounds = rounds.len();
    let json = Json::obj([
        (
            "grid",
            Json::arr([DB_SHAPE.0, DB_SHAPE.1, DB_SHAPE.2].map(|x| Json::UInt(x as u64))),
        ),
        ("seed", Json::UInt(STORM_SEED)),
        ("batch_len", Json::UInt(BATCH_LEN as u64)),
        ("storm_queries", Json::UInt(n as u64)),
        (
            "cold",
            Json::obj([
                (
                    "digest",
                    Json::Str(format!("{:016x}", digest_responses(&cold))),
                ),
                ("stats", stats_json(&cold_server)),
            ]),
        ),
        (
            "hot",
            Json::obj([
                (
                    "digest",
                    Json::Str(format!("{:016x}", digest_responses(&hot))),
                ),
                ("distinct", Json::UInt(HOT_DISTINCT as u64)),
                ("stats", stats_json(&hot_server)),
            ]),
        ),
        (
            "refinement",
            Json::obj([
                ("holes_injected", Json::UInt(holes.len() as u64)),
                ("rounds", Json::Arr(rounds)),
                ("matches_clean_table", Json::Bool(true)),
                ("stats", stats_json(&server)),
            ]),
        ),
    ]);
    let mut text =
        String::from("database-server storms (deterministic: counters, response digests):\n");
    for storm in ["cold", "hot"] {
        text += &format!("  {storm:<5}: ");
        text += &line(
            "{stats.queries:>6} queries, {stats.dedup_hits:>6} dedup hits, digest {digest}\n",
            json.get(storm).expect("storm section present"),
        );
    }
    text += &format!("  refinement loop: {nrounds} round(s) to a hole-free table\n");
    Rendered { json, text }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_section_is_deterministic_and_converges() {
        let a = database_storm(&Opts::default()).json.render_pretty();
        let b = database_storm(&Opts::default()).json.render_pretty();
        assert_eq!(a, b, "storm section must be byte-stable");
        assert!(a.contains("matches_clean_table"));
    }

    #[test]
    fn hot_storm_is_dominated_by_dedup() {
        let db = AeroDatabase::from_entries(&synthetic_entries()).unwrap();
        let mut server = DatabaseServer::new(db, &storm_policy(Fallback::Strict));
        let responses = serve_storm(&mut server, &hot_queries(4 * BATCH_LEN, STORM_SEED));
        assert!(responses.iter().all(|r| r.is_ok()));
        let s = server.stats();
        // Each batch answers at most HOT_DISTINCT queries outside the memo.
        assert!(s.dedup_hits >= s.queries * 9 / 10, "{s:?}");
        assert!(s.cache_misses <= 4 * HOT_DISTINCT as u64, "{s:?}");
    }
}
