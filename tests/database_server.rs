//! The aero-database server end to end: transparency over the table,
//! in-batch dedup, quarantine fallback under injected chaos, and the closed
//! refinement loop through the real `DatabaseFill` re-run path.
//!
//! The server may change *how* a query is answered — memoised duplicate,
//! nearest-valid fallback — but never *what* a valid answer contains: every
//! path must be bit-identical to the direct table lookup, and every replay
//! bit-identical to the first run.

use columbia_bench::database::{
    cold_queries, degraded_queries, hot_queries, poison_entries, serve_storm, storm_policy,
    synthetic_entries, STORM_SEED,
};
use columbia_cartesian::{Geometry, TriMesh};
use columbia_core::{
    digest_responses, AeroDatabase, CartAnalysis, DatabaseFill, DatabaseServer, DatabaseSpec,
    ExecContext, Fallback, FillPolicy, LookupError, Query, ServePolicy,
};
use columbia_rt::CasePlan;

/// A small body the coarse octree resolves quickly (the server tests need
/// real solver output, not fine aerodynamics).
fn geometry(_defl: f64) -> Geometry {
    let body = TriMesh::body_of_revolution(&[(0.0, 0.0), (0.5, 0.2), (2.5, 0.24), (3.0, 0.0)], 10);
    Geometry::new(&[body])
}

fn small_spec() -> DatabaseSpec {
    DatabaseSpec {
        deflections: vec![0.0, 0.3],
        machs: vec![1.5, 2.5],
        alphas: vec![0.0],
        betas: vec![0.0],
        cycles: 6,
    }
}

/// A chaos plan guaranteed to quarantine at least one of `ncases` cases
/// under a 2-attempt budget: seeded transients, with a deterministic
/// poison fallback if no case happens to fail both attempts.
fn quarantining_plan(seed: u64, ncases: u64) -> CasePlan {
    let plan = CasePlan::transient(seed, 0.4);
    if (0..ncases).any(|c| plan.fails(c, 0) && plan.fails(c, 1)) {
        plan
    } else {
        plan.poison(seed % ncases)
    }
}

#[test]
fn cold_storm_answers_equal_the_direct_lookup_bit_for_bit() {
    let db = AeroDatabase::from_entries(&synthetic_entries()).unwrap();
    let storm = cold_queries(4096, STORM_SEED);
    let mut server = DatabaseServer::new(db.clone(), &storm_policy(Fallback::Strict));
    for (q, r) in storm.iter().zip(serve_storm(&mut server, &storm)) {
        let (force, moment) = db.lookup(q.deflection, q.mach, q.alpha);
        let r = r.expect("clean table");
        assert_eq!((r.force, r.moment), (force, moment));
    }
}

#[test]
fn in_batch_duplicates_are_answered_once_and_identically() {
    let db = AeroDatabase::from_entries(&synthetic_entries()).unwrap();
    let mut server = DatabaseServer::new(db, &storm_policy(Fallback::Strict));
    let hot = hot_queries(4096, STORM_SEED);
    let batched = server.serve_batch(&hot);
    let stats = server.stats();
    assert!(
        stats.dedup_hits > 3500,
        "a 32-condition storm must dedup almost everything: {stats:?}"
    );
    // One-at-a-time serving (no memo) gives the same answers.
    let mut single = DatabaseServer::new(
        AeroDatabase::from_entries(&synthetic_entries()).unwrap(),
        &storm_policy(Fallback::Strict),
    );
    for (q, r) in hot.iter().zip(&batched) {
        assert_eq!(single.serve_one(*q), *r);
    }
    assert_eq!(single.stats().dedup_hits, 0);
}

#[test]
fn quarantine_fallback_is_typed_deterministic_and_opt_in_across_chaos_seeds() {
    for chaos_seed in [0xA5u64, 0x5EED, 0xBAD_CA5E, 7] {
        let fill = DatabaseFill::new(CartAnalysis::default().resolution(3, 4), geometry);
        let spec = small_spec();
        let plan = quarantining_plan(chaos_seed, spec.ncases() as u64);
        let policy = FillPolicy {
            max_attempts: 2,
            chaos: Some(plan),
        };
        let run = || {
            let mut ctx = ExecContext::default().with_fill(policy.clone());
            fill.run(&spec, 2, &mut ctx)
        };
        let entries = run();
        let quarantined = entries.iter().filter(|e| !e.status.is_ok()).count();
        assert!(quarantined > 0, "seed {chaos_seed:#x} quarantined nothing");

        // Strict construction refuses placeholder loads outright.
        assert!(matches!(
            AeroDatabase::from_entries(&entries),
            Err(columbia_core::TableError::QuarantinedNode { .. })
        ));

        let db = AeroDatabase::from_entries_masked(&entries).unwrap();
        assert_eq!(db.holes(), quarantined);
        let storm = degraded_queries(&db, 512, chaos_seed);

        // Strict service: blocked queries are typed errors, never blends.
        let mut strict = DatabaseServer::new(db.clone(), &storm_policy(Fallback::Strict));
        let strict_responses = serve_storm(&mut strict, &storm);
        let blocked = strict_responses
            .iter()
            .filter(|r| matches!(r, Err(LookupError::QuarantinedRegion { .. })))
            .count();
        assert!(blocked > 0, "hole-seeking storm found no holes");
        assert_eq!(strict.stats().errors as usize, blocked);
        assert_eq!(strict.stats().degraded, 0);
        assert!(strict.pending_refinements() > 0);

        // Opt-in fallback: the same storm degrades instead of erroring,
        // and every degraded answer is a real (valid-node) load.
        let mut nearest = DatabaseServer::new(db.clone(), &storm_policy(Fallback::Nearest));
        let nearest_responses = serve_storm(&mut nearest, &storm);
        assert!(nearest_responses.iter().all(|r| r.is_ok()));
        let degraded = nearest_responses
            .iter()
            .filter(|r| matches!(r, Ok(resp) if resp.degraded))
            .count();
        assert_eq!(
            degraded, blocked,
            "fallback must flag exactly the blocked queries"
        );

        // Bit-identical replay: fill, mask, storm — all of it.
        let replay_entries = run();
        let replay_db = AeroDatabase::from_entries_masked(&replay_entries).unwrap();
        let mut replay = DatabaseServer::new(replay_db, &storm_policy(Fallback::Nearest));
        assert_eq!(
            digest_responses(&serve_storm(&mut replay, &storm)),
            digest_responses(&nearest_responses),
            "chaos seed {chaos_seed:#x} replay diverged"
        );
    }
}

#[test]
fn refinement_reruns_through_the_fill_and_closes_the_holes() {
    let analysis = CartAnalysis::default().resolution(3, 4);
    let fill = DatabaseFill::new(analysis.clone(), geometry);
    let spec = small_spec();

    // Poison one case so the fill leaves exactly one hole.
    let poisoned_case = 1u64;
    let chaos_policy = FillPolicy {
        max_attempts: 2,
        chaos: Some(CasePlan::transient(0, 0.0).poison(poisoned_case)),
    };
    let mut ctx = ExecContext::default().with_fill(chaos_policy);
    let entries = fill.run(&spec, 2, &mut ctx);
    let db = AeroDatabase::from_entries_masked(&entries).unwrap();
    assert_eq!(db.holes(), 1);

    let mut server = DatabaseServer::new(db, &storm_policy(Fallback::Nearest));
    let storm = degraded_queries(server.database(), 64, STORM_SEED);
    let first = serve_storm(&mut server, &storm);
    assert!(first.iter().any(|r| matches!(r, Ok(resp) if resp.degraded)));
    assert!(server.pending_refinements() > 0);

    // Background refill under a clean policy: the re-run goes through
    // run_case (satellite fix), converges, and repairs the node.
    let mut clean_ctx = ExecContext::default();
    let (repaired, failing) = server.refine_with(&fill, 0.0, spec.cycles, &mut clean_ctx);
    assert_eq!((repaired, failing), (1, 0));
    assert_eq!(server.database().holes(), 0);
    assert_eq!(server.stats().refined, 1);

    // The repaired loads are the real solver answer: the served responses
    // now match a clean (never-poisoned) fill bit for bit.
    let clean_entries = fill.run(&spec, 2, &mut ExecContext::default());
    let clean_db = AeroDatabase::from_entries(&clean_entries).unwrap();
    let mut clean_server = DatabaseServer::new(clean_db, &storm_policy(Fallback::Nearest));
    assert_eq!(
        digest_responses(&serve_storm(&mut server, &storm)),
        digest_responses(&serve_storm(&mut clean_server, &storm)),
    );
}

#[test]
fn refinement_drains_hottest_holes_first_within_budget() {
    let mut entries = synthetic_entries();
    poison_entries(&mut entries, 6, STORM_SEED);
    let db = AeroDatabase::from_entries_masked(&entries).unwrap();
    let holes = db.hole_coords();
    let policy = ServePolicy {
        fallback: Fallback::Nearest,
        refine_budget: 2,
    };
    let mut server = DatabaseServer::new(db.clone(), &policy);
    // Hammer the first hole, touch the others once.
    let (ds, ms, aas) = db.axes();
    let at = |(d, m, a): (usize, usize, usize)| Query {
        deflection: ds[d],
        mach: ms[m],
        alpha: aas[a],
    };
    let mut storm = vec![at(holes[0]); 200];
    storm.extend(holes.iter().skip(1).map(|&h| at(h)));
    let _ = server.serve_batch(&storm);
    assert_eq!(server.pending_refinements(), holes.len());
    let drained = server.drain_refinement();
    assert_eq!(drained.len(), 2, "budget caps the drain");
    assert_eq!(drained[0], holes[0], "hottest hole drains first");
    assert_eq!(server.pending_refinements(), holes.len() - 2);
}
