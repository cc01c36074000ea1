//! A database fill meshes and coarsens each configuration once, and every
//! case borrows that one `CartHierarchy`. Sharing must change nothing:
//! each entry equals a direct `CartAnalysis::run_on_mesh` on a freshly
//! meshed copy bit for bit, every solver's levels point at the
//! configuration's own meshes and maps, and the workers' case queue makes
//! the fill independent of its thread count, retries and quarantines
//! included.

use columbia_cartesian::{sslv_geometry, Geometry, TriMesh};
use columbia_core::{
    CartAnalysis, CartReport, DatabaseEntry, DatabaseFill, DatabaseSpec, ExecContext, FillPolicy,
};
use columbia_euler::{EulerParams, EulerSolver, Forces};
use columbia_mesh::Vec3;
use columbia_rt::CasePlan;
use std::sync::Arc;

/// The chunky finned body of the fill unit tests, at octree levels 3-4.
fn finned_fill() -> (DatabaseFill, DatabaseSpec) {
    let fill = DatabaseFill::new(CartAnalysis::default().resolution(3, 4), |defl| {
        let mut fin = TriMesh::cuboid(Vec3::new(0.1, -0.1, -0.4), Vec3::new(0.5, 0.1, 0.4));
        fin.rotate(2, Vec3::ZERO, defl);
        Geometry::new(&[fin])
    });
    let spec = DatabaseSpec {
        deflections: vec![0.0, 0.2],
        machs: vec![0.5, 2.0],
        alphas: vec![0.0, 0.05],
        betas: vec![0.0],
        cycles: 6,
    };
    (fill, spec)
}

fn load_bits(f: &Forces) -> [u64; 6] {
    let (a, m) = (f.force, f.moment);
    [a.x, a.y, a.z, m.x, m.y, m.z].map(f64::to_bits)
}

fn history_bits(r: &CartReport) -> Vec<u64> {
    r.history.residuals.iter().map(|v| v.to_bits()).collect()
}

/// Fill `spec` on `threads` workers, then solve every case again on a
/// fresh mesh of its configuration, and once more on one hierarchy shared
/// by all of that configuration's cases: all three agree bit for bit.
fn assert_fill_equals_direct_solves(fill: &DatabaseFill, spec: &DatabaseSpec, threads: usize) {
    let db = fill.run(spec, threads, &mut ExecContext::default());
    assert_eq!(db.len(), spec.ncases());
    let nwind = spec.ncases() / spec.deflections.len();
    for (config, &defl) in spec.deflections.iter().enumerate() {
        let mesh = fill.analysis.mesh(&(fill.geometry)(defl));
        let shared = fill.analysis.hierarchy(mesh.clone());
        for e in &db[config * nwind..(config + 1) * nwind] {
            assert!(e.status.is_ok(), "{e:?}");
            let an = fill.analysis.clone().wind(e.mach, e.alpha, e.beta);
            let direct = an.run_on_mesh(mesh.clone(), spec.cycles);
            let borrowed = an.run_on_hierarchy(&shared, spec.cycles);
            let at = (e.deflection, e.mach, e.alpha);
            assert_eq!(load_bits(&e.forces), load_bits(&direct.forces), "{at:?}");
            assert_eq!(
                e.orders.to_bits(),
                direct.history.orders_reduced().to_bits(),
                "{at:?}"
            );
            assert_eq!(
                (e.cycles, e.guard_trips),
                (direct.history.cycles(), direct.guard_trips)
            );
            assert_eq!(history_bits(&borrowed), history_bits(&direct), "{at:?}");
            assert_eq!(load_bits(&borrowed.forces), load_bits(&direct.forces));
        }
    }
}

#[test]
fn finned_body_fill_equals_direct_solves_bit_for_bit() {
    let (fill, spec) = finned_fill();
    assert_fill_equals_direct_solves(&fill, &spec, 2);
}

#[test]
fn sslv_fill_equals_direct_solves_bit_for_bit() {
    // One (4,7) SSLV configuration inside the solver's converging
    // envelope (CFL 1.0, small deflection), two wind cases.
    let mut analysis = CartAnalysis::default().resolution(4, 7);
    analysis.params.cfl = 1.0;
    let fill = DatabaseFill::new(analysis, sslv_geometry);
    let spec = DatabaseSpec {
        deflections: vec![0.05],
        machs: vec![0.55],
        alphas: vec![0.0, 0.03],
        betas: vec![0.0],
        cycles: 2,
    };
    assert_fill_equals_direct_solves(&fill, &spec, 2);
}

#[test]
fn every_solver_borrows_the_hierarchys_meshes_and_maps() {
    let (fill, _) = finned_fill();
    let hierarchy = fill
        .analysis
        .hierarchy(fill.analysis.mesh(&(fill.geometry)(0.0)));
    let n = hierarchy.nlevels();
    assert!(n >= 3, "a multigrid hierarchy: {n} levels");
    let solvers: Vec<EulerSolver> = [(0.5, 0.0), (2.0, 0.05)]
        .into_iter()
        .map(|(mach, alpha)| {
            let params = EulerParams {
                mach,
                alpha,
                ..fill.analysis.params
            };
            EulerSolver::on_hierarchy(&hierarchy, params)
        })
        .collect();
    for s in &solvers {
        assert_eq!(s.nlevels(), n);
        for (l, level) in s.levels.iter().enumerate() {
            assert!(
                Arc::ptr_eq(&level.mesh, &hierarchy.meshes()[l]),
                "level {l}"
            );
            match &level.to_coarse {
                Some(map) => assert!(Arc::ptr_eq(map, &hierarchy.to_coarse()[l]), "map {l}"),
                None => assert_eq!(l, n - 1, "only the coarsest level has no map"),
            }
        }
    }
    // Each solver holds one reference per level; none took a copy.
    let counts = |n: usize| {
        hierarchy.meshes().iter().all(|m| Arc::strong_count(m) == n)
            && hierarchy
                .to_coarse()
                .iter()
                .all(|m| Arc::strong_count(m) == n)
    };
    assert!(counts(1 + solvers.len()));
    drop(solvers);
    assert!(counts(1));

    // Fewer levels asked than the hierarchy holds: its first levels, and
    // the new coarsest level carries no map.
    let two = EulerSolver::on_hierarchy(
        &hierarchy,
        EulerParams {
            nlevels: 2,
            ..fill.analysis.params
        },
    );
    assert_eq!(two.nlevels(), 2);
    assert!(Arc::ptr_eq(&two.levels[1].mesh, &hierarchy.meshes()[1]));
    assert!(two.levels[1].to_coarse.is_none());
}

/// Everything a fill entry records, as comparable bits.
fn entry_bits(e: &DatabaseEntry) -> (String, [u64; 6], u64, usize, u64) {
    (
        format!("{:?}", e.status),
        load_bits(&e.forces),
        e.orders.to_bits(),
        e.cycles,
        e.guard_trips,
    )
}

#[test]
fn queued_fill_with_a_retried_and_a_poisoned_case_is_thread_count_independent() {
    let (fill, spec) = finned_fill();
    // Find a transient schedule under which some case fails its first
    // attempt and recovers; poison another so it is quarantined.
    let policy = (0u64..)
        .map(|seed| CasePlan::transient(seed, 0.3))
        .find(|p| (0..8).any(|c| c != 5 && p.fails(c, 0) && !p.fails(c, 1)))
        .map(|p| FillPolicy {
            max_attempts: 3,
            chaos: Some(p.poison(5)),
        })
        .unwrap();
    let run = |threads: usize| {
        let mut ctx = ExecContext::traced().with_fill(policy.clone());
        let db = fill.run(&spec, threads, &mut ctx);
        (db, ctx.finish_trace().to_json().render())
    };
    let (one, one_trace) = run(1);
    assert!(one
        .iter()
        .any(|e| matches!(e.status, columbia_core::CaseStatus::Recovered { .. })));
    assert!(matches!(
        one[5].status,
        columbia_core::CaseStatus::Quarantined { attempts: 3, .. }
    ));
    let (three, three_trace) = run(3);
    assert_eq!(
        one.iter().map(entry_bits).collect::<Vec<_>>(),
        three.iter().map(entry_bits).collect::<Vec<_>>()
    );
    assert_eq!(one_trace, three_trace);
}
