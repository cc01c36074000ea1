//! Cross-crate integration: CFD database -> 6-DOF flight -> trim search
//! (the full §IV workflow, on real solver output).

use columbia_cartesian::{Geometry, TriMesh};
use columbia_core::{
    golden_section, trim_bisection, AeroDatabase, CartAnalysis, DatabaseFill, DatabaseSpec,
    ExecContext, RigidState, SixDof,
};
use columbia_mesh::Vec3;

/// A finned supersonic body whose elevon gives real pitch authority at the
/// coarse test resolution.
fn geometry(defl: f64) -> Geometry {
    let body = TriMesh::body_of_revolution(
        &[
            (0.0, 0.0),
            (0.4, 0.22),
            (2.4, 0.25),
            (2.8, 0.18),
            (3.0, 0.0),
        ],
        12,
    );
    let mut fin = TriMesh::cuboid(Vec3::new(2.4, -0.05, -0.7), Vec3::new(2.8, 0.05, 0.7));
    fin.rotate(2, Vec3::new(2.6, 0.0, 0.0), defl);
    Geometry::new(&[body, fin])
}

fn build_db() -> AeroDatabase {
    let fill = DatabaseFill::new(CartAnalysis::default().resolution(3, 5), geometry);
    let spec = DatabaseSpec {
        deflections: vec![-0.3, 0.0, 0.3],
        machs: vec![1.5, 2.5],
        alphas: vec![-0.1, 0.0, 0.1],
        betas: vec![0.0],
        cycles: 10,
    };
    AeroDatabase::from_entries(&fill.run(&spec, 4, &mut ExecContext::default()))
        .expect("clean fill has no quarantined entries")
}

#[test]
fn database_flight_and_trim_workflow() {
    let db = build_db();

    // Physicality of the interpolated tables: drag positive everywhere
    // sampled; drag grows with Mach.
    let (f15, _) = db.lookup(0.0, 1.5, 0.0);
    let (f25, _) = db.lookup(0.0, 2.5, 0.0);
    assert!(f15.x > 0.0 && f25.x > f15.x, "{} {}", f15.x, f25.x);

    // Fly: vehicle must decelerate and the trajectory stay finite.
    let vehicle = SixDof {
        db: db.clone(),
        mass: 300.0,
        inertia: Vec3::new(40.0, 40.0, 40.0),
        gravity: Vec3::ZERO,
        rate_damping: Vec3::new(20.0, 20.0, 20.0),
        control: |_| 0.0,
    };
    let traj = vehicle.fly(RigidState::level(2.2), 0.05, 400);
    let last = &traj.last().unwrap().1;
    assert!(last.mach() < 2.2);
    assert!(last.pos.x > 0.0 && last.pos.x.is_finite());

    // Optimisation over the database: minimise drag over the deflection
    // range at Mach 2, alpha 0. The coarse test meshes differ per
    // deflection, so the argmin location is discretisation-sensitive; what
    // the optimiser must guarantee is a bracketed optimum no worse than
    // the endpoints, within the analysis budget.
    let drag = |d: f64| db.lookup(d, 2.0, 0.0).0.x;
    let opt = golden_section(-0.3, 0.3, 1e-3, 50, drag).expect("a valid bracket and budget");
    assert!((-0.3..=0.3).contains(&opt.x));
    assert!(opt.value <= drag(-0.3).min(drag(0.3)) + 1e-12);
    assert!(opt.analysis_cycles <= 50);

    // Trim: pitching moment changes sign over the deflection range at some
    // alpha — find the trim deflection by bisection if a bracket exists.
    let m_at = |d: f64| db.lookup(d, 2.0, 0.05).1.y;
    let (mlo, mhi) = (m_at(-0.3), m_at(0.3));
    if mlo * mhi < 0.0 {
        let trim = trim_bisection(-0.3, 0.3, 1e-4, 60, m_at).expect("the bracket straddles zero");
        assert!(trim.x > -0.3 && trim.x < 0.3);
        assert!(m_at(trim.x).abs() < m_at(-0.3).abs());
    }
}
