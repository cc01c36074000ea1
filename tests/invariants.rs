//! Physical invariants of the Cartesian (Cart3D-analogue) residual, checked
//! against the discrete equations rather than against goldens.
//!
//! - **Discrete conservation.** Interior face fluxes leave one cell and
//!   enter its neighbour, so over all active cells the residual sums to
//!   minus the far-field face fluxes and the wall-closure fluxes, up to
//!   round-off. The boundary fluxes come from the `state.rs` oracle
//!   functions, not from the level's own face loop.
//! - **Freestream preservation.** With `u = fs` everywhere, an uncut cell
//!   whose face neighbours are all uncut should have a residual of exactly
//!   `0.0`: identical states cancel the dissipation and opposite faces
//!   carry the same area bits. Today it fails on most such cells, by the
//!   rounding of the cell's running face sum (a few ε of the largest face
//!   flux), so the suite asserts the count of cells where it fails, per
//!   mesh. A change to the mesher or the face loop that moves a count
//!   must say why.
//!
//! The meshes are the sphere at octree levels (3,5) and the SSLV stack at
//! (4,7).

use columbia_cartesian::{
    build_octree, extract_mesh, sslv_geometry, CartMesh, CellKind, CutCellConfig, Geometry, TriMesh,
};
use columbia_euler::state::{rusanov, wall_flux, GAMMA};
use columbia_euler::{freestream5, EulerLevel, State5, NVARS5};
use columbia_mesh::Vec3;
use columbia_rt::{derive_seed, Pcg32};
use columbia_sfc::CurveKind;
use std::sync::OnceLock;

fn sphere_3_5() -> &'static CartMesh {
    static MESH: OnceLock<CartMesh> = OnceLock::new();
    MESH.get_or_init(|| {
        let prof: Vec<(f64, f64)> = (0..=12)
            .map(|i| {
                let t = std::f64::consts::PI * i as f64 / 12.0;
                (-0.3 * t.cos(), 0.3 * t.sin())
            })
            .collect();
        let geom = Geometry::new(&[TriMesh::body_of_revolution(&prof, 12)]);
        let config = CutCellConfig {
            min_level: 3,
            max_level: 5,
            origin: Vec3::new(-1.0, -1.0, -1.0),
            size: 2.0,
        };
        extract_mesh(
            &build_octree(&geom, &config),
            &geom,
            CurveKind::Hilbert,
            0.1,
        )
    })
}

fn sslv_4_7() -> &'static CartMesh {
    static MESH: OnceLock<CartMesh> = OnceLock::new();
    MESH.get_or_init(|| {
        let geom = sslv_geometry(0.0);
        let config = CutCellConfig::around(&geom, 3.0, 4, 7);
        extract_mesh(
            &build_octree(&geom, &config),
            &geom,
            CurveKind::Hilbert,
            0.1,
        )
    })
}

/// A random state per cell: density 0.5-2, velocity components within
/// ±0.6, pressure 0.3-1.5.
fn random_state(rng: &mut Pcg32) -> State5 {
    let rho = rng.gen_range(0.5..2.0);
    let v = [(); 3].map(|_| rng.gen_range(-0.6..0.6));
    let p = rng.gen_range(0.3..1.5);
    let q2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
    [
        rho,
        rho * v[0],
        rho * v[1],
        rho * v[2],
        p / (GAMMA - 1.0) + 0.5 * rho * q2,
    ]
}

/// Per component: the residual summed over the active cells, minus the
/// oracle's boundary sum (−far-field −wall), and the round-off allowance
/// (face count × ε × the largest flux component of any face or wall).
fn conservation_defect(mesh: &CartMesh, seed: u64) -> [(f64, f64); NVARS5] {
    let fs = freestream5(0.6, 0.05, 0.02);
    let mut lvl = EulerLevel::new(mesh.clone(), fs, 1.0);
    let mut rng = Pcg32::seed_from_u64(seed);
    for c in 0..lvl.ncells() {
        lvl.u.set(c, &random_state(&mut rng));
    }
    lvl.compute_residual();

    // (flux, whether it crosses the domain boundary) for every face and
    // every wall closure.
    let u = &lvl.u;
    let faces = mesh.faces.iter().map(|f| {
        let ua = u.get(f.a as usize);
        if f.is_boundary() {
            (rusanov(&ua, &fs, f.normal), true)
        } else {
            (rusanov(&ua, &u.get(f.b as usize), f.normal), false)
        }
    });
    let walls = (0..mesh.ncells())
        .filter(|&c| mesh.wall_normal[c].norm2() > 0.0)
        .map(|c| (wall_flux(&u.get(c), mesh.wall_normal[c]), true));
    let mut boundary = [0.0; NVARS5];
    let mut largest = [0.0f64; NVARS5];
    let mut terms = 0usize;
    for (flux, crosses) in faces.chain(walls) {
        terms += 1;
        for k in 0..NVARS5 {
            if crosses {
                boundary[k] -= flux[k];
            }
            largest[k] = largest[k].max(flux[k].abs());
        }
    }
    let mut out = [(0.0, 0.0); NVARS5];
    for k in 0..NVARS5 {
        let sum: f64 = lvl.res.plane(k).iter().sum();
        out[k] = (
            (sum - boundary[k]).abs(),
            terms as f64 * f64::EPSILON * largest[k],
        );
    }
    out
}

fn assert_conserves(name: &str, mesh: &CartMesh) {
    for i in 0..3 {
        let seed = derive_seed(0x1AB5, i);
        for (k, (defect, allowed)) in conservation_defect(mesh, seed).into_iter().enumerate() {
            assert!(
                defect <= allowed,
                "{name}, seed {seed:#x}: component {k} of the summed residual is {defect:e} \
                 off the boundary fluxes (round-off allows {allowed:e})"
            );
        }
    }
}

#[test]
fn residual_sums_to_the_boundary_fluxes_on_the_sphere() {
    assert_conserves("sphere (3,5)", sphere_3_5());
}

#[test]
fn residual_sums_to_the_boundary_fluxes_on_the_sslv() {
    assert_conserves("SSLV (4,7)", sslv_4_7());
}

/// Uncut cells whose every face neighbour is uncut, how many of them have
/// a residual that is not exactly `0.0` at `u = fs`, and the largest such
/// residual component in units of ε × the largest face flux component.
fn freestream_failures(mesh: &CartMesh) -> (usize, usize, f64) {
    let n = mesh.ncells();
    let cut = |c: u32| mesh.kinds[c as usize] == CellKind::Cut;
    let mut eligible: Vec<bool> = (0..n as u32).map(|c| !cut(c)).collect();
    for f in mesh.faces.iter().filter(|f| !f.is_boundary()) {
        if cut(f.a) || cut(f.b) {
            eligible[f.a as usize] = false;
            eligible[f.b as usize] = false;
        }
    }
    let fs = freestream5(0.6, 0.05, 0.02);
    let mut lvl = EulerLevel::new(mesh.clone(), fs, 1.0);
    lvl.compute_residual();
    let cells = (0..n).filter(|&c| eligible[c]);
    let failing = cells
        .clone()
        .filter(|&c| (0..NVARS5).any(|k| lvl.res.at(k, c) != 0.0))
        .count();
    let worst = cells
        .flat_map(|c| (0..NVARS5).map(move |k| (k, c)))
        .fold(0.0f64, |m, (k, c)| m.max(lvl.res.at(k, c).abs()));
    let scale = mesh
        .faces
        .iter()
        .flat_map(|f| rusanov(&fs, &fs, f.normal))
        .fold(0.0f64, |m, v| m.max(v.abs()));
    let eligible = eligible.iter().filter(|&&e| e).count();
    (eligible, failing, worst / (f64::EPSILON * scale))
}

#[test]
fn freestream_is_exact_on_uncut_cells_except_the_counted_ones() {
    for (name, mesh, want) in [
        ("sphere (3,5)", sphere_3_5(), (840, 776)),
        ("SSLV (4,7)", sslv_4_7(), (5626, 5415)),
    ] {
        let (eligible, failing, worst) = freestream_failures(mesh);
        assert_eq!(
            (eligible, failing),
            want,
            "{name}: (uncut cells with uncut neighbours, residual not exactly 0.0)"
        );
        // Where it fails, it fails by the rounding of a cell's face sum.
        assert!(
            worst <= 8.0,
            "{name}: largest residual {worst} eps x face flux"
        );
    }
}
