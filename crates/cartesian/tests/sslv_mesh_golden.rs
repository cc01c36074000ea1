//! The extracted SSLV cut-cell mesh is a golden.
//!
//! Each digest is an FNV-1a 64 over every field of the flow mesh (centers,
//! volumes, kinds, weights, wall normals, faces, SFC keys, levels, coords)
//! plus the face lists of its `coarsen_hierarchy`. The values were computed
//! on the mesher *before* its ray casts and lookups were made faster, so a
//! change to any `contains` / `intersects_box` boolean, any face, or any
//! cell order fails here.

use columbia_cartesian::{
    build_octree, coarsen_hierarchy, extract_mesh, sslv_geometry, CartMesh, CellKind, Coarsening,
    CutCellConfig,
};
use columbia_mesh::Vec3;
use columbia_rt::fnv;
use columbia_sfc::CurveKind;

fn fnv_vec(h: u64, v: Vec3) -> u64 {
    [v.x, v.y, v.z]
        .iter()
        .fold(h, |h, c| fnv::word(h, c.to_bits()))
}

fn faces_digest(mut h: u64, mesh: &CartMesh) -> u64 {
    h = fnv::word(h, mesh.faces.len() as u64);
    for f in &mesh.faces {
        h = fnv::word(h, f.a as u64);
        h = fnv::word(h, f.b as u64);
        h = fnv_vec(h, f.normal);
    }
    h
}

fn mesh_digest(mesh: &CartMesh, hierarchy: &[Coarsening]) -> u64 {
    let mut h = fnv::word(fnv::OFFSET, mesh.ncells() as u64);
    h = fnv::word(h, mesh.max_level as u64);
    for i in 0..mesh.ncells() {
        h = fnv_vec(h, mesh.centers[i]);
        h = fnv::word(h, mesh.volumes[i].to_bits());
        h = fnv::word(h, (mesh.kinds[i] == CellKind::Cut) as u64);
        h = fnv::word(h, mesh.weights[i].to_bits());
        h = fnv_vec(h, mesh.wall_normal[i]);
        h = fnv::word(h, mesh.sfc_keys[i]);
        h = fnv::word(h, mesh.levels[i] as u64);
        for c in mesh.coords[i] {
            h = fnv::word(h, c as u64);
        }
    }
    h = faces_digest(h, mesh);
    for step in hierarchy {
        h = faces_digest(h, &step.coarse);
    }
    h
}

/// `CartAnalysis::mesh`'s recipe (pad 3, Hilbert, volume floor 0.1).
fn sslv_mesh(min_level: u32, max_level: u32, deflection: f64) -> CartMesh {
    let geom = sslv_geometry(deflection);
    let config = CutCellConfig::around(&geom, 3.0, min_level, max_level);
    extract_mesh(
        &build_octree(&geom, &config),
        &geom,
        CurveKind::Hilbert,
        0.1,
    )
}

/// `validate` on the mesh and every coarse level: among other things,
/// every face normal has exactly one non-zero component.
fn validate_levels(fine: &CartMesh, hierarchy: &[Coarsening]) {
    fine.validate().unwrap();
    for (l, step) in hierarchy.iter().enumerate() {
        let v = step.coarse.validate();
        assert!(v.is_ok(), "coarse level {}: {v:?}", l + 1);
    }
}

const DEFLECTIONS: [f64; 4] = [-0.09, -0.0731, 0.0, 0.05];

fn check(min_level: u32, golden: [(usize, u64); 4]) {
    let got: Vec<(usize, u64)> = DEFLECTIONS
        .iter()
        .map(|&d| {
            let m = sslv_mesh(min_level, 8, d);
            let hierarchy = coarsen_hierarchy(&m, 4, 8);
            validate_levels(&m, &hierarchy);
            (m.ncells(), mesh_digest(&m, &hierarchy))
        })
        .collect();
    let shown: Vec<String> = got
        .iter()
        .map(|(n, h)| format!("({n}, {h:#018x})"))
        .collect();
    for (i, &d) in DEFLECTIONS.iter().enumerate() {
        assert_eq!(
            got[i],
            golden[i],
            "SSLV ({min_level},8) mesh at deflection {d} moved: got [{}]",
            shown.join(", ")
        );
    }
}

#[test]
fn sslv_mesh_5_8_is_bit_identical() {
    check(
        5,
        [
            (57319, 0xb5ff487484dd9ce5),
            (57319, 0x8a0fe1cc513ef8e2),
            (57414, 0x762de189555d30be),
            (57398, 0xb261c95ee2af52ef),
        ],
    );
}

#[test]
fn sslv_mesh_4_8_is_bit_identical() {
    check(
        4,
        [
            (29431, 0xeb2fae07dcc6e30b),
            (29431, 0xe9f4c552600e5ef4),
            (29526, 0x2ef8d9c70c2ef217),
            (29510, 0x9805fcb610bd495d),
        ],
    );
}

/// Coarsening down to a handful of cells keeps every face axis-aligned:
/// each coarse cell is an octree node, so two of them meet in one plane.
#[test]
fn sslv_hierarchy_faces_are_axis_aligned_on_every_level() {
    for d in [-0.1, 0.0, 0.1] {
        let m = sslv_mesh(3, 7, d);
        let hierarchy = coarsen_hierarchy(&m, 16, 1);
        assert!(hierarchy.len() >= 5, "{} levels", hierarchy.len());
        validate_levels(&m, &hierarchy);
    }
}
