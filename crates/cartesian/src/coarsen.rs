//! Single-pass SFC coarsening and weighted SFC partitioning (paper §V,
//! Figures 10-12 and reference \[18\]).
//!
//! "Tracing along the SFC, cells that collapse into the same coarse cell
//! ('siblings') are collected whenever they are all the same size, and the
//! corresponding coarse cell is inserted into a new mesh structure...
//! the coarse mesh is automatically generated with its cells already
//! ordered along the SFC" — this module implements exactly that scan, plus
//! the on-the-fly partitioner that splits the weighted curve.

use crate::mesh::{CartFace, CartMesh, CellKind, CUT_CELL_WEIGHT};
use columbia_mesh::{merge_coarse_pairs, Vec3};
use columbia_sfc::{split_weighted_curve, CurvePartition};
use std::sync::Arc;

/// One coarsening step.
#[derive(Clone, Debug)]
pub struct Coarsening {
    /// The coarse mesh (already SFC-ordered by construction).
    pub coarse: CartMesh,
    /// Fine-cell → coarse-cell map.
    pub fine_to_coarse: Vec<u32>,
}

impl Coarsening {
    /// Fine/coarse cell ratio.
    pub fn ratio(&self, fine_cells: usize) -> f64 {
        fine_cells as f64 / self.coarse.ncells().max(1) as f64
    }
}

/// Single-pass sibling-collection coarsening along the SFC.
pub fn coarsen_mesh(fine: &CartMesh) -> Coarsening {
    let n = fine.ncells();
    let mut fine_to_coarse = vec![u32::MAX; n];

    // Scan along the SFC. A parent's subtree occupies one *aligned* key
    // block (both Morton and Hilbert visit each octant subtree
    // contiguously), so the flow children of a parent form a consecutive
    // run. A run merges when it covers the parent's entire flow subtree at
    // a single level: all cells at level `l`, keys confined to the aligned
    // block, at least two cells. This lets cut parents whose solid
    // (removed) children are missing still coarsen — exactly the
    // body-hugging coarse cut cells of the paper's Figure 11.
    let mut groups: Vec<(Vec<u32>, bool)> = Vec::new(); // (members, merged)
    let mut i = 0usize;
    while i < n {
        let l = fine.levels[i];
        let mut merged_end = i + 1;
        if l > 0 {
            let shift = 3 * (fine.max_level - (l - 1));
            let block = 1u64 << shift;
            let base = fine.sfc_keys[i] & !(block - 1);
            let starts_block = i == 0 || fine.sfc_keys[i - 1] < base;
            if starts_block {
                let mut j = i + 1;
                let mut uniform = true;
                while j < n && fine.sfc_keys[j] < base + block {
                    if fine.levels[j] != l {
                        uniform = false;
                    }
                    j += 1;
                }
                if uniform && j > i + 1 {
                    merged_end = j;
                }
            }
        }
        if merged_end > i + 1 {
            groups.push(((i as u32..merged_end as u32).collect(), true));
            i = merged_end;
        } else {
            groups.push((vec![i as u32], false));
            i += 1;
        }
    }

    let nc = groups.len();
    let mut centers = Vec::with_capacity(nc);
    let mut volumes = Vec::with_capacity(nc);
    let mut kinds = Vec::with_capacity(nc);
    let mut weights = Vec::with_capacity(nc);
    let mut wall_normal = Vec::with_capacity(nc);
    let mut sfc_keys = Vec::with_capacity(nc);
    let mut levels = Vec::with_capacity(nc);
    let mut coords = Vec::with_capacity(nc);
    for (ci, (members, merged)) in groups.iter().enumerate() {
        for &m in members {
            fine_to_coarse[m as usize] = ci as u32;
        }
        let f0 = members[0] as usize;
        if *merged {
            let mut vol = 0.0;
            let mut c = Vec3::ZERO;
            let mut w = Vec3::ZERO;
            let mut cut = false;
            for &m in members {
                let m = m as usize;
                vol += fine.volumes[m];
                c += fine.centers[m];
                w += fine.wall_normal[m];
                cut |= fine.kinds[m] == CellKind::Cut;
            }
            centers.push(c / members.len() as f64);
            volumes.push(vol);
            kinds.push(if cut { CellKind::Cut } else { CellKind::Full });
            weights.push(if cut { CUT_CELL_WEIGHT } else { 1.0 });
            wall_normal.push(w);
            sfc_keys.push(fine.sfc_keys[f0]);
            levels.push(fine.levels[f0] - 1);
            coords.push([
                fine.coords[f0][0] >> 1,
                fine.coords[f0][1] >> 1,
                fine.coords[f0][2] >> 1,
            ]);
        } else {
            centers.push(fine.centers[f0]);
            volumes.push(fine.volumes[f0]);
            kinds.push(fine.kinds[f0]);
            weights.push(fine.weights[f0]);
            wall_normal.push(fine.wall_normal[f0]);
            sfc_keys.push(fine.sfc_keys[f0]);
            levels.push(fine.levels[f0]);
            coords.push(fine.coords[f0]);
        }
    }

    // Aggregate faces between coarse groups; intra-group faces vanish.
    // Boundary faces aggregate per (cell, direction), so that opposite
    // domain faces never cancel: keyed past every cell id by direction,
    // they follow their cell's interior faces.
    const FIRST_BOUNDARY: u32 = u32::MAX - 6;
    let c = |cell: u32| fine_to_coarse[cell as usize];
    let fine_face = |i: usize| {
        let f = &fine.faces[i];
        let b = match f.is_boundary() {
            true => FIRST_BOUNDARY + (dominant_direction(f.normal) + 3) as u32,
            false => c(f.b),
        };
        (c(f.a), b, f.normal)
    };
    let face = |a, b, normal| CartFace {
        a,
        b: if b >= FIRST_BOUNDARY { u32::MAX } else { b },
        normal,
    };
    let faces = merge_coarse_pairs(fine.faces.len(), fine_face, face);

    let coarse = CartMesh {
        centers,
        volumes,
        kinds,
        weights,
        wall_normal,
        faces,
        sfc_keys,
        levels,
        coords,
        max_level: fine.max_level,
    };
    Coarsening {
        coarse,
        fine_to_coarse,
    }
}

/// Signed dominant axis of an axis-aligned normal: +-1, +-2, +-3.
fn dominant_direction(n: Vec3) -> i8 {
    let ax = n.x.abs();
    let ay = n.y.abs();
    let az = n.z.abs();
    if ax >= ay && ax >= az {
        if n.x >= 0.0 {
            1
        } else {
            -1
        }
    } else if ay >= az {
        if n.y >= 0.0 {
            2
        } else {
            -2
        }
    } else if n.z >= 0.0 {
        3
    } else {
        -3
    }
}

/// Build a full coarsening hierarchy (finest first in the result's
/// conceptual ordering; element `l` coarsens level `l` to `l + 1`).
pub fn coarsen_hierarchy(fine: &CartMesh, max_levels: usize, min_cells: usize) -> Vec<Coarsening> {
    let mut steps: Vec<Coarsening> = Vec::new();
    let mut current = fine;
    for _ in 1..max_levels {
        if current.ncells() <= min_cells {
            break;
        }
        let step = coarsen_mesh(current);
        if step.coarse.ncells() >= current.ncells() {
            break;
        }
        steps.push(step);
        current = &steps.last().unwrap().coarse;
    }
    steps
}

/// A configuration's multigrid geometry, built once and shared: the fine
/// mesh and its SFC-coarsened levels, each behind an `Arc`, and the
/// fine → coarse maps between them. Every wind case of a database fill
/// borrows the same hierarchy; only the flow state is per case.
#[derive(Clone, Debug)]
pub struct CartHierarchy {
    meshes: Vec<Arc<CartMesh>>,
    to_coarse: Vec<Arc<[u32]>>,
}

impl CartHierarchy {
    /// A level with at most this many cells is not coarsened further.
    pub const MIN_CELLS: usize = 8;

    /// Coarsen `fine` into at most `max_levels` levels with
    /// [`coarsen_hierarchy`]; the first `k` levels of a deeper hierarchy
    /// are the levels of a `k`-level one.
    pub fn new(fine: impl Into<Arc<CartMesh>>, max_levels: usize) -> Self {
        let fine = fine.into();
        let steps = coarsen_hierarchy(&fine, max_levels, Self::MIN_CELLS);
        let mut meshes = Vec::with_capacity(steps.len() + 1);
        let mut to_coarse = Vec::with_capacity(steps.len());
        meshes.push(fine);
        for step in steps {
            meshes.push(Arc::new(step.coarse));
            to_coarse.push(step.fine_to_coarse.into());
        }
        CartHierarchy { meshes, to_coarse }
    }

    /// Number of levels.
    pub fn nlevels(&self) -> usize {
        self.meshes.len()
    }

    /// The finest mesh.
    pub fn fine(&self) -> &CartMesh {
        &self.meshes[0]
    }

    /// Meshes, finest first.
    pub fn meshes(&self) -> &[Arc<CartMesh>] {
        &self.meshes
    }

    /// Fine → coarse maps: entry `l` maps the cells of `meshes()[l]` to
    /// those of `meshes()[l + 1]`, so there is one fewer than meshes.
    pub fn to_coarse(&self) -> &[Arc<[u32]>] {
        &self.to_coarse
    }
}

/// Partition the (SFC-ordered) cells into `nparts` contiguous curve
/// segments, cut cells weighted 2.1x (paper Figure 12).
pub fn partition_cells(mesh: &CartMesh, nparts: usize) -> CurvePartition {
    split_weighted_curve(&mesh.weights, nparts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::extract_mesh;
    use crate::octree::{build_octree, CutCellConfig};
    use crate::tri::{Geometry, TriMesh};
    use columbia_mesh::Vec3 as V;
    use columbia_sfc::CurveKind;

    fn uniform_mesh(level: u32, curve: CurveKind) -> CartMesh {
        let g = Geometry::new(&[]);
        let config = CutCellConfig {
            min_level: level,
            max_level: level,
            origin: V::ZERO,
            size: 1.0,
        };
        let tree = build_octree(&g, &config);
        extract_mesh(&tree, &g, curve, 0.05)
    }

    fn sphere_mesh(max_level: u32) -> CartMesh {
        let prof: Vec<(f64, f64)> = (0..=12)
            .map(|i| {
                let t = std::f64::consts::PI * i as f64 / 12.0;
                (-0.3 * t.cos(), 0.3 * t.sin())
            })
            .collect();
        let geom = Geometry::new(&[TriMesh::body_of_revolution(&prof, 12)]);
        let config = CutCellConfig {
            min_level: 4,
            max_level,
            origin: V::new(-1.0, -1.0, -1.0),
            size: 2.0,
        };
        let tree = build_octree(&geom, &config);
        extract_mesh(&tree, &geom, CurveKind::Hilbert, 0.05)
    }

    #[test]
    fn uniform_grid_coarsens_by_exactly_8() {
        for curve in [CurveKind::Morton, CurveKind::Hilbert] {
            let m = uniform_mesh(3, curve);
            assert_eq!(m.ncells(), 512);
            let c = coarsen_mesh(&m);
            assert_eq!(c.coarse.ncells(), 64, "{curve:?}");
            assert!((c.ratio(m.ncells()) - 8.0).abs() < 1e-12);
            c.coarse.validate().unwrap();
        }
    }

    #[test]
    fn adapted_mesh_coarsening_ratio_near_7_plus() {
        // The paper: "coarsening ratios in excess of 7 on typical examples".
        let m = sphere_mesh(6);
        let c = coarsen_mesh(&m);
        let r = c.ratio(m.ncells());
        assert!(r > 4.0, "ratio {r}");
        c.coarse.validate().unwrap();
    }

    #[test]
    fn coarsening_conserves_volume_and_wall_area() {
        let m = sphere_mesh(4);
        let c = coarsen_mesh(&m);
        assert!((c.coarse.total_volume() - m.total_volume()).abs() < 1e-12);
        let fine_wall: Vec3 = m.wall_normal.iter().fold(V::ZERO, |a, &b| a + b);
        let coarse_wall: Vec3 = c.coarse.wall_normal.iter().fold(V::ZERO, |a, &b| a + b);
        assert!((fine_wall - coarse_wall).norm() < 1e-12);
    }

    #[test]
    fn coarse_mesh_closure_holds() {
        let m = sphere_mesh(4);
        let c = coarsen_mesh(&m);
        assert!(
            c.coarse.max_closure_defect() < 1e-11,
            "defect {}",
            c.coarse.max_closure_defect()
        );
    }

    #[test]
    fn hierarchy_terminates_and_shrinks() {
        let m = sphere_mesh(4);
        let steps = coarsen_hierarchy(&m, 4, 10);
        assert!(steps.len() >= 2);
        let mut prev = m.ncells();
        for s in &steps {
            assert!(s.coarse.ncells() < prev);
            prev = s.coarse.ncells();
        }
    }

    #[test]
    fn shared_hierarchy_holds_the_coarsening_steps_and_nests_shallower_ones() {
        let m = sphere_mesh(4);
        let steps = coarsen_hierarchy(&m, 4, CartHierarchy::MIN_CELLS);
        let deep = CartHierarchy::new(m.clone(), 4);
        assert_eq!(deep.nlevels(), steps.len() + 1);
        assert_eq!(deep.fine().ncells(), m.ncells());
        let bits = |v: V| [v.x, v.y, v.z].map(f64::to_bits);
        for (l, s) in steps.iter().enumerate() {
            assert_eq!(deep.to_coarse()[l][..], s.fine_to_coarse[..]);
            let (a, b) = (&deep.meshes()[l + 1], &s.coarse);
            assert_eq!(a.ncells(), b.ncells());
            assert_eq!(a.nfaces(), b.nfaces());
            for (x, y) in a.faces.iter().zip(&b.faces) {
                assert_eq!((x.a, x.b, bits(x.normal)), (y.a, y.b, bits(y.normal)));
            }
        }
        let shallow = CartHierarchy::new(m, 2);
        assert_eq!(shallow.nlevels(), 2);
        assert_eq!(shallow.to_coarse(), &deep.to_coarse()[..1]);
    }

    #[test]
    fn coarse_mesh_is_immediately_coarsenable_again() {
        // The paper stresses the coarse mesh comes out SFC-ordered, ready
        // for another pass.
        let m = uniform_mesh(3, CurveKind::Hilbert);
        let c1 = coarsen_mesh(&m);
        let c2 = coarsen_mesh(&c1.coarse);
        assert_eq!(c2.coarse.ncells(), 8);
        let c3 = coarsen_mesh(&c2.coarse);
        assert_eq!(c3.coarse.ncells(), 1);
    }

    #[test]
    fn coarsening_twice_gives_identical_face_lists() {
        // Cells on the domain boundary carry up to three far-field faces
        // that tie on `(a, u32::MAX)`; they come out in one order, by
        // direction.
        let m = sphere_mesh(5);
        let a = coarsen_mesh(&m).coarse;
        let b = coarsen_mesh(&m).coarse;
        assert_eq!(a.faces.len(), b.faces.len());
        for (i, (fa, fb)) in a.faces.iter().zip(&b.faces).enumerate() {
            assert_eq!((fa.a, fa.b), (fb.a, fb.b), "face {i} endpoints");
            for (x, y) in [
                (fa.normal.x, fb.normal.x),
                (fa.normal.y, fb.normal.y),
                (fa.normal.z, fb.normal.z),
            ] {
                assert_eq!(x.to_bits(), y.to_bits(), "face {i} normal");
            }
        }
    }

    #[test]
    fn partition_balances_weighted_cells() {
        let m = sphere_mesh(5);
        let p = partition_cells(&m, 16);
        assert_eq!(p.nparts(), 16);
        let imb = p.imbalance(&m.weights);
        assert!(imb < 1.05, "imbalance {imb}");
    }

    #[test]
    fn sfc_partitions_are_spatially_compact() {
        // Surface-to-volume of SFC partitions should beat random
        // partitions by a wide margin: measure cut faces.
        let m = uniform_mesh(4, CurveKind::Hilbert); // 4096 cells
        let p = partition_cells(&m, 8);
        let owner: Vec<usize> = (0..m.ncells()).map(|i| p.owner(i)).collect();
        let cut_sfc = m
            .faces
            .iter()
            .filter(|f| !f.is_boundary() && owner[f.a as usize] != owner[f.b as usize])
            .count();
        // Random assignment cuts ~ (1 - 1/8) of interior faces.
        let interior = m.faces.iter().filter(|f| !f.is_boundary()).count();
        assert!(
            (cut_sfc as f64) < 0.25 * interior as f64,
            "SFC cut {cut_sfc} of {interior}"
        );
    }

    columbia_rt::props! {
        config: columbia_rt::props::Config::with_cases(16);
        /// On a uniform mesh every octant merges: the coarsening ratio is
        /// exactly 8 for either curve, and the fine-to-coarse map is total.
        fn prop_uniform_coarsening_ratio_is_eight(level in 2u32..4, kindsel in 0u32..2) {
            let curve = if kindsel == 0 { CurveKind::Morton } else { CurveKind::Hilbert };
            let m = uniform_mesh(level, curve);
            let c = coarsen_mesh(&m);
            assert!((c.ratio(m.ncells()) - 8.0).abs() < 1e-12);
            assert!(c.fine_to_coarse.iter().all(|&j| (j as usize) < c.coarse.ncells()));
        }

        /// Weighted SFC partitions stay balanced for any part count the
        /// curve can support.
        fn prop_partition_imbalance_bounded(nparts in 2usize..12) {
            let m = uniform_mesh(3, CurveKind::Hilbert);
            let p = partition_cells(&m, nparts);
            assert_eq!(p.nparts(), nparts);
            let imb = p.imbalance(&m.weights);
            assert!(imb < 1.30, "imbalance {} at {} parts", imb, nparts);
        }
    }
}
