//! Cell-centred finite-volume mesh extracted from the octree.
//!
//! Flow cells are the `Cut` and `Outside` leaves. Faces connect leaf pairs
//! (2:1 jumps produce sub-faces from the finer side), domain-boundary faces
//! carry the far-field condition, and each cut cell receives a wall-closure
//! area vector `-(sum of its open face normals)` through which the solver
//! applies the wall pressure flux. Cut cells get a flow-volume fraction from
//! corner+center containment sampling and the 2.1x partitioning weight the
//! paper uses for the SSLV example.

use crate::octree::{find_face_neighbor, LeafKind, Octree};
use crate::tri::Geometry;
use columbia_mesh::Vec3;
use columbia_sfc::CurveKind;

/// Flow-cell classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellKind {
    /// Full Cartesian hexahedron.
    Full,
    /// Cut by the surface.
    Cut,
}

/// A face between two flow cells, or between a cell and the far field.
#[derive(Clone, Copy, Debug)]
pub struct CartFace {
    /// Left cell index.
    pub a: u32,
    /// Right cell index, or `u32::MAX` for a far-field boundary face.
    pub b: u32,
    /// Area-weighted normal pointing from `a` to `b` (axis-aligned).
    pub normal: Vec3,
}

impl CartFace {
    /// Is this a far-field boundary face?
    pub fn is_boundary(&self) -> bool {
        self.b == u32::MAX
    }
}

/// The finite-volume mesh.
#[derive(Clone, Debug, Default)]
pub struct CartMesh {
    /// Cell centers.
    pub centers: Vec<Vec3>,
    /// Flow volumes (cut cells: fraction-weighted).
    pub volumes: Vec<f64>,
    /// Cell kinds.
    pub kinds: Vec<CellKind>,
    /// Partitioning weights (cut cells 2.1, full cells 1.0).
    pub weights: Vec<f64>,
    /// Wall-closure area vector per cell (non-zero only for cut cells).
    pub wall_normal: Vec<Vec3>,
    /// Interior + far-field faces.
    pub faces: Vec<CartFace>,
    /// Space-filling-curve key per cell (cells are stored in SFC order).
    pub sfc_keys: Vec<u64>,
    /// Refinement level per cell.
    pub levels: Vec<u32>,
    /// Integer cell coordinates at the cell's own level.
    pub coords: Vec<[u32; 3]>,
    /// Finest refinement level used for SFC key quantisation.
    pub max_level: u32,
}

/// Cut-cell weighting used for the SSLV decomposition in the paper.
pub const CUT_CELL_WEIGHT: f64 = 2.1;

impl CartMesh {
    /// Number of flow cells.
    pub fn ncells(&self) -> usize {
        self.centers.len()
    }

    /// Number of faces (including boundary faces).
    pub fn nfaces(&self) -> usize {
        self.faces.len()
    }

    /// Total flow volume.
    pub fn total_volume(&self) -> f64 {
        self.volumes.iter().sum()
    }

    /// Count of cut cells.
    pub fn ncut(&self) -> usize {
        self.kinds.iter().filter(|&&k| k == CellKind::Cut).count()
    }

    /// Structural validation for tests.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.ncells();
        for f in &self.faces {
            if f.a as usize >= n {
                return Err("face endpoint a out of range".into());
            }
            if !f.is_boundary() && f.b as usize >= n {
                return Err("face endpoint b out of range".into());
            }
            if !f.normal.norm().is_finite() || f.normal.norm() == 0.0 {
                return Err("degenerate face normal".into());
            }
            // Every cell, coarse ones included, is an octree node, and two
            // disjoint boxes share at most one plane.
            let v = f.normal;
            if [v.x, v.y, v.z].iter().filter(|&&c| c != 0.0).count() != 1 {
                return Err(format!("face normal {v:?} is not axis-aligned"));
            }
        }
        for (i, &v) in self.volumes.iter().enumerate() {
            if !(v > 0.0) {
                return Err(format!("cell {i} has non-positive volume"));
            }
        }
        // SFC keys strictly increasing (cells sorted along the curve).
        for w in self.sfc_keys.windows(2) {
            if w[1] <= w[0] {
                return Err("cells not in SFC order".into());
            }
        }
        Ok(())
    }

    /// Geometric closure: for every cell, the sum of outward face normals
    /// plus the wall normal must vanish (discrete Gauss). Returns the
    /// maximum closure defect.
    pub fn max_closure_defect(&self) -> f64 {
        let mut acc = vec![Vec3::ZERO; self.ncells()];
        for f in &self.faces {
            acc[f.a as usize] += f.normal;
            if !f.is_boundary() {
                acc[f.b as usize] -= f.normal;
            }
        }
        acc.iter()
            .zip(self.wall_normal.iter())
            .map(|(a, w)| (*a + *w).norm())
            .fold(0.0, f64::max)
    }
}

/// Extract the flow mesh from a classified octree.
///
/// `volume_fraction_floor` clamps tiny cut-cell volumes (Cart3D handles
/// small cells by merging; we clamp — documented substitution, the solver
/// uses local time stepping so only local stiffness is affected).
pub fn extract_mesh(
    tree: &Octree,
    geom: &Geometry,
    curve: CurveKind,
    volume_fraction_floor: f64,
) -> CartMesh {
    let max_level = tree.leaves.iter().map(|(a, _)| a.level).max().unwrap_or(0);

    // Flow cells in SFC order: key at max_level resolution of the cell's
    // first (lowest-coordinate) descendant... use the cell center quantised
    // at max_level for sibling contiguity we use the *corner* coordinate.
    let mut flow: Vec<(u64, u32)> = Vec::new(); // (key, leaf idx)
    for (i, (a, k)) in tree.leaves.iter().enumerate() {
        if *k == LeafKind::Inside {
            continue;
        }
        let shift = max_level - a.level;
        let key = curve.encode(a.ix << shift, a.iy << shift, a.iz << shift, max_level);
        flow.push((key, i as u32));
    }
    flow.sort_unstable();

    // Map leaf index -> flow cell index (`u32::MAX`: Inside, no cell).
    let mut cell_of_leaf = vec![u32::MAX; tree.leaves.len()];
    for (ci, (_, li)) in flow.iter().enumerate() {
        cell_of_leaf[*li as usize] = ci as u32;
    }

    let n = flow.len();
    let mut centers = Vec::with_capacity(n);
    let mut volumes = Vec::with_capacity(n);
    let mut kinds = Vec::with_capacity(n);
    let mut weights = Vec::with_capacity(n);
    let mut levels = Vec::with_capacity(n);
    let mut sfc_keys = Vec::with_capacity(n);
    let mut coords = Vec::with_capacity(n);
    for (key, li) in &flow {
        let (a, k) = tree.leaves[*li as usize];
        let h = tree.config.cell_size(a.level);
        let c = tree.config.center(&a);
        let full_vol = h * h * h;
        let (kind, vol, w) = match k {
            LeafKind::Cut => {
                let frac = flow_fraction(geom, c, h).max(volume_fraction_floor);
                (CellKind::Cut, full_vol * frac, CUT_CELL_WEIGHT)
            }
            _ => (CellKind::Full, full_vol, 1.0),
        };
        centers.push(c);
        volumes.push(vol);
        kinds.push(kind);
        weights.push(w);
        levels.push(a.level);
        sfc_keys.push(*key);
        coords.push([a.ix, a.iy, a.iz]);
    }

    // Faces. For each flow leaf and +direction: same-level neighbour, or
    // coarser neighbour (this side creates the face), or finer neighbours
    // (create the 4 sub-faces from this, the coarser, side). For -direction
    // only the boundary of the domain and coarse-to-fine cases are handled
    // by the owner logic below, so each face is built exactly once.
    let mut faces: Vec<CartFace> = Vec::new();
    for (ci, (_, li)) in flow.iter().enumerate() {
        let (a, my_kind) = tree.leaves[*li as usize];
        let h = tree.config.cell_size(a.level);
        let area = h * h;
        for axis in 0..3 {
            let axis_vec = match axis {
                0 => Vec3::new(1.0, 0.0, 0.0),
                1 => Vec3::new(0.0, 1.0, 0.0),
                _ => Vec3::new(0.0, 0.0, 1.0),
            };
            for dir in [1i32, -1] {
                let nvec = axis_vec * dir as f64;
                if a.neighbor(axis, dir).is_none() {
                    // Domain boundary: far-field face.
                    faces.push(CartFace {
                        a: ci as u32,
                        b: u32::MAX,
                        normal: nvec * area,
                    });
                    continue;
                }
                // The covering leaf (same level or coarser); where the
                // neighbour region is subdivided finer, the finer cells
                // create these faces.
                let Some(leaf_i) = find_face_neighbor(&tree.index, &a, axis, dir) else {
                    continue;
                };
                let (na, nk) = tree.leaves[leaf_i as usize];
                // Create once: same level -> only dir=+1; finer side
                // creates when neighbour coarser. An Inside neighbour is
                // covered by the wall closure.
                let create = if na.level == a.level {
                    dir == 1
                } else {
                    na.level < a.level
                };
                if !create || nk == LeafKind::Inside {
                    continue;
                }
                // Thin-body guard: a face between two cut cells can lie
                // inside the solid (bodies thinner than two cells leave no
                // Inside cells at all); such faces carry no flow and are
                // closed by the wall instead.
                if my_kind == LeafKind::Cut
                    && nk == LeafKind::Cut
                    && geom.contains(tree.config.center(&a) + nvec * (0.5 * h))
                {
                    continue;
                }
                faces.push(CartFace {
                    a: ci as u32,
                    b: cell_of_leaf[leaf_i as usize],
                    normal: nvec * area,
                });
            }
        }
    }

    // Wall closure: -(sum of outward open-face normals) per cell; for full
    // cells this is ~0 by construction, for cut cells it is the embedded
    // wall area vector.
    let mut wall_normal = vec![Vec3::ZERO; n];
    {
        let mut acc = vec![Vec3::ZERO; n];
        for f in &faces {
            acc[f.a as usize] += f.normal;
            if !f.is_boundary() {
                acc[f.b as usize] -= f.normal;
            }
        }
        for (i, a) in acc.into_iter().enumerate() {
            // Cut cells always get a wall closure. A Full cell adjacent to
            // an Inside cell (surface lying on the face) gets one too.
            if a.norm() > 1e-12 {
                wall_normal[i] = -a;
            }
        }
    }

    CartMesh {
        centers,
        volumes,
        kinds,
        weights,
        wall_normal,
        faces,
        sfc_keys,
        levels,
        coords,
        max_level,
    }
}

/// Fraction of a cut cell in the flow, from 9-point containment sampling
/// (8 corners + center), cast in one BVH traversal.
fn flow_fraction(geom: &Geometry, center: Vec3, h: f64) -> f64 {
    let mut points = [center; 9];
    for (k, p) in points[1..].iter_mut().enumerate() {
        let d = |bit: usize| if k >> bit & 1 == 1 { 0.5 } else { -0.5 };
        *p = center + Vec3::new(d(0) * h, d(1) * h, d(2) * h) * 0.999;
    }
    let inside = geom.contains_near(center, 0.5 * h, points);
    inside.iter().filter(|&&i| !i).count() as f64 / 9.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::octree::{build_octree, CutCellConfig};
    use crate::tri::TriMesh;

    fn sphere_mesh(max_level: u32) -> (CartMesh, Geometry) {
        let prof: Vec<(f64, f64)> = (0..=12)
            .map(|i| {
                let t = std::f64::consts::PI * i as f64 / 12.0;
                (-0.3 * t.cos(), 0.3 * t.sin())
            })
            .collect();
        let geom = Geometry::new(&[TriMesh::body_of_revolution(&prof, 12)]);
        let config = CutCellConfig {
            min_level: 2,
            max_level,
            origin: Vec3::new(-1.0, -1.0, -1.0),
            size: 2.0,
        };
        let tree = build_octree(&geom, &config);
        let mesh = extract_mesh(&tree, &geom, CurveKind::Hilbert, 0.05);
        (mesh, geom)
    }

    #[test]
    fn mesh_is_valid_and_sorted() {
        let (m, _) = sphere_mesh(4);
        m.validate().unwrap();
        assert!(m.ncells() > 500);
        assert!(m.ncut() > 50);
    }

    #[test]
    fn validate_rejects_a_face_that_is_not_axis_aligned() {
        let (mut m, _) = sphere_mesh(3);
        m.faces[0].normal = Vec3::new(0.5, 0.0, -0.5);
        assert!(m.validate().unwrap_err().contains("axis-aligned"));
    }

    #[test]
    fn full_cells_are_closed_and_cut_cells_have_walls() {
        let (m, _) = sphere_mesh(4);
        assert!(m.max_closure_defect() < 1e-12, "{}", m.max_closure_defect());
        let wall_area: f64 = m.wall_normal.iter().map(|w| w.norm()).sum();
        // Projected sphere area ~ pi r^2 * 6-ish directions; just demand a
        // sensible positive total comparable to the sphere area 4 pi r^2.
        let sphere = 4.0 * std::f64::consts::PI * 0.3 * 0.3;
        // The closure vector per cell is a *net* area vector, so the sum
        // is bounded by the projected area (~2 pi r^2), not the full 4 pi
        // r^2; accept a broad physical band.
        assert!(
            wall_area > 0.25 * sphere && wall_area < 3.0 * sphere,
            "wall area {wall_area} vs sphere {sphere}"
        );
    }

    #[test]
    fn flow_volume_close_to_domain_minus_sphere() {
        let (m, _) = sphere_mesh(5);
        let expect = 8.0 - 4.0 / 3.0 * std::f64::consts::PI * 0.3f64.powi(3);
        let got = m.total_volume();
        assert!(
            (got - expect).abs() / expect < 0.02,
            "volume {got} vs {expect}"
        );
    }

    #[test]
    fn boundary_faces_tile_the_cube_surface() {
        let (m, _) = sphere_mesh(3);
        let barea: f64 = m
            .faces
            .iter()
            .filter(|f| f.is_boundary())
            .map(|f| f.normal.norm())
            .sum();
        assert!((barea - 24.0).abs() < 1e-9, "boundary area {barea}");
    }

    #[test]
    fn face_count_matches_euler_relation_on_uniform_grid() {
        // No geometry: uniform grid of 4^3 cells — interior faces 3*4*4*3.
        let g = Geometry::new(&[]);
        let config = CutCellConfig {
            min_level: 2,
            max_level: 2,
            origin: Vec3::ZERO,
            size: 1.0,
        };
        let tree = build_octree(&g, &config);
        let m = extract_mesh(&tree, &g, CurveKind::Morton, 0.05);
        assert_eq!(m.ncells(), 64);
        let interior = m.faces.iter().filter(|f| !f.is_boundary()).count();
        assert_eq!(interior, 3 * 3 * 16);
        let boundary = m.faces.iter().filter(|f| f.is_boundary()).count();
        assert_eq!(boundary, 6 * 16);
        m.validate().unwrap();
    }

    #[test]
    fn refined_mesh_keeps_closure_across_2_to_1_faces() {
        let (m, _) = sphere_mesh(5);
        assert!(m.max_closure_defect() < 1e-12);
        // Levels actually vary (adaptive).
        let lmin = m.levels.iter().min().unwrap();
        let lmax = m.levels.iter().max().unwrap();
        assert!(lmax > lmin);
    }
}
