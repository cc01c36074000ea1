//! Adaptive octree refinement around embedded geometry.
//!
//! A cubic root domain is refined wherever a cell intersects the surface
//! triangulation, down to `max_level`, then 2:1 face balance is enforced
//! and each leaf is classified cut / inside / outside. Cell addresses are
//! `(level, ix, iy, iz)` integer coordinates, which later quantise directly
//! onto the space-filling curve.

use crate::tri::Geometry;
use columbia_mesh::Vec3;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Octree build parameters.
#[derive(Clone, Copy, Debug)]
pub struct CutCellConfig {
    /// Uniform background refinement level (every cell at least this deep).
    pub min_level: u32,
    /// Maximum refinement level at the surface (paper's SSLV mesh: 14).
    pub max_level: u32,
    /// Root cube lower corner.
    pub origin: Vec3,
    /// Root cube edge length.
    pub size: f64,
}

impl CutCellConfig {
    /// A root cube comfortably containing `geom` with padding factor
    /// `pad >= 1` (relative to the largest geometry extent).
    pub fn around(geom: &Geometry, pad: f64, min_level: u32, max_level: u32) -> CutCellConfig {
        let bb = geom.aabb();
        let ext = bb.hi - bb.lo;
        let size = ext.x.max(ext.y).max(ext.z) * pad;
        let center = bb.center();
        CutCellConfig {
            min_level,
            max_level,
            origin: center - Vec3::new(0.5 * size, 0.5 * size, 0.5 * size),
            size,
        }
    }

    /// Physical cell size at `level`.
    pub fn cell_size(&self, level: u32) -> f64 {
        self.size / (1u64 << level) as f64
    }

    /// Physical center of a cell.
    pub fn center(&self, a: &CellAddr) -> Vec3 {
        let h = self.cell_size(a.level);
        self.origin
            + Vec3::new(
                (a.ix as f64 + 0.5) * h,
                (a.iy as f64 + 0.5) * h,
                (a.iz as f64 + 0.5) * h,
            )
    }
}

/// Leaf classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeafKind {
    /// Intersects the surface.
    Cut,
    /// Fully inside the solid (removed from the flow mesh).
    Inside,
    /// Fully in the flow.
    Outside,
}

/// Integer cell address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellAddr {
    /// Refinement level (0 = root).
    pub level: u32,
    /// Integer coordinates in `0..2^level`.
    pub ix: u32,
    /// y coordinate.
    pub iy: u32,
    /// z coordinate.
    pub iz: u32,
}

impl CellAddr {
    /// Children addresses.
    pub fn children(&self) -> [CellAddr; 8] {
        let mut out = [*self; 8];
        for (c, o) in out.iter_mut().enumerate() {
            o.level = self.level + 1;
            o.ix = self.ix * 2 + (c as u32 & 1);
            o.iy = self.iy * 2 + ((c as u32 >> 1) & 1);
            o.iz = self.iz * 2 + ((c as u32 >> 2) & 1);
        }
        out
    }

    /// Parent address (root returns itself).
    pub fn parent(&self) -> CellAddr {
        if self.level == 0 {
            *self
        } else {
            CellAddr {
                level: self.level - 1,
                ix: self.ix / 2,
                iy: self.iy / 2,
                iz: self.iz / 2,
            }
        }
    }

    /// Same-level neighbour in direction `axis` (0..3), `dir` (+1/-1);
    /// None outside the root domain.
    pub fn neighbor(&self, axis: usize, dir: i32) -> Option<CellAddr> {
        let n = 1u32 << self.level;
        let mut c = [self.ix, self.iy, self.iz];
        let v = c[axis] as i64 + dir as i64;
        if v < 0 || v >= n as i64 {
            return None;
        }
        c[axis] = v as u32;
        Some(CellAddr {
            level: self.level,
            ix: c[0],
            iy: c[1],
            iz: c[2],
        })
    }
}

impl Hash for CellAddr {
    /// One word, distinct for every address up to level 20: a marker bit
    /// above the `3 * level` coordinate bits.
    fn hash<H: Hasher>(&self, h: &mut H) {
        let l = self.level;
        h.write_u64(
            1u64.wrapping_shl(3 * l)
                | (self.ix as u64) << (2 * l)
                | (self.iy as u64) << l
                | self.iz as u64,
        );
    }
}

/// Folded-multiply hash of a [`CellAddr`]'s one word. Deterministic; no
/// map's iteration order is ever observed.
#[derive(Default)]
pub struct CellHasher(u64);

impl Hasher for CellHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a CellAddr hashes as one u64")
    }

    fn write_u64(&mut self, k: u64) {
        let m = k as u128 * 0x9E37_79B9_7F4A_7C15;
        self.0 = m as u64 ^ (m >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Leaf lookup: address → index into [`Octree::leaves`].
pub type LeafIndex = HashMap<CellAddr, u32, BuildHasherDefault<CellHasher>>;

/// The built octree: a set of classified leaves.
#[derive(Clone, Debug)]
pub struct Octree {
    /// Build configuration.
    pub config: CutCellConfig,
    /// Leaves with classification.
    pub leaves: Vec<(CellAddr, LeafKind)>,
    /// Leaf lookup.
    pub index: LeafIndex,
}

impl Octree {
    /// Number of leaves of each kind: (cut, inside, outside).
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for (_, k) in &self.leaves {
            match k {
                LeafKind::Cut => c.0 += 1,
                LeafKind::Inside => c.1 += 1,
                LeafKind::Outside => c.2 += 1,
            }
        }
        c
    }

    /// Is the leaf set 2:1 balanced across faces?
    pub fn is_balanced(&self) -> bool {
        for (a, _) in &self.leaves {
            for axis in 0..3 {
                for dir in [-1, 1] {
                    if let Some(n) = find_face_neighbor(&self.index, a, axis, dir) {
                        let nl = self.leaves[n as usize].0.level;
                        if nl + 1 < a.level || a.level + 1 < nl {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }
}

/// Find the leaf covering the same-or-coarser neighbour of `a` in the given
/// direction: the neighbour itself or its nearest leaf ancestor. `None` at
/// the domain boundary and where the neighbour's region is subdivided
/// finer (fine neighbours are found from the other side).
pub fn find_face_neighbor(index: &LeafIndex, a: &CellAddr, axis: usize, dir: i32) -> Option<u32> {
    let mut n = a.neighbor(axis, dir)?;
    loop {
        if let Some(&i) = index.get(&n) {
            return Some(i);
        }
        if n.level == 0 {
            return None;
        }
        n = n.parent();
    }
}

/// Build the octree around `geom`.
pub fn build_octree(geom: &Geometry, config: &CutCellConfig) -> Octree {
    assert!(config.max_level >= config.min_level);
    assert!(config.max_level <= 20, "address space is 21 bits/axis");
    let cut = |a: &CellAddr| {
        let h = config.cell_size(a.level) * 0.5;
        geom.intersects_box(config.center(a), Vec3::new(h, h, h))
    };
    // Recursive refinement from the root. Every cell's cut flag is
    // evaluated once and travels with it into `leaves`.
    let root = CellAddr {
        level: 0,
        ix: 0,
        iy: 0,
        iz: 0,
    };
    let mut intersecting = vec![(root, cut(&root))];
    let mut leaves: Vec<(CellAddr, Option<bool>)> = Vec::new();
    while let Some((a, a_cut)) = intersecting.pop() {
        if a.level < config.min_level || (a_cut && a.level < config.max_level) {
            for ch in a.children() {
                let ch_cut = cut(&ch);
                if a.level + 1 < config.min_level || ch_cut {
                    intersecting.push((ch, ch_cut));
                } else {
                    leaves.push((ch, Some(false)));
                }
            }
        } else {
            leaves.push((a, Some(a_cut)));
        }
    }

    // 2:1 balance: split any leaf whose face neighbour is 2+ levels finer.
    let mut index = LeafIndex::default();
    for (i, (a, _)) in leaves.iter().enumerate() {
        index.insert(*a, i as u32);
    }
    loop {
        let mut to_split: Vec<CellAddr> = Vec::new();
        for (a, _) in &leaves {
            // A coarse neighbour more than one level up must split.
            for axis in 0..3 {
                for dir in [-1, 1] {
                    if let Some(n) = find_face_neighbor(&index, a, axis, dir) {
                        let n = leaves[n as usize].0;
                        if a.level > n.level + 1 {
                            to_split.push(n);
                        }
                    }
                }
            }
        }
        to_split.sort_unstable_by_key(|a| (a.level, a.ix, a.iy, a.iz));
        to_split.dedup();
        if to_split.is_empty() {
            break;
        }
        for a in to_split {
            if let Some(i) = index.remove(&a) {
                // Replace leaf i by its 8 children, whose cut flags are
                // not known yet.
                leaves.swap_remove(i as usize);
                if (i as usize) < leaves.len() {
                    index.insert(leaves[i as usize].0, i);
                }
                for ch in a.children() {
                    index.insert(ch, leaves.len() as u32);
                    leaves.push((ch, None));
                }
            }
        }
    }

    // Classification keeps leaf order, so `index` stays valid.
    let leaves = leaves
        .into_iter()
        .map(|(a, a_cut)| {
            let kind = if a_cut.unwrap_or_else(|| cut(&a)) {
                LeafKind::Cut
            } else if geom.contains(config.center(&a)) {
                LeafKind::Inside
            } else {
                LeafKind::Outside
            };
            (a, kind)
        })
        .collect();
    Octree {
        config: *config,
        leaves,
        index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tri::TriMesh;

    fn sphere_geom() -> Geometry {
        // Body of revolution approximating a sphere of radius 0.3 at origin.
        let prof: Vec<(f64, f64)> = (0..=16)
            .map(|i| {
                let t = std::f64::consts::PI * i as f64 / 16.0;
                (-0.3 * t.cos(), 0.3 * t.sin())
            })
            .collect();
        Geometry::new(&[TriMesh::body_of_revolution(&prof, 16)])
    }

    fn config() -> CutCellConfig {
        CutCellConfig {
            min_level: 2,
            max_level: 5,
            origin: Vec3::new(-1.0, -1.0, -1.0),
            size: 2.0,
        }
    }

    #[test]
    fn octree_refines_at_surface_and_is_balanced() {
        let tree = build_octree(&sphere_geom(), &config());
        let (cut, inside, outside) = tree.counts();
        assert!(cut > 100, "cut {cut}");
        assert!(inside > 0, "inside {inside}");
        assert!(outside > cut, "outside {outside}");
        assert!(tree.is_balanced());
        // All cut cells at max level.
        for (a, k) in &tree.leaves {
            if *k == LeafKind::Cut {
                assert_eq!(a.level, 5);
            }
        }
    }

    #[test]
    fn leaves_tile_the_root_volume() {
        let tree = build_octree(&sphere_geom(), &config());
        let total: f64 = tree
            .leaves
            .iter()
            .map(|(a, _)| tree.config.cell_size(a.level).powi(3))
            .sum();
        let root = config().size.powi(3);
        assert!((total - root).abs() < 1e-9 * root, "{total} vs {root}");
    }

    #[test]
    fn inside_cells_are_inside_the_sphere() {
        let g = sphere_geom();
        let tree = build_octree(&g, &config());
        for (a, k) in &tree.leaves {
            if *k == LeafKind::Inside {
                let c = tree.config.center(a);
                assert!(c.norm() < 0.3 + 1e-9, "inside cell at {c:?}");
            }
        }
    }

    #[test]
    fn min_level_gives_uniform_background() {
        let tree = build_octree(&sphere_geom(), &config());
        for (a, _) in &tree.leaves {
            assert!(a.level >= 2, "leaf above min level");
        }
    }

    #[test]
    fn addr_children_partition_parent() {
        let a = CellAddr {
            level: 3,
            ix: 2,
            iy: 5,
            iz: 7,
        };
        for ch in a.children() {
            assert_eq!(ch.parent(), a);
        }
        assert_eq!(a.neighbor(0, 1).unwrap().ix, 3);
        assert_eq!(a.neighbor(0, -1).unwrap().ix, 1);
        let edge = CellAddr {
            level: 1,
            ix: 0,
            iy: 0,
            iz: 0,
        };
        assert!(edge.neighbor(0, -1).is_none());
    }
}
