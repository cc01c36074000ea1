//! Watertight triangulated component geometry.
//!
//! Cart3D consumes "a set of watertight solids, either directly from the
//! optimizer or from a CAD system". The CAD-derived SSLV geometry is not
//! available, so components are built from parametric primitives (bodies of
//! revolution, boxes, wings) that preserve what the mesher exercises:
//! component count, surface area distribution, thin gaps between bodies,
//! and control-surface deflection as a geometry transform.

use columbia_mesh::geom::RayTerms;
use columbia_mesh::{Aabb, Triangle, Vec3};
use std::ops::Range;

/// A triangulated surface (one watertight component).
#[derive(Clone, Debug, Default)]
pub struct TriMesh {
    /// Vertex coordinates.
    pub vertices: Vec<Vec3>,
    /// Triangles as CCW vertex index triples (outward normals).
    pub tris: Vec<[u32; 3]>,
}

impl TriMesh {
    /// Number of triangles.
    pub fn ntris(&self) -> usize {
        self.tris.len()
    }

    /// Materialise triangle `i`.
    pub fn triangle(&self, i: usize) -> Triangle {
        let [a, b, c] = self.tris[i];
        Triangle::new(
            self.vertices[a as usize],
            self.vertices[b as usize],
            self.vertices[c as usize],
        )
    }

    /// Bounding box of the whole mesh.
    pub fn aabb(&self) -> Aabb {
        let mut bb = Aabb::empty();
        for v in &self.vertices {
            bb.expand(*v);
        }
        bb
    }

    /// Total surface area.
    pub fn area(&self) -> f64 {
        (0..self.ntris()).map(|i| self.triangle(i).area()).sum()
    }

    /// Watertightness check: every undirected edge must be shared by
    /// exactly two triangles, with opposite orientations.
    pub fn is_watertight(&self) -> bool {
        use std::collections::HashMap;
        // Per undirected edge: (orientation balance, touch count). A
        // watertight, consistently oriented surface has balance 0 and
        // exactly two touches on every edge.
        let mut edges: HashMap<(u32, u32), (i32, u32)> = HashMap::new();
        for t in &self.tris {
            for k in 0..3 {
                let (a, b) = (t[k], t[(k + 1) % 3]);
                let e = edges.entry((a.min(b), a.max(b))).or_insert((0, 0));
                e.0 += if a < b { 1 } else { -1 };
                e.1 += 1;
            }
        }
        edges.values().all(|&(bal, touch)| bal == 0 && touch == 2)
    }

    /// Translate in place.
    pub fn translate(&mut self, d: Vec3) -> &mut Self {
        for v in self.vertices.iter_mut() {
            *v += d;
        }
        self
    }

    /// Uniform scale about the origin.
    pub fn scale(&mut self, s: f64) -> &mut Self {
        for v in self.vertices.iter_mut() {
            *v = *v * s;
        }
        self
    }

    /// Rotate about an axis-aligned line through `pivot` (axis 0 = x,
    /// 1 = y, 2 = z) — used for control-surface deflection.
    pub fn rotate(&mut self, axis: usize, pivot: Vec3, angle: f64) -> &mut Self {
        let (s, c) = angle.sin_cos();
        for v in self.vertices.iter_mut() {
            let p = *v - pivot;
            let q = match axis {
                0 => Vec3::new(p.x, c * p.y - s * p.z, s * p.y + c * p.z),
                1 => Vec3::new(c * p.x + s * p.z, p.y, -s * p.x + c * p.z),
                _ => Vec3::new(c * p.x - s * p.y, s * p.x + c * p.y, p.z),
            };
            *v = q + pivot;
        }
        self
    }

    /// Closed box between `lo` and `hi` (12 triangles).
    pub fn cuboid(lo: Vec3, hi: Vec3) -> TriMesh {
        let v = vec![
            Vec3::new(lo.x, lo.y, lo.z),
            Vec3::new(hi.x, lo.y, lo.z),
            Vec3::new(hi.x, hi.y, lo.z),
            Vec3::new(lo.x, hi.y, lo.z),
            Vec3::new(lo.x, lo.y, hi.z),
            Vec3::new(hi.x, lo.y, hi.z),
            Vec3::new(hi.x, hi.y, hi.z),
            Vec3::new(lo.x, hi.y, hi.z),
        ];
        // Outward-facing CCW triangles.
        let tris = vec![
            [0, 2, 1],
            [0, 3, 2], // bottom (z = lo)
            [4, 5, 6],
            [4, 6, 7], // top
            [0, 1, 5],
            [0, 5, 4], // front (y = lo)
            [2, 3, 7],
            [2, 7, 6], // back
            [1, 2, 6],
            [1, 6, 5], // right (x = hi)
            [3, 0, 4],
            [3, 4, 7], // left
        ];
        TriMesh { vertices: v, tris }
    }

    /// Closed body of revolution about the x axis: `profile` gives
    /// `(x, radius)` stations with radius > 0 in the interior; the ends are
    /// closed with cone fans. `nseg` azimuthal segments.
    pub fn body_of_revolution(profile: &[(f64, f64)], nseg: usize) -> TriMesh {
        assert!(profile.len() >= 2 && nseg >= 3);
        let mut vertices = Vec::new();
        let mut tris: Vec<[u32; 3]> = Vec::new();
        // Nose and tail apex points.
        let nose = Vec3::new(profile[0].0, 0.0, 0.0);
        let tail = Vec3::new(profile[profile.len() - 1].0, 0.0, 0.0);
        let rings: Vec<usize> = profile
            .iter()
            .enumerate()
            .filter(|(_, &(_, r))| r > 0.0)
            .map(|(i, _)| i)
            .collect();
        let nose_id = vertices.len() as u32;
        vertices.push(nose);
        let tail_id = vertices.len() as u32;
        vertices.push(tail);
        let mut ring_start = Vec::new();
        for &ri in &rings {
            let (x, r) = profile[ri];
            ring_start.push(vertices.len() as u32);
            for s in 0..nseg {
                let th = 2.0 * std::f64::consts::PI * s as f64 / nseg as f64;
                vertices.push(Vec3::new(x, r * th.cos(), r * th.sin()));
            }
        }
        let n = nseg as u32;
        // Nose fan (x increases along the axis; CCW seen from -x outside).
        let r0 = ring_start[0];
        for s in 0..n {
            tris.push([nose_id, r0 + (s + 1) % n, r0 + s]);
        }
        // Ring-to-ring quads.
        for w in ring_start.windows(2) {
            let (a, b) = (w[0], w[1]);
            for s in 0..n {
                let s1 = (s + 1) % n;
                tris.push([a + s, a + s1, b + s1]);
                tris.push([a + s, b + s1, b + s]);
            }
        }
        // Tail fan.
        let rl = *ring_start.last().unwrap();
        for s in 0..n {
            tris.push([tail_id, rl + s, rl + (s + 1) % n]);
        }
        TriMesh { vertices, tris }
    }

    /// Simple tapered wing (closed): a hexahedral slab with an elliptic-ish
    /// chordwise taper, spanning `span` in z. Good enough as a lifting
    /// surface or control surface for the mesher.
    pub fn wing(chord: f64, thickness: f64, span: f64) -> TriMesh {
        let mut w = Self::cuboid(
            Vec3::new(0.0, -0.5 * thickness, 0.0),
            Vec3::new(chord, 0.5 * thickness, span),
        );
        // Taper the trailing half in y to mimic an airfoil wedge.
        for v in w.vertices.iter_mut() {
            let t = (v.x / chord).clamp(0.0, 1.0);
            v.y *= 1.0 - 0.7 * t;
        }
        w
    }

    /// Merge several components into one triangle soup (indices offset).
    pub fn merge(components: &[TriMesh]) -> TriMesh {
        let mut out = TriMesh::default();
        for c in components {
            let off = out.vertices.len() as u32;
            out.vertices.extend_from_slice(&c.vertices);
            out.tris
                .extend(c.tris.iter().map(|t| [t[0] + off, t[1] + off, t[2] + off]));
        }
        out
    }
}

/// A multi-component geometry plus its BVH acceleration structure.
#[derive(Clone, Debug)]
pub struct Geometry {
    /// The merged triangle soup.
    pub surface: TriMesh,
    /// Acceleration structure over `surface`.
    pub bvh: Bvh,
}

impl Geometry {
    /// The containment ray: `(0.531241, 0.7090023, 0.4642441).normalized()`,
    /// an irrational-ish direction robust against axis-aligned
    /// coincidences. All three components are positive.
    pub const CONTAINS_DIR: Vec3 = Vec3 {
        x: 0.5311284536232699,
        y: 0.7088520938977633,
        z: 0.4641457472912043,
    };

    /// Build from components (each should be watertight individually).
    pub fn new(components: &[TriMesh]) -> Geometry {
        let surface = TriMesh::merge(components);
        let bvh = Bvh::build(&surface);
        Geometry { surface, bvh }
    }

    /// Does any triangle intersect the axis-aligned box?
    pub fn intersects_box(&self, center: Vec3, half: Vec3) -> bool {
        self.bvh.intersects_box(center, half)
    }

    /// Is `p` inside the solid? Parity of the crossings along
    /// [`Geometry::CONTAINS_DIR`].
    pub fn contains(&self, p: Vec3) -> bool {
        self.contains_near(p, 0.0, [p])[0]
    }

    /// [`Geometry::contains`] for each of `points`, all within `reach` of
    /// `center` on every axis, in one BVH traversal.
    pub(crate) fn contains_near<const N: usize>(
        &self,
        center: Vec3,
        reach: f64,
        points: [Vec3; N],
    ) -> [bool; N] {
        self.bvh
            .ray_crossings(center, reach, &points)
            .map(|c| c % 2 == 1)
    }

    /// Bounding box of the geometry.
    pub fn aabb(&self) -> Aabb {
        self.surface.aabb()
    }
}

/// Flat median-split BVH over triangles. Node boxes are grown by a slack
/// that dwarfs both how far outside its triangle a hit accepted within
/// `Triangle::ray_hit`'s `EPS` can lie and the rounding of
/// `Triangle::overlaps_box`, so culling drops no triangle either test
/// accepts (nearly ray-parallel slivers aside): queries equal brute force
/// over all triangles, whatever the tree's shape or traversal order.
#[derive(Clone, Debug)]
pub struct Bvh {
    nodes: Vec<BvhNode>,
    /// The triangles in leaf order; leaf ranges index into this.
    tris: Vec<Triangle>,
    /// Their terms along [`Geometry::CONTAINS_DIR`] (`None`: parallel).
    rays: Vec<Option<RayTerms>>,
}

#[derive(Clone, Debug)]
struct BvhNode {
    bb: Aabb,
    /// Left child index, or triangle range start if leaf.
    a: u32,
    /// Right child index, or triangle range end if leaf.
    b: u32,
    leaf: bool,
}

const BVH_LEAF_SIZE: usize = 8;
/// Node-box slack relative to the box's largest coordinate magnitude.
const BVH_SLACK: f64 = 1e-9;
/// Traversal stack depth: a median split halves every range, so 64 covers
/// any triangle count that fits in memory.
const BVH_STACK: usize = 64;

impl Bvh {
    /// Build over a triangle mesh.
    pub fn build(mesh: &TriMesh) -> Bvh {
        let n = mesh.ntris();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let tris: Vec<Triangle> = (0..n).map(|i| mesh.triangle(i)).collect();
        let centroids: Vec<Vec3> = tris.iter().map(Triangle::centroid).collect();
        let boxes: Vec<Aabb> = tris.iter().map(Triangle::aabb).collect();
        // An empty mesh gets one leaf with an empty box.
        let mut nodes = Vec::new();
        build_node(&mut nodes, &mut order, 0, n, &centroids, &boxes);
        let tris: Vec<Triangle> = order.iter().map(|&t| tris[t as usize]).collect();
        let rays = tris
            .iter()
            .map(|t| t.ray_terms(Geometry::CONTAINS_DIR))
            .collect();
        Bvh { nodes, tris, rays }
    }

    /// Any triangle overlapping the box?
    pub fn intersects_box(&self, center: Vec3, half: Vec3) -> bool {
        let query = Aabb::new(center - half, center + half);
        let mut hit = false;
        self.walk(
            |bb| bb.overlaps(&query),
            |leaf| {
                hit = self.tris[leaf].iter().any(|t| t.overlaps_box(center, half));
                hit
            },
        );
        hit
    }

    /// Crossings of the rays along [`Geometry::CONTAINS_DIR`] from each of
    /// `points`, all within `reach` of `center` on every axis. A node opens
    /// when the ray from `center` meets its box grown by `reach` — which
    /// the ray from any of the points needs — and every triangle of an
    /// opened leaf is tested exactly against every ray.
    pub fn ray_crossings<const N: usize>(
        &self,
        center: Vec3,
        reach: f64,
        points: &[Vec3; N],
    ) -> [u32; N] {
        let dir = Geometry::CONTAINS_DIR;
        let inv = Vec3::new(1.0 / dir.x, 1.0 / dir.y, 1.0 / dir.z);
        let mut count = [0; N];
        // Slab test; `dir > 0` on every axis, so a box is entered at `lo`.
        let open = |bb: &Aabb| {
            let (lo, hi) = (bb.lo - center, bb.hi - center);
            let tmin = ((lo.x - reach) * inv.x)
                .max((lo.y - reach) * inv.y)
                .max((lo.z - reach) * inv.z)
                .max(0.0);
            let tmax = ((hi.x + reach) * inv.x)
                .min((hi.y + reach) * inv.y)
                .min((hi.z + reach) * inv.z);
            tmin <= tmax
        };
        self.walk(open, |leaf| {
            for ray in self.rays[leaf].iter().flatten() {
                for (c, &p) in count.iter_mut().zip(points) {
                    *c += ray.hit(p, dir).is_some() as u32;
                }
            }
            false
        });
        count
    }

    /// Depth-first over the leaves whose box, and every ancestor's, passes
    /// `open`; `leaf` gets each one's triangle range and stops the walk by
    /// returning true.
    fn walk(&self, open: impl Fn(&Aabb) -> bool, mut leaf: impl FnMut(Range<usize>) -> bool) {
        let mut stack = [0u32; BVH_STACK];
        let mut top = 1;
        while top > 0 {
            top -= 1;
            let node = &self.nodes[stack[top] as usize];
            if !open(&node.bb) {
                continue;
            }
            if node.leaf {
                if leaf(node.a as usize..node.b as usize) {
                    return;
                }
            } else {
                stack[top] = node.a;
                stack[top + 1] = node.b;
                top += 2;
            }
        }
    }
}

fn build_node(
    nodes: &mut Vec<BvhNode>,
    order: &mut [u32],
    start: usize,
    end: usize,
    centroids: &[Vec3],
    boxes: &[Aabb],
) -> u32 {
    let mut bb = Aabb::empty();
    for &t in &order[start..end] {
        bb.merge(&boxes[t as usize]);
    }
    let idx = nodes.len() as u32;
    let r = bb.hi.max(-bb.lo);
    let s = BVH_SLACK * (1.0 + r.x.max(r.y).max(r.z));
    nodes.push(BvhNode {
        bb: Aabb::new(bb.lo - Vec3::new(s, s, s), bb.hi + Vec3::new(s, s, s)),
        a: start as u32,
        b: end as u32,
        leaf: true,
    });
    if end - start <= BVH_LEAF_SIZE {
        return idx;
    }
    // Split along the widest axis at the centroid median.
    let ext = bb.hi - bb.lo;
    let axis = if ext.x >= ext.y && ext.x >= ext.z {
        0
    } else if ext.y >= ext.z {
        1
    } else {
        2
    };
    let mid = (start + end) / 2;
    order[start..end].select_nth_unstable_by(mid - start, |&a, &b| {
        centroids[a as usize]
            .get(axis)
            .total_cmp(&centroids[b as usize].get(axis))
    });
    let left = build_node(nodes, order, start, mid, centroids, boxes);
    let right = build_node(nodes, order, mid, end, centroids, boxes);
    nodes[idx as usize].a = left;
    nodes[idx as usize].b = right;
    nodes[idx as usize].leaf = false;
    idx
}

/// Build the synthetic Space Shuttle Launch Vehicle stack: orbiter-like
/// body + wing, external tank, two solid rocket boosters and attach
/// hardware (paper Figures 9 and 12). `deflect_elevon` rotates the
/// control surface (config-space parameter).
pub fn sslv_geometry(deflect_elevon: f64) -> Geometry {
    let nseg = 24;
    // External tank: big body of revolution along x in [0, 4].
    let tank = TriMesh::body_of_revolution(
        &[
            (0.0, 0.0),
            (0.4, 0.35),
            (1.0, 0.42),
            (3.2, 0.42),
            (3.8, 0.30),
            (4.0, 0.0),
        ],
        nseg,
    );
    // Two SRBs flanking the tank in y.
    let mut srb1 = TriMesh::body_of_revolution(
        &[
            (0.0, 0.0),
            (0.25, 0.16),
            (3.4, 0.16),
            (3.7, 0.19),
            (3.9, 0.0),
        ],
        nseg,
    );
    srb1.translate(Vec3::new(0.2, 0.62, 0.0));
    let mut srb2 = srb1.clone();
    srb2.translate(Vec3::new(0.0, -1.24, 0.0));
    // Orbiter: fuselage above the tank plus a wing with an elevon.
    let mut fuselage = TriMesh::body_of_revolution(
        &[
            (0.0, 0.0),
            (0.35, 0.18),
            (2.2, 0.22),
            (2.9, 0.16),
            (3.1, 0.0),
        ],
        nseg,
    );
    fuselage.translate(Vec3::new(0.6, 0.0, 0.55));
    let mut wing = TriMesh::wing(0.9, 0.07, 1.6);
    wing.translate(Vec3::new(2.0, 0.0, 0.55 - 0.8));
    let mut elevon = TriMesh::wing(0.25, 0.05, 1.5);
    elevon.translate(Vec3::new(2.92, 0.0, 0.6 - 0.8)).rotate(
        2,
        Vec3::new(2.92, 0.0, 0.0),
        deflect_elevon,
    );
    // Attach hardware: small struts between tank and orbiter / SRBs.
    let strut1 = TriMesh::cuboid(Vec3::new(1.0, -0.06, 0.40), Vec3::new(1.2, 0.06, 0.58));
    let strut2 = TriMesh::cuboid(Vec3::new(2.6, -0.06, 0.40), Vec3::new(2.8, 0.06, 0.58));
    let strut3 = TriMesh::cuboid(Vec3::new(1.6, 0.40, -0.06), Vec3::new(1.8, 0.64, 0.06));
    let strut4 = TriMesh::cuboid(Vec3::new(1.6, -0.64, -0.06), Vec3::new(1.8, -0.40, 0.06));
    Geometry::new(&[
        tank, srb1, srb2, fuselage, wing, elevon, strut1, strut2, strut3, strut4,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cuboid_is_watertight_with_outward_area() {
        let c = TriMesh::cuboid(Vec3::ZERO, Vec3::new(1.0, 2.0, 3.0));
        assert!(c.is_watertight());
        assert!((c.area() - 2.0 * (2.0 + 3.0 + 6.0)).abs() < 1e-12);
        // Net (vector) area of a closed surface is zero.
        let mut net = Vec3::ZERO;
        for i in 0..c.ntris() {
            net += c.triangle(i).normal();
        }
        assert!(net.norm() < 1e-12);
    }

    #[test]
    fn body_of_revolution_watertight() {
        let b = TriMesh::body_of_revolution(&[(0.0, 0.0), (0.5, 0.3), (1.5, 0.3), (2.0, 0.0)], 16);
        assert!(b.is_watertight());
        let mut net = Vec3::ZERO;
        for i in 0..b.ntris() {
            net += b.triangle(i).normal();
        }
        assert!(net.norm() < 1e-10, "net area {net:?}");
    }

    #[test]
    fn containment_of_cuboid() {
        let g = Geometry::new(&[TriMesh::cuboid(Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0))]);
        assert!(g.contains(Vec3::new(0.5, 0.5, 0.5)));
        assert!(!g.contains(Vec3::new(1.5, 0.5, 0.5)));
        assert!(!g.contains(Vec3::new(-0.1, -0.1, -0.1)));
    }

    #[test]
    fn containment_of_revolution_body() {
        let g = Geometry::new(&[TriMesh::body_of_revolution(
            &[(0.0, 0.0), (0.5, 0.4), (1.5, 0.4), (2.0, 0.0)],
            32,
        )]);
        assert!(g.contains(Vec3::new(1.0, 0.0, 0.0)));
        assert!(g.contains(Vec3::new(1.0, 0.3, 0.0)));
        assert!(!g.contains(Vec3::new(1.0, 0.5, 0.0)));
        assert!(!g.contains(Vec3::new(-0.5, 0.0, 0.0)));
    }

    #[test]
    fn bvh_box_queries_match_brute_force() {
        let g = Geometry::new(&[TriMesh::body_of_revolution(
            &[(0.0, 0.0), (0.5, 0.3), (1.5, 0.3), (2.0, 0.0)],
            12,
        )]);
        let samples = [
            (Vec3::new(1.0, 0.3, 0.0), 0.05),
            (Vec3::new(1.0, 0.0, 0.0), 0.05),
            (Vec3::new(3.0, 0.0, 0.0), 0.2),
            (Vec3::new(0.0, 0.0, 0.0), 0.3),
        ];
        for (c, h) in samples {
            let half = Vec3::new(h, h, h);
            let brute = (0..g.surface.ntris()).any(|i| g.surface.triangle(i).overlaps_box(c, half));
            assert_eq!(g.intersects_box(c, half), brute, "at {c:?} h={h}");
        }
    }

    #[test]
    fn contains_dir_is_the_normalised_literal() {
        let d = Vec3::new(0.531241, 0.7090023, 0.4642441).normalized();
        assert_eq!(Geometry::CONTAINS_DIR, d);
    }

    #[test]
    fn nan_vertex_builds_and_queries_without_panic() {
        // 12 + 12 triangles: the BVH splits, comparing NaN centroids.
        let mut c = TriMesh::cuboid(Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0));
        c.vertices[3] = Vec3::new(f64::NAN, f64::NAN, f64::NAN);
        let g = Geometry::new(&[c, TriMesh::wing(1.0, 0.1, 2.0)]);
        assert!(!g.contains(Vec3::new(5.0, 5.0, 5.0)));
        g.contains(Vec3::new(0.5, 0.5, 0.5));
        assert!(g.intersects_box(Vec3::new(0.5, 0.0, 1.0), Vec3::new(0.1, 0.1, 0.1)));
    }

    #[test]
    fn sslv_geometry_builds_watertight_components() {
        let g = sslv_geometry(0.15);
        assert!(g.surface.ntris() > 500, "only {} tris", g.surface.ntris());
        let bb = g.aabb();
        assert!(bb.hi.x > bb.lo.x && bb.hi.y > bb.lo.y);
        // Tank interior / free air.
        assert!(g.contains(Vec3::new(2.0, 0.0, 0.0)));
        assert!(!g.contains(Vec3::new(2.0, 0.0, 2.0)));
    }

    #[test]
    fn elevon_deflection_moves_surface() {
        let g0 = sslv_geometry(0.0);
        let g1 = sslv_geometry(0.4);
        // Probe a point swept by the deflected elevon.
        let probe = Vec3::new(3.05, 0.05, 0.3);
        assert_ne!(g0.contains(probe), g1.contains(probe));
    }

    #[test]
    fn rotate_preserves_watertightness_and_area() {
        let mut w = TriMesh::wing(1.0, 0.1, 2.0);
        let a0 = w.area();
        w.rotate(2, Vec3::new(0.5, 0.0, 0.0), 0.3);
        assert!(w.is_watertight());
        assert!((w.area() - a0).abs() < 1e-9);
    }
}
