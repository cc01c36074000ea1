//! Property suites for the mesher's two geometric queries.
//!
//! `Geometry::contains` must equal brute-force ray parity — the sum over
//! *every* triangle of `Triangle::ray_hit` along the containment ray — and
//! `Geometry::intersects_box` must equal brute-force `overlaps_box`. The
//! BVH, its per-triangle precomputation and its traversal are only allowed
//! to be faster, never different. Cases run on `sslv_geometry(δ)` with δ
//! drawn from [-0.1, 0.1] and on a sphere-like body of revolution, at
//! random points, at points within 1e-13 of vertices, edge midpoints and
//! centroids (the `EPS` paths of the ray test), and at cut-cell sample
//! points `center ± 0.4995 h`.

use columbia_cartesian::{sslv_geometry, CutCellConfig, Geometry, TriMesh};
use columbia_mesh::Vec3;
use columbia_rt::Pcg32;

fn sphere() -> Geometry {
    let prof: Vec<(f64, f64)> = (0..=16)
        .map(|i| {
            let t = std::f64::consts::PI * i as f64 / 16.0;
            (-0.3 * t.cos(), 0.3 * t.sin())
        })
        .collect();
    Geometry::new(&[TriMesh::body_of_revolution(&prof, 16)])
}

/// The SSLV stack at a random deflection (`which == 0`) or the sphere.
fn geometry(which: u32, rng: &mut Pcg32) -> Geometry {
    if which == 0 {
        sslv_geometry(rng.gen_range(-0.1..=0.1))
    } else {
        sphere()
    }
}

fn brute_contains(g: &Geometry, p: Vec3) -> bool {
    let dir = Geometry::CONTAINS_DIR;
    let hits = (0..g.surface.ntris())
        .filter(|&i| g.surface.triangle(i).ray_hit(p, dir).is_some())
        .count();
    hits % 2 == 1
}

fn assert_parity(g: &Geometry, p: Vec3) {
    assert_eq!(
        g.contains(p),
        brute_contains(g, p),
        "contains disagrees with brute-force parity at {p:?}"
    );
}

/// A uniformly random point of triangle `t`.
fn point_on(g: &Geometry, t: usize, rng: &mut Pcg32) -> Vec3 {
    let tri = g.surface.triangle(t);
    let (mut u, mut v) = (rng.gen_f64(), rng.gen_f64());
    if u + v > 1.0 {
        (u, v) = (1.0 - u, 1.0 - v);
    }
    tri.a + (tri.b - tri.a) * u + (tri.c - tri.a) * v
}

fn random_tri(g: &Geometry, rng: &mut Pcg32) -> usize {
    rng.gen_below(g.surface.ntris() as u64) as usize
}

/// The root cube `CartAnalysis::mesh` puts around `g`.
fn root(g: &Geometry) -> CutCellConfig {
    CutCellConfig::around(g, 3.0, 3, 10)
}

columbia_rt::props! {
    config: columbia_rt::props::Config::with_cases(48);

    /// Random points anywhere in the padded bounding box.
    fn prop_contains_is_parity_at_random_points(seed in 0u64..u64::MAX, which in 0u32..2) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let g = geometry(which, &mut rng);
        let bb = g.aabb();
        let pad = (bb.hi - bb.lo) * 0.25;
        let (lo, hi) = (bb.lo - pad, bb.hi + pad);
        for _ in 0..200 {
            let p = Vec3::new(
                rng.gen_range(lo.x..hi.x),
                rng.gen_range(lo.y..hi.y),
                rng.gen_range(lo.z..hi.z),
            );
            assert_parity(&g, p);
        }
    }

    /// Vertices, edge midpoints and centroids, each moved ±1e-13 along
    /// every axis: rays that graze edges and vertices exercise every `EPS`
    /// branch of the Möller–Trumbore test.
    fn prop_contains_is_parity_near_vertices_edges_centroids(seed in 0u64..u64::MAX, which in 0u32..2) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let g = geometry(which, &mut rng);
        for _ in 0..24 {
            let t = g.surface.triangle(random_tri(&g, &mut rng));
            let points = [
                t.a,
                t.b,
                t.c,
                (t.a + t.b) * 0.5,
                (t.b + t.c) * 0.5,
                (t.c + t.a) * 0.5,
                t.centroid(),
            ];
            for p in points {
                for axis in 0..3 {
                    for s in [-1e-13, 1e-13] {
                        let mut d = [0.0; 3];
                        d[axis] = s;
                        assert_parity(&g, p + Vec3::new(d[0], d[1], d[2]));
                    }
                }
            }
        }
    }

    /// The flow-fraction samples of a cut cell at levels 5..=10: its centre
    /// and the eight points `center ± 0.4995 h`.
    fn prop_contains_is_parity_at_cut_cell_samples(seed in 0u64..u64::MAX, which in 0u32..2) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let g = geometry(which, &mut rng);
        let cfg = root(&g);
        for _ in 0..16 {
            let q = point_on(&g, random_tri(&g, &mut rng), &mut rng);
            let h = cfg.size / (1u64 << rng.gen_range(5u32..11)) as f64;
            let cell = |x: f64, o: f64| (((x - o) / h).floor() + 0.5) * h + o;
            let c = Vec3::new(
                cell(q.x, cfg.origin.x),
                cell(q.y, cfg.origin.y),
                cell(q.z, cfg.origin.z),
            );
            assert_parity(&g, c);
            for dz in [-0.5, 0.5] {
                for dy in [-0.5, 0.5] {
                    for dx in [-0.5, 0.5] {
                        assert_parity(&g, c + Vec3::new(dx * h, dy * h, dz * h) * 0.999);
                    }
                }
            }
        }
    }

    /// Boxes with the half-widths of octree levels 3..=10, centred anywhere
    /// in the root cube or on the surface.
    fn prop_intersects_box_is_brute_force_overlap(seed in 0u64..u64::MAX, which in 0u32..2) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let g = geometry(which, &mut rng);
        let cfg = root(&g);
        for k in 0..64 {
            let hw = 0.5 * cfg.size / (1u64 << rng.gen_range(3u32..11)) as f64;
            let half = Vec3::new(hw, hw, hw);
            let c = if k % 2 == 0 {
                let o = cfg.origin;
                let s = cfg.size;
                Vec3::new(
                    rng.gen_range(o.x..o.x + s),
                    rng.gen_range(o.y..o.y + s),
                    rng.gen_range(o.z..o.z + s),
                )
            } else {
                let q = point_on(&g, random_tri(&g, &mut rng), &mut rng);
                q + Vec3::new(
                    rng.gen_range(-1.5..1.5),
                    rng.gen_range(-1.5..1.5),
                    rng.gen_range(-1.5..1.5),
                ) * hw
            };
            let brute = (0..g.surface.ntris()).any(|i| g.surface.triangle(i).overlaps_box(c, half));
            assert_eq!(g.intersects_box(c, half), brute, "box at {c:?}, half-width {hw}");
        }
    }
}
