//! Geometry primitives: 3-vectors, axis-aligned boxes, triangles.
//!
//! Shared between the unstructured mesh machinery and the Cartesian cut-cell
//! mesher (triangle/box intersection tests drive octree refinement; ray
//! casting classifies cells as inside/outside the geometry).

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Plain 3-vector of `f64`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    #[inline]
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * o.z - self.z * o.y,
            y: self.z * o.x - self.x * o.z,
            z: self.x * o.y - self.y * o.x,
        }
    }

    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    #[inline]
    pub fn norm2(self) -> f64 {
        self.dot(self)
    }

    /// Unit vector; returns zero vector if the norm underflows.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        if n < 1e-300 {
            Vec3::ZERO
        } else {
            self / n
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }

    /// Component by index (0 = x, 1 = y, 2 = z).
    #[inline]
    pub fn get(self, i: usize) -> f64 {
        match i {
            0 => self.x,
            1 => self.y,
            _ => self.z,
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}
impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}
impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}
impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}
impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}
impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}
impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

/// Axis-aligned bounding box.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    pub lo: Vec3,
    pub hi: Vec3,
}

impl Aabb {
    /// Empty box (inverted bounds) suitable for accumulation.
    pub fn empty() -> Self {
        Aabb {
            lo: Vec3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY),
            hi: Vec3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    pub fn new(lo: Vec3, hi: Vec3) -> Self {
        Aabb { lo, hi }
    }

    /// Grow to contain `p`.
    pub fn expand(&mut self, p: Vec3) {
        self.lo = self.lo.min(p);
        self.hi = self.hi.max(p);
    }

    /// Grow to contain another box.
    pub fn merge(&mut self, o: &Aabb) {
        self.lo = self.lo.min(o.lo);
        self.hi = self.hi.max(o.hi);
    }

    pub fn center(&self) -> Vec3 {
        (self.lo + self.hi) * 0.5
    }

    /// Box-box overlap (closed bounds).
    pub fn overlaps(&self, o: &Aabb) -> bool {
        self.lo.x <= o.hi.x
            && self.hi.x >= o.lo.x
            && self.lo.y <= o.hi.y
            && self.hi.y >= o.lo.y
            && self.lo.z <= o.hi.z
            && self.hi.z >= o.lo.z
    }

    /// Point containment (closed bounds).
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.lo.x
            && p.x <= self.hi.x
            && p.y >= self.lo.y
            && p.y <= self.hi.y
            && p.z >= self.lo.z
            && p.z <= self.hi.z
    }
}

/// Triangle with precomputed AABB.
#[derive(Clone, Copy, Debug)]
pub struct Triangle {
    pub a: Vec3,
    pub b: Vec3,
    pub c: Vec3,
}

impl Triangle {
    pub fn new(a: Vec3, b: Vec3, c: Vec3) -> Self {
        Triangle { a, b, c }
    }

    pub fn aabb(&self) -> Aabb {
        let mut bb = Aabb::empty();
        bb.expand(self.a);
        bb.expand(self.b);
        bb.expand(self.c);
        bb
    }

    /// Geometric (unnormalised) normal `= (b-a) x (c-a)`; magnitude is twice
    /// the area.
    pub fn normal(&self) -> Vec3 {
        (self.b - self.a).cross(self.c - self.a)
    }

    pub fn area(&self) -> f64 {
        0.5 * self.normal().norm()
    }

    pub fn centroid(&self) -> Vec3 {
        (self.a + self.b + self.c) / 3.0
    }

    /// Separating-axis triangle / axis-aligned-box overlap test
    /// (Akenine-Möller). `center`/`half` describe the box.
    pub fn overlaps_box(&self, center: Vec3, half: Vec3) -> bool {
        // Translate triangle to box coordinates.
        let v0 = self.a - center;
        let v1 = self.b - center;
        let v2 = self.c - center;
        let e0 = v1 - v0;
        let e1 = v2 - v1;
        let e2 = v0 - v2;

        // 9 cross-product axes. Projecting all three vertices (rather than
        // the classical two-vertex shortcut) keeps the code uniform.
        let fe = |e: Vec3| Vec3::new(e.x.abs(), e.y.abs(), e.z.abs());
        for (e, (u, v, w)) in [(e0, (v0, v1, v2)), (e1, (v0, v1, v2)), (e2, (v0, v1, v2))] {
            let f = fe(e);
            // axis L = e x (1,0,0) = (0, -e.z, e.y)
            let p0 = -e.z * u.y + e.y * u.z;
            let p1 = -e.z * v.y + e.y * v.z;
            let p2 = -e.z * w.y + e.y * w.z;
            // Two of the three projections always coincide; use min/max of all 3.
            let mn = p0.min(p1).min(p2);
            let mx = p0.max(p1).max(p2);
            if mn > f.z * half.y + f.y * half.z || mx < -(f.z * half.y + f.y * half.z) {
                return false;
            }
            // axis L = e x (0,1,0) = (e.z, 0, -e.x)
            let q0 = e.z * u.x - e.x * u.z;
            let q1 = e.z * v.x - e.x * v.z;
            let q2 = e.z * w.x - e.x * w.z;
            let mn = q0.min(q1).min(q2);
            let mx = q0.max(q1).max(q2);
            if mn > f.z * half.x + f.x * half.z || mx < -(f.z * half.x + f.x * half.z) {
                return false;
            }
            // axis L = e x (0,0,1) = (-e.y, e.x, 0)
            let r0 = -e.y * u.x + e.x * u.y;
            let r1 = -e.y * v.x + e.x * v.y;
            let r2 = -e.y * w.x + e.x * w.y;
            let mn = r0.min(r1).min(r2);
            let mx = r0.max(r1).max(r2);
            if mn > f.y * half.x + f.x * half.y || mx < -(f.y * half.x + f.x * half.y) {
                return false;
            }
        }

        // 3 box face normals.
        for i in 0..3 {
            let mn = v0.get(i).min(v1.get(i)).min(v2.get(i));
            let mx = v0.get(i).max(v1.get(i)).max(v2.get(i));
            if mn > half.get(i) || mx < -half.get(i) {
                return false;
            }
        }

        // Triangle plane vs box.
        let n = e0.cross(e1);
        let d = -n.dot(v0);
        let r = half.x * n.x.abs() + half.y * n.y.abs() + half.z * n.z.abs();
        let s = d; // plane distance at box center
        if s.abs() > r {
            return false;
        }
        true
    }

    /// Möller-Trumbore ray/triangle intersection. Returns the ray parameter
    /// `t >= 0` of the hit, if any. `EPS` guards degenerate triangles.
    pub fn ray_hit(&self, origin: Vec3, dir: Vec3) -> Option<f64> {
        self.ray_terms(dir)?.hit(origin, dir)
    }

    /// The part of [`Triangle::ray_hit`] that does not depend on the ray
    /// origin; `None` when the ray runs parallel to the triangle.
    pub fn ray_terms(&self, dir: Vec3) -> Option<RayTerms> {
        let e1 = self.b - self.a;
        let e2 = self.c - self.a;
        let p = dir.cross(e2);
        let det = e1.dot(p);
        if det.abs() < RAY_EPS {
            return None;
        }
        Some(RayTerms {
            a: self.a,
            e1,
            e2,
            p,
            inv: 1.0 / det,
        })
    }
}

const RAY_EPS: f64 = 1e-12;

/// A triangle's Möller-Trumbore terms for one fixed ray direction, so a
/// cast from another origin along it only pays for the origin-dependent
/// half of [`Triangle::ray_hit`].
#[derive(Clone, Copy, Debug)]
pub struct RayTerms {
    a: Vec3,
    e1: Vec3,
    e2: Vec3,
    p: Vec3,
    inv: f64,
}

impl RayTerms {
    /// The ray parameter `t >= 0` of the hit from `origin` along the `dir`
    /// these terms were made for, if any.
    #[inline]
    pub fn hit(&self, origin: Vec3, dir: Vec3) -> Option<f64> {
        let t0 = origin - self.a;
        let u = t0.dot(self.p) * self.inv;
        if !(-RAY_EPS..=1.0 + RAY_EPS).contains(&u) {
            return None;
        }
        let q = t0.cross(self.e1);
        let v = dir.dot(q) * self.inv;
        if v < -RAY_EPS || u + v > 1.0 + RAY_EPS {
            return None;
        }
        let t = self.e2.dot(q) * self.inv;
        if t >= 0.0 {
            Some(t)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_algebra_basics() {
        let a = Vec3::new(1.0, 0.0, 0.0);
        let b = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(a.cross(b), Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(a.dot(b), 0.0);
        assert_eq!((a + b).norm2(), 2.0);
        assert!(((a + b).normalized().norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn aabb_overlap_and_containment() {
        let a = Aabb::new(Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0));
        let b = Aabb::new(Vec3::new(0.5, 0.5, 0.5), Vec3::new(2.0, 2.0, 2.0));
        let c = Aabb::new(Vec3::new(1.5, 1.5, 1.5), Vec3::new(2.0, 2.0, 2.0));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(a.contains(Vec3::new(0.5, 0.5, 0.5)));
        assert!(!a.contains(Vec3::new(1.5, 0.5, 0.5)));
    }

    #[test]
    fn triangle_area_and_normal() {
        let t = Triangle::new(
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        );
        assert!((t.area() - 0.5).abs() < 1e-15);
        assert_eq!(t.normal().normalized(), Vec3::new(0.0, 0.0, 1.0));
    }

    #[test]
    fn tri_box_overlap_basic_cases() {
        let t = Triangle::new(
            Vec3::new(-1.0, -1.0, 0.0),
            Vec3::new(1.0, -1.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        );
        // Box straddling the triangle plane at the origin: overlap.
        assert!(t.overlaps_box(Vec3::ZERO, Vec3::new(0.5, 0.5, 0.5)));
        // Box far above the plane: no overlap.
        assert!(!t.overlaps_box(Vec3::new(0.0, 0.0, 2.0), Vec3::new(0.5, 0.5, 0.5)));
        // Box to the side: no overlap.
        assert!(!t.overlaps_box(Vec3::new(5.0, 0.0, 0.0), Vec3::new(0.5, 0.5, 0.5)));
        // Box containing one vertex only: overlap.
        assert!(t.overlaps_box(Vec3::new(0.0, 1.0, 0.0), Vec3::new(0.25, 0.25, 0.25)));
    }

    #[test]
    fn tri_box_cross_axis_separation() {
        // Thin sliver triangle near a box corner that plane/face tests alone
        // would mis-classify; verifies the 9 cross-axis tests matter.
        let t = Triangle::new(
            Vec3::new(1.4, 0.0, 1.4),
            Vec3::new(2.0, 0.0, 0.6),
            Vec3::new(2.0, 0.0, 1.4),
        );
        assert!(!t.overlaps_box(Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0)));
    }

    #[test]
    fn ray_hits_triangle_interior_and_misses_outside() {
        let t = Triangle::new(
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(1.0, 0.0, 1.0),
            Vec3::new(0.0, 1.0, 1.0),
        );
        let hit = t.ray_hit(Vec3::new(0.2, 0.2, 0.0), Vec3::new(0.0, 0.0, 1.0));
        assert!((hit.unwrap() - 1.0).abs() < 1e-12);
        assert!(t
            .ray_hit(Vec3::new(0.9, 0.9, 0.0), Vec3::new(0.0, 0.0, 1.0))
            .is_none());
        // Ray pointing away misses.
        assert!(t
            .ray_hit(Vec3::new(0.2, 0.2, 0.0), Vec3::new(0.0, 0.0, -1.0))
            .is_none());
    }

    columbia_rt::props! {
        /// A box containing the triangle's centroid always overlaps.
        fn prop_box_around_centroid_overlaps(
            a in columbia_rt::props::array::<_, 3>(-5.0f64..5.0),
            b in columbia_rt::props::array::<_, 3>(-5.0f64..5.0),
            c in columbia_rt::props::array::<_, 3>(-5.0f64..5.0),
        ) {
            let t = Triangle::new(
                Vec3::new(a[0], a[1], a[2]),
                Vec3::new(b[0], b[1], b[2]),
                Vec3::new(c[0], c[1], c[2]),
            );
            let centroid = t.centroid();
            assert!(t.overlaps_box(centroid, Vec3::new(0.1, 0.1, 0.1)));
        }

        /// Overlap is symmetric under translation.
        fn prop_overlap_translation_invariant(dx in -3.0f64..3.0, dy in -3.0f64..3.0) {
            let t = Triangle::new(
                Vec3::new(0.0, 0.0, 0.0),
                Vec3::new(1.0, 0.0, 0.0),
                Vec3::new(0.0, 1.0, 0.0),
            );
            let shift = Vec3::new(dx, dy, 0.0);
            let t2 = Triangle::new(t.a + shift, t.b + shift, t.c + shift);
            let center = Vec3::new(0.2, 0.2, 0.0);
            let half = Vec3::new(0.5, 0.5, 0.5);
            assert_eq!(
                t.overlaps_box(center, half),
                t2.overlaps_box(center + shift, half)
            );
        }
    }
}
