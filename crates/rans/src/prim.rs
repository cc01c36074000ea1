//! The per-vertex primitive cache and the edge formulas that read it.
//!
//! Every edge kernel of [`crate::level::RansLevel`] needs the same point
//! quantities of its two endpoints, and a vertex is an endpoint of 7–10
//! edges, so they are evaluated once per vertex per residual ([`prim_of`],
//! from `begin_residual`) and the edge kernels only read them. Each
//! formula below is the *same expression* (operands, operations, order)
//! as its public definition in [`crate::state`] with the per-vertex
//! subexpressions replaced by their cached values; IEEE `/`, `sqrt`, `*`,
//! `+` are functions of their operands, so the results are bit-identical
//! to the uncached formulation — pinned against the `state.rs` oracle by
//! the property suite in `level.rs`.

use crate::state::{fv1, nu_tilde, pressure, sa, sound_speed, velocity, State, GAMMA, NVARS};
use columbia_mesh::Vec3;

/// Cached primitives of one vertex: `[vx, vy, vz, p, c, h, nu_tilde,
/// rho * max(nu_tilde, 0) * fv1]`. A plain array (not an aligned struct)
/// so `vec![[0.0; 8]; n]` takes the `alloc_zeroed` path and level
/// construction never touches the pages.
pub(crate) type Prim = [f64; 8];
const P: usize = 3;
const C: usize = 4;
const H: usize = 5;
const NT: usize = 6;
const MU_T: usize = 7;

/// Evaluate the cache entry of state `u` (`mu`: laminar viscosity).
#[inline]
pub(crate) fn prim_of(u: &State, mu: f64) -> Prim {
    let (v, p, c) = (velocity(u), pressure(u), sound_speed(u));
    let ntp = nu_tilde(u).max(0.0);
    let mu_t = u[0] * ntp * fv1(ntp, mu / u[0]);
    [v.x, v.y, v.z, p, c, (u[4] + p) / u[0], nu_tilde(u), mu_t]
}

#[inline(always)]
pub(crate) fn vel(p: &Prim) -> Vec3 {
    Vec3::new(p[0], p[1], p[2])
}

/// Scalars of one edge `a -> b` shared by the flux, diagonal and line
/// kernels; `|S|` costs one sqrt and `|S| / length` one division per edge.
pub(crate) struct EdgeScalars {
    /// Normal velocities `v . S` of the two endpoints.
    un: [f64; 2],
    /// Rusanov spectral radius `max(|v . S| + c |S|)` over the endpoints.
    pub lam: f64,
    /// Diffusion metric `|S| / length`.
    coef: f64,
    /// Effective viscosity: laminar + mean eddy viscosity of the endpoints.
    mu_eff: f64,
}

impl EdgeScalars {
    #[inline(always)]
    pub fn new(pa: &Prim, pb: &Prim, s: Vec3, length: f64, mu: f64) -> Self {
        let snorm = s.norm();
        let un = [vel(pa).dot(s), vel(pb).dot(s)];
        EdgeScalars {
            un,
            lam: (un[0].abs() + pa[C] * snorm).max(un[1].abs() + pb[C] * snorm),
            coef: snorm / length,
            mu_eff: mu + 0.5 * (pa[MU_T] + pb[MU_T]),
        }
    }

    /// Implicit viscous coefficient of the edge.
    #[inline(always)]
    pub fn visc(&self, rho_a: f64, rho_b: f64) -> f64 {
        self.mu_eff * self.coef / rho_a.min(rho_b)
    }

    /// The Rusanov flux from `a` to `b` through `s`, and the edge
    /// diffusion of components `1..NVARS` (momentum, energy, turbulence
    /// transport) flowing into `a`.
    #[inline(always)]
    pub fn fluxes(
        &self,
        (pa, ua): (&Prim, &State),
        (pb, ub): (&Prim, &State),
        s: Vec3,
        mu: f64,
    ) -> (State, [f64; NVARS - 1]) {
        let flux = |u: &State, p: f64, un: f64| {
            let (m, e) = (|k: usize, sk: f64| u[k] * un + p * sk, (u[4] + p) * un);
            [u[0] * un, m(1, s.x), m(2, s.y), m(3, s.z), e, u[5] * un]
        };
        let (fl, fr) = (flux(ua, pa[P], self.un[0]), flux(ub, pb[P], self.un[1]));
        let k = self.mu_eff * self.coef;
        let dv = vel(pb) - vel(pa);
        let mt = mu + 0.5 * (ua[5].max(0.0) + ub[5].max(0.0));
        let dn = mt / sa::SIGMA * self.coef * (pb[NT] - pa[NT]);
        (
            std::array::from_fn(|k| 0.5 * (fl[k] + fr[k]) - 0.5 * self.lam * (ub[k] - ua[k])),
            [k * dv.x, k * dv.y, k * dv.z, k * (pb[H] - pa[H]), dn],
        )
    }
}

/// Visit the entries of `0.5 A(u, s) + d I` — the shape of every implicit
/// block the smoother assembles (diagonal contributions with `d > 0`, line
/// couplings with `d < 0`) — that can be non-zero: all but the seven exact
/// zeros of [`crate::state::flux_jacobian`] off the diagonal. Sinks that
/// *accumulate* lose nothing by the skip: those accumulators start at
/// `+0.0` and would only ever receive `+0.0`, a bitwise no-op.
#[inline(always)]
pub(crate) fn half_jacobian_shifted(
    p: &Prim,
    s: Vec3,
    d: f64,
    mut f: impl FnMut(usize, usize, f64),
) {
    let mut a = |r: usize, c: usize, a: f64| f(r, c, if r == c { 0.5 * a + d } else { 0.5 * a });
    let (vv, sv) = ([p[0], p[1], p[2]], [s.x, s.y, s.z]);
    let (h, nt) = (p[H], p[NT]);
    let un = vel(p).dot(s);
    let q2 = vv[0] * vv[0] + vv[1] * vv[1] + vv[2] * vv[2];
    let phi = 0.5 * (GAMMA - 1.0) * q2;
    let g1 = GAMMA - 1.0;
    a(0, 0, 0.0);
    a(4, 0, un * (phi - h));
    a(4, 4, GAMMA * un);
    a(5, 0, -nt * un);
    a(5, 5, un);
    for i in 0..3 {
        a(0, 1 + i, sv[i]);
        a(1 + i, 0, phi * sv[i] - vv[i] * un);
        for j in 0..3 {
            let val = vv[i] * sv[j] - g1 * vv[j] * sv[i];
            a(1 + i, 1 + j, if i == j { val + un } else { val });
        }
        a(1 + i, 4, g1 * sv[i]);
        a(4, 1 + i, h * sv[i] - g1 * vv[i] * un);
        a(5, 1 + i, nt * sv[i]);
    }
}
