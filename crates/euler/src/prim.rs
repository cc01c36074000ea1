//! The per-cell primitive cache and the face formulas that read it.
//!
//! Every face of [`crate::level::EulerLevel`] needs the velocity, pressure
//! and sound speed of its two cells, and a cell is an endpoint of ~5.6
//! faces, so they are evaluated once per cell per residual ([`prim_of`],
//! at the top of `accumulate_residual`) and the face loops only read them.
//! Each formula below is the *same expression* (operands, operations,
//! order) as its public definition in [`crate::state`] with the per-cell
//! subexpressions replaced by their cached values; IEEE `/`, `sqrt`, `*`,
//! `+` are functions of their operands, so the results are bit-identical
//! to the uncached formulation — pinned against the `state.rs` oracle by
//! the property suite in `level.rs`.

use crate::state::{pressure, sound_speed, velocity, State5};
use columbia_mesh::Vec3;

/// Cached primitives of one cell: `[vx, vy, vz, p, c]`. A plain array so
/// `vec![[0.0; 5]; n]` takes the `alloc_zeroed` path and level
/// construction never touches the pages.
pub(crate) type Prim = [f64; 5];
const P: usize = 3;
const C: usize = 4;

/// Evaluate the cache entry of state `u`.
#[inline]
pub(crate) fn prim_of(u: &State5) -> Prim {
    let (v, p, c) = (velocity(u), pressure(u), sound_speed(u));
    [v.x, v.y, v.z, p, c]
}

#[inline(always)]
fn vel(p: &Prim) -> Vec3 {
    Vec3::new(p[0], p[1], p[2])
}

/// Convective flux of one side through `s` and its spectral radius
/// `|v . S| + c |S|` (`snorm = |S|`, one sqrt per face shared by both
/// sides): [`crate::state::flux`] and [`crate::state::spectral_radius`].
#[inline(always)]
pub(crate) fn side(u: &State5, p: &Prim, s: Vec3, snorm: f64) -> (State5, f64) {
    let un = vel(p).dot(s);
    let pr = p[P];
    (
        [
            u[0] * un,
            u[1] * un + pr * s.x,
            u[2] * un + pr * s.y,
            u[3] * un + pr * s.z,
            (u[4] + pr) * un,
        ],
        un.abs() + p[C] * snorm,
    )
}

/// Rusanov blend of the two [`side`]s of a face, oriented l -> r, with
/// `lam` the larger of their spectral radii: [`crate::state::rusanov`].
#[inline(always)]
pub(crate) fn blend(
    lam: f64,
    (ul, fl): (&State5, &State5),
    (ur, fr): (&State5, &State5),
) -> State5 {
    std::array::from_fn(|k| 0.5 * (fl[k] + fr[k]) - 0.5 * lam * (ur[k] - ul[k]))
}

/// Pressure-only flux through the wall closure vector and the closure's
/// spectral radius: [`crate::state::wall_flux`] and
/// [`crate::state::spectral_radius`].
#[inline(always)]
pub(crate) fn wall(p: &Prim, w: Vec3) -> (State5, f64) {
    let pr = p[P];
    (
        [0.0, pr * w.x, pr * w.y, pr * w.z, 0.0],
        vel(p).dot(w).abs() + p[C] * w.norm(),
    )
}
