//! Cart3D solver module analogue (paper §V).
//!
//! Solves the Euler equations of inviscid compressible flow on the cut-cell
//! Cartesian meshes produced by `columbia-cartesian`:
//!
//! * cell-centred finite volume, five unknowns per cell;
//! * first-order Rusanov upwind fluxes across the faces (axis-aligned on
//!   every level: a coarse face sums the fine normals it agglomerates, and
//!   two coarse cells, octree nodes both, meet in one plane); pressure-only
//!   wall flux through each cut cell's embedded-boundary closure vector;
//!   far-field characteristic state at domain boundary faces;
//! * five-stage Runge-Kutta smoothing with local time stepping;
//! * FAS multigrid over the single-pass SFC-coarsened hierarchy (W-cycles
//!   preferred, as in the paper);
//! * SFC domain decomposition with packed ghost exchanges;
//! * surface force/moment integration for the aero-database fills of §IV.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops mirror the stencil/block structure of the kernels
#![allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 0.0)` deliberately catches NaNs

pub mod level;
pub mod parallel;
mod prim;
pub mod profile;
pub mod solver;
pub mod state;

pub use level::EulerLevel;
pub use profile::measure_profile;
pub use solver::{EulerParams, EulerSolver, Forces};
pub use state::{freestream5, State5, NVARS5};
