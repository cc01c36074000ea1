//! NSU3D analogue: the high-fidelity unstructured flow solver.
//!
//! Faithful to the algorithmic skeleton of paper §III:
//!
//! * **six coupled unknowns per vertex** — density, momentum vector, total
//!   energy, and a Spalart-Allmaras-style turbulence working variable
//!   solved *coupled* with the flow equations;
//! * **edge-based vertex-centred finite volume** discretisation — Rusanov
//!   (local Lax-Friedrichs) convective fluxes, edge-based diffusion for
//!   viscous terms, Green-Gauss velocity gradients feeding the turbulence
//!   production term;
//! * **point-implicit smoothing** — a dense 6x6 Jacobian block inverted at
//!   every vertex every iteration;
//! * **line-implicit smoothing** — block-tridiagonal solves along the
//!   implicit lines extracted in stretched boundary-layer regions;
//! * **agglomeration multigrid** with FAS coupling and W-cycles;
//! * **domain decomposition** with implicit-line-preserving partitioning
//!   and packed ghost exchanges.
//!
//! Fidelity note (documented in DESIGN.md): the paper's NSU3D solves full
//! RANS with a second-order reconstruction; this reproduction uses a
//! first-order Rusanov convective operator and thin-layer-style edge
//! diffusion. Multigrid/line-solver behaviour, the 6x6 block structure, and
//! all parallel machinery — the subjects of the paper's study — are
//! preserved.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops mirror the stencil/block structure of the kernels
#![allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 0.0)` deliberately catches NaNs

pub mod flops;
pub mod level;
pub mod parallel;
pub mod parallel_mg;
mod prim;
pub mod profile;
pub mod solver;
pub mod state;

pub use level::RansLevel;
pub use parallel_mg::ParallelMg;
pub use profile::measure_profile;
pub use solver::{RansSolver, SolverParams};
pub use state::{freestream, State, NVARS};
