//! Small dense block linear-algebra kernels used by the implicit flow solvers.
//!
//! The NSU3D-style solver (crate `columbia-rans`) stores six unknowns per
//! grid point and requires, at every nonlinear iteration,
//!
//! * inversion of a dense 6x6 block at each grid point (point-implicit
//!   smoothing), and
//! * a block-tridiagonal LU decomposition along each implicit line in
//!   stretched boundary-layer regions (line-implicit smoothing).
//!
//! Both kernels are provided here over a const-generic block size `N` so the
//! Cart3D-style solver (5 unknowns per cell) can share them.
//!
//! The kernels are deliberately allocation-free in their hot paths: matrices
//! are plain `[f64; N*N]`-backed values, and the tridiagonal solver works in
//! caller-provided scratch storage so it can be reused across the thousands
//! of lines in a mesh.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops mirror the stencil/block structure of the kernels
#![allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 0.0)` deliberately catches NaNs

pub mod block;
pub mod soa;
pub mod tridiag;
pub mod vecops;

pub use block::{BlockLu, BlockMat, LinalgError};
pub use soa::{BlockBatch, SoaStates, TridiagBatch, VecBatch, LANES};
pub use tridiag::BlockTridiag;
