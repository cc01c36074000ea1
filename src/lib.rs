//! Reproduction of *"High Resolution Aerospace Applications using the NASA
//! Columbia Supercomputer"* (Mavriplis, Aftosmis & Berger, SC 2005).
//!
//! This workspace rebuilds, from scratch in Rust, both aerodynamic
//! simulation packages the paper studies and the machinery needed to
//! regenerate its evaluation:
//!
//! * [`rans`] — NSU3D analogue: vertex-centred, six-unknown implicit flow
//!   solver with line-implicit agglomeration multigrid;
//! * [`cartesian`] + [`euler`] — Cart3D analogue: automatic cut-cell
//!   Cartesian meshing from watertight geometry and an SFC-multigrid Euler
//!   solver;
//! * [`mesh`], [`partition`], [`sfc`], [`linalg`], [`mg`] — the substrates
//!   (synthetic anisotropic meshes, a multilevel k-way partitioner,
//!   space-filling curves, block linear algebra, FAS multigrid);
//! * [`comm`] — a virtual MPI runtime (ranks as threads, packed ghost
//!   exchanges, hybrid MPI x OpenMP layouts);
//! * [`machine`] — the Columbia performance model (Itanium2 cache model,
//!   NUMAlink4 / InfiniBand fabrics, the InfiniBand MPI-connection limit);
//! * [`core`] — the user-facing API: flow analyses, aero-database fills
//!   and scaling studies.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for paper-vs-measured results on every figure.

#![forbid(unsafe_code)]

pub use columbia_cartesian as cartesian;
pub use columbia_comm as comm;
pub use columbia_core as core;
pub use columbia_euler as euler;
pub use columbia_linalg as linalg;
pub use columbia_machine as machine;
pub use columbia_mesh as mesh;
pub use columbia_mg as mg;
pub use columbia_partition as partition;
pub use columbia_rans as rans;
pub use columbia_sfc as sfc;
