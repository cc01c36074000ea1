//! Cart3D substrate: automatic cut-cell Cartesian meshing from watertight
//! component geometry (paper §IV-V).
//!
//! The pipeline mirrors the Cart3D package:
//!
//! 1. geometry arrives as a set of **watertight triangulated solids**
//!    ([`tri`]) — here built synthetically (SSLV-style launch vehicle,
//!    wings with deflectable control surfaces, bodies of revolution),
//!    since the CAD-derived originals are not available;
//! 2. an **adaptive octree** refines around the surface with 2:1 balance
//!    and classifies cells as cut / inside / outside ([`octree`]);
//! 3. leaves become a **cell-centred finite-volume mesh** with face and
//!    wall-closure metrics ([`mesh`]);
//! 4. cells are ordered along a **space-filling curve** (Peano-Hilbert by
//!    default), which provides single-pass mesh **coarsening** (sibling
//!    collection, ratios > 7 in refined regions) and **partitioning**
//!    (weighted curve splitting, cut cells weighted 2.1x) ([`coarsen`]).

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops mirror the stencil/block structure of the kernels
#![allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 0.0)` deliberately catches NaNs

pub mod coarsen;
pub mod mesh;
pub mod octree;
pub mod tri;

pub use coarsen::{coarsen_hierarchy, coarsen_mesh, partition_cells, CartHierarchy, Coarsening};
pub use mesh::{extract_mesh, CartFace, CartMesh, CellKind};
pub use octree::{build_octree, CutCellConfig, Octree};
pub use tri::{sslv_geometry, Bvh, Geometry, TriMesh};
