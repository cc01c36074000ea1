//! Unstructured meshes for the NSU3D-style high-fidelity solver.
//!
//! NSU3D operates on vertex-centred median-dual control volumes over hybrid
//! prism/tet meshes whose boundary-layer regions are extremely anisotropic
//! (normal wall spacings of 1e-6 chords against chordwise spacings orders of
//! magnitude larger). The paper's 72M-point DPW wing-body mesh is
//! proprietary; this crate provides a *synthetic* generator that reproduces
//! the properties the solver and the scalability study actually exercise:
//!
//! * an edge-based dual with area-weighted face normals and vertex volumes,
//! * geometric wall-normal stretching (prismatic-layer analogue),
//! * an isotropic outer region (tetrahedral analogue),
//! * wall / far-field boundary conditions and wall distances.
//!
//! On top of the mesh type sit the algorithms of paper §III:
//! [`lines`] (implicit-line extraction for the line-implicit smoother),
//! [`agglomerate()`](agglomerate::agglomerate) (multigrid coarse-level construction by control-volume
//! agglomeration), [`rcm`] (reverse Cuthill-McKee cache reordering), and
//! [`geom`] (vector/triangle primitives shared with the Cartesian crate).

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops mirror the stencil/block structure of the kernels
#![allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 0.0)` deliberately catches NaNs

pub mod agglomerate;
pub mod generator;
pub mod geom;
pub mod lines;
pub mod mesh;
pub mod rcm;

pub use agglomerate::{
    agglomerate, agglomerate_hierarchy, agglomerate_levels, merge_coarse_pairs, Agglomeration,
};
pub use generator::{isotropic_box_mesh, wing_mesh, WingMeshSpec};
pub use geom::{Aabb, Triangle, Vec3};
pub use lines::{extract_lines, extract_lines_with, LineSet};
pub use mesh::{BoundaryKind, Edge, UnstructuredMesh, VertexEdges};
pub use rcm::reverse_cuthill_mckee;
