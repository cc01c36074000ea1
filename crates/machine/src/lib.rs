//! Analytic performance model of the NASA Columbia supercluster.
//!
//! We obviously cannot run on 2016 Itanium2 CPUs across NUMAlink4 and
//! InfiniBand fabrics; what the paper's scalability figures actually encode
//! is the interaction of four measurable ingredients:
//!
//! 1. **per-CPU floating-point rate** with an L3 working-set effect (the
//!    source of the famous superlinear speedups at 2008 CPUs),
//! 2. **interconnect latency/bandwidth**, per fabric and per node span,
//!    including InfiniBand's degradation across nodes and its MPI
//!    connection limit (paper eq. 1, practical limit 1524 ranks on 4 nodes),
//! 3. **communication volume scaling** of domain-decomposed meshes (each
//!    code's `c q^(2/3)` ghost law and peer degree, checked against exact
//!    decompositions of real meshes at the paper's points per rank),
//! 4. **multigrid cycling structure** (a W-cycle visits the coarsest of
//!    `L` levels `2^(L-1)` times; coarse levels have almost no work but the
//!    full communication graph).
//!
//! Solver crates *measure* ingredient 4 (and each level's work and
//! inter-grid locality) on real meshes at laptop scale and rescale it to
//! paper size; this crate supplies 1-3 from the paper's published hardware
//! parameters and the codes' constants, and composes everything into
//! wall-clock-per-cycle predictions at 32-4016 CPUs.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // index loops mirror the stencil/block structure of the kernels
#![allow(clippy::neg_cmp_op_on_partial_ord)] // `!(x > 0.0)` deliberately catches NaNs

pub mod columbia;
pub mod contention;
pub mod interconnect;
pub mod model;
pub mod profile;
pub mod scaling;

pub use columbia::MachineConfig;
pub use contention::{
    analytic_makespan, makespan, simulate, Arbiter, Delivery, LinkSpec, Packet, Topology,
};
pub use interconnect::{ib_rank_limit, Fabric};
pub use model::{check_run, ProgModel, SimError};
pub use model::{simulate_cycle, CycleBreakdown, RunConfig};
pub use profile::{paper_cart3d_25m, paper_nsu3d_72m};
pub use profile::{CycleProfile, LevelProfile};
pub use scaling::{
    cart3d_node_span, fabric_thread_matrix, relative_efficiency, series, ScalingPoint, StudyRow,
    CART3D_CPU_COUNTS, NSU3D_CPU_COUNTS,
};
