//! Public umbrella API for the Columbia reproduction.
//!
//! The paper's workflow (§I, §IV) combines two simulation packages:
//!
//! * [`FlowAnalysis`] — the high-fidelity NSU3D-style RANS analysis used at
//!   the most important flight conditions and for design optimisation;
//! * [`CartAnalysis`] — the fully automated Cart3D-style inviscid analysis
//!   used to sweep the entire flight envelope;
//! * [`DatabaseFill`] — the automated parameter-study driver that fills
//!   aero-performance databases over configuration-space (control-surface
//!   deflections) x wind-space (Mach, alpha, sideslip) grids.
//!
//! The Columbia scaling study that replays measured cycle workloads through
//! the machine model is `columbia_machine::scaling`.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod cart_analysis;
pub mod database;
pub mod flight;
pub mod optimize;
pub mod server;

pub use analysis::{FlowAnalysis, FlowReport};
pub use cart_analysis::{CartAnalysis, CartReport};
pub use database::{
    CaseStatus, DatabaseEntry, DatabaseFill, DatabaseSpec, ExecContext, FillPolicy,
};
pub use flight::{AeroDatabase, LookupError, RigidState, SixDof, TableError};
pub use optimize::{golden_section, trim_bisection, OptimizeError, Optimum};
pub use server::{
    digest_responses, DatabaseServer, Fallback, Query, Response, ServePolicy, ServerStats,
};
