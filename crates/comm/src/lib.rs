//! Virtual message-passing runtime — the MPI substitute.
//!
//! The Rust ecosystem has no production MPI, and the reproduction does not
//! need a network: it needs the *communication pattern*. This crate runs
//! each "MPI rank" as an OS thread exchanging typed, packed messages over
//! `std::sync::mpsc` channels (one mailbox per rank), exactly mirroring
//! NSU3D's strategy (paper §III):
//!
//! * ghost values for a given peer are packed into **one buffer per peer**
//!   ("fewer larger messages ... reducing latency overheads");
//! * residual contributions accumulated at ghost vertices are sent back and
//!   **added** at their owners; updated state is then **copied** out to the
//!   ghosts;
//! * every send is instrumented (message count, bytes, peer), producing the
//!   per-level communication profiles the Columbia machine model replays at
//!   paper scale.
//!
//! [`runtime`] injects deterministic faults on demand: a seeded
//! [`FaultPlan`] decides per message occurrence whether it is dropped,
//! duplicated, delayed or reordered, and per barrier whether a rank stalls
//! (its module doc has the protocol) — with the schedule, solver results
//! and [`CommStats`] traces bit-identical across runs for a fixed seed.

#![forbid(unsafe_code)]

pub mod exchange;
pub mod fabric;
pub mod runtime;
mod sched;
pub mod stats;

pub use columbia_exec::{ExecContext, Executor, FabricModel, PoolPolicy};
pub use columbia_rt::fault::{FaultConfig, FaultPlan, MessageAction};
pub use exchange::{decompose, Decomposition, ExchangePlan, HaloField, TransferSchedule};
pub use fabric::{flows_from_traces, FabricClock};
pub use runtime::{run_smoothing_world, run_world, run_world_with, Rank, RankTrace};
pub use stats::{CommStats, FaultCounters, PoolCounters, WorldCommSummary};
