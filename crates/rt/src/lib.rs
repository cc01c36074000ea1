//! `columbia-rt`: the workspace's zero-dependency determinism runtime.
//!
//! The reproduction's tier-1 contract is a fully *hermetic* build:
//! `cargo build --release --offline && cargo test -q --offline` with no
//! crates-io dependency anywhere in the graph, and bit-identical results
//! across consecutive runs. This crate supplies the infrastructure that
//! would otherwise pull in external crates (message channels need none:
//! the comm runtime uses `std::sync::mpsc`):
//!
//! * [`rng`] — SplitMix64-seeded PCG32 with the `seed_from_u64` /
//!   `gen_range` / `shuffle` surface the mesh generator, partitioner and
//!   tests use (replaces `rand`);
//! * [`props`] — a deterministic property-testing harness with seeded case
//!   generation, fixed case counts and failure-seed replay (replaces
//!   `proptest`);
//! * [`fault`] — seeded, stateless fault schedules (message drop /
//!   duplicate / delay / reorder, barrier stalls, database-case
//!   poisoning) that the comm runtime injects deterministically;
//! * [`trace`] — deterministic observability: hierarchical spans keyed by
//!   logical position (rank, level, cycle, case id) with a logical
//!   event-count clock in test mode and wall time in bench mode, plus
//!   typed counters (replaces nothing — closes the instrumentation gap);
//! * [`json`] — a byte-stable JSON writer for trace and scaling reports
//!   (replaces `serde_json` where a repo would normally reach for it);
//! * [`env`] — typed, unit-tested parsing of the one `COLUMBIA_*`
//!   environment knob (the property-test replay seed), so no harness
//!   hand-rolls `std::env::var`;
//! * [`fnv`] — byte-wise FNV-1a 64, the digest of the bit-identity
//!   goldens and of the database server's response replay;
//! * [`timeq`] — the deterministic `(time, key, seq)` discrete-event
//!   queue that drives the cooperative event executor (ranks as resumable
//!   tasks instead of free-running OS threads);
//! * [`affinity`] — the calling thread's current CPU and a one-CPU pin,
//!   which keep an event world's carriers together (Linux; else no-ops).
//!
//! Everything here is plain `std` plus two libc symbols `std` already links
//! (`affinity`, the one module allowed `unsafe`); the crate must never grow
//! a dependency.

#![deny(unsafe_code)]

#[allow(unsafe_code)]
pub mod affinity;
pub mod env;
pub mod fault;
pub mod fnv;
pub mod json;
pub mod props;
pub mod rng;
pub mod timeq;
pub mod trace;

pub use fault::{CasePlan, FaultConfig, FaultPlan, MessageAction};
pub use json::Json;
pub use rng::{derive_seed, splitmix64, Pcg32};
pub use timeq::TimeQueue;
pub use trace::{ClockMode, Span, SpanKey, Trace, Tracer};
