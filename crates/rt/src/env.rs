//! Typed parsing of the workspace's `COLUMBIA_*` environment knobs.
//!
//! Every knob the workspace reads is parsed here, once, with one
//! documented grammar — test files and harnesses must not hand-roll
//! `std::env::var` calls. The full set:
//!
//! | Variable                  | Grammar                  | Default      | Consumers                                  |
//! |---------------------------|--------------------------|--------------|--------------------------------------------|
//! | `COLUMBIA_PT_REPLAY`      | decimal or `0x`-hex u64  | unset        | [`crate::props`] single-case replay        |
//! | `COLUMBIA_EXECUTOR`       | `threads` \| `events`    | unset        | `run_world` backend (CI executor matrix)   |
//!
//! [`KNOBS`] lists the same two names; `tests/hermetic.rs` fails if the
//! repository mentions a `COLUMBIA_*` name outside it or stops mentioning
//! one inside it.
//!
//! The parsers are split into pure `parse_*` functions (unit-testable
//! without touching process state) and thin `std::env` wrappers, so the
//! grammar is pinned by tests that never race over environment variables.
//! The enum-valued knob (`COLUMBIA_EXECUTOR`) reports a typed [`EnvError`]
//! carrying the variable name, the offending value and the accepted
//! grammar, so harnesses can render or match on the failure instead of
//! catching a panic.

/// A malformed `COLUMBIA_*` environment value: which variable, what it
/// held, and the grammar it violated. Returned by the enum-knob parser
/// ([`parse_executor`]) so callers get a matchable error instead of a
/// formatted panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnvError {
    /// The environment variable the value came from.
    pub var: &'static str,
    /// The offending value, verbatim (pre-trim).
    pub value: String,
    /// The accepted grammar, e.g. `threads|events`.
    pub expected: &'static str,
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: bad value {:?} (use {})",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for EnvError {}

/// Every `COLUMBIA_*` knob the workspace reads (the module table).
pub const KNOBS: [&str; 2] = ["COLUMBIA_PT_REPLAY", "COLUMBIA_EXECUTOR"];

/// Parse a u64 seed in the knob grammar: decimal, or hex with a `0x`/`0X`
/// prefix. Surrounding whitespace is ignored.
pub fn parse_seed(s: &str) -> Result<u64, String> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16)
            .map_err(|e| format!("bad hex seed {s:?}: {e}"))
    } else {
        s.replace('_', "")
            .parse()
            .map_err(|e| format!("bad seed {s:?}: {e}"))
    }
}

/// `COLUMBIA_PT_REPLAY`: replay one property-test case from this seed.
pub fn pt_replay() -> Option<u64> {
    std::env::var("COLUMBIA_PT_REPLAY")
        .ok()
        .map(|s| parse_seed(&s).expect("COLUMBIA_PT_REPLAY"))
}

/// The `run_world` backend selected by `COLUMBIA_EXECUTOR`.
///
/// `Threads` is the classic rank-per-OS-thread runtime; `Events` hosts
/// every rank as a cooperative task driven by one deterministic
/// [`crate::timeq::TimeQueue`], so paper-scale worlds (512/1024/2016
/// ranks) run on a laptop. Both produce bit-identical payloads, comm
/// counters and trace JSON — pinned by `tests/executor_parity.rs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutorKind {
    /// One OS thread per rank (preemptive, kernel-scheduled).
    Threads,
    /// Cooperative rank tasks on a deterministic event queue.
    Events,
}

/// Parse a `COLUMBIA_EXECUTOR` value; `None` means unset (caller default).
/// Malformed values yield the typed [`EnvError`], never a panic.
pub fn parse_executor(v: Option<&str>) -> Result<Option<ExecutorKind>, EnvError> {
    match v.map(str::trim) {
        None => Ok(None),
        Some("threads") => Ok(Some(ExecutorKind::Threads)),
        Some("events") => Ok(Some(ExecutorKind::Events)),
        Some(_) => Err(EnvError {
            var: "COLUMBIA_EXECUTOR",
            value: v.unwrap_or_default().to_string(),
            expected: "threads|events",
        }),
    }
}

/// `COLUMBIA_EXECUTOR` for this run; `None` when unset (the context picks
/// its default, currently [`ExecutorKind::Threads`]).
pub fn executor() -> Option<ExecutorKind> {
    try_executor().unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`executor`]: the typed [`EnvError`] instead of a
/// panic on a malformed value.
pub fn try_executor() -> Result<Option<ExecutorKind>, EnvError> {
    parse_executor(std::env::var("COLUMBIA_EXECUTOR").ok().as_deref())
}

/// The dense-kernel path of the solvers, chosen in code
/// (`SolverParams::kernel`, `EulerLevel::kernel`).
///
/// `Simd` (the solvers' default) runs the lane-interleaved batched
/// kernels in `columbia_linalg::soa`; `Scalar` runs the classic
/// one-block-at-a-time kernels and serves as the bit-identity reference
/// oracle. The two paths produce bit-identical states, residuals and FLOP
/// counts — pinned by `tests/kernel_parity.rs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// One-block-at-a-time reference kernels (the oracle path).
    Scalar,
    /// Lane-interleaved SoA batch kernels (the default path).
    Simd,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_grammar_accepts_decimal_hex_and_separators() {
        assert_eq!(parse_seed("42"), Ok(42));
        assert_eq!(parse_seed(" 0xC01D_FA17 "), Ok(0xC01D_FA17));
        assert_eq!(parse_seed("0Xff"), Ok(255));
        assert_eq!(parse_seed("1_000_000"), Ok(1_000_000));
        assert!(parse_seed("0x").is_err());
        assert!(parse_seed("banana").is_err());
        assert!(parse_seed("").is_err());
    }

    #[test]
    fn executor_grammar_is_threads_events_with_unset_passthrough() {
        assert_eq!(parse_executor(None), Ok(None));
        assert_eq!(
            parse_executor(Some("threads")),
            Ok(Some(ExecutorKind::Threads))
        );
        assert_eq!(
            parse_executor(Some(" events ")),
            Ok(Some(ExecutorKind::Events))
        );
        assert!(parse_executor(Some("fibers")).is_err());
        assert!(parse_executor(Some("")).is_err());
    }

    #[test]
    fn malformed_executor_yields_the_typed_error_not_a_panic() {
        let err = parse_executor(Some("fibers")).unwrap_err();
        assert_eq!(err.var, "COLUMBIA_EXECUTOR");
        assert_eq!(err.value, "fibers");
        assert_eq!(err.expected, "threads|events");
        assert_eq!(
            err.to_string(),
            "COLUMBIA_EXECUTOR: bad value \"fibers\" (use threads|events)"
        );
        // The raw (pre-trim) value is preserved for faithful reporting.
        let err = parse_executor(Some(" evnets ")).unwrap_err();
        assert_eq!(err.value, " evnets ");
    }
}
