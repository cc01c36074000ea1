//! Typed parsing of the workspace's one `COLUMBIA_*` environment knob.
//!
//! Every knob the workspace reads is parsed here, once, with one
//! documented grammar — test files and harnesses must not hand-roll
//! `std::env::var` calls. The full set:
//!
//! | Variable             | Grammar                 | Default | Consumer                                |
//! |----------------------|-------------------------|---------|-----------------------------------------|
//! | `COLUMBIA_PT_REPLAY` | decimal or `0x`-hex u64 | unset   | [`mod@crate::props`] single-case replay |
//!
//! [`KNOBS`] lists the same name; `tests/hermetic.rs` fails if the
//! repository mentions a `COLUMBIA_*` name outside it or stops mentioning
//! one inside it. Everything else a run depends on — the `run_world`
//! executor, fault plans, the kernel path — is chosen in code.
//!
//! The grammar is a pure `parse_*` function (unit-testable without touching
//! process state) behind a thin `std::env` wrapper, so it is pinned by
//! tests that never race over environment variables.

/// Every `COLUMBIA_*` knob the workspace reads (the module table).
pub const KNOBS: [&str; 1] = ["COLUMBIA_PT_REPLAY"];

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
}
