//! Software FLOP accounting.
//!
//! The paper measured FLOP rates with the Itanium2 `pfmon` hardware
//! counters; we count in software using per-kernel operation estimates
//! (hand counts of the arithmetic in each kernel, MADD counted as 2 as in
//! the paper's methodology). The absolute numbers only need to be
//! *consistent* — they calibrate the `flops_per_point` fields of the
//! machine-model profiles.

/// FLOPs per Rusanov flux evaluation (two flux evals, two spectral radii,
/// blend) for the 6-variable system.
pub const FLUX: u64 = 150;
/// FLOPs per edge for the viscous/diffusion terms.
pub const VISCOUS: u64 = 40;
/// FLOPs per edge for the Green-Gauss gradient: 6 + 4 per kept plane.
pub const GRADIENT_EDGE: u64 = 6 + 6 * 4;
/// FLOPs per vertex for the turbulence source terms.
pub const SOURCE: u64 = 60;
/// FLOPs to assemble one edge's contribution to the implicit diagonal
/// (flux Jacobian + accumulate).
pub const JACOBIAN_EDGE: u64 = 160;
/// FLOPs for one 6x6 LU factorisation + solve.
pub const LU_SOLVE: u64 = 6 * 6 * 6 * 2 / 3 + 2 * 6 * 6;
/// FLOPs per interior block row of a block-tridiagonal solve
/// (two 6x6 matmuls + LU + two matvecs).
pub const TRIDIAG_ROW: u64 = 2 * 6 * 6 * 6 * 2 + LU_SOLVE;
/// FLOPs per vertex for state update + norm accumulation.
pub const UPDATE: u64 = 30;

/// Simple accumulator carried by each solver level.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlopCounter {
    total: u64,
}

impl FlopCounter {
    /// Add `n` FLOPs.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.total += n;
    }

    /// Total FLOPs recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Reset and return the previous total.
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_takes() {
        let mut c = FlopCounter::default();
        c.add(100);
        c.add(50);
        assert_eq!(c.total(), 150);
        assert_eq!(c.take(), 150);
        assert_eq!(c.total(), 0);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn kernel_constants_are_plausible() {
        // LU of a 6x6 is ~144 + 72 backsolve flops.
        assert!(LU_SOLVE > 100 && LU_SOLVE < 400);
        assert!(TRIDIAG_ROW > LU_SOLVE);
    }
}
