//! Closed-form FLOP counts of the dense kernels.
//!
//! The paper measures FLOP rates with the Itanium2 hardware counters
//! (`pfmon`); the reproduction counts in software. For the dense kernels —
//! block LU factorise/solve, matrix products, their batched forms in
//! [`crate::soa`], the vector AXPYs — the count is a closed form of the
//! block size alone (a MADD counts 2, a division or reciprocal 1,
//! comparisons and `abs` 0, matching the paper's counting of arithmetic
//! retired), so the kernels themselves count nothing at run time: the
//! `--kernels` roofline section evaluates these functions.

/// Exact FLOPs of one partially pivoted `n x n` LU factorisation: per
/// elimination column `k`, one reciprocal, `n-1-k` multiplier products,
/// and `2 (n-1-k)^2` trailing-submatrix MADD flops.
pub const fn lu_flops(n: u64) -> u64 {
    let mut total = 0;
    let mut k = 0;
    while k < n {
        let r = n - 1 - k;
        total += 1 + r + 2 * r * r;
        k += 1;
    }
    total
}

/// Exact FLOPs of one forward + backward triangular solve: `2n^2 - n`
/// (the permutation load is free, the final column divides).
pub const fn solve_flops(n: u64) -> u64 {
    2 * n * n - n
}

/// FLOPs of a block right-hand-side solve (`n` column solves).
pub const fn solve_mat_flops(n: u64) -> u64 {
    n * solve_flops(n)
}

/// FLOPs of a dense `n x n` matrix product, counted at the nominal
/// `2n^3` rate (the scalar kernel skips zero multipliers as a strength
/// reduction; counts stay layout-independent by using the nominal rate).
pub const fn matmul_flops(n: u64) -> u64 {
    2 * n * n * n
}

/// FLOPs of an `n x n` matrix-vector product.
pub const fn matvec_flops(n: u64) -> u64 {
    2 * n * n
}

/// Exact FLOPs of one block-tridiagonal (block Thomas) solve of `len >= 1`
/// rows of `n x n` blocks: every row factorises its diagonal block and
/// solves for its right-hand side; every row but the last (and the first
/// always) solves for its modified upper block; every row after the first
/// pays a block product and a matvec in the forward elimination and a
/// matvec in the back substitution.
pub const fn tridiag_solve_flops(n: u64, len: u64) -> u64 {
    let upper_solves = if len > 1 { len - 1 } else { 1 };
    len * (lu_flops(n) + solve_flops(n))
        + upper_solves * solve_mat_flops(n)
        + (len - 1) * (matmul_flops(n) + 2 * matvec_flops(n))
}

/// FLOPs of `y += a x` over `len` scalars.
pub const fn axpy_flops(len: u64) -> u64 {
    2 * len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formulas_match_hand_counts() {
        // 1x1 LU: one reciprocal.
        assert_eq!(lu_flops(1), 1);
        // 2x2: reciprocal + 1 multiplier + 2 MADD, then reciprocal.
        assert_eq!(lu_flops(2), (1 + 1 + 2) + 1);
        // Solve: forward n(n-1) + backward n(n-1) + n divides.
        assert_eq!(solve_flops(6), 2 * 36 - 6);
        assert_eq!(solve_mat_flops(6), 6 * solve_flops(6));
        assert_eq!(matmul_flops(6), 432);
        assert_eq!(matvec_flops(6), 72);
        assert_eq!(axpy_flops(10), 20);
    }

    /// The counts the thread-local counter this module used to hold read
    /// off one pass of each `scaling_report --kernels` kernel.
    #[test]
    fn closed_forms_reproduce_the_counted_kernel_passes() {
        // point_lu6, 512 points: one factorisation + one solve each.
        assert_eq!(512 * (lu_flops(6) + solve_flops(6)), 100_864);
        // line_tridiag6, 16 lines x 32 rows.
        assert_eq!(16 * tridiag_solve_flops(6, 32), 582_976);
        // rk_axpy, 4096 cells x 5 variables.
        assert_eq!(axpy_flops(4096 * 5), 40_960);
        // A one-row line is a dense solve plus the unused upper-block solve.
        assert_eq!(
            tridiag_solve_flops(6, 1),
            lu_flops(6) + solve_flops(6) + solve_mat_flops(6)
        );
    }
}
