//! Flat state-vector operations.
//!
//! Flow states are stored as structure-of-blocks: a `Vec<[f64; N]>` with one
//! block per grid point / cell. These helpers implement the handful of BLAS-1
//! style operations the multigrid drivers need.

/// `y += a * x` over flat scalar slices, processed in unrolled chunks of
/// [`crate::soa::LANES`]. AXPY is element-wise, so chunking cannot change
/// a single bit of the result — there is no scalar/SIMD fork to oracle.
pub fn axpy_flat(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    const LANES: usize = crate::soa::LANES;
    let mut yc = y.chunks_exact_mut(LANES);
    let mut xc = x.chunks_exact(LANES);
    for (ys, xs) in (&mut yc).zip(&mut xc) {
        for l in 0..LANES {
            ys[l] += a * xs[l];
        }
    }
    for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi += a * xi;
    }
}

/// `y += a * x` over block arrays (delegates to the chunked flat kernel;
/// a `[[f64; N]]` is contiguous, so the flattening is free).
pub fn axpy<const N: usize>(a: f64, x: &[[f64; N]], y: &mut [[f64; N]]) {
    assert_eq!(x.len(), y.len());
    axpy_flat(a, x.as_flattened(), y.as_flattened_mut());
}

/// Set all blocks to zero.
pub fn zero_out<const N: usize>(x: &mut [[f64; N]]) {
    for xi in x.iter_mut() {
        *xi = [0.0; N];
    }
}

/// L2 norm over all components of all blocks.
pub fn l2_norm<const N: usize>(x: &[[f64; N]]) -> f64 {
    x.iter()
        .flat_map(|b| b.iter())
        .map(|v| v * v)
        .sum::<f64>()
        .sqrt()
}

/// RMS norm over all components (L2 / sqrt(count)); the convergence measure
/// plotted in the paper's Figure 14(a).
pub fn rms_norm<const N: usize>(x: &[[f64; N]]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    l2_norm(x) / ((x.len() * N) as f64).sqrt()
}

/// Infinity norm over all components.
pub fn max_norm<const N: usize>(x: &[[f64; N]]) -> f64 {
    x.iter()
        .flat_map(|b| b.iter())
        .fold(0.0f64, |m, v| m.max(v.abs()))
}

/// Dot product of two block arrays.
pub fn dot<const N: usize>(x: &[[f64; N]], y: &[[f64; N]]) -> f64 {
    assert_eq!(x.len(), y.len());
    x.iter()
        .zip(y.iter())
        .map(|(a, b)| a.iter().zip(b.iter()).map(|(u, v)| u * v).sum::<f64>())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_accumulates() {
        let x = vec![[1.0, 2.0]; 3];
        let mut y = vec![[10.0, 20.0]; 3];
        axpy(2.0, &x, &mut y);
        for b in &y {
            assert_eq!(*b, [12.0, 24.0]);
        }
    }

    #[test]
    fn chunked_axpy_matches_naive_bitwise_at_awkward_lengths() {
        // Lengths straddling the unroll width, including the empty and
        // remainder-only cases.
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 3.1).collect();
            let mut y: Vec<f64> = (0..n).map(|i| (i as f64 * 1.13).cos() - 0.4).collect();
            let mut y_ref = y.clone();
            let a = 0.816_496_580_927_726;
            for (yi, xi) in y_ref.iter_mut().zip(x.iter()) {
                *yi += a * xi;
            }
            axpy_flat(a, &x, &mut y);
            for (u, v) in y.iter().zip(y_ref.iter()) {
                assert_eq!(u.to_bits(), v.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn norms_on_unit_blocks() {
        let x = vec![[1.0; 4]; 4]; // 16 entries of 1.0
        assert!((l2_norm(&x) - 4.0).abs() < 1e-14);
        assert!((rms_norm(&x) - 1.0).abs() < 1e-14);
        assert_eq!(max_norm(&x), 1.0);
    }

    #[test]
    fn rms_of_empty_is_zero() {
        let x: Vec<[f64; 6]> = vec![];
        assert_eq!(rms_norm(&x), 0.0);
    }

    #[test]
    fn dot_matches_manual() {
        let x = vec![[1.0, 2.0], [3.0, 4.0]];
        let y = vec![[5.0, 6.0], [7.0, 8.0]];
        assert_eq!(dot(&x, &y), 5.0 + 12.0 + 21.0 + 32.0);
    }

    #[test]
    fn zero_out_clears() {
        let mut x = vec![[3.0; 5]; 7];
        zero_out(&mut x);
        assert_eq!(max_norm(&x), 0.0);
    }
}
