//! Flat state-vector operations.
//!
//! Flow states are stored as structure-of-blocks: a `Vec<[f64; N]>` with one
//! block per grid point / cell. The one BLAS-1 operation the solvers need
//! is the AXPY of a Runge-Kutta stage or a correction.

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
}
