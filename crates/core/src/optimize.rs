//! Design optimisation driver (paper §IV).
//!
//! "The outcome of design optimization is a modified vehicle whose
//! performance is known only at the design points... as many as 20 to 50
//! analysis cycles may be required to reach a local optimum." This module
//! provides the optimisation loop around an arbitrary analysis oracle
//! (usually a [`crate::CartAnalysis`] or [`crate::FlowAnalysis`] closure),
//! counting analysis cycles the way the paper's cost estimates do.
//!
//! The algorithm is derivative-free golden-section search over one design
//! variable — the appropriate tool when each objective evaluation is a CFD
//! solve and adjoint gradients are out of scope (the paper's own
//! optimisation uses the adjoint machinery of its references 23-26).

/// Result of a 1-D design optimisation.
#[derive(Clone, Copy, Debug)]
pub struct Optimum {
    /// Optimal design variable.
    pub x: f64,
    /// Objective at the optimum.
    pub value: f64,
    /// Number of analysis cycles spent (the paper's cost currency).
    pub analysis_cycles: usize,
}

/// Why a search could not run. Bad arguments are caught before any
/// analysis is spent; a trim bracket without a sign change, after the two
/// analyses at its ends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OptimizeError {
    /// `lo < hi` does not hold; a NaN bound fails it too.
    EmptyBracket {
        /// Lower bound as given.
        lo: f64,
        /// Upper bound as given.
        hi: f64,
    },
    /// Golden-section search needs two analyses to start.
    TooFewEvals {
        /// The budget as given.
        max_evals: usize,
    },
    /// The moments at the ends of a trim bracket do not straddle zero
    /// (`M(lo) * M(hi) <= 0` fails; a NaN moment fails it too).
    NoSignChange {
        /// `M(lo)`.
        m_lo: f64,
        /// `M(hi)`.
        m_hi: f64,
    },
}

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizeError::EmptyBracket { lo, hi } => write!(f, "empty bracket [{lo}, {hi}]"),
            OptimizeError::TooFewEvals { max_evals } => {
                write!(f, "{max_evals} analyses allowed, golden section needs 2")
            }
            OptimizeError::NoSignChange { m_lo, m_hi } => write!(
                f,
                "trim bracket must straddle zero: M(lo) = {m_lo}, M(hi) = {m_hi}"
            ),
        }
    }
}

impl std::error::Error for OptimizeError {}

/// `lo < hi`, or the typed error (NaN bounds included).
fn check_bracket(lo: f64, hi: f64) -> Result<(), OptimizeError> {
    if lo < hi {
        Ok(())
    } else {
        Err(OptimizeError::EmptyBracket { lo, hi })
    }
}

/// Minimise `objective` over `[lo, hi]` by golden-section search until the
/// bracket is below `tol` or `max_evals` analyses have run.
pub fn golden_section(
    lo: f64,
    hi: f64,
    tol: f64,
    max_evals: usize,
    mut objective: impl FnMut(f64) -> f64,
) -> Result<Optimum, OptimizeError> {
    check_bracket(lo, hi)?;
    if max_evals < 2 {
        return Err(OptimizeError::TooFewEvals { max_evals });
    }
    const PHI: f64 = 0.618_033_988_749_894_9;
    let mut a = lo;
    let mut b = hi;
    let mut x1 = b - PHI * (b - a);
    let mut x2 = a + PHI * (b - a);
    let mut f1 = objective(x1);
    let mut f2 = objective(x2);
    let mut evals = 2;
    while (b - a) > tol && evals < max_evals {
        if f1 <= f2 {
            b = x2;
            x2 = x1;
            f2 = f1;
            x1 = b - PHI * (b - a);
            f1 = objective(x1);
        } else {
            a = x1;
            x1 = x2;
            f1 = f2;
            x2 = a + PHI * (b - a);
            f2 = objective(x2);
        }
        evals += 1;
    }
    let (x, value) = if f1 <= f2 { (x1, f1) } else { (x2, f2) };
    Ok(Optimum {
        x,
        value,
        analysis_cycles: evals,
    })
}

/// Trim search: find the control deflection where `moment(x)` crosses zero
/// by bisection (the classic G&C use of an aero database).
pub fn trim_bisection(
    mut lo: f64,
    mut hi: f64,
    tol: f64,
    max_evals: usize,
    mut moment: impl FnMut(f64) -> f64,
) -> Result<Optimum, OptimizeError> {
    check_bracket(lo, hi)?;
    let mut m_lo = moment(lo);
    let m_hi = moment(hi);
    let mut evals = 2;
    let product = m_lo * m_hi;
    if product.is_nan() || product > 0.0 {
        return Err(OptimizeError::NoSignChange { m_lo, m_hi });
    }
    while (hi - lo) > tol && evals < max_evals {
        let mid = 0.5 * (lo + hi);
        let m_mid = moment(mid);
        evals += 1;
        if m_lo * m_mid <= 0.0 {
            hi = mid;
        } else {
            lo = mid;
            m_lo = m_mid;
        }
    }
    let x = 0.5 * (lo + hi);
    Ok(Optimum {
        x,
        value: 0.0,
        analysis_cycles: evals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_section_finds_quadratic_minimum() {
        let mut count = 0;
        let opt = golden_section(-2.0, 3.0, 1e-6, 100, |x| {
            count += 1;
            (x - 0.7) * (x - 0.7) + 1.5
        })
        .unwrap();
        assert!((opt.x - 0.7).abs() < 1e-5, "x = {}", opt.x);
        assert!((opt.value - 1.5).abs() < 1e-9);
        assert_eq!(opt.analysis_cycles, count);
        // The paper's band: a local optimum within 20-50 analyses.
        assert!(
            opt.analysis_cycles >= 20 && opt.analysis_cycles <= 50,
            "{} analyses",
            opt.analysis_cycles
        );
    }

    #[test]
    fn golden_section_respects_budget() {
        let opt = golden_section(0.0, 1.0, 0.0, 10, |x| x * x).unwrap();
        assert_eq!(opt.analysis_cycles, 10);
        assert!(opt.x < 0.3);
    }

    #[test]
    fn trim_bisection_finds_zero_crossing() {
        let opt = trim_bisection(-1.0, 1.0, 1e-8, 100, |x| 2.0 * (x - 0.31)).unwrap();
        assert!((opt.x - 0.31).abs() < 1e-7);
        assert!(opt.analysis_cycles < 40);
    }

    /// An objective that must never run: every rejection happens first.
    fn unreachable(_: f64) -> f64 {
        panic!("analysis spent on an invalid search")
    }

    #[test]
    fn trim_requires_a_bracket() {
        let err = trim_bisection(0.0, 1.0, 1e-6, 50, |x| x + 1.0).unwrap_err();
        assert_eq!(
            err,
            OptimizeError::NoSignChange {
                m_lo: 1.0,
                m_hi: 2.0
            }
        );
        assert!(err.to_string().contains("straddle zero"), "{err}");
        // A NaN moment at either end is no sign change either.
        for m in [|x: f64| if x > 0.5 { f64::NAN } else { -1.0 }, |_| f64::NAN] {
            let err = trim_bisection(0.0, 1.0, 1e-6, 50, m).unwrap_err();
            assert!(matches!(err, OptimizeError::NoSignChange { .. }), "{err}");
        }
    }

    #[test]
    fn empty_or_nan_brackets_are_rejected_before_any_analysis() {
        for (lo, hi) in [(1.0, 1.0), (2.0, -2.0), (f64::NAN, 1.0), (0.0, f64::NAN)] {
            for err in [
                golden_section(lo, hi, 1e-6, 50, unreachable).unwrap_err(),
                trim_bisection(lo, hi, 1e-6, 50, unreachable).unwrap_err(),
            ] {
                match err {
                    OptimizeError::EmptyBracket { lo: l, hi: h } => {
                        assert_eq!((l.to_bits(), h.to_bits()), (lo.to_bits(), hi.to_bits()))
                    }
                    e => panic!("[{lo}, {hi}] gave {e}"),
                }
            }
        }
    }

    #[test]
    fn golden_section_needs_two_analyses() {
        for max_evals in [0, 1] {
            assert_eq!(
                golden_section(0.0, 1.0, 1e-6, max_evals, unreachable).unwrap_err(),
                OptimizeError::TooFewEvals { max_evals }
            );
        }
    }

    columbia_rt::props! {
        /// Golden-section search locates the minimum of any parabola placed
        /// anywhere in the bracket, to bracket tolerance.
        fn prop_golden_section_finds_parabola_min(xmin in -4.0f64..4.0, scale in 0.5f64..5.0) {
            let opt = golden_section(-5.0, 5.0, 1e-6, 200, |x| scale * (x - xmin) * (x - xmin)).unwrap();
            assert!((opt.x - xmin).abs() < 1e-5, "found {} expected {}", opt.x, xmin);
            assert!(opt.value >= 0.0);
        }

        /// Trim bisection finds the zero crossing of any monotone moment
        /// curve that straddles zero.
        fn prop_trim_finds_crossing(root in -0.9f64..0.9, gain in 0.2f64..4.0) {
            let opt = trim_bisection(-1.0, 1.0, 1e-9, 200, |x| gain * (x - root)).unwrap();
            assert!((opt.x - root).abs() < 1e-7, "found {} expected {}", opt.x, root);
        }
    }
}
