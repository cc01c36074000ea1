//! Order statistics of timing samples: median, quartiles, the spread the
//! acceptance rule uses, and the "highest percentile with at least ten
//! samples beyond it" rule.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `values` (mean of the two middle samples for an even count).
///
/// # Panics
/// If `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let m = v.len();
    if m % 2 == 1 {
        v[m / 2]
    } else {
        0.5 * (v[m / 2 - 1] + v[m / 2])
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so `compare` and the acceptance check agree to the last digit. Fewer
/// than two samples have no spread: both quartiles are the sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The fast quartile: the nearest-rank 25th percentile, i.e. the sample a
/// quarter of the way up the sorted run (the minimum for fewer than five
/// samples). The gated operation time. This host slows by a third for
/// seconds at a time when its neighbours are busy; a run's median flips
/// between the two regimes, its fast quartile stays in the quiet one
/// unless three quarters of the window were disturbed.
pub fn fast_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fast quartile of no samples");
    let v = sorted(values);
    v[v.len().div_ceil(4) - 1]
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Five-number summary with the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let v = sorted(values);
        let (q1, q3) = quartiles(values);
        Summary {
            n: v.len(),
            min: v[0],
            q1,
            median: median(values),
            q3,
            max: v[v.len() - 1],
        }
    }
}

/// The highest of `candidates` (fractions in `(0, 1)`) that still has at
/// least [`TAIL_SAMPLES`] samples strictly beyond its rank, with its
/// value; `None` when not even the lowest candidate qualifies.
pub fn highest_supported_percentile(values: &[f64], candidates: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    let mut best = None;
    for &p in candidates {
        // Nearest-rank percentile: the smallest sample with at least
        // `p * m` samples at or below it.
        let rank = ((p * m as f64 - 1e-9).ceil() as usize).clamp(1, m.max(1));
        if m >= rank + TAIL_SAMPLES && best.is_none_or(|(bp, _)| p > bp) {
            best = Some((p, v[rank - 1]));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn fast_quartile_is_the_nearest_rank_25th_percentile() {
        assert_eq!(fast_quartile(&[3.0]), 3.0);
        assert_eq!(fast_quartile(&[9.0, 2.0]), 2.0);
        assert_eq!(fast_quartile(&[4.0, 3.0, 2.0, 1.0]), 1.0);
        assert_eq!(fast_quartile(&[5.0, 4.0, 3.0, 2.0, 1.0]), 2.0);
        let forty: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(fast_quartile(&forty), 10.0);
        // Three quarters of the run disturbed: still the quiet regime.
        assert_eq!(
            fast_quartile(&[1.3, 1.3, 1.0, 1.3, 1.3, 1.0, 1.3, 1.3]),
            1.0
        );
    }

    #[test]
    fn spread_is_the_quartile_distance_over_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_spread(&ten), 1.0);
        assert_eq!(iqr_spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn summary_orders_its_five_numbers() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let cands = [0.5, 0.9, 0.99, 0.999];
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1024 samples: p99 is rank 1014 with 10 beyond; p99.9 has one.
        assert_eq!(
            highest_supported_percentile(&samples(1024), &cands),
            Some((0.99, 1014.0))
        );
        // 1009 samples: p99 is rank 999 with exactly 10 beyond.
        assert_eq!(
            highest_supported_percentile(&samples(1009), &cands),
            Some((0.99, 999.0))
        );
        // 1000 samples: p99 is rank 990 with 10 beyond; 999 samples: rank
        // 990 with only 9 beyond, so the answer falls back to p90.
        assert_eq!(
            highest_supported_percentile(&samples(1000), &cands),
            Some((0.99, 990.0))
        );
        assert_eq!(
            highest_supported_percentile(&samples(999), &cands),
            Some((0.9, 900.0))
        );
        // 19 samples: the median is rank 10 with 9 beyond.
        assert_eq!(highest_supported_percentile(&samples(19), &cands), None);
        assert_eq!(
            highest_supported_percentile(&samples(20), &cands),
            Some((0.5, 10.0))
        );
    }
}
