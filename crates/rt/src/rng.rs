//! Deterministic pseudo-random number generation.
//!
//! A SplitMix64 seed expander feeding a PCG32 (XSH-RR 64/32) stream — the
//! minimal, fully reproducible subset of the `rand` API this workspace
//! actually uses: seeding from a `u64`, uniform ranges, and Fisher-Yates
//! shuffling. Every generator in the repo (mesh jitter, matching order,
//! property-test cases) threads an explicit `u64` seed through this type,
//! so two runs of any test or figure section are bit-identical.

use std::ops::{Range, RangeInclusive};

/// One step of the SplitMix64 sequence; used to expand seeds and to derive
/// independent per-case / per-level seeds from a base seed.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a decorrelated child seed from `(base, index)` — used wherever a
/// driver hands seeds to sub-generators (coarsening levels, test cases).
#[inline]
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut s = base ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix64(&mut s)
}

/// PCG32 (XSH-RR 64/32): 64-bit state, 32-bit output, period 2^64.
///
/// Small, fast, and statistically solid for the mesh/partition workloads
/// here; *not* cryptographic.
#[derive(Clone, Debug)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

impl Pcg32 {
    /// Seed deterministically from a single `u64` (SplitMix64-expanded, so
    /// nearby seeds give uncorrelated streams).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let state = splitmix64(&mut sm);
        let inc = splitmix64(&mut sm) | 1; // stream increment must be odd
        let mut rng = Pcg32 { state: 0, inc };
        rng.state = rng.state.wrapping_add(state);
        rng.next_u32();
        rng
    }

    /// Next 32 uniform bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Unbiased uniform integer in `[0, bound)` (Lemire widening multiply
    /// with rejection).
    #[inline]
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform sample from a range; supports the integer `Range` types and
    /// `Range`/`RangeInclusive` over `f64` used across the workspace.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// In-place Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

/// Ranges [`Pcg32::gen_range`] can sample from.
pub trait SampleRange {
    type Output;
    fn sample(self, rng: &mut Pcg32) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),+) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Pcg32) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.gen_below(span) as i128) as $t
            }
        }
    )+};
}
impl_int_range!(u32, u64, usize, i32, i64);

impl SampleRange for Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut Pcg32) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + rng.gen_f64() * (self.end - self.start)
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut Pcg32) -> f64 {
        let (a, b) = (*self.start(), *self.end());
        assert!(a <= b, "empty range");
        // Scale the half-open unit sample to the closed interval; for the
        // jitter-style symmetric ranges used here the endpoint bias of one
        // ulp is irrelevant.
        a + rng.gen_f64() * (b - a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Pcg32::seed_from_u64(42);
        let mut b = Pcg32::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Pcg32::seed_from_u64(1);
        let mut b = Pcg32::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(
            same < 4,
            "streams should be uncorrelated, {same} collisions"
        );
    }

    #[test]
    fn gen_below_is_in_range_and_covers() {
        let mut rng = Pcg32::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_below(10) as usize;
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn int_ranges_respect_bounds() {
        let mut rng = Pcg32::seed_from_u64(11);
        for _ in 0..1000 {
            let v = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&v));
            let u = rng.gen_range(3usize..17);
            assert!((3..17).contains(&u));
        }
    }

    #[test]
    fn f64_ranges_respect_bounds() {
        let mut rng = Pcg32::seed_from_u64(13);
        for _ in 0..1000 {
            let v = rng.gen_range(-2.5f64..3.5);
            assert!((-2.5..3.5).contains(&v));
            let w = rng.gen_range(-0.1f64..=0.1);
            assert!((-0.1..=0.1).contains(&w));
        }
    }

    #[test]
    fn f64_mean_is_centred() {
        let mut rng = Pcg32::seed_from_u64(17);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.gen_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let mut v: Vec<u32> = (0..50).collect();
        Pcg32::seed_from_u64(3).shuffle(&mut v);
        let mut w: Vec<u32> = (0..50).collect();
        Pcg32::seed_from_u64(3).shuffle(&mut w);
        assert_eq!(v, w);
        assert_ne!(v, (0..50).collect::<Vec<u32>>(), "shuffle changed order");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn derive_seed_decorrelates() {
        assert_ne!(derive_seed(0, 0), derive_seed(0, 1));
        assert_ne!(derive_seed(0, 0), derive_seed(1, 0));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Pcg32::seed_from_u64(0).gen_range(5u32..5);
    }
}
