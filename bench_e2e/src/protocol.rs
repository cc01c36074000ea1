//! The measurement protocol shared by every workload: timing, the timed
//! window, the residual-history gate and the bit digests.

use crate::metrics::Outcome;
use columbia_mg::{CycleParams, CycleType};
use std::time::Instant;

/// The cycle every solver workload runs, pinned here and not taken from
/// `CycleParams::default()`: a W-cycle, 2 sweeps down, 1 up, 4 on the
/// coarsest level.
pub fn w_cycle() -> CycleParams {
    CycleParams {
        pre_sweeps: 2,
        post_sweeps: 1,
        coarse_sweeps: 4,
        cycle: CycleType::W,
    }
}

/// Run `f` and return its result with its wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// How `setup_s` is sampled. Set-up time is steady inside one process
/// (20 builds of the server within 3 % of each other) but differs from
/// process to process by up to a half, whichever core it runs on, so more
/// builds in the measuring process do not steady it: its median over ten
/// runs kept a quartile distance of 17-37 %. The untraced run therefore
/// also builds the set-up in [`SETUP_PROBES`] fresh processes (the
/// binary's `setup-probe` mode) and reports the median over the
/// processes, each process giving the median of [`SETUP_SECONDS`] of
/// builds (one build, where one takes longer: a fresh process's first
/// build is what a user pays).
pub const SETUP_SECONDS: f64 = 0.5;
pub const SETUP_PROBES: usize = 6;

/// Build the set-up over and over for [`SETUP_SECONDS`], dropping each instance before the next so the peak resident set is one
/// instance; returns the last with the seconds each took.
pub fn repeat_setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut last = None;
    let seconds = window(SETUP_SECONDS, 1, || {
        drop(last.take());
        let (built, dt) = timed(&mut build);
        last = Some(built);
        dt
    });
    (last.expect("the window runs at least once"), seconds)
}

/// Run `setup-probe` for `workload` in [`SETUP_PROBES`] fresh processes,
/// one after the other, each waited for; returns the median build
/// seconds each printed.
pub fn probe_setups(workload: &str, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    (0..SETUP_PROBES)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["setup-probe", workload, &seed.to_string()])
                .output()
                .map_err(|e| format!("cannot start a set-up probe: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            match text.trim().parse::<f64>() {
                Ok(seconds) if out.status.success() && seconds > 0.0 => Ok(seconds),
                _ => Err(format!(
                    "set-up probe failed ({}): {text}{}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                )),
            }
        })
        .collect()
}

/// The timed window: call `op` until the seconds it reports add up to
/// `seconds`, and at least `min_ops` times. `op` returns the wall seconds
/// of the part of its work that is measured, so bookkeeping between
/// operations (residual norms, rebuilding a consumed solver) stays out.
pub fn window(seconds: f64, min_ops: usize, mut op: impl FnMut() -> f64) -> Vec<f64> {
    let mut samples = Vec::new();
    let mut used = 0.0;
    while samples.len() < min_ops || used < seconds {
        let dt = op();
        used += dt;
        samples.push(dt);
    }
    samples
}

/// The residual gate of the cycle workloads: every norm finite, every
/// cycle lowering it, and at least `min_orders` orders of magnitude lost
/// over the history. Each violating cycle counts as one failed operation.
pub fn check_history(out: &mut Outcome, what: &str, residuals: &[f64], min_orders: f64) {
    let bad = residuals.iter().filter(|r| !r.is_finite()).count()
        + residuals
            .windows(2)
            .filter(|w| w[0].is_finite() && w[1].is_finite() && w[1] >= w[0])
            .count();
    out.fail(
        bad as u64,
        format!("{what}: residual history not finite and falling: {residuals:?}"),
    );
    let orders = match (residuals.first(), residuals.last()) {
        (Some(&a), Some(&b)) if a > 0.0 && b > 0.0 => (a / b).log10(),
        _ => 0.0,
    };
    out.fail(
        u64::from(orders < min_orders),
        format!("{what}: residual fell {orders:.3} orders, less than the stated {min_orders}"),
    );
    out.note(format!(
        "{what}: residual {:.6e} -> {:.6e} over {} cycles ({orders:.3} orders, at least {min_orders} required)",
        residuals.first().copied().unwrap_or(f64::NAN),
        residuals.last().copied().unwrap_or(f64::NAN),
        residuals.len().saturating_sub(1),
    ));
}

/// FNV-1a over the bit patterns of a stream of doubles.
pub fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Whether two residual histories agree to `rel` relative, entry by entry.
pub fn histories_agree(a: &[f64], b: &[f64], rel: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= rel * x.abs().max(y.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_runs_until_the_measured_time_is_used() {
        let mut calls = 0;
        let samples = window(1.0, 2, || {
            calls += 1;
            0.3
        });
        assert_eq!((calls, samples.len()), (4, 4));
        // The minimum count holds even when one operation fills the window.
        assert_eq!(window(1.0, 2, || 5.0).len(), 2);
    }

    #[test]
    fn history_gate_counts_each_violation() {
        let mut ok = Outcome::default();
        check_history(&mut ok, "t", &[1.0, 0.1, 0.01], 1.5);
        assert_eq!(ok.failed, 0);
        let mut rising = Outcome::default();
        check_history(&mut rising, "t", &[1.0, 0.1, 0.2, f64::NAN], 0.5);
        assert_eq!(rising.failed, 3, "one rise, one NaN, and the drop unmet");
        let mut shallow = Outcome::default();
        check_history(&mut shallow, "t", &[1.0, 0.9], 1.0);
        assert_eq!(shallow.failed, 1);
    }

    #[test]
    fn digests_and_tolerances() {
        assert_eq!(digest([1.0, 2.0]), digest([1.0, 2.0]));
        assert_ne!(digest([1.0, 2.0]), digest([2.0, 1.0]));
        assert_ne!(digest([0.0]), digest([-0.0]));
        assert!(histories_agree(&[1.0, 0.5], &[1.0 + 1e-12, 0.5], 1e-9));
        assert!(!histories_agree(&[1.0, 0.5], &[1.0 + 1e-6, 0.5], 1e-9));
        assert!(!histories_agree(&[1.0], &[1.0, 0.5], 1e-9));
    }

    #[test]
    fn setup_is_built_for_the_stated_seconds() {
        let mut built = 0;
        let (last, seconds) = repeat_setup(|| {
            built += 1;
            std::thread::sleep(std::time::Duration::from_millis(300));
            built
        });
        // 0.3 s builds: two fill the half second, and the last is kept.
        assert_eq!((last, seconds.len()), (2, 2));
        assert!(seconds.iter().sum::<f64>() >= SETUP_SECONDS);
    }
}
