//! Workload profiles: what a multigrid cycle *is*, measured by the solvers.
//!
//! The solver crates run instrumented cycles on real (smaller) meshes and
//! hand the counts to this module, the one road from a measured cycle to a
//! paper-scale workload: [`CycleProfile::build`] packages the per-level
//! work with the code's constants into the [`CycleProfile`] this crate
//! prices. The halo has one law, the code's own
//! ([`CycleProfile::ghosts_per_partition`] and [`CodeConstants::degree`]),
//! checked against exact decompositions at the paper's points per rank by
//! `tests/ownership.rs`. FLOP counts come from software FLOP accounting in
//! the solver kernels (the paper used Itanium `pfmon` hardware counters).

use columbia_mg::{level_visits, CycleType};
use columbia_rt::trace::{SpanKey, Tracer};

/// One multigrid level's workload: the facts that differ level to level.
#[derive(Clone, Copy, Debug)]
pub struct LevelProfile {
    /// Global number of unknown carriers (points / cells) on this level.
    pub points: f64,
    /// FLOPs executed per point per level visit (smoothing + residual +
    /// transfers attributed to the level).
    pub flops_per_point: f64,
    /// Visits per multigrid cycle (W-cycle: 2^level).
    pub visits: f64,
}

/// Full multigrid cycle workload, each fact stated once. The transfers
/// between levels `l` and `l + 1` move
/// [`CodeConstants::intergrid_bytes_per_fine_point`] per point of level
/// `l`, once per visit of level `l + 1`.
#[derive(Clone, Debug)]
pub struct CycleProfile {
    /// Descriptive name ("NSU3D 72M-pt 6-level W-cycle").
    pub name: String,
    /// What is fixed per code rather than measured per level.
    pub code: CodeConstants,
    /// Per-level workloads, finest first.
    pub levels: Vec<LevelProfile>,
    /// Per pair of levels `l`, `l + 1`: the fraction of the transfer volume
    /// crossing partition boundaries (non-nested coarse/fine partitions;
    /// measured by the inter-level matcher).
    pub nonlocal: Vec<f64>,
}

/// What is fixed per code (NSU3D / Cart3D) rather than measured per level.
#[derive(Clone, Copy, Debug)]
pub struct CodeConstants {
    /// Working-set bytes per point (state + residual + metrics + Jacobian
    /// scratch) — drives the cache model.
    pub state_bytes_per_point: f64,
    /// Bytes exchanged per ghost entry per exchange (e.g. 6 vars x 8 B).
    pub exchange_bytes_per_entry: f64,
    /// Ghost exchanges per level visit (residual accumulation + state
    /// copies x smoothing sweeps).
    pub exchanges_per_visit: f64,
    /// Prefactor `c` of the code's surface law: a partition of `q` points
    /// ghosts `c q^(2/3)` entries on every level
    /// ([`CycleProfile::ghosts_per_partition`]).
    pub canonical_coeff: f64,
    /// Communication-graph degree of every level (the paper's fine-grid
    /// degree); the inter-grid graph has one peer more (paper: 18 and 19).
    pub degree: f64,
    /// Bytes moved per fine point per transfer pair (restrict + prolong).
    pub intergrid_bytes_per_fine_point: f64,
    /// Single-CPU tuning factor on the sustained rate (1.0 for NSU3D's
    /// calibration; Cart3D's "somewhat better than 1.5 GFLOP/s"
    /// cell-centred kernels use ~1.10).
    pub rate_scale: f64,
    /// Fraction of the kernel that speeds up when the working set fits in
    /// L3 (1.0 = fully memory-bound like NSU3D's scattered edge kernels —
    /// source of its superlinear speedups; Cart3D's structured-stencil
    /// kernels are already cache-blocked and show near-ideal, not
    /// superlinear, scaling: ~0.2).
    pub cache_fraction: f64,
}

impl CycleProfile {
    /// The one constructor. `levels[l]` is `(carriers, FLOPs per carrier
    /// per visit)` of level `l` as measured, `visits[l]` its visits per
    /// cycle, `nonlocal[l]` the non-local fraction of the transfers
    /// between levels `l` and `l + 1`. The profile is
    /// [`rescaled`](CycleProfile::rescaled) to `target_points`.
    pub fn build(
        name: &str,
        code: &CodeConstants,
        levels: &[(f64, f64)],
        visits: &[usize],
        nonlocal: &[f64],
        target_points: f64,
    ) -> CycleProfile {
        assert_eq!(levels.len(), visits.len());
        assert_eq!(nonlocal.len() + 1, levels.len());
        let level = |(&(points, flops_per_point), &visits): (&(f64, f64), &usize)| LevelProfile {
            points,
            flops_per_point,
            visits: visits as f64,
        };
        CycleProfile {
            name: name.to_string(),
            code: *code,
            levels: levels.iter().zip(visits).map(level).collect(),
            nonlocal: nonlocal.to_vec(),
        }
        .rescaled(target_points)
    }

    /// [`CycleProfile::build`] from one instrumented cycle: level `l` has
    /// `carriers[l]` points and executed `flops[l]` FLOPs in it. The
    /// per-level counts are recorded on `tracer` under a `profile_measure`
    /// span instead of dropped.
    #[allow(clippy::too_many_arguments)]
    pub fn measured(
        tracer: &mut Tracer,
        name: &str,
        code: &CodeConstants,
        carriers: &[usize],
        flops: &[u64],
        visits: &[usize],
        nonlocal: &[f64],
        target_points: f64,
    ) -> CycleProfile {
        tracer.begin(SpanKey::new("profile_measure"));
        let mut levels = Vec::with_capacity(carriers.len());
        for (l, (&n, &f)) in carriers.iter().zip(flops).enumerate() {
            let per_visit = f as f64 / (n as f64 * visits[l] as f64);
            tracer.add("profile.flops", f);
            tracer.gauge(&format!("profile.flops_per_point.level{l}"), per_visit);
            levels.push((n as f64, per_visit));
        }
        tracer.add("profile.levels", levels.len() as u64);
        tracer.end();
        Self::build(name, code, &levels, visits, nonlocal, target_points)
    }

    /// The same workload with its finest level at `points`: every level's
    /// points scaled by one factor, so the coarsening ratios are kept.
    pub fn rescaled(&self, points: f64) -> CycleProfile {
        let scale = points / self.levels[0].points;
        let mut p = self.clone();
        for l in &mut p.levels {
            l.points *= scale;
        }
        p
    }

    /// Ghost entries per partition of `q` points on any level: the code's
    /// law `canonical_coeff * q^(2/3)`, capped (a partition can never ghost
    /// more than ~all its points' neighbours).
    pub fn ghosts_per_partition(&self, q: f64) -> f64 {
        if q <= 0.0 {
            return 0.0;
        }
        (self.code.canonical_coeff * q.powf(2.0 / 3.0)).min(6.0 * q)
    }

    /// Total FLOPs of one full cycle.
    pub fn total_flops(&self) -> f64 {
        self.levels
            .iter()
            .map(|l| l.points * l.flops_per_point * l.visits)
            .sum()
    }

    /// Consistency checks used by tests and the figure sections.
    pub fn validate(&self) -> Result<(), String> {
        if self.levels.is_empty() {
            return Err("no levels".into());
        }
        if self.nonlocal.len() + 1 != self.levels.len() {
            return Err("nonlocal count must be levels - 1".into());
        }
        for (i, l) in self.levels.iter().enumerate() {
            if !(l.points > 0.0) || !(l.flops_per_point > 0.0) || !(l.visits >= 1.0) {
                return Err(format!("level {i} has non-positive workload"));
            }
            if i > 0 && l.points >= self.levels[i - 1].points {
                return Err(format!("level {i} is not coarser than level {}", i - 1));
            }
        }
        Ok(())
    }

    /// Keep only the finest `nlevels` levels (used to sweep 1..6-level
    /// multigrid variants from one measured 6-level profile). A level's
    /// visits per cycle do not depend on how many levels lie below it
    /// ([`level_visits`]), so the kept levels and transfers are unchanged.
    pub fn truncated(&self, nlevels: usize) -> CycleProfile {
        assert!(nlevels >= 1 && nlevels <= self.levels.len());
        let mut p = self.clone();
        p.name = format!("{} [{} levels]", self.name, nlevels);
        p.levels.truncate(nlevels);
        p.nonlocal.truncate(nlevels - 1);
        p
    }

    /// Extract a single level as a standalone single-grid profile (paper
    /// Figure 19 runs coarse levels alone).
    pub fn single_level(&self, level: usize) -> CycleProfile {
        let mut p = self.clone();
        p.name = format!("{} [level {level} alone]", self.name);
        p.levels = vec![LevelProfile {
            visits: 1.0,
            ..self.levels[level]
        }];
        p.nonlocal.clear();
        p
    }
}

/// NSU3D's constants at paper scale: 6 unknowns per point, fine
/// communication-graph degree 18 (inter-grid 19), memory-bound edge
/// kernels.
pub const NSU3D_PAPER: CodeConstants = CodeConstants {
    state_bytes_per_point: 500.0,
    exchange_bytes_per_entry: 48.0,
    exchanges_per_visit: 8.0,
    canonical_coeff: 6.0,
    degree: 18.0,
    intergrid_bytes_per_fine_point: 48.0,
    rate_scale: 1.0,
    cache_fraction: 1.0,
};

/// Cart3D's constants at paper scale: 5 unknowns per cell; tuned
/// cell-centred kernels, >1.5 GFLOP/s per CPU and already cache-blocked
/// (near-ideal rather than superlinear scaling).
pub const CART3D_PAPER: CodeConstants = CodeConstants {
    state_bytes_per_point: 320.0,
    exchange_bytes_per_entry: 40.0,
    // RK5: each of ~3 sweeps per visit exchanges state + residual
    // + time-step accumulators per stage.
    exchanges_per_visit: 16.0,
    canonical_coeff: 5.0,
    degree: 14.0,
    intergrid_bytes_per_fine_point: 40.0,
    rate_scale: 1.10,
    cache_fraction: 0.2,
};

/// The paper's 72M-point NSU3D six-level W-cycle workload, with constants
/// consistent with the published measurements (31.3 s/cycle at 128 CPUs,
/// 1.95 s at 2008, ~2.8 TFLOP/s, coarsest level of 8188 vertices, fine
/// communication-graph degree 18, inter-grid degree 19). The `columbia-rans`
/// crate can regenerate the same structure from measured small-mesh runs;
/// this constant profile is the paper-scale reference used by the figure
/// binaries.
pub fn paper_nsu3d_72m() -> CycleProfile {
    let sizes = [72.0e6, 9.6e6, 1.28e6, 0.17e6, 2.3e4, 8188.0];
    CycleProfile::build(
        "NSU3D 72M-point 6-level W-cycle",
        &NSU3D_PAPER,
        &sizes.map(|n| (n, 56_700.0)),
        &level_visits(sizes.len(), CycleType::W),
        &[0.4; 5],
        sizes[0],
    )
}

/// The paper's 25M-cell Cart3D SSLV four-level W-cycle workload
/// (5 unknowns/cell, >1.5 GFLOP/s single-CPU tuning, coarsest mesh of
/// ~32000 cells, ~2.4 TFLOP/s at 2016 CPUs on NUMAlink).
pub fn paper_cart3d_25m() -> CycleProfile {
    let sizes = [25.0e6, 3.3e6, 0.44e6, 3.2e4];
    CycleProfile::build(
        "Cart3D SSLV 25M-cell 4-level W-cycle",
        &CART3D_PAPER,
        &sizes.map(|n| (n, 29_000.0)),
        &level_visits(sizes.len(), CycleType::W),
        &[0.3; 3],
        sizes[0],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_profile(nlevels: usize) -> CycleProfile {
        let code = CodeConstants {
            exchanges_per_visit: 4.0,
            ..NSU3D_PAPER
        };
        let levels: Vec<(f64, f64)> = (0..nlevels)
            .map(|l| (1.0e6 / 7.5f64.powi(l as i32), 1.0e4))
            .collect();
        CycleProfile::build(
            "demo",
            &code,
            &levels,
            &level_visits(nlevels, CycleType::W),
            &vec![0.4; nlevels - 1],
            1.0e6,
        )
    }

    #[test]
    fn validate_accepts_wellformed() {
        demo_profile(4).validate().unwrap();
    }

    #[test]
    fn validate_rejects_broken_hierarchies() {
        let mut p = demo_profile(3);
        p.nonlocal.pop();
        assert!(p.validate().is_err());
        let mut p2 = demo_profile(3);
        p2.levels[2].points = p2.levels[0].points * 2.0;
        assert!(p2.validate().is_err());
    }

    #[test]
    fn total_flops_weighted_by_visits() {
        let p = demo_profile(2);
        let expect = 1.0e6 * 1.0e4 * 1.0 + (1.0e6 / 7.5) * 1.0e4 * 2.0;
        assert!((p.total_flops() - expect).abs() / expect < 1e-12);
    }

    /// A truncated W-cycle profile has the visits a profile built that deep
    /// computes, bit for bit, on every kept level (and so every kept
    /// transfer's count, its coarse level's visits).
    #[test]
    fn truncation_recomputes_visits() {
        let p = demo_profile(5);
        for n in 1..=5 {
            let (t, built) = (p.truncated(n), demo_profile(n));
            assert_eq!((t.levels.len(), t.nonlocal.len()), (n, n - 1));
            for (a, b) in t.levels.iter().zip(&built.levels) {
                assert_eq!(a.visits.to_bits(), b.visits.to_bits());
            }
            t.validate().unwrap();
        }
    }

    /// `rescaled` multiplies every level's points by one factor and keeps
    /// every other fact bit for bit (`Debug` prints each `f64` so that it
    /// parses back to the same bits).
    #[test]
    fn rescaling_scales_only_the_points() {
        let p = demo_profile(4);
        let r = p.rescaled(3.0e9);
        let scale = 3.0e9 / p.levels[0].points;
        assert_eq!(r.levels[0].points, 3.0e9);
        for (a, b) in p.levels.iter().zip(&r.levels) {
            assert_eq!(b.points.to_bits(), (a.points * scale).to_bits());
            assert_eq!(b.flops_per_point.to_bits(), a.flops_per_point.to_bits());
            assert_eq!(b.visits.to_bits(), a.visits.to_bits());
        }
        let facts = |p: &CycleProfile| format!("{:?}", (p.code, &p.nonlocal));
        assert_eq!(facts(&r), facts(&p));
    }

    #[test]
    fn single_level_extraction() {
        let p = demo_profile(4);
        let s = p.single_level(2);
        assert_eq!(s.levels.len(), 1);
        assert_eq!(s.levels[0].visits, 1.0);
        assert!(s.nonlocal.is_empty());
        s.validate().unwrap();
    }

    #[test]
    fn ghost_law_is_capped() {
        let p = demo_profile(1);
        assert!(p.ghosts_per_partition(1e6) > 0.0);
        // Tiny partitions: ghosts bounded by a multiple of the points.
        assert!(p.ghosts_per_partition(2.0) <= 12.0);
        assert_eq!(p.ghosts_per_partition(0.0), 0.0);
    }
}
