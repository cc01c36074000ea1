//! Workload profiles: what a multigrid cycle *is*, measured by the solvers.
//!
//! The solver crates run real partitioning experiments on real (smaller)
//! meshes, measure per-level work and communication-surface statistics, fit
//! the surface-to-volume law, and package everything into a [`CycleProfile`]
//! that this crate prices at paper scale. FLOP counts come from software
//! FLOP accounting in the solver kernels (the paper used Itanium `pfmon`
//! hardware counters).

/// Per-multigrid-level workload description.
#[derive(Clone, Debug)]
pub struct LevelProfile {
    /// Human-readable tag ("fine 72M", "level 2 (9M)").
    pub name: String,
    /// Global number of unknown carriers (points / cells) on this level.
    pub points: f64,
    /// FLOPs executed per point per level visit (smoothing + residual +
    /// transfers attributed to the level).
    pub flops_per_point: f64,
    /// Working-set bytes per point (state + residual + metrics + Jacobian
    /// scratch) — drives the cache model.
    pub state_bytes_per_point: f64,
    /// Bytes exchanged per ghost entry per exchange (e.g. 6 vars x 8 B).
    pub exchange_bytes_per_entry: f64,
    /// Ghost exchanges per level visit (residual accumulation + state
    /// copies x smoothing sweeps).
    pub exchanges_per_visit: f64,
    /// Surface law: ghost entries per partition ~ coeff * q^exponent where
    /// q = points per partition. Measured by partitioning real meshes.
    pub surface_coeff: f64,
    /// Surface law exponent (~2/3 for 3-D).
    pub surface_exponent: f64,
    /// Asymptotic communication-graph degree (paper: 18 on the fine grid).
    pub max_degree: f64,
    /// Visits per multigrid cycle (W-cycle: 2^level).
    pub visits: f64,
    /// Per-code single-CPU tuning factor on the sustained rate (1.0 for
    /// NSU3D's calibration; Cart3D's "somewhat better than 1.5 GFLOP/s"
    /// cell-centred kernels use ~1.10).
    pub rate_scale: f64,
    /// Fraction of the kernel that speeds up when the working set fits in
    /// L3 (1.0 = fully memory-bound like NSU3D's scattered edge kernels —
    /// source of its superlinear speedups; Cart3D's structured-stencil
    /// kernels are already cache-blocked and show near-ideal, not
    /// superlinear, scaling: ~0.2).
    pub cache_fraction: f64,
}

impl LevelProfile {
    /// Ghost entries per partition of `q` points (capped: a partition can
    /// never ghost more than ~all its points' neighbours).
    pub fn ghosts_per_partition(&self, q: f64) -> f64 {
        if q <= 0.0 {
            return 0.0;
        }
        (self.surface_coeff * q.powf(self.surface_exponent)).min(6.0 * q)
    }
}

/// Inter-grid (restriction/prolongation) transfer description between a
/// level and the next coarser one.
#[derive(Clone, Debug)]
pub struct IntergridProfile {
    /// Bytes moved per fine point per transfer pair (restrict + prolong).
    pub bytes_per_fine_point: f64,
    /// Transfer pairs per cycle (= visits of the coarser level).
    pub transfers_per_cycle: f64,
    /// Fraction of the volume crossing partition boundaries (non-nested
    /// coarse/fine partitions; measured by the inter-level matcher).
    pub nonlocal_fraction: f64,
    /// Degree of the inter-grid communication graph (paper: 19).
    pub max_degree: f64,
    /// Fine points of the finer of the two levels.
    pub fine_points: f64,
}

/// Full multigrid cycle workload: `levels[0]` is the finest;
/// `intergrid[l]` couples level `l` and `l + 1`.
#[derive(Clone, Debug)]
pub struct CycleProfile {
    /// Descriptive name ("NSU3D 72M-pt 6-level W-cycle").
    pub name: String,
    /// Per-level profiles, finest first.
    pub levels: Vec<LevelProfile>,
    /// Inter-grid transfers, `levels.len() - 1` entries.
    pub intergrid: Vec<IntergridProfile>,
}

impl CycleProfile {
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
        if self.intergrid.len() + 1 != self.levels.len() {
            return Err("intergrid count must be levels - 1".into());
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
    /// multigrid variants from one measured 6-level profile), recomputing
    /// W-cycle visit counts.
    pub fn truncated(&self, nlevels: usize, w_cycle: bool) -> CycleProfile {
        assert!(nlevels >= 1 && nlevels <= self.levels.len());
        let mut levels = self.levels[..nlevels].to_vec();
        for (l, lev) in levels.iter_mut().enumerate() {
            lev.visits = if w_cycle { (1usize << l) as f64 } else { 1.0 };
        }
        let mut intergrid = self.intergrid[..nlevels - 1].to_vec();
        for (l, ig) in intergrid.iter_mut().enumerate() {
            ig.transfers_per_cycle = if w_cycle {
                (1usize << (l + 1)) as f64
            } else {
                1.0
            };
        }
        CycleProfile {
            name: format!("{} [{} levels]", self.name, nlevels),
            levels,
            intergrid,
        }
    }

    /// Extract a single level as a standalone single-grid profile (paper
    /// Figure 19 runs coarse levels alone).
    pub fn single_level(&self, level: usize) -> CycleProfile {
        let mut l = self.levels[level].clone();
        l.visits = 1.0;
        CycleProfile {
            name: format!("{} [level {level} alone]", self.name),
            levels: vec![l],
            intergrid: vec![],
        }
    }
}

/// The paper's 72M-point NSU3D six-level W-cycle workload, with constants
/// consistent with the published measurements (31.3 s/cycle at 128 CPUs,
/// 1.95 s at 2008, ~2.8 TFLOP/s, coarsest level of 8188 vertices, fine
/// communication-graph degree 18, inter-grid degree 19). The `columbia-rans`
/// crate can regenerate the same structure from measured small-mesh runs;
/// this constant profile is the paper-scale reference used by the figure
/// binaries.
pub fn paper_nsu3d_72m() -> CycleProfile {
    let sizes = [72.0e6, 9.6e6, 1.28e6, 0.17e6, 2.3e4, 8188.0];
    let levels = sizes
        .iter()
        .enumerate()
        .map(|(l, &pts)| LevelProfile {
            name: format!("level {l}"),
            points: pts,
            flops_per_point: 56_700.0,
            state_bytes_per_point: 500.0,
            exchange_bytes_per_entry: 48.0,
            exchanges_per_visit: 8.0,
            surface_coeff: 6.0,
            surface_exponent: 2.0 / 3.0,
            max_degree: 18.0,
            visits: (1usize << l) as f64,
            rate_scale: 1.0,
            cache_fraction: 1.0,
        })
        .collect::<Vec<_>>();
    let intergrid = (0..sizes.len() - 1)
        .map(|l| IntergridProfile {
            bytes_per_fine_point: 48.0,
            transfers_per_cycle: (1usize << (l + 1)) as f64,
            nonlocal_fraction: 0.4,
            max_degree: 19.0,
            fine_points: sizes[l],
        })
        .collect();
    CycleProfile {
        name: "NSU3D 72M-point 6-level W-cycle".into(),
        levels,
        intergrid,
    }
}

/// The paper's 25M-cell Cart3D SSLV four-level W-cycle workload
/// (5 unknowns/cell, >1.5 GFLOP/s single-CPU tuning, coarsest mesh of
/// ~32000 cells, ~2.4 TFLOP/s at 2016 CPUs on NUMAlink).
pub fn paper_cart3d_25m() -> CycleProfile {
    let sizes = [25.0e6, 3.3e6, 0.44e6, 3.2e4];
    let levels = sizes
        .iter()
        .enumerate()
        .map(|(l, &pts)| LevelProfile {
            name: format!("level {l}"),
            points: pts,
            flops_per_point: 29_000.0,
            state_bytes_per_point: 320.0,
            exchange_bytes_per_entry: 40.0,
            // RK5: each of ~3 sweeps per visit exchanges state + residual
            // + time-step accumulators per stage.
            exchanges_per_visit: 16.0,
            surface_coeff: 5.0,
            surface_exponent: 2.0 / 3.0,
            max_degree: 14.0,
            visits: (1usize << l) as f64,
            rate_scale: 1.10,
            cache_fraction: 0.2,
        })
        .collect::<Vec<_>>();
    let intergrid = (0..sizes.len() - 1)
        .map(|l| IntergridProfile {
            bytes_per_fine_point: 40.0,
            transfers_per_cycle: (1usize << (l + 1)) as f64,
            nonlocal_fraction: 0.3,
            max_degree: 15.0,
            fine_points: sizes[l],
        })
        .collect();
    CycleProfile {
        name: "Cart3D SSLV 25M-cell 4-level W-cycle".into(),
        levels,
        intergrid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_profile(nlevels: usize) -> CycleProfile {
        let mut levels = Vec::new();
        let mut intergrid = Vec::new();
        let mut pts = 1.0e6;
        for l in 0..nlevels {
            levels.push(LevelProfile {
                name: format!("L{l}"),
                points: pts,
                flops_per_point: 1.0e4,
                state_bytes_per_point: 500.0,
                exchange_bytes_per_entry: 48.0,
                exchanges_per_visit: 4.0,
                surface_coeff: 6.0,
                surface_exponent: 2.0 / 3.0,
                max_degree: 18.0,
                visits: (1usize << l) as f64,
                rate_scale: 1.0,
                cache_fraction: 1.0,
            });
            if l + 1 < nlevels {
                intergrid.push(IntergridProfile {
                    bytes_per_fine_point: 48.0,
                    transfers_per_cycle: (1usize << (l + 1)) as f64,
                    nonlocal_fraction: 0.4,
                    max_degree: 19.0,
                    fine_points: pts,
                });
            }
            pts /= 7.5;
        }
        CycleProfile {
            name: "demo".into(),
            levels,
            intergrid,
        }
    }

    #[test]
    fn validate_accepts_wellformed() {
        demo_profile(4).validate().unwrap();
    }

    #[test]
    fn validate_rejects_broken_hierarchies() {
        let mut p = demo_profile(3);
        p.intergrid.pop();
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

    #[test]
    fn truncation_recomputes_visits() {
        let p = demo_profile(5);
        let t = p.truncated(2, true);
        assert_eq!(t.levels.len(), 2);
        assert_eq!(t.levels[1].visits, 2.0);
        assert_eq!(t.intergrid.len(), 1);
        let v = p.truncated(3, false);
        assert!(v.levels.iter().all(|l| l.visits == 1.0));
        t.validate().unwrap();
    }

    #[test]
    fn single_level_extraction() {
        let p = demo_profile(4);
        let s = p.single_level(2);
        assert_eq!(s.levels.len(), 1);
        assert_eq!(s.levels[0].visits, 1.0);
        assert!(s.intergrid.is_empty());
        s.validate().unwrap();
    }

    #[test]
    fn ghost_law_is_capped() {
        let l = &demo_profile(1).levels[0];
        assert!(l.ghosts_per_partition(1e6) > 0.0);
        // Tiny partitions: ghosts bounded by a multiple of the points.
        assert!(l.ghosts_per_partition(2.0) <= 12.0);
        assert_eq!(l.ghosts_per_partition(0.0), 0.0);
    }
}
