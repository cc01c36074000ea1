//! Synthetic paper-scale multigrid halo workload.
//!
//! The real solvers partition an unstructured mesh; building 2016 mesh
//! partitions just to exercise the runtime would dwarf the thing being
//! measured. This module is the communication *skeleton* of an NSU3D-style
//! multigrid cycle on a 1-D periodic decomposition: per level, each rank
//! smooths a local strip and exchanges one-cell halos with its ring
//! neighbours through a real [`ExchangePlan`] (packed buffers, buffer
//! pool, per-level attribution), with an allreduce'd residual norm and a
//! barrier per cycle. Every comm primitive the production drivers use is
//! on the hot path, at any world size, with O(points) work per rank —
//! which is what lets the event executor host the paper's 2016-rank world
//! on one machine (`tests/paper_scale.rs`, and the
//! `scaling_report --paper-scale` section).
//!
//! Determinism: initial data is a pure hash of the global cell id, the
//! cycle structure is fixed, and the runtime guarantees interleaving
//! invariance — so the residual history, `CommStats` and `RankTrace`s are
//! bit-identical across runs *and across executors* for a fixed
//! `(nranks, spec)`.

use crate::exchange::ExchangePlan;
use crate::runtime::{run_world, RankTrace};
use crate::stats::WorldCommSummary;
use columbia_exec::ExecContext;

/// Shape of one synthetic multigrid world: identical on every rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HaloWorkload {
    /// Finest-level owned cells per rank (halved per level, floor 2).
    pub points_per_rank: usize,
    /// Multigrid levels in the V-cycle.
    pub levels: usize,
    /// V-cycles to run (one norm + barrier each).
    pub cycles: usize,
}

impl HaloWorkload {
    /// The paper-scale shape used by `scaling_report --paper-scale`.
    pub fn paper_default() -> Self {
        HaloWorkload {
            points_per_rank: 32,
            levels: 4,
            cycles: 2,
        }
    }

    /// The cheapest shape that still exercises every comm primitive —
    /// the 2016-rank smoke-test configuration.
    pub fn smoke() -> Self {
        HaloWorkload {
            points_per_rank: 8,
            levels: 3,
            cycles: 1,
        }
    }

    /// Owned cells per rank on `level`.
    fn points_at(&self, level: usize) -> usize {
        (self.points_per_rank >> level).max(2)
    }

    /// Run the workload on `nranks` ranks under `ctx` (which selects the
    /// executor, fault plan and pool policy).
    ///
    /// # Panics
    /// If the ranks disagree on the residual history — the norm is
    /// allreduce'd, so divergence means the runtime broke collective
    /// semantics.
    pub fn run(&self, nranks: usize, ctx: &ExecContext) -> WorkloadReport {
        assert!(self.points_per_rank >= 2 && self.levels >= 1 && self.cycles >= 1);
        let spec = *self;
        let (histories, traces) = run_world(nranks, ctx, |rank| spec.rank_body(rank));
        let first = &histories[0];
        for (r, h) in histories.iter().enumerate() {
            assert_eq!(
                bits(h),
                bits(first),
                "rank {r} disagrees on the allreduce'd residual history"
            );
        }
        let summary = WorldCommSummary::from_ranks(
            &traces.iter().map(|t| t.stats.clone()).collect::<Vec<_>>(),
        );
        WorkloadReport {
            rms_history: first.clone(),
            summary,
            traces,
        }
    }

    /// One rank's V-cycles: descend smoothing twice per level, inject to
    /// the next coarser strip, ascend correcting and smoothing once, then
    /// allreduce the finest-level norm and synchronise.
    fn rank_body(&self, rank: &mut crate::runtime::Rank) -> Vec<f64> {
        let r = rank.rank();
        let n = rank.nranks();
        let plans: Vec<ExchangePlan> = (0..self.levels)
            .map(|l| ring_plan(r, n, self.points_at(l)))
            .collect();
        // Strip per level with one ghost cell at each end; owned cells at
        // local 1..=m. Finest level seeded from the global cell id hash,
        // coarser levels start at zero (corrections).
        let mut grids: Vec<Vec<[f64; 1]>> = (0..self.levels)
            .map(|l| vec![[0.0]; self.points_at(l) + 2])
            .collect();
        let m0 = self.points_at(0);
        for i in 0..m0 {
            grids[0][i + 1] = [seed_value(r * m0 + i)];
        }
        let mut history = Vec::with_capacity(self.cycles);
        for _cycle in 0..self.cycles {
            for l in 0..self.levels {
                rank.enter_level(l);
                smooth(rank, &plans[l], &mut grids[l], l as u64);
                smooth(rank, &plans[l], &mut grids[l], l as u64);
                rank.exit_level();
                if l + 1 < self.levels {
                    let mf = self.points_at(l);
                    let mc = self.points_at(l + 1);
                    for i in 0..mc {
                        grids[l + 1][i + 1] = grids[l][(2 * i).min(mf - 1) + 1];
                    }
                }
            }
            for l in (0..self.levels).rev() {
                if l + 1 < self.levels {
                    let mf = self.points_at(l);
                    let mc = self.points_at(l + 1);
                    for i in 0..mf {
                        grids[l][i + 1][0] += 0.5 * grids[l + 1][(i / 2).min(mc - 1) + 1][0];
                    }
                }
                rank.enter_level(l);
                smooth(rank, &plans[l], &mut grids[l], l as u64);
                rank.exit_level();
            }
            let local: f64 = grids[0][1..=m0].iter().map(|v| v[0] * v[0]).sum();
            let rms = (rank.allreduce_sum(local) / (n * m0) as f64).sqrt();
            history.push(rms);
            rank.barrier();
        }
        history
    }
}

/// What a workload run hands back: the (rank-agreed) residual history and
/// the world's comm ledger.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// Allreduce'd finest-level RMS after each cycle.
    pub rms_history: Vec<f64>,
    /// World totals aggregated from the teardown ledgers.
    pub summary: WorldCommSummary,
    /// Per-rank teardown ledgers (rank order).
    pub traces: Vec<RankTrace>,
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Deterministic initial value for global cell `g`: a SplitMix-style
/// integer hash scaled into `[0, 1)`. Pure arithmetic — no libm calls
/// whose rounding could vary across platforms.
fn seed_value(g: usize) -> f64 {
    let mut z = (g as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Damped Jacobi sweep over the owned cells after a ghost refresh.
fn smooth(rank: &mut crate::runtime::Rank, plan: &ExchangePlan, grid: &mut [[f64; 1]], tag: u64) {
    let m = grid.len() - 2;
    if rank.nranks() == 1 {
        // Ring of one: both ghosts wrap onto our own strip.
        grid[0] = grid[m];
        grid[m + 1] = grid[1];
    } else {
        plan.exchange_copy_field(rank, tag, grid);
    }
    let old: Vec<f64> = grid.iter().map(|v| v[0]).collect();
    for i in 1..=m {
        grid[i][0] = 0.25 * old[i - 1] + 0.5 * old[i] + 0.25 * old[i + 1];
    }
}

/// Halo exchange plan for rank `r` of `n` on a periodic 1-D strip of `m`
/// owned cells: send the first owned cell to the left neighbour and the
/// last to the right, receive into the matching ghosts. Index lists are
/// ordered by *global* id on both sides so packed buffers line up, which
/// matters when both neighbours are the same peer (`n == 2`).
fn ring_plan(r: usize, n: usize, m: usize) -> ExchangePlan {
    assert!(m >= 2, "strip too small for distinct boundary cells");
    if n == 1 {
        return ExchangePlan::default();
    }
    let left = (r + n - 1) % n;
    let right = (r + 1) % n;
    let m = m as u32;
    if left == right {
        // Two-rank ring: one peer owns both ghosts. Global order of our
        // boundary cells is (first, last); of our ghosts it is
        // (right ghost, left ghost) for rank 0 and the reverse for rank 1.
        let recvs = if r == 0 {
            vec![m + 1, 0]
        } else {
            vec![0, m + 1]
        };
        ExchangePlan::new(vec![(left, vec![1, m])], vec![(left, recvs)])
    } else {
        ExchangePlan::new(
            vec![(left, vec![1]), (right, vec![m])],
            vec![(left, vec![0]), (right, vec![m + 1])],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::EXECUTORS;
    use columbia_exec::Executor;

    #[test]
    fn histories_agree_and_replay_bit_identical() {
        let spec = HaloWorkload {
            points_per_rank: 8,
            levels: 3,
            cycles: 3,
        };
        for exec in EXECUTORS {
            let ctx = ExecContext::default().with_executor(exec);
            let a = spec.run(5, &ctx);
            let b = spec.run(5, &ctx);
            assert_eq!(bits(&a.rms_history), bits(&b.rms_history), "{exec:?}");
            assert_eq!(a.rms_history.len(), 3);
            assert!(a.summary.total_bytes > 0);
            assert_eq!(a.traces.len(), 5);
        }
    }

    #[test]
    fn executors_agree_at_every_small_world_size() {
        let spec = HaloWorkload {
            points_per_rank: 8,
            levels: 2,
            cycles: 2,
        };
        for n in [1, 2, 3, 4] {
            let t = spec.run(n, &ExecContext::default().with_executor(Executor::Threads));
            let e = spec.run(n, &ExecContext::default().with_executor(Executor::Events));
            assert_eq!(
                bits(&t.rms_history),
                bits(&e.rms_history),
                "residuals diverged at n={n}"
            );
            assert_eq!(t.traces, e.traces, "rank traces diverged at n={n}");
        }
    }

    #[test]
    fn smoothing_contracts_the_residual() {
        let spec = HaloWorkload {
            points_per_rank: 16,
            levels: 2,
            cycles: 4,
        };
        // Injection "corrections" add energy, but repeated damped-Jacobi
        // smoothing of hash noise must still smooth: the history is finite
        // and positive throughout.
        for exec in EXECUTORS {
            let report = spec.run(3, &ExecContext::default().with_executor(exec));
            for rms in &report.rms_history {
                assert!(rms.is_finite() && *rms > 0.0, "{exec:?}");
            }
        }
    }
}
