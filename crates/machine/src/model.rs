//! The multigrid cycle-time simulator.
//!
//! Given a [`CycleProfile`] (measured workload), a [`MachineConfig`]
//! (hardware) and a [`RunConfig`] (CPU count, fabric, programming model),
//! predict the wall-clock time of one multigrid cycle and its breakdown.
//!
//! Model structure, per level `l` with `k_l` visits:
//!
//! * **compute** — `q_l * flops/point / rate(working set)` with the L3
//!   cache model (superlinear speedups) and a small-partition load
//!   imbalance factor;
//! * **intra-level exchange** — per rank, `degree` messages costing
//!   latency + CPU message overhead plus surface bytes over the fabric
//!   bandwidth; aggregated at rank granularity for hybrid runs; checked
//!   against the fabric's cross-node bisection capacity;
//! * **inter-grid transfer** — volumetric, non-nested traffic priced at
//!   the fabric's *random-ring* derated bandwidth (this is what kills
//!   InfiniBand multigrid, paper Figures 16-18, while per-level traffic is
//!   fabric-insensitive, Figure 19);
//! * **hybrid penalty** — master-thread-only MPI and OpenMP runtime
//!   overheads as an efficiency factor in the thread count (Figure 15);
//! * **pure OpenMP** — no messages, shared-memory copies only, but a
//!   "coarse mode" address-translation derate above 128 CPUs (Figure 20).

use crate::columbia::MachineConfig;
use crate::interconnect::{ib_rank_limit, Fabric};
use crate::profile::CycleProfile;

/// Programming model of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgModel {
    /// One MPI rank per CPU.
    PureMpi,
    /// MPI ranks with `threads` OpenMP threads each (master-thread comm).
    Hybrid {
        /// OpenMP threads per MPI rank.
        threads: usize,
    },
    /// Single process, one OpenMP thread per CPU (single node only).
    PureOpenMp,
}

/// A specific run configuration to price.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Total CPUs used.
    pub ncpus: usize,
    /// Interconnect fabric between nodes.
    pub fabric: Fabric,
    /// Programming model.
    pub model: ProgModel,
    /// Minimum node span: the paper's Figure 15 deliberately distributes
    /// 128 CPUs over four compute nodes; default 1 packs nodes in order.
    pub min_nodes: usize,
}

impl RunConfig {
    /// Convenience pure-MPI run.
    pub fn mpi(ncpus: usize, fabric: Fabric) -> Self {
        RunConfig {
            ncpus,
            fabric,
            model: ProgModel::PureMpi,
            min_nodes: 1,
        }
    }

    /// Convenience hybrid run.
    pub fn hybrid(ncpus: usize, fabric: Fabric, threads: usize) -> Self {
        RunConfig {
            ncpus,
            fabric,
            model: if threads <= 1 {
                ProgModel::PureMpi
            } else {
                ProgModel::Hybrid { threads }
            },
            min_nodes: 1,
        }
    }

    /// Force the job to spread over at least `nodes` compute nodes.
    pub fn spread_over(mut self, nodes: usize) -> Self {
        self.min_nodes = nodes;
        self
    }

    /// OpenMP threads per rank.
    pub fn threads(&self) -> usize {
        match self.model {
            ProgModel::PureMpi => 1,
            ProgModel::Hybrid { threads } => threads,
            ProgModel::PureOpenMp => self.ncpus,
        }
    }

    /// Number of MPI ranks.
    pub fn ranks(&self) -> usize {
        match self.model {
            ProgModel::PureMpi => self.ncpus,
            ProgModel::Hybrid { threads } => self.ncpus.div_ceil(threads),
            ProgModel::PureOpenMp => 1,
        }
    }
}

/// Why a run is infeasible on Columbia.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimError {
    /// More CPUs than the machine has.
    NotEnoughCpus {
        /// CPUs requested.
        requested: usize,
        /// CPUs available.
        available: usize,
    },
    /// NUMAlink spans at most 4 nodes (2048 CPUs).
    FabricSpan {
        /// Nodes the job needs.
        needed: usize,
        /// Nodes the fabric spans.
        max: usize,
    },
    /// InfiniBand MPI connection limit (paper eq. 1): the run would drop to
    /// 10GigE. Use fewer ranks (more OpenMP threads).
    IbRankLimit {
        /// Ranks requested.
        ranks: usize,
        /// Limit for this node span.
        limit: usize,
    },
    /// Pure OpenMP cannot cross the cache-coherence boundary (one node).
    OpenMpSingleNode {
        /// CPUs requested.
        requested: usize,
        /// CPUs in one node.
        node: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NotEnoughCpus { requested, available } => {
                write!(f, "requested {requested} CPUs, machine has {available}")
            }
            SimError::FabricSpan { needed, max } => {
                write!(f, "fabric spans {max} nodes, job needs {needed}")
            }
            SimError::IbRankLimit { ranks, limit } => write!(
                f,
                "InfiniBand supports at most {limit} MPI ranks here, requested {ranks} \
                 (job would fall back to 10GigE)"
            ),
            SimError::OpenMpSingleNode { requested, node } => write!(
                f,
                "pure OpenMP is limited to one cache-coherent node ({node} CPUs), requested {requested}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Predicted cycle time and its breakdown.
#[derive(Clone, Debug)]
pub struct CycleBreakdown {
    /// Total wall-clock seconds per multigrid cycle.
    pub seconds: f64,
    /// Compute part.
    pub compute_seconds: f64,
    /// Intra-level communication part.
    pub comm_seconds: f64,
    /// Inter-grid transfer part.
    pub intergrid_seconds: f64,
    /// Total cycle FLOPs (profile property).
    pub flops: f64,
    /// Per-level `(compute, comm)` seconds.
    pub per_level: Vec<(f64, f64)>,
}

impl CycleBreakdown {
    /// Achieved FLOP rate.
    pub fn flops_per_second(&self) -> f64 {
        self.flops / self.seconds
    }
}

/// Validate a run against machine constraints.
pub fn check_run(machine: &MachineConfig, run: &RunConfig) -> Result<(), SimError> {
    if run.ncpus > machine.total_cpus() {
        return Err(SimError::NotEnoughCpus {
            requested: run.ncpus,
            available: machine.total_cpus(),
        });
    }
    let span = machine.nodes_spanned(run.ncpus).max(run.min_nodes);
    if span > run.fabric.max_nodes() {
        return Err(SimError::FabricSpan {
            needed: span,
            max: run.fabric.max_nodes(),
        });
    }
    if run.model == ProgModel::PureOpenMp && run.ncpus > machine.cpus_per_node {
        return Err(SimError::OpenMpSingleNode {
            requested: run.ncpus,
            node: machine.cpus_per_node,
        });
    }
    if run.fabric == Fabric::InfiniBand && span > 1 {
        let limit = ib_rank_limit(span);
        if run.ranks() > limit {
            return Err(SimError::IbRankLimit {
                ranks: run.ranks(),
                limit,
            });
        }
    }
    Ok(())
}

/// Fabric cross-node bisection capacity in bytes/s for a job spanning
/// `span` nodes.
fn bisection_bandwidth(fabric: Fabric, span: usize) -> f64 {
    match fabric {
        // NUMAlink4 fat-tree: effectively not binding at these scales.
        Fabric::NumaLink4 => 400e9,
        // 8 IB cards per node at ~0.9 GB/s each.
        Fabric::InfiniBand => span as f64 * 8.0 * 0.9e9,
        Fabric::TenGigE => span as f64 * 1.25e9,
    }
}

/// Predict one multigrid cycle.
///
/// ```
/// use columbia_machine::{simulate_cycle, paper_nsu3d_72m, Fabric, MachineConfig, RunConfig};
/// let machine = MachineConfig::columbia_vortex();
/// let profile = paper_nsu3d_72m();
/// let b = simulate_cycle(&profile, &machine, &RunConfig::mpi(2008, Fabric::NumaLink4)).unwrap();
/// assert!((b.seconds - 1.95).abs() < 0.3); // paper: 1.95 s/cycle
/// ```
pub fn simulate_cycle(
    profile: &CycleProfile,
    machine: &MachineConfig,
    run: &RunConfig,
) -> Result<CycleBreakdown, SimError> {
    check_run(machine, run)?;
    profile.validate().expect("invalid profile");

    let code = &profile.code;
    let ncpus = run.ncpus as f64;
    let span = machine.nodes_spanned(run.ncpus).max(run.min_nodes);
    let ranks = run.ranks() as f64;
    let threads = run.threads();
    let pure_openmp = run.model == ProgModel::PureOpenMp;
    let degree = code.degree;

    // One round of messages: each rank pays latency + MPI overhead per peer
    // (at most `max_degree`, and fewer than the ranks holding one of
    // `points`), sync jitter and `rank_bytes` over the fabric bandwidth x
    // `derate`; a job spanning nodes is also bound by `crossnode` bytes over
    // the derated bisection.
    let per_msg = run.fabric.latency(span) + machine.mpi_msg_overhead;
    let sync = machine.sync_jitter * (ranks.max(2.0)).ln();
    let bw = run.fabric.bandwidth(span);
    let round = |max_degree: f64, points: f64, rank_bytes: f64, crossnode: f64, derate: f64| {
        let peers = max_degree.min((ranks.min(points) - 1.0).max(0.0));
        let rank_term = peers * per_msg + sync + rank_bytes / (bw * derate);
        let bis = if span > 1 {
            crossnode / (bisection_bandwidth(run.fabric, span) * derate)
        } else {
            0.0
        };
        rank_term.max(bis)
    };

    let mut compute_total = 0.0;
    let mut comm_total = 0.0;
    let mut per_level = Vec::with_capacity(profile.levels.len());

    for lev in &profile.levels {
        // --- compute ---
        let q = lev.points / ncpus;
        let ws = q * code.state_bytes_per_point;
        // Cache boost applies only to the profile's cache-sensitive
        // fraction of the kernel.
        let base_rate = machine.base_efficiency * machine.peak_flops();
        let full_rate = machine.effective_rate(ws);
        let mut rate =
            (base_rate + (full_rate - base_rate) * code.cache_fraction) * code.rate_scale;
        if pure_openmp && run.ncpus > 128 {
            rate *= machine.coarse_mode_derate;
        }
        let imb = machine.imbalance_factor(q);
        let rate = rate * machine.small_partition_factor(q);
        let compute_visit = q * lev.flops_per_point / rate * imb;

        // --- intra-level exchange ---
        let comm_visit = if pure_openmp {
            // Shared-memory copy of the partition surfaces; no messages,
            // but OpenMP barriers still pay synchronisation jitter.
            let surf = profile.ghosts_per_partition(q) * code.exchange_bytes_per_entry;
            let sync = machine.sync_jitter * (ncpus.max(2.0)).ln();
            code.exchanges_per_visit * (surf / 4.0e9 + sync)
        } else {
            // Rank-level surface (threads of one rank aggregate) against
            // the cross-node aggregate surface.
            let surf_rank =
                profile.ghosts_per_partition(q * threads as f64) * code.exchange_bytes_per_entry;
            let crossnode = profile.ghosts_per_partition(lev.points / span as f64)
                * span as f64
                * code.exchange_bytes_per_entry;
            code.exchanges_per_visit * round(degree, lev.points, surf_rank, crossnode, 1.0)
        };

        let c = lev.visits * compute_visit;
        let m = lev.visits * comm_visit;
        compute_total += c;
        comm_total += m;
        per_level.push((c, m));
    }

    // --- inter-grid transfers: off the fine level's points, once per
    // visit of the coarse level, at the random-ring derated bandwidth ---
    let mut intergrid_total = 0.0;
    for (l, &nonlocal) in profile.nonlocal.iter().enumerate() {
        let fine = profile.levels[l].points;
        let count = profile.levels[l + 1].visits;
        let bytes_total = code.intergrid_bytes_per_fine_point * fine * nonlocal;
        intergrid_total += if pure_openmp {
            // Shared-memory restriction/prolongation copies.
            count * (bytes_total / ncpus) / 4.0e9
        } else {
            let crossnode = bytes_total * (span as f64 - 1.0) / span as f64;
            let derate = run.fabric.random_ring_derate(span);
            count * round(degree + 1.0, fine, bytes_total / ranks, crossnode, derate)
        };
    }

    let mut seconds = compute_total + comm_total + intergrid_total;
    // Hybrid OpenMP penalty (Figure 15) applies to the whole cycle; pure
    // OpenMP pays the coarse-mode derate instead.
    if !pure_openmp {
        seconds /= machine.omp_efficiency(threads);
    }

    Ok(CycleBreakdown {
        seconds,
        compute_seconds: compute_total,
        comm_seconds: comm_total,
        intergrid_seconds: intergrid_total,
        flops: profile.total_flops(),
        per_level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::paper_nsu3d_72m as nsu3d_72m;

    #[test]
    fn baseline_128_cpu_cycle_time_near_paper() {
        // Paper: 31.3 s per 6-level W-cycle on 128 CPUs (NUMAlink).
        let m = MachineConfig::columbia_vortex();
        let b = simulate_cycle(&nsu3d_72m(), &m, &RunConfig::mpi(128, Fabric::NumaLink4)).unwrap();
        assert!(
            (b.seconds - 31.3).abs() / 31.3 < 0.15,
            "128-CPU cycle {} s, paper 31.3 s",
            b.seconds
        );
    }

    #[test]
    fn cycle_time_2008_cpu_near_paper() {
        // Paper: 1.95 s per 6-level cycle on 2008 CPUs; ~2.8 TFLOP/s.
        let m = MachineConfig::columbia_vortex();
        let b = simulate_cycle(&nsu3d_72m(), &m, &RunConfig::mpi(2008, Fabric::NumaLink4)).unwrap();
        assert!(
            (b.seconds - 1.95).abs() / 1.95 < 0.25,
            "2008-CPU cycle {} s, paper 1.95 s",
            b.seconds
        );
        let tf = b.flops_per_second() / 1e12;
        assert!(tf > 2.0 && tf < 3.6, "TFLOP/s {tf}");
    }

    #[test]
    fn superlinear_speedup_on_numalink() {
        let m = MachineConfig::columbia_vortex();
        let p = nsu3d_72m();
        let t128 = simulate_cycle(&p, &m, &RunConfig::mpi(128, Fabric::NumaLink4))
            .unwrap()
            .seconds;
        let t2008 = simulate_cycle(&p, &m, &RunConfig::mpi(2008, Fabric::NumaLink4))
            .unwrap()
            .seconds;
        let speedup = 128.0 * t128 / t2008;
        assert!(
            speedup > 2008.0,
            "speedup {speedup} should be superlinear (paper: 2044)"
        );
        assert!(speedup < 2500.0, "speedup {speedup} implausibly high");
    }

    #[test]
    fn infiniband_multigrid_degrades_far_more_than_single_grid() {
        let m = MachineConfig::columbia_vortex();
        let p = nsu3d_72m();
        let single = p.truncated(1);
        // 2 OpenMP threads to respect the IB rank limit at 2008 CPUs.
        let nl_mg = simulate_cycle(&p, &m, &RunConfig::hybrid(2008, Fabric::NumaLink4, 2))
            .unwrap()
            .seconds;
        let ib_mg = simulate_cycle(&p, &m, &RunConfig::hybrid(2008, Fabric::InfiniBand, 2))
            .unwrap()
            .seconds;
        let nl_sg = simulate_cycle(&single, &m, &RunConfig::hybrid(2008, Fabric::NumaLink4, 2))
            .unwrap()
            .seconds;
        let ib_sg = simulate_cycle(&single, &m, &RunConfig::hybrid(2008, Fabric::InfiniBand, 2))
            .unwrap()
            .seconds;
        let mg_ratio = ib_mg / nl_mg;
        let sg_ratio = ib_sg / nl_sg;
        assert!(
            mg_ratio > 1.25,
            "IB should dramatically slow multigrid: ratio {mg_ratio}"
        );
        assert!(
            sg_ratio < 1.10,
            "IB single-grid should be near NUMAlink: ratio {sg_ratio}"
        );
        assert!(mg_ratio > sg_ratio + 0.2);
    }

    /// A transfer is priced off the fine level's points and the coarse
    /// level's visits: doubling the coarse level's visits doubles the
    /// inter-grid time exactly, halving its points changes nothing, and
    /// neither touches the fine level's own cost.
    #[test]
    fn transfers_take_fine_points_and_coarse_visits() {
        let m = MachineConfig::columbia_vortex();
        let run = RunConfig::mpi(1004, Fabric::NumaLink4);
        let p = nsu3d_72m().truncated(2);
        let base = simulate_cycle(&p, &m, &run).unwrap();
        assert!(base.intergrid_seconds > 0.0);
        let mut visits = p.clone();
        visits.levels[1].visits *= 2.0;
        let b = simulate_cycle(&visits, &m, &run).unwrap();
        assert_eq!(b.intergrid_seconds, 2.0 * base.intergrid_seconds);
        assert_eq!(b.per_level[0], base.per_level[0]);
        let mut points = p.clone();
        points.levels[1].points *= 0.5;
        let b = simulate_cycle(&points, &m, &run).unwrap();
        assert_eq!(b.intergrid_seconds, base.intergrid_seconds);
        assert_eq!(b.per_level[0], base.per_level[0]);
    }

    #[test]
    fn ib_rank_limit_enforced() {
        let m = MachineConfig::columbia_vortex();
        let p = nsu3d_72m();
        let err = simulate_cycle(&p, &m, &RunConfig::mpi(2008, Fabric::InfiniBand)).unwrap_err();
        assert!(matches!(err, SimError::IbRankLimit { .. }));
        // 2 threads/rank -> 1004 ranks: fine.
        assert!(simulate_cycle(&p, &m, &RunConfig::hybrid(2008, Fabric::InfiniBand, 2)).is_ok());
    }

    #[test]
    fn numalink_cannot_span_beyond_4_nodes() {
        let m = MachineConfig::columbia_full();
        let p = nsu3d_72m();
        let err = simulate_cycle(&p, &m, &RunConfig::mpi(4016, Fabric::NumaLink4)).unwrap_err();
        assert!(matches!(err, SimError::FabricSpan { .. }));
        // InfiniBand + 4 threads works on 4016 CPUs (paper §VI outlook).
        assert!(simulate_cycle(&p, &m, &RunConfig::hybrid(4016, Fabric::InfiniBand, 4)).is_ok());
    }

    #[test]
    fn pure_openmp_limited_to_one_node() {
        let m = MachineConfig::columbia_vortex();
        let p = nsu3d_72m().truncated(4);
        let run = RunConfig {
            ncpus: 504,
            fabric: Fabric::NumaLink4,
            model: ProgModel::PureOpenMp,
            min_nodes: 1,
        };
        assert!(simulate_cycle(&p, &m, &run).is_ok());
        let run2 = RunConfig { ncpus: 1000, ..run };
        assert!(matches!(
            simulate_cycle(&p, &m, &run2),
            Err(SimError::OpenMpSingleNode { .. })
        ));
    }

    #[test]
    fn hybrid_threads_cost_efficiency() {
        let m = MachineConfig::columbia_vortex();
        let p = nsu3d_72m();
        let t1 = simulate_cycle(&p, &m, &RunConfig::mpi(128, Fabric::NumaLink4))
            .unwrap()
            .seconds;
        let t2 = simulate_cycle(&p, &m, &RunConfig::hybrid(128, Fabric::NumaLink4, 2))
            .unwrap()
            .seconds;
        let t4 = simulate_cycle(&p, &m, &RunConfig::hybrid(128, Fabric::NumaLink4, 4))
            .unwrap()
            .seconds;
        assert!(t1 < t2 && t2 < t4, "{t1} {t2} {t4}");
        // Paper Figure 15: 98.4% and 87.2% efficiency.
        assert!((t1 / t2 - 0.984).abs() < 0.02, "eff2 {}", t1 / t2);
        assert!((t1 / t4 - 0.872).abs() < 0.03, "eff4 {}", t1 / t4);
    }

    #[test]
    fn too_many_cpus_is_rejected() {
        let m = MachineConfig::columbia_vortex(); // 2048 CPUs
        let p = nsu3d_72m();
        assert!(matches!(
            simulate_cycle(&p, &m, &RunConfig::mpi(4096, Fabric::InfiniBand)),
            Err(SimError::NotEnoughCpus { .. })
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        for e in [
            SimError::NotEnoughCpus {
                requested: 9,
                available: 4,
            },
            SimError::FabricSpan { needed: 5, max: 4 },
            SimError::IbRankLimit {
                ranks: 2000,
                limit: 1524,
            },
            SimError::OpenMpSingleNode {
                requested: 600,
                node: 512,
            },
        ] {
            let msg = e.to_string();
            assert!(msg.len() > 20, "vague message: {msg}");
        }
    }

    #[test]
    fn cycle_time_monotone_in_cpus_on_numalink() {
        // For the compute-dominated 72M-point workload, more CPUs must
        // never be slower across the paper's range.
        let m = MachineConfig::columbia_vortex();
        let p = nsu3d_72m();
        let mut prev = f64::INFINITY;
        for n in [64, 128, 256, 502, 1004, 1504, 2008] {
            let t = simulate_cycle(&p, &m, &RunConfig::mpi(n, Fabric::NumaLink4))
                .unwrap()
                .seconds;
            assert!(t < prev, "{n} CPUs slower than fewer: {t} vs {prev}");
            prev = t;
        }
    }

    #[test]
    fn flops_invariant_across_run_configs() {
        // The cycle FLOP count is a property of the workload, not the run.
        let m = MachineConfig::columbia_vortex();
        let p = nsu3d_72m();
        let a = simulate_cycle(&p, &m, &RunConfig::mpi(128, Fabric::NumaLink4)).unwrap();
        let b = simulate_cycle(&p, &m, &RunConfig::hybrid(1004, Fabric::InfiniBand, 2)).unwrap();
        assert_eq!(a.flops, b.flops);
        assert!((a.flops - p.total_flops()).abs() < 1.0);
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let m = MachineConfig::columbia_vortex();
        let p = nsu3d_72m();
        let b = simulate_cycle(&p, &m, &RunConfig::mpi(1004, Fabric::NumaLink4)).unwrap();
        let sum = b.compute_seconds + b.comm_seconds + b.intergrid_seconds;
        // Pure MPI (no hybrid divisor): breakdown is exact.
        assert!((sum - b.seconds).abs() < 1e-12 * b.seconds);
        let per_level: f64 = b.per_level.iter().map(|(c, m)| c + m).sum();
        assert!((per_level - (b.compute_seconds + b.comm_seconds)).abs() < 1e-12);
    }

    #[test]
    fn tengige_fallback_is_much_slower_than_infiniband() {
        // The paper: exceeding the IB rank limit drops the job to 10GigE;
        // verify the model prices that fabric as clearly worse for
        // multigrid.
        let m = MachineConfig::columbia_vortex();
        let p = nsu3d_72m();
        let ib = simulate_cycle(&p, &m, &RunConfig::hybrid(2008, Fabric::InfiniBand, 2))
            .unwrap()
            .seconds;
        let ge = simulate_cycle(&p, &m, &RunConfig::hybrid(2008, Fabric::TenGigE, 2))
            .unwrap()
            .seconds;
        assert!(ge > 1.5 * ib, "10GigE {ge} vs InfiniBand {ib}");
    }

    #[test]
    fn fewer_multigrid_levels_scale_better() {
        let m = MachineConfig::columbia_vortex();
        let p = nsu3d_72m();
        let speedup = |profile: &CycleProfile| {
            let a = simulate_cycle(profile, &m, &RunConfig::mpi(128, Fabric::NumaLink4))
                .unwrap()
                .seconds;
            let b = simulate_cycle(profile, &m, &RunConfig::mpi(2008, Fabric::NumaLink4))
                .unwrap()
                .seconds;
            128.0 * a / b
        };
        let s6 = speedup(&p);
        let s4 = speedup(&p.truncated(4));
        let s1 = speedup(&p.truncated(1));
        assert!(
            s1 > s4 && s4 > s6,
            "speedups should order single > 4-level > 6-level: {s1} {s4} {s6}"
        );
    }
}
