//! The scaling-study driver: a workload profile priced over CPU counts in
//! the study shapes the paper's evaluation section uses — speedup against
//! CPU count for a fabric / programming-model family, and relative
//! efficiency at a fixed CPU count.

use crate::columbia::MachineConfig;
use crate::interconnect::Fabric;
use crate::model::{simulate_cycle, RunConfig, SimError};
use crate::profile::CycleProfile;

/// One point of a scaling study.
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    /// CPUs used.
    pub ncpus: usize,
    /// Cycle wall-clock seconds (None if the configuration is infeasible).
    pub seconds: Option<f64>,
    /// Parallel speedup relative to the reference point (perfect speedup
    /// assumed at the reference, as in the paper's figures).
    pub speedup: Option<f64>,
    /// Achieved TFLOP/s.
    pub tflops: Option<f64>,
    /// Why the point is missing, if it is.
    pub error: Option<SimError>,
}

/// One labelled series of a study table.
#[derive(Clone, Debug)]
pub struct StudyRow {
    /// Series label ("NUMAlink, 1 OMP thread").
    pub label: String,
    /// Scaling points over the CPU counts.
    pub points: Vec<ScalingPoint>,
}

/// A speedup series over `cpu_counts` under `label`, normalised so that
/// the first *feasible* count achieves perfect speedup (the paper assumes
/// ideal speedup at its smallest CPU count: 128 for NSU3D, 32 for Cart3D).
pub fn series(
    label: &str,
    profile: &CycleProfile,
    machine: &MachineConfig,
    cpu_counts: &[usize],
    make_run: impl Fn(usize) -> RunConfig,
) -> StudyRow {
    let mut reference: Option<(usize, f64)> = None;
    let mut points = Vec::with_capacity(cpu_counts.len());
    for &n in cpu_counts {
        let run = make_run(n);
        match simulate_cycle(profile, machine, &run) {
            Ok(b) => {
                let (rn, rt) = *reference.get_or_insert((n, b.seconds));
                points.push(ScalingPoint {
                    ncpus: n,
                    seconds: Some(b.seconds),
                    speedup: Some(rn as f64 * rt / b.seconds),
                    tflops: Some(b.flops_per_second() / 1e12),
                    error: None,
                });
            }
            Err(e) => points.push(ScalingPoint {
                ncpus: n,
                seconds: None,
                speedup: None,
                tflops: None,
                error: Some(e),
            }),
        }
    }
    StudyRow {
        label: label.to_string(),
        points,
    }
}

/// One series per fabric x OpenMP thread count (the paper's Figures 16-18
/// series families).
pub fn fabric_thread_matrix(
    profile: &CycleProfile,
    machine: &MachineConfig,
    cpu_counts: &[usize],
    fabrics: &[(Fabric, &str)],
    threads: &[usize],
) -> Vec<StudyRow> {
    let mut rows = Vec::new();
    for &(fabric, fname) in fabrics {
        for &t in threads {
            let label = format!("{fname}: {t} OMP thread{}", if t == 1 { "" } else { "s" });
            rows.push(series(&label, profile, machine, cpu_counts, |n| {
                RunConfig::hybrid(n, fabric, t)
            }));
        }
    }
    rows
}

/// Efficiency of each of `cases` relative to the `baseline` run (Figure 15:
/// 128 CPUs, NUMAlink pure MPI = 1.0). An infeasible case is `NaN`; an
/// infeasible baseline is the error.
pub fn relative_efficiency(
    profile: &CycleProfile,
    machine: &MachineConfig,
    baseline: &RunConfig,
    cases: &[(String, RunConfig)],
) -> Result<Vec<(String, f64)>, SimError> {
    let base = simulate_cycle(profile, machine, baseline)?.seconds;
    Ok(cases
        .iter()
        .map(|(label, run)| {
            let eff = simulate_cycle(profile, machine, run).map_or(f64::NAN, |b| base / b.seconds);
            (label.clone(), eff)
        })
        .collect())
}

/// Standard CPU counts of the paper's NSU3D studies.
pub const NSU3D_CPU_COUNTS: [usize; 5] = [128, 256, 502, 1004, 2008];

/// Standard CPU counts of the paper's Cart3D multi-node studies.
pub const CART3D_CPU_COUNTS: [usize; 10] = [32, 64, 128, 256, 496, 508, 688, 1024, 1524, 2016];

/// Node placement of the paper's Cart3D runs (§VII): 32-496 CPUs on one
/// node, 508-1000 spanning two nodes, 1024-2016 spanning four.
pub fn cart3d_node_span(ncpus: usize) -> usize {
    if ncpus >= 1024 {
        4
    } else if ncpus >= 508 {
        2
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::paper_nsu3d_72m as nsu3d_72m_profile;

    #[test]
    fn series_normalises_to_first_feasible() {
        let m = MachineConfig::columbia_vortex();
        let p = nsu3d_72m_profile();
        let pts = series("NUMAlink", &p, &m, &NSU3D_CPU_COUNTS, |n| {
            RunConfig::mpi(n, Fabric::NumaLink4)
        })
        .points;
        assert_eq!(pts.len(), 5);
        assert!((pts[0].speedup.unwrap() - 128.0).abs() < 1e-9);
        // Monotone increasing speedups on NUMAlink.
        for w in pts.windows(2) {
            assert!(w[1].speedup.unwrap() > w[0].speedup.unwrap());
        }
    }

    #[test]
    fn infeasible_points_reported_not_skipped() {
        let m = MachineConfig::columbia_vortex();
        let p = nsu3d_72m_profile();
        let pts = series("InfiniBand", &p, &m, &[1004, 2008], |n| {
            RunConfig::mpi(n, Fabric::InfiniBand)
        })
        .points;
        assert!(pts[0].speedup.is_some());
        assert!(pts[1].speedup.is_none());
        assert!(pts[1].error.is_some());
    }

    #[test]
    fn numalink_series_is_superlinear() {
        let m = MachineConfig::columbia_vortex();
        let row = series(
            "NUMAlink",
            &nsu3d_72m_profile(),
            &m,
            &NSU3D_CPU_COUNTS,
            |n| RunConfig::mpi(n, Fabric::NumaLink4),
        );
        let last = row.points.last().unwrap();
        assert!(last.speedup.unwrap() > last.ncpus as f64);
    }

    #[test]
    fn matrix_produces_all_series() {
        let rows = fabric_thread_matrix(
            &nsu3d_72m_profile(),
            &MachineConfig::columbia_vortex(),
            &NSU3D_CPU_COUNTS,
            &[
                (Fabric::NumaLink4, "NUMAlink"),
                (Fabric::InfiniBand, "InfiniBand"),
            ],
            &[1, 2],
        );
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].label, "NUMAlink: 1 OMP thread");
        assert_eq!(rows[3].label, "InfiniBand: 2 OMP threads");
        // IB pure MPI at 2008 must be marked infeasible.
        assert!(rows[2].points.last().unwrap().speedup.is_none());
    }

    #[test]
    fn relative_efficiency_matches_figure15_shape() {
        let base = RunConfig::mpi(128, Fabric::NumaLink4);
        let cases = vec![
            (
                "NUMAlink 2 threads".to_string(),
                RunConfig::hybrid(128, Fabric::NumaLink4, 2),
            ),
            (
                "NUMAlink 4 threads".to_string(),
                RunConfig::hybrid(128, Fabric::NumaLink4, 4),
            ),
            (
                "InfiniBand 1 thread".to_string(),
                RunConfig::mpi(128, Fabric::InfiniBand),
            ),
        ];
        let m = MachineConfig::columbia_vortex();
        let eff = relative_efficiency(&nsu3d_72m_profile(), &m, &base, &cases).unwrap();
        // Paper: 98.4%, 87.2%, ~95.7%.
        assert!((eff[0].1 - 0.984).abs() < 0.03, "{:?}", eff);
        assert!((eff[1].1 - 0.872).abs() < 0.04, "{:?}", eff);
        assert!(eff[2].1 > 0.90 && eff[2].1 <= 1.001, "{:?}", eff);
    }

    #[test]
    fn infeasible_baseline_is_a_typed_error_and_infeasible_cases_are_nan() {
        let (p, m) = (nsu3d_72m_profile(), MachineConfig::columbia_vortex());
        // 2008 pure-MPI ranks exceed the InfiniBand connection limit.
        let over = RunConfig::mpi(2008, Fabric::InfiniBand);
        let ok = RunConfig::mpi(2008, Fabric::NumaLink4);
        let cases = [("over".to_string(), over), ("ok".to_string(), ok)];
        let err = relative_efficiency(&p, &m, &over, &cases).unwrap_err();
        assert!(
            matches!(err, SimError::IbRankLimit { ranks: 2008, .. }),
            "{err:?}"
        );
        let eff = relative_efficiency(&p, &m, &ok, &cases).unwrap();
        assert!(eff[0].1.is_nan());
        assert_eq!(eff[1].1, 1.0);
    }
}
