//! The Columbia scaling-study driver.
//!
//! Wraps the machine model and the workload profiles into the study shapes
//! the paper's evaluation section uses: speedup vs CPU count for a given
//! fabric / programming model, and relative-efficiency comparisons at a
//! fixed CPU count.

use columbia_machine::{
    simulate_cycle, speedup_series, CycleProfile, Fabric, MachineConfig, RunConfig, ScalingPoint,
};

/// One row of a study table.
#[derive(Clone, Debug)]
pub struct StudyRow {
    /// Series label ("NUMAlink, 1 OMP thread").
    pub label: String,
    /// Scaling points over the CPU counts.
    pub points: Vec<ScalingPoint>,
}

/// A configured scaling study over one workload profile.
#[derive(Clone)]
pub struct PerformanceStudy {
    /// The machine.
    pub machine: MachineConfig,
    /// The workload.
    pub profile: CycleProfile,
    /// CPU counts to evaluate.
    pub cpu_counts: Vec<usize>,
}

impl PerformanceStudy {
    /// Study on the 4-node Columbia "vortex" subsystem.
    pub fn new(profile: CycleProfile, cpu_counts: &[usize]) -> Self {
        PerformanceStudy {
            machine: MachineConfig::columbia_vortex(),
            profile,
            cpu_counts: cpu_counts.to_vec(),
        }
    }

    /// Speedup series for one run-configuration family.
    pub fn series(&self, label: &str, make_run: impl Fn(usize) -> RunConfig) -> StudyRow {
        StudyRow {
            label: label.to_string(),
            points: speedup_series(&self.profile, &self.machine, &self.cpu_counts, make_run),
        }
    }

    /// Compare fabrics x OpenMP thread counts (the paper's Figures 15-18
    /// series families).
    pub fn fabric_thread_matrix(
        &self,
        fabrics: &[(Fabric, &str)],
        threads: &[usize],
    ) -> Vec<StudyRow> {
        let mut rows = Vec::new();
        for &(fabric, fname) in fabrics {
            for &t in threads {
                let label = format!("{fname}: {t} OMP thread{}", if t == 1 { "" } else { "s" });
                rows.push(self.series(&label, move |n| RunConfig::hybrid(n, fabric, t)));
            }
        }
        rows
    }

    /// Relative efficiency at a fixed CPU count vs a baseline run
    /// (Figure 15: 128 CPUs, NUMAlink pure MPI = 1.0).
    pub fn relative_efficiency(
        &self,
        ncpus: usize,
        baseline: RunConfig,
        cases: &[(String, RunConfig)],
    ) -> Vec<(String, f64)> {
        let base = simulate_cycle(&self.profile, &self.machine, &baseline)
            .expect("baseline run infeasible")
            .seconds;
        cases
            .iter()
            .map(|(label, run)| {
                assert_eq!(run.ncpus, ncpus);
                let eff = match simulate_cycle(&self.profile, &self.machine, run) {
                    Ok(b) => base / b.seconds,
                    Err(_) => f64::NAN,
                };
                (label.clone(), eff)
            })
            .collect()
    }

    /// Format a set of rows as an aligned text table (the figure
    /// sections of `scaling_report` print these).
    pub fn format_table(rows: &[StudyRow], cpu_counts: &[usize]) -> String {
        let mut s = String::new();
        s.push_str(&format!("{:<34}", "series \\ CPUs"));
        for &n in cpu_counts {
            s.push_str(&format!("{n:>10}"));
        }
        s.push('\n');
        for row in rows {
            s.push_str(&format!("{:<34}", row.label));
            for p in &row.points {
                match p.speedup {
                    Some(sp) => s.push_str(&format!("{sp:>10.0}")),
                    None => s.push_str(&format!("{:>10}", "-")),
                }
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columbia_machine::profile::paper_nsu3d_72m;
    use columbia_machine::NSU3D_CPU_COUNTS;

    fn study() -> PerformanceStudy {
        PerformanceStudy::new(paper_nsu3d_72m(), &NSU3D_CPU_COUNTS)
    }

    #[test]
    fn numalink_series_is_superlinear() {
        let s = study();
        let row = s.series("NUMAlink", |n| RunConfig::mpi(n, Fabric::NumaLink4));
        let last = row.points.last().unwrap();
        assert!(last.speedup.unwrap() > last.ncpus as f64);
    }

    #[test]
    fn matrix_produces_all_series() {
        let s = study();
        let rows = s.fabric_thread_matrix(
            &[
                (Fabric::NumaLink4, "NUMAlink"),
                (Fabric::InfiniBand, "InfiniBand"),
            ],
            &[1, 2],
        );
        assert_eq!(rows.len(), 4);
        let table = PerformanceStudy::format_table(&rows, &NSU3D_CPU_COUNTS);
        assert!(table.contains("NUMAlink: 1 OMP thread"));
        // IB pure MPI at 2008 must be marked infeasible.
        let ib1 = &rows[2];
        assert!(ib1.points.last().unwrap().speedup.is_none());
    }

    #[test]
    fn relative_efficiency_matches_figure15_shape() {
        let s = study();
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
        let eff = s.relative_efficiency(128, base, &cases);
        // Paper: 98.4%, 87.2%, ~95.7%.
        assert!((eff[0].1 - 0.984).abs() < 0.03, "{:?}", eff);
        assert!((eff[1].1 - 0.872).abs() < 0.04, "{:?}", eff);
        assert!(eff[2].1 > 0.90 && eff[2].1 <= 1.001, "{:?}", eff);
    }
}
