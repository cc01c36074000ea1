//! The benchmark's metric registry and the result of one run.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions; a unit test keeps the two in step.

use crate::stats::{fast_quartile, Summary};
use columbia_rt::trace::Trace;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload on the untraced pass.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse on
    /// any workload: the widest of the workloads' own bounds
    /// ([`Workload::bounds`]), because `BENCHMARK.json` holds one bound per
    /// metric. `compare` judges each row against its workload's bound.
    pub bound: f64,
}

/// The end-to-end metrics. What one *operation* is is fixed per workload
/// (see `WORKLOADS` and the README).
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "op_p25_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// A per-layer metric: reported by every workload on the traced pass, 0
/// where the workload does not enter the layer.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Multigrid levels a per-level row exists for (finest = 0). Both wing
/// meshes build five levels, the cut-cell meshes four.
pub const MAX_LEVELS: usize = 5;

/// The per-layer metrics, grouped by the crate or module they measure.
/// Every `_s` row of a cycle workload is seconds *per multigrid cycle*.
pub const PER_LAYER: &[PerLayer] = &[
    // mesh
    lo("mesh.wing_gen_s", "s"),
    lo("mesh.agglomerate_s", "s"),
    lo("mesh.lines_s", "s"),
    lo("mesh.L0.vertices", "count"),
    lo("mesh.L1.vertices", "count"),
    lo("mesh.L2.vertices", "count"),
    lo("mesh.L3.vertices", "count"),
    lo("mesh.L4.vertices", "count"),
    // partition
    lo("partition.kway_s", "s"),
    lo("partition.edge_cut_frac", "ratio"),
    lo("partition.imbalance", "ratio"),
    lo("partition.max_degree", "count"),
    // comm
    lo("comm.decompose_s", "s"),
    lo("comm.world_spawn_s", "s"),
    lo("comm.pingpong_us", "us"),
    lo("comm.msgs_per_cycle", "count"),
    lo("comm.bytes_per_cycle", "bytes"),
    lo("comm.L0.msgs_per_cycle", "count"),
    lo("comm.L1.msgs_per_cycle", "count"),
    lo("comm.L2.msgs_per_cycle", "count"),
    lo("comm.L3.msgs_per_cycle", "count"),
    lo("comm.L4.msgs_per_cycle", "count"),
    lo("comm.pool_miss_ratio", "ratio"),
    lo("comm.barriers_per_cycle", "count"),
    lo("comm.L0.exchange_s", "s"),
    lo("comm.L1.exchange_s", "s"),
    lo("comm.L2.exchange_s", "s"),
    lo("comm.L3.exchange_s", "s"),
    lo("comm.L4.exchange_s", "s"),
    lo("comm.exchange_frac", "ratio"),
    // rans
    lo("rans.L0.sweep_s", "s"),
    lo("rans.L1.sweep_s", "s"),
    lo("rans.L2.sweep_s", "s"),
    lo("rans.L3.sweep_s", "s"),
    lo("rans.L4.sweep_s", "s"),
    lo("rans.begin_s", "s"),
    lo("rans.grad_s", "s"),
    lo("rans.flux_s", "s"),
    lo("rans.diag_s", "s"),
    lo("rans.implicit_s", "s"),
    lo("rans.pmg.build_s", "s"),
    lo("rans.ghost_vertex_frac", "ratio"),
    lo("rans.pmg.intergrid_s", "s"),
    // mg
    lo("mg.L0.visits", "count"),
    lo("mg.L1.visits", "count"),
    lo("mg.L2.visits", "count"),
    lo("mg.L3.visits", "count"),
    lo("mg.L4.visits", "count"),
    lo("mg.L0.time_frac", "ratio"),
    lo("mg.L1.time_frac", "ratio"),
    lo("mg.L2.time_frac", "ratio"),
    lo("mg.L3.time_frac", "ratio"),
    lo("mg.L4.time_frac", "ratio"),
    lo("mg.restrict_s", "s"),
    lo("mg.prolong_s", "s"),
    hi("mg.orders_per_cycle", "1/cycle"),
    // linalg
    lo("linalg.flops_per_cycle", "flop"),
    hi("linalg.gflops", "GF/s"),
    lo("linalg.computed_bytes_per_cycle", "bytes"),
    hi("linalg.flops_per_byte", "flop/B"),
    // cartesian, sfc
    lo("cartesian.octree_s", "s"),
    lo("cartesian.extract_s", "s"),
    lo("cartesian.coarsen_s", "s"),
    lo("cartesian.cells", "count"),
    lo("cartesian.cut_cells", "count"),
    hi("cartesian.coarsen_ratio", "ratio"),
    hi("cartesian.mesh_cells_per_s", "cells/s"),
    lo("sfc.partition_s", "s"),
    // euler
    lo("euler.L0.step_s", "s"),
    lo("euler.L1.step_s", "s"),
    lo("euler.L2.step_s", "s"),
    lo("euler.L3.step_s", "s"),
    lo("euler.residual_s", "s"),
    lo("euler.stage_s", "s"),
    lo("euler.flops_per_cycle", "flop"),
    hi("euler.gflops", "GF/s"),
    // core: database fill
    lo("core.fill.mesh_s", "s"),
    lo("core.fill.case_s", "s"),
    hi("core.fill.thread_eff", "ratio"),
    lo("core.fill.quarantined", "count"),
    lo("core.fill.retries", "count"),
    // core: database server
    hi("core.server.hit_ratio", "ratio"),
    hi("core.server.dedup_ratio", "ratio"),
    lo("core.server.evictions_per_query", "ratio"),
    lo("core.server.ns_per_query", "ns"),
    lo("core.server.uncached_ns_per_query", "ns"),
    lo("core.server.batch_p99_us", "us"),
    lo("core.server.table_bytes", "bytes"),
    // strong scaling against the 1-rank reference
    hi("scaling.speedup", "ratio"),
    hi("scaling.eff", "ratio"),
    // health of the benchmark itself
    lo("rt.trace_overhead_frac", "ratio"),
    lo("ledger.unaccounted_frac", "ratio"),
];

/// A workload: its name, why it exists, what its operation is.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub op: &'static str,
    /// Share of the parent's median by which each end-to-end metric may
    /// get worse on this workload, in [`END_TO_END`] order. Each is at
    /// least twice the widest quartile distance seen between runs of one
    /// commit on the reference host (README, Baseline), up to the 0.25
    /// the acceptance contract allows.
    pub bounds: [f64; 3],
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "rans100k_serial",
        why: "plain single-threaded RANS baseline: rans::level and linalg do all the work and comm none, so kernel work shows here and comm work must not",
        op: "one 5-level W-cycle on 97 336 vertices",
        bounds: [0.25, 0.25, 0.08],
    },
    Workload {
        name: "rans100k_r2_threads",
        why: "the only real concurrency: 2 ranks on 2 OS threads, so parallel speed-up, serial fraction and recv/park wait show here",
        op: "one W-cycle of ParallelMg::solve on 2 ranks",
        bounds: [0.25, 0.25, 0.15],
    },
    Workload {
        name: "rans27k_r8_events",
        why: "8 ranks on the single-token event executor: over half the cycle is comm on small per-rank levels, the paper's coarse-level scalability loss",
        op: "one W-cycle of ParallelMg::solve on 8 ranks",
        bounds: [0.25, 0.25, 0.15],
    },
    Workload {
        name: "cart57k_serial",
        why: "Cart3D analogue at the largest size its solver converges on: the mesher, SFC coarsening and euler::level carry the time; RANS work must not move it",
        op: "one 4-level W-cycle on about 57 000 cells",
        bounds: [0.25, 0.25, 0.05],
    },
    Workload {
        name: "cart_fill8",
        why: "same cartesian and euler layers used the other way: many small cache-resident cases on 2 worker threads, mesh cost amortised per configuration",
        op: "one configuration of DatabaseFill::run: 1 mesh, 4 wind cases, 2 threads",
        bounds: [0.25, 0.25, 0.05],
    },
    Workload {
        name: "db_serve_hot",
        why: "dwell storm of 32 distinct conditions: cache-hit and in-batch dedup dominated",
        op: "one 4096-query DatabaseServer::serve_batch",
        bounds: [0.15, 0.25, 0.05],
    },
    Workload {
        name: "db_serve_cold",
        why: "envelope-wide storm through the same server: miss and evict dominated, so a cache gain that costs the miss path shows as a loss",
        op: "one 4096-query DatabaseServer::serve_batch",
        bounds: [0.25, 0.25, 0.05],
    },
];

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (cycles, cases, queries) and how many of them
    /// failed the correctness gate.
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Timing distributions behind the medians, by metric name.
    pub summaries: Vec<(&'static str, Summary)>,
    /// Human-readable lines: what was checked, what was measured.
    pub notes: Vec<String>,
    /// The traced pass's spans.
    pub trace: Option<Trace>,
}

fn registered(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .find(|n| *n == name)
}

impl Outcome {
    /// Record a metric value.
    ///
    /// # Panics
    /// If `name` is not in the registry: the names are written in this
    /// crate, so a miss is a typo here.
    pub fn set(&mut self, name: &str, value: f64) {
        let key = registered(name).unwrap_or_else(|| panic!("unregistered metric `{name}`"));
        self.values.insert(key, value);
    }

    /// Record a per-level metric `prefix.L{level}.suffix`; levels beyond
    /// [`MAX_LEVELS`] have no row and are dropped.
    pub fn set_level(&mut self, prefix: &str, level: usize, suffix: &str, value: f64) {
        if level < MAX_LEVELS {
            self.set(&format!("{prefix}.L{level}.{suffix}"), value);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Record this process's set-up times: the metric is their median,
    /// until [`Outcome::pool_setup_probes`] widens it.
    pub fn set_setup_samples(&mut self, samples: &[f64]) {
        let s = Summary::of(samples);
        self.set("setup_s", s.median);
        self.summaries.push(("setup_own_s", s));
    }

    /// Pool this process's median set-up time with the medians of the
    /// probe processes: the metric is the median over the processes.
    pub fn pool_setup_probes(&mut self, probes: &[f64]) {
        let mut processes = vec![self.get("setup_s").expect("set-up samples come first")];
        processes.extend(probes);
        let s = Summary::of(&processes);
        self.set("setup_s", s.median);
        self.summaries.push(("setup_s", s));
    }

    /// Record the operation times: the metric is their fast quartile,
    /// the whole distribution is kept beside it. `work_per_op` units of
    /// `unit` per operation give the rate a user would quote.
    pub fn set_op_samples(&mut self, samples: &[f64], work_per_op: f64, unit: &str) {
        let p25 = fast_quartile(samples);
        self.set("op_p25_s", p25);
        self.summaries.push(("op_s", Summary::of(samples)));
        self.note(format!(
            "derived rate: {:.6e} {unit} ({work_per_op} per operation over op_p25_s)",
            work_per_op / p25
        ));
    }

    /// Count a failed check against the run and say why.
    pub fn fail(&mut self, count: u64, why: String) {
        if count > 0 {
            self.failed += count;
            self.notes.push(format!("FAILED ({count}): {why}"));
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")));
        for (name, unit) in names {
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        // BENCHMARK.json holds one bound per metric, at most 0.25: the
        // widest of the workloads' own.
        for (i, m) in END_TO_END.iter().enumerate() {
            let widest = WORKLOADS.iter().map(|w| w.bounds[i]).fold(0.0, f64::max);
            assert_eq!(m.bound, widest, "{}", m.name);
            assert!(m.bound <= 0.25);
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }

    #[test]
    fn setup_is_the_median_over_the_processes() {
        let mut o = Outcome::default();
        o.set_setup_samples(&[0.30, 0.10, 0.20]);
        assert_eq!(o.get("setup_s"), Some(0.20));
        o.pool_setup_probes(&[0.40, 0.50, 0.45, 0.60]);
        assert_eq!(o.get("setup_s"), Some(0.45));
        assert_eq!(o.summaries[1].0, "setup_s");
        assert_eq!(o.summaries[1].1.n, 5);
    }

    #[test]
    fn unregistered_names_are_rejected() {
        let mut o = Outcome::default();
        o.set("op_p25_s", 1.0);
        o.set_level("rans", 2, "sweep_s", 0.5);
        o.set_level("rans", 9, "sweep_s", 0.5);
        assert_eq!(o.get("rans.L2.sweep_s"), Some(0.5));
        assert!(std::panic::catch_unwind(move || o.set("no.such", 1.0)).is_err());
    }

    /// `BENCHMARK.json` is what the driver reads and this registry is what
    /// the binary prints; they must say the same thing.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let field = |v: &json::Value, k: &str| v.get(k).unwrap().as_str().unwrap().to_string();

        let e2e = doc.get("end_to_end").unwrap().as_array().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.label());
            assert_eq!(j.get("bound").unwrap().as_f64().unwrap(), m.bound);
        }
        let layers = doc.get("per_layer").unwrap().as_array().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.label());
        }
        let workloads = doc.get("workloads").unwrap().as_array().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
        }
    }
}
