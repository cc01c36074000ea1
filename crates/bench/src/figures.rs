//! The positional sections of `scaling_report`: one per figure of the
//! paper's evaluation section (Figures 14-22), the in-text headline
//! metrics, and the ablations. Each prints the series the figure plots, a
//! `paper:` line of the published values where the paper states them, and
//! the shape checks EXPERIMENTS.md tracks.

use crate::sections::{Opts, Rendered};
use crate::table::{line, rows};
use crate::{cart3d_profile, header, mach_half, nsu3d_profile, wing};
use columbia_machine::{
    cart3d_node_span, fabric_thread_matrix, ib_rank_limit, relative_efficiency, series,
    simulate_cycle, CycleProfile, Fabric, MachineConfig, ProgModel, RunConfig, ScalingPoint,
    StudyRow, CART3D_CPU_COUNTS, NSU3D_CPU_COUNTS,
};
use columbia_mesh::{wing_mesh, UnstructuredMesh, WingMeshSpec};
use columbia_mg::{CycleParams, CycleType};
use columbia_rans::{RansLevel, RansSolver, SolverParams};
use columbia_rt::Json;
use std::time::Instant;

fn num(x: f64) -> Json {
    Json::Num(x)
}

fn uint(n: usize) -> Json {
    Json::UInt(n as u64)
}

fn string(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// One point of a speedup series: `{series, ncpus, seconds, speedup,
/// tflops}`; an infeasible point's numbers are `null`.
fn point_json(series: &str, p: &ScalingPoint) -> Json {
    let opt = |x: Option<f64>| x.map_or(Json::Null, num);
    Json::obj([
        ("series", string(series)),
        ("ncpus", uint(p.ncpus)),
        ("seconds", opt(p.seconds)),
        ("speedup", opt(p.speedup)),
        ("tflops", opt(p.tflops)),
    ])
}

fn series_json(row: &StudyRow) -> Json {
    Json::arr(row.points.iter().map(|p| point_json(&row.label, p)))
}

/// Several series over the same CPU counts, transposed to one row per
/// count: `{ncpus, <label>: {seconds, speedup, tflops, ...}, ...}`.
fn by_cpus(series: &[StudyRow]) -> Json {
    Json::arr(series[0].points.iter().enumerate().map(|(i, first)| {
        let mut row = Json::obj([("ncpus", uint(first.ncpus))]);
        for s in series {
            row.set(s.label.clone(), point_json(&s.label, &s.points[i]));
        }
        row
    }))
}

/// The speedup table of Figures 16-19 (and `examples/scaling_study`): one
/// line per series, one column per CPU count, `-` where infeasible.
pub fn speedup_table(series: &[StudyRow], cpu_counts: &[usize]) -> String {
    let mut head = format!("{:<34}", "series \\ CPUs");
    let mut template = String::from("{series:<34}");
    for n in cpu_counts {
        head += &format!("{n:>10}");
        template += &format!("{{{n}:>10.0}}");
    }
    let table = Json::arr(series.iter().map(|row| {
        let mut line = Json::obj([("series", string(&row.label))]);
        for p in &row.points {
            line.set(p.ncpus.to_string(), p.speedup.map_or(Json::Null, num));
        }
        line
    }));
    head + "\n" + &rows(&template, &table)
}

/// Figure 14(a): NSU3D multigrid convergence with 4, 5 and 6 levels
/// (W-cycle) on the benchmark wing mesh.
///
/// The paper runs the 72M-point DPW mesh at Mach 0.75 / Re 3e6 and finds
/// 5- and 6-level multigrid "adequately converged in approximately 800
/// multigrid cycles, while the four-level multigrid run suffers from slower
/// convergence" (and single-grid would need hundreds of thousands of
/// iterations). At the reproduction's mesh scale the same ordering holds at
/// proportionally fewer cycles; pass `--points N` to grow the mesh,
/// `--cycles N` to run longer, `--cycle-v` for V-cycles.
pub fn fig14a(o: &Opts) -> Rendered {
    let parse = |flag: &str, default: usize| {
        o.value(flag)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let cycles = parse("--cycles", 60);
    let cp = CycleParams {
        cycle: if o.flag("--cycle-v") {
            CycleType::V
        } else {
            CycleType::W
        },
        ..Default::default()
    };
    let mesh = wing(parse("--points", 24_000));
    const LEVELS: [usize; 4] = [1, 4, 5, 6];
    let mut runs = Vec::new();
    let mut histories = Vec::new();
    for nlevels in LEVELS {
        let mut solver = RansSolver::new(mesh.clone(), mach_half(), nlevels);
        let h = solver.solve(&cp, 1e-13, cycles);
        runs.push(Json::obj([
            ("levels", uint(nlevels)),
            (
                "sizes",
                Json::arr(solver.level_sizes().into_iter().map(uint)),
            ),
            ("orders", num(h.orders_reduced())),
            ("cycles", uint(h.cycles())),
            ("mean_factor", num(h.mean_reduction_factor())),
        ]));
        histories.push(h.residuals);
    }
    // One row every 5 cycles; a run that stopped early has no entry ("-").
    let len = histories.iter().map(Vec::len).max().unwrap();
    let history = Json::arr((0..len).step_by(5).map(|c| {
        let mut row = Json::obj([("cycle", uint(c))]);
        for (nlevels, h) in LEVELS.iter().zip(&histories) {
            if let Some(&r) = h.get(c) {
                row.set(format!("l{nlevels}"), num(r));
            }
        }
        row
    }));
    let runs = Json::Arr(runs);
    let text = header(
        "Figure 14(a)",
        "NSU3D multigrid convergence, 4/5/6 levels (W-cycle)",
    ) + &format!(
        "mesh: {} points, {} edges ({} unknowns)\n",
        mesh.nvertices(),
        mesh.nedges(),
        6 * mesh.nvertices()
    ) + &rows(
        "{levels} level(s): sizes {sizes}, {orders:.2} orders in {cycles} cycles \
         (mean factor {mean_factor:.3})",
        &runs,
    ) + "\nresidual history (RMS, every 5 cycles):\n   \
         cycle       1-level       4-level       5-level       6-level\n"
        + &rows(
            "{cycle:>8}{l1:>14.3e}{l4:>14.3e}{l5:>14.3e}{l6:>14.3e}",
            &history,
        )
        + "\npaper shape: 5/6-level converge fastest and nearly identically;\n\
           4-level lags; single grid is impractically slow. Paper scale:\n\
           ~800 W-cycles to convergence on 72M points.\n";
    let json = Json::obj([
        ("points", uint(mesh.nvertices())),
        ("edges", uint(mesh.nedges())),
        ("runs", runs),
        ("history", history),
    ]);
    Rendered { json, text }
}

/// Figure 14(b): NSU3D parallel speedup and TFLOP/s on Columbia,
/// 128-2008 CPUs, NUMAlink, for single-grid and 4/5/6-level multigrid.
///
/// Paper values at 2008 CPUs: speedups 2395 (single grid), 2250 (4-level),
/// 2044 (6-level); computational rates 3.4, 3.1, 2.95, 2.8 TFLOP/s for
/// single/4/5/6-level; 31.3 s per 6-level cycle at 128 CPUs, 1.95 s at
/// 2008 CPUs.
pub fn fig14b(o: &Opts) -> Rendered {
    let profile6 = nsu3d_profile(o.flag("--measured"));
    let vortex = MachineConfig::columbia_vortex();
    let series = [
        ("single grid", profile6.truncated(1, true)),
        ("4-level multigrid", profile6.truncated(4, true)),
        ("5-level multigrid", profile6.truncated(5, true)),
        ("6-level multigrid", profile6.clone()),
    ]
    .map(|(name, p)| {
        series_json(&series(name, &p, &vortex, &NSU3D_CPU_COUNTS, |n| {
            RunConfig::mpi(n, Fabric::NumaLink4)
        }))
    });

    let mut text = header(
        "Figure 14(b)",
        "NSU3D scalability + TFLOP/s on Columbia (NUMAlink)",
    );
    text += &format!("workload: {}\n\n", profile6.name);
    text += "series                  CPUs   sec/cycle     speedup     TFLOP/s\n";
    for points in &series {
        text += &rows(
            "{series:<20}{ncpus:>8}{seconds:>12.2}{speedup:>12.0}{tflops:>12.2}",
            points,
        );
        text.push('\n');
    }
    text += "paper: speedups at 2008 CPUs 2395/2250/2044 (single/4-level/6-level);\n\
            rates 3.4/3.1/2.95/2.8 TFLOP/s; 6-level cycle 31.3 s @128 -> 1.95 s @2008.\n\
            shape checks: all series superlinear; fewer levels scale better.\n";
    let json = Json::obj([
        ("workload", string(&profile6.name)),
        ("series", Json::arr(series)),
    ]);
    Rendered { json, text }
}

/// Figure 15: relative parallel efficiency of the 72M-point six-level
/// multigrid case on 128 CPUs distributed over four compute nodes —
/// NUMAlink vs InfiniBand, 1 / 2 / 4 OpenMP threads per MPI process.
///
/// Paper values (baseline = NUMAlink pure MPI): NUMAlink 2 threads 98.4%,
/// 4 threads 87.2%; InfiniBand pure MPI 95.7%, with the 4-thread
/// InfiniBand case actually edging text NUMAlink.
pub fn fig15(o: &Opts) -> Rendered {
    let mut text = header(
        "Figure 15",
        "relative efficiency at 128 CPUs over 4 nodes: fabric x OpenMP threads",
    );
    let thread_parallel = o.flag("--thread-parallel");
    let profile = nsu3d_profile(o.flag("--measured"));
    let mut machine = MachineConfig::columbia_vortex();
    if thread_parallel {
        // Ablation: the thread-parallel MPI strategy the paper rejected —
        // MPI calls lock and serialise at the thread level, modelled as a
        // much steeper hybrid penalty.
        machine.omp_penalty_coeff = 0.10;
        text += "(ablation: thread-parallel MPI communication strategy)\n\n";
    }
    let baseline = RunConfig::mpi(128, Fabric::NumaLink4).spread_over(4);
    let mut cases = Vec::new();
    for (fabric_name, fabric) in [
        ("NUMAlink", Fabric::NumaLink4),
        ("InfiniBand", Fabric::InfiniBand),
    ] {
        for threads in [1, 2, 4] {
            let s = if threads == 1 { "" } else { "s" };
            cases.push((
                format!("{fabric_name}, {threads} OMP thread{s}"),
                RunConfig::hybrid(128, fabric, threads).spread_over(4),
            ));
        }
    }
    let eff = relative_efficiency(&profile, &machine, &baseline, &cases)
        .expect("128 pure-MPI NUMAlink CPUs over 4 nodes are feasible");
    let eff =
        Json::arr(eff.into_iter().map(|(label, e)| {
            Json::obj([("configuration", string(label)), ("efficiency", num(e))])
        }));
    text += "configuration                 efficiency\n";
    text += &rows("{configuration:<28}{efficiency:>11.1*100}%", &eff);
    text += "\npaper: NUMAlink 100 / 98.4 / 87.2 %; InfiniBand 95.7% pure MPI,\n\
            4-thread InfiniBand slightly outperforming 4-thread NUMAlink.\n";
    let json = Json::obj([
        ("thread_parallel", Json::Bool(thread_parallel)),
        ("rows", eff),
    ]);
    Rendered { json, text }
}

/// What one panel of Figures 16-19 shows and the transform of the NSU3D
/// profile it runs.
type FabricPanel = (&'static str, fn(&CycleProfile) -> CycleProfile);

/// Figures 16-19 of the paper, panels (a) and (b) of each in order: the
/// NUMAlink-vs-InfiniBand x 1-2-OpenMP-threads speedup table of one
/// transform of the NSU3D profile.
///
/// * 16 — single grid vs six-level multigrid. Single grid shows only slight
///   degradation from NUMAlink to InfiniBand and from 1 to 2 threads,
///   staying superlinear at 2008 CPUs; six-level multigrid degrades
///   dramatically on InfiniBand at high CPU counts (the non-nested
///   inter-grid transfers hit the fabric's random-ring weakness). Pure-MPI
///   InfiniBand cannot run at 2008 CPUs (1524-rank limit) — marked "-".
/// * 17, 18 — two/three and four/five levels: "a gradual degradation of
///   performance is observed as the number of multigrid levels is
///   increased. However, even the two level multigrid case shows
///   substantial degradation between the NUMAlink and InfiniBand results."
/// * 19 — the second (~9M points) and third (~1M points) grids run ALONE,
///   the paper's key diagnostic: the coarse levels by themselves scale
///   worse than the fine grid (less work per partition) but degrade at
///   SIMILAR rates on both fabrics — so intra-level traffic is NOT what
///   kills InfiniBand multigrid; the non-nested inter-grid transfers are.
const FABRIC_PANELS: [FabricPanel; 8] = [
    ("single-grid scalability, NUMAlink vs InfiniBand", |p| {
        p.truncated(1, true)
    }),
    (
        "six-level multigrid scalability, NUMAlink vs InfiniBand",
        |p| p.clone(),
    ),
    ("two-level multigrid, NUMAlink vs InfiniBand", |p| {
        p.truncated(2, true)
    }),
    ("three-level multigrid, NUMAlink vs InfiniBand", |p| {
        p.truncated(3, true)
    }),
    ("four-level multigrid, NUMAlink vs InfiniBand", |p| {
        p.truncated(4, true)
    }),
    ("five-level multigrid, NUMAlink vs InfiniBand", |p| {
        p.truncated(5, true)
    }),
    ("second grid level alone (~9M points)", |p| {
        p.single_level(1)
    }),
    ("third grid level alone (~1M points)", |p| p.single_level(2)),
];

/// The paper-shape note under each of Figures 16-19.
const FABRIC_NOTES: [&str; 4] = [
    "\npaper shape: (a) all series within a few percent, superlinear;\n\
     (b) InfiniBand collapses at >1000 CPUs while NUMAlink stays near-ideal.\n",
    "",
    "",
    "\npaper shape: both fabrics degrade together on coarse levels;\n\
     the InfiniBand-specific collapse appears only with inter-grid transfers.\n",
];

/// Figure `number` (16-19): its two `FABRIC_PANELS` and its note.
pub fn fabric_figure(number: usize, o: &Opts) -> Rendered {
    let base = nsu3d_profile(o.flag("--measured"));
    let mut text = String::new();
    let mut json = Vec::new();
    for (letter, (what, transform)) in ["a", "b"].iter().zip(&FABRIC_PANELS[2 * (number - 16)..]) {
        if !text.is_empty() {
            text.push('\n');
        }
        let title = format!("Figure {number}({letter})");
        let series = fabric_thread_matrix(
            &transform(&base),
            &MachineConfig::columbia_vortex(),
            &NSU3D_CPU_COUNTS,
            &[
                (Fabric::NumaLink4, "NUMAlink"),
                (Fabric::InfiniBand, "InfiniBand"),
            ],
            &[1, 2],
        );
        text += &header(&title, what);
        text += &speedup_table(&series, &NSU3D_CPU_COUNTS);
        json.push(Json::obj([
            ("panel", Json::Str(title)),
            ("series", Json::arr(series.iter().map(series_json))),
        ]));
    }
    text += FABRIC_NOTES[number - 16];
    let json = Json::Arr(json);
    Rendered { json, text }
}

/// Figure 20(b): Cart3D solver scalability on a single 512-CPU Columbia
/// node — OpenMP vs MPI, 32-504 CPUs, 25M-cell SSLV mesh, 4-level
/// multigrid; right axis TFLOP/s.
///
/// Paper shape: both nearly ideal; MPI shows no appreciable degradation
/// while OpenMP breaks slope at 128 CPUs (Altix "coarse mode" addressing
/// beyond a 128-CPU double cabinet); ~0.75 TFLOP/s at 496 CPUs
/// (>1.5 GFLOP/s per CPU).
pub fn fig20(o: &Opts) -> Rendered {
    let profile = cart3d_profile(o.flag("--measured"));
    let vortex = MachineConfig::columbia_vortex();
    let cpus = [32, 64, 96, 128, 192, 256, 384, 504];
    let data = by_cpus(&[
        series("mpi", &profile, &vortex, &cpus, |n| {
            RunConfig::mpi(n, Fabric::NumaLink4)
        }),
        series("omp", &profile, &vortex, &cpus, |ncpus| RunConfig {
            ncpus,
            fabric: Fabric::NumaLink4,
            model: ProgModel::PureOpenMp,
            min_nodes: 1,
        }),
    ]);
    let mut text = header("Figure 20(b)", "Cart3D OpenMP vs MPI on one Columbia node");
    text += &format!("workload: {}\n\n", profile.name);
    text += "CPUs         MPI speedup   OMP speedup   MPI TFLOP/s   OMP TFLOP/s\n";
    text += &rows(
        "{ncpus:<10}{mpi.speedup:>14.0}{omp.speedup:>14.0}{mpi.tflops:>14.2}{omp.tflops:>14.2}",
        &data,
    );
    text += "\npaper: ~0.75 TFLOP/s at 496 CPUs; OpenMP slope break at 128 CPUs\n\
            (coarse-mode pointer dereferencing), MPI unaffected.\n";
    let json = Json::obj([("workload", string(&profile.name)), ("rows", data)]);
    Rendered { json, text }
}

/// A pure-MPI Cart3D series over the paper's CPU counts, each run spread
/// over the node span the paper used.
fn cart3d_series(label: &str, profile: &CycleProfile, fabric: Fabric) -> StudyRow {
    let vortex = MachineConfig::columbia_vortex();
    series(label, profile, &vortex, &CART3D_CPU_COUNTS, |n| {
        RunConfig::mpi(n, fabric).spread_over(cart3d_node_span(n))
    })
}

/// Figure 21: Cart3D parallel speedup across the full 4-node NUMAlink
/// system, 32-2016 CPUs — 4-level multigrid vs single grid.
///
/// Paper shape: single grid nearly ideal (~1900 at 2016 CPUs); multigrid
/// rolls off above ~688 CPUs and more clearly above 1024 (25M cells give
/// only ~12,000 cells/partition; the coarsest mesh has ~16 cells per
/// partition at 2016 CPUs), posting ~1585 at 2016 CPUs and slightly over
/// 2.4 TFLOP/s.
pub fn fig21(o: &Opts) -> Rendered {
    let p = cart3d_profile(o.flag("--measured"));
    let series = [("sg", p.truncated(1, true)), ("mg", p)]
        .map(|(label, p)| cart3d_series(label, &p, Fabric::NumaLink4));
    let json = by_cpus(&series);
    let mut text = header(
        "Figure 21",
        "Cart3D multigrid vs single grid, NUMAlink, 32-2016 CPUs",
    );
    text += "CPUs            4-level MG     single grid    MG TFLOP/s\n";
    text += &rows(
        "{ncpus:<10}{mg.speedup:>16.0}{sg.speedup:>16.0}{mg.tflops:>14.2}",
        &json,
    );
    text += "\npaper: single grid ~1900 and multigrid ~1585 at 2016 CPUs; ~2.4 TFLOP/s.\n";
    Rendered { json, text }
}

/// Figure 22: Cart3D 4-level multigrid — NUMAlink vs InfiniBand, 32-2016
/// CPUs, pure MPI.
///
/// Paper shape: identical on one node (32-496 CPUs, no box-to-box
/// traffic); InfiniBand lags across 2 nodes, with the 508-CPU two-node
/// case actually UNDER-performing the 496-CPU single-node case; a further
/// drop across 4 nodes; InfiniBand cannot exceed 1524 MPI ranks (eq. 1).
pub fn fig22(o: &Opts) -> Rendered {
    let p = cart3d_profile(o.flag("--measured"));
    // Beyond the 1524-rank IB limit the run is infeasible: `null`, "-".
    let mut json = by_cpus(&[
        cart3d_series("numalink", &p, Fabric::NumaLink4),
        cart3d_series("infiniband", &p, Fabric::InfiniBand),
    ]);
    if let Json::Arr(rows) = &mut json {
        for (row, &n) in rows.iter_mut().zip(&CART3D_CPU_COUNTS) {
            row.set("nodes", uint(cart3d_node_span(n)));
        }
    }
    let mut text = header("Figure 22", "Cart3D multigrid: NUMAlink vs InfiniBand");
    text += "CPUs            NUMAlink    InfiniBand     nodes\n";
    text += &rows(
        "{ncpus:<10}{numalink.speedup:>14.0}{infiniband.speedup:>14.0}{nodes:>10}",
        &json,
    );
    text += "\npaper shape: curves coincide through 496 CPUs (one node); IB dips AT\n\
            508 CPUs (two nodes) below the 496-CPU point; further 4-node penalty;\n\
            IB series ends at 1524 CPUs (MPI connection limit).\n";
    Rendered { json, text }
}

/// All in-text headline metrics of the paper, paper-vs-model side by side:
/// the evaluation numbers stated in prose rather than plotted — cycle
/// times, TFLOP/s rates, speedups, the InfiniBand rank limit, and the
/// 10^9-point projection.
pub fn headline_metrics(o: &Opts) -> Rendered {
    /// The printed table: metric, the paper's value, ours.
    const TABLE: &str = "\
metric                                                       paper     this repo
--------------------------------------------------------------------------------
NSU3D 6-level cycle @128 CPUs (s)                             31.3{nsu3d_cycle_128_s:>14.1}
NSU3D 6-level cycle @2008 CPUs (s)                            1.95{nsu3d_cycle_2008_s:>14.2}
NSU3D 6-level speedup @2008 (ideal 128 base)                  2044{nsu3d_speedup_2008:>14.0}
NSU3D single-grid speedup @2008                               2395{nsu3d_single_grid_speedup_2008:>14.0}
NSU3D 4-level speedup @2008                                   2250{nsu3d_4level_speedup_2008:>14.0}
NSU3D single-grid rate @2008 (TFLOP/s)                         3.4{nsu3d_single_grid_tflops_2008:>14.2}
NSU3D 4-level rate @2008 (TFLOP/s)                             3.1{nsu3d_4level_tflops_2008:>14.2}
NSU3D 5-level rate @2008 (TFLOP/s)                            2.95{nsu3d_5level_tflops_2008:>14.2}
NSU3D 6-level rate @2008 (TFLOP/s)                             2.8{nsu3d_tflops_2008:>14.2}
NSU3D solution time @2008, 800 cycles (min)                    <30{nsu3d_solution_minutes_2008:>14.0}
Cart3D rate @496 CPUs, 1 node (TFLOP/s)                      ~0.75{cart3d_tflops_496:>14.2}
Cart3D 4-level MG rate @2016 (TFLOP/s)                        >2.4{cart3d_tflops_2016:>14.2}
Cart3D 4-level MG speedup @2016                              ~1585{cart3d_speedup_2016:>14.0}
Cart3D single-grid speedup @2016                             ~1900{cart3d_single_grid_speedup_2016:>14.0}
InfiniBand MPI rank limit, 4 nodes                            1524{ib_rank_limit_4_nodes:>14}
Hybrid efficiency, 2 OMP threads (%)                          98.4{omp_efficiency_2:>14.1*100}
Hybrid efficiency, 4 OMP threads (%)                          87.2{omp_efficiency_4:>14.1*100}
1e9-point case @2008 CPUs, 800 cycles (h)                      4-5{gigapoint_hours_2008:>14.1}
";
    let m = MachineConfig::columbia_vortex();
    let measured = o.flag("--measured");
    let p6 = nsu3d_profile(measured);
    let c4 = cart3d_profile(measured);
    let nl = |p: &CycleProfile, n: usize| {
        simulate_cycle(p, &m, &RunConfig::mpi(n, Fabric::NumaLink4)).unwrap()
    };
    let speedup = |p: &CycleProfile, base: usize, n: usize| {
        num(base as f64 * nl(p, base).seconds / nl(p, n).seconds)
    };
    let tflops = |p: &CycleProfile, n: usize| num(nl(p, n).flops_per_second() / 1e12);
    let (sg, p4, p5) = (
        p6.truncated(1, true),
        p6.truncated(4, true),
        p6.truncated(5, true),
    );
    let cycle_2008 = nl(&p6, 2008).seconds;
    // 1e9-point projection (paper: 4-5 hours on 2008 CPUs).
    let mut big = p6.clone();
    let scale = 1.0e9 / big.levels[0].points;
    for l in big.levels.iter_mut() {
        l.points *= scale;
    }
    for ig in big.intergrid.iter_mut() {
        ig.fine_points *= scale;
    }
    let json = Json::obj([
        ("nsu3d_cycle_128_s", num(nl(&p6, 128).seconds)),
        ("nsu3d_cycle_2008_s", num(cycle_2008)),
        ("nsu3d_speedup_2008", speedup(&p6, 128, 2008)),
        ("nsu3d_single_grid_speedup_2008", speedup(&sg, 128, 2008)),
        ("nsu3d_4level_speedup_2008", speedup(&p4, 128, 2008)),
        ("nsu3d_single_grid_tflops_2008", tflops(&sg, 2008)),
        ("nsu3d_4level_tflops_2008", tflops(&p4, 2008)),
        ("nsu3d_5level_tflops_2008", tflops(&p5, 2008)),
        ("nsu3d_tflops_2008", tflops(&p6, 2008)),
        // 30-minute solution claim: 800 cycles at 1.95 s.
        (
            "nsu3d_solution_minutes_2008",
            num(800.0 * cycle_2008 / 60.0),
        ),
        ("cart3d_tflops_496", tflops(&c4, 496)),
        ("cart3d_tflops_2016", tflops(&c4, 2016)),
        ("cart3d_speedup_2016", speedup(&c4, 32, 2016)),
        (
            "cart3d_single_grid_speedup_2016",
            speedup(&c4.truncated(1, true), 32, 2016),
        ),
        ("ib_rank_limit_4_nodes", uint(ib_rank_limit(4))),
        ("omp_efficiency_2", num(m.omp_efficiency(2))),
        ("omp_efficiency_4", num(m.omp_efficiency(4))),
        (
            "gigapoint_hours_2008",
            num(800.0 * nl(&big, 2008).seconds / 3600.0),
        ),
    ]);
    let text = header("Headline metrics", "paper text values vs model/measurement")
        + &line(TABLE, &json)
        + "\nmesh-generation rate (paper: 3-5M cells/min on Itanium2) and the\n\
           agglomeration/SFC coarsening ratios (paper: >7) are measured live by\n\
           the `sslv_cutcell` example and the cartesian/mesh crate tests.\n";
    Rendered { json, text }
}

/// Ablation: W-cycle vs V-cycle (paper §III: "the multigrid W-cycle has
/// been found to produce superior convergence rates and to be more robust,
/// and is thus used exclusively").
pub fn ablation_cycles(_: &Opts) -> Rendered {
    let mesh = wing(16_000);
    let json = Json::arr([CycleType::V, CycleType::W].map(|cycle| {
        let mut s = RansSolver::new(mesh.clone(), mach_half(), 5);
        let cp = CycleParams {
            cycle,
            ..Default::default()
        };
        let t0 = Instant::now();
        let h = s.solve(&cp, 1e-12, 40);
        Json::obj([
            ("cycle", string(format!("{cycle:?}"))),
            ("orders", num(h.orders_reduced())),
            ("cycles", uint(h.cycles())),
            ("seconds", num(t0.elapsed().as_secs_f64())),
            ("mean_reduction", num(h.mean_reduction_factor())),
        ])
    }));
    let text = header("Ablation", "multigrid W-cycle vs V-cycle")
        + &rows(
            "{cycle}-cycle: {orders:.2} orders in {cycles} cycles \
             ({seconds:.2} s, mean reduction {mean_reduction:.3})",
            &json,
        );
    Rendered { json, text }
}

/// Ablation: line-implicit vs point-implicit smoothing on stretched meshes
/// (paper §III: line solvers remove the stiffness of high-aspect-ratio
/// boundary-layer cells; convergence becomes insensitive to stretching).
///
/// Runs the same wing case with implicit lines enabled (threshold 10) and
/// disabled (threshold infinite => every vertex point-implicit) at two
/// wall-normal stretching strengths.
pub fn ablation_lines(_: &Opts) -> Rendered {
    let mut runs = Vec::new();
    for wall_spacing in [1e-3, 1e-5] {
        let mesh = wing_mesh(&WingMeshSpec {
            jitter: 0.0,
            wall_spacing,
            ..WingMeshSpec::with_target_points(8_000)
        });
        for (name, threshold) in [("line-implicit", 10.0), ("point-implicit", f64::INFINITY)] {
            let params = SolverParams {
                line_threshold: threshold,
                ..mach_half()
            };
            let mut s = RansSolver::new(mesh.clone(), params, 4);
            let coverage = s.levels[0].line_coverage();
            let h = s.solve(&CycleParams::default(), 1e-12, 40);
            runs.push(Json::obj([
                ("wall_spacing", num(wall_spacing)),
                ("smoother", string(name)),
                ("line_coverage", num(coverage)),
                ("orders", num(h.orders_reduced())),
                ("cycles", uint(h.cycles())),
            ]));
        }
    }
    let json = Json::Arr(runs);
    let text = header("Ablation", "line-implicit vs point-implicit smoothing")
        + &rows(
            "wall spacing {wall_spacing:>8.0e}  {smoother:<16} line coverage \
             {line_coverage:>5.1*100}%  {orders:.2} orders in {cycles} cycles",
            &json,
        )
        + "\nexpected: line-implicit converges at least as fast, with the gap\n\
           widening as the wall spacing (and hence cell anisotropy) shrinks.\n";
    Rendered { json, text }
}

/// Ablation: independent per-level partitioning + greedy matching (the
/// paper's choice) vs naive nested partitioning for the NSU3D multigrid
/// hierarchy. The paper argues intra-level balance matters more than
/// inter-level transfer locality.
pub fn ablation_partition(_: &Opts) -> Rendered {
    use columbia_partition::{match_levels, partition_graph, PartitionConfig, PartitionQuality};
    let solver = RansSolver::new(wing(16_000), mach_half(), 3);
    let k = 16;
    let cfg = PartitionConfig::default();
    let fine = &solver.levels[0];
    let coarse = &solver.levels[1];
    let map = fine.to_coarse.as_ref().unwrap();
    let coarse_graph = coarse.mesh.dual_graph();

    let fine_part = partition_graph(&fine.mesh.dual_graph(), k, &cfg);

    // Independent coarse partition + greedy matching.
    let coarse_indep = partition_graph(&coarse_graph, k, &cfg);
    let w = vec![1.0; fine.nvertices()];
    let (matched, aligned) = match_levels(&fine_part, map, &coarse_indep, k, &w);

    // Nested: coarse vertex inherits the majority partition of its children
    // (ordered map, so volume ties break the same way on every run).
    let mut votes = vec![std::collections::BTreeMap::<u32, f64>::new(); coarse.nvertices()];
    for (v, &c) in map.iter().enumerate() {
        *votes[c as usize].entry(fine_part[v]).or_insert(0.0) += fine.mesh.volumes[v];
    }
    let nested: Vec<u32> = votes
        .iter()
        .map(|m| {
            m.iter()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(&p, _)| p)
                .unwrap_or(0)
        })
        .collect();
    let aligned_nested = map
        .iter()
        .enumerate()
        .filter(|(v, &c)| nested[c as usize] == fine_part[*v])
        .count() as f64
        / map.len() as f64;

    let json = Json::arr(
        [
            ("independent", &matched, aligned),
            ("nested", &nested, aligned_nested),
        ]
        .map(|(strategy, part, aligned)| {
            let q = PartitionQuality::measure(&coarse_graph, part, k);
            Json::obj([
                ("strategy", string(strategy)),
                ("coarse_imbalance", num(q.imbalance)),
                ("edge_cut", num(q.edge_cut)),
                ("aligned_transfer", num(aligned)),
            ])
        }),
    );
    let text = header(
        "Ablation",
        "independent vs nested multigrid level partitioning",
    ) + "strategy       coarse imbal.    edge cutaligned transfer\n"
        + &rows(
            "{strategy:<14}{coarse_imbalance:>14.3}{edge_cut:>12.0}{aligned_transfer:>15.1*100}%",
            &json,
        )
        + "\nexpected: nested aligns transfers perfectly but pays in coarse-level\n\
         balance and cut; independent+matching balances the level (the paper's\n\
         finding that intra-level partitioning dominates).\n";
    Rendered { json, text }
}

/// Ablation: reverse Cuthill-McKee cache reordering (paper §III: "for
/// cache-based scalar processors ... the grid data is reordered for cache
/// locality using a reverse Cuthill-McKee type algorithm").
///
/// Measures real smoothing-sweep wall time on the same wing mesh under a
/// scrambled numbering vs the RCM numbering, plus the adjacency bandwidth
/// that drives the difference.
pub fn ablation_rcm(_: &Opts) -> Rendered {
    use columbia_mesh::rcm::{bandwidth, reverse_cuthill_mckee};
    fn sweep_seconds(mesh: UnstructuredMesh) -> f64 {
        const SWEEPS: usize = 5;
        let mut lvl = RansLevel::new(mesh, mach_half());
        lvl.apply_bcs();
        lvl.smooth_sweep(); // warm up
        let t0 = Instant::now();
        for _ in 0..SWEEPS {
            lvl.smooth_sweep();
        }
        t0.elapsed().as_secs_f64() / SWEEPS as f64
    }
    let mesh = wing(60_000);
    let n = mesh.nvertices();

    // Scrambled numbering (worst case for cache locality).
    let mut scramble: Vec<u32> = (0..n as u32).collect();
    columbia_rt::Pcg32::seed_from_u64(7).shuffle(&mut scramble);
    let scrambled = mesh.permute(&scramble);

    // RCM numbering recovered from the scrambled mesh.
    let rcm = reverse_cuthill_mckee(&scrambled.dual_graph());
    let reordered = scrambled.permute(&rcm);

    let ident: Vec<u32> = (0..n as u32).collect();
    let band = |m: &UnstructuredMesh| uint(bandwidth(&m.dual_graph(), &ident));
    let (b_nat, b_scr, b_rcm) = (band(&mesh), band(&scrambled), band(&reordered));
    let t_scr = sweep_seconds(scrambled);
    let t_rcm = sweep_seconds(reordered);
    let json = Json::obj([
        ("points", uint(n)),
        ("bandwidth_natural", b_nat),
        ("bandwidth_scrambled", b_scr),
        ("bandwidth_rcm", b_rcm),
        ("sweep_scrambled_s", num(t_scr)),
        ("sweep_rcm_s", num(t_rcm)),
        ("speedup", num(t_scr / t_rcm)),
    ]);
    let text = header("Ablation", "reverse Cuthill-McKee cache reordering")
        + &line(
            "mesh: {points} points; bandwidth natural {bandwidth_natural} / scrambled \
             {bandwidth_scrambled} / RCM {bandwidth_rcm}\n\
             smoothing sweep: scrambled {sweep_scrambled_s:.1*1e3} ms, RCM \
             {sweep_rcm_s:.1*1e3} ms  ({speedup:.2}x speedup)\n",
            &json,
        )
        + "\nexpected: RCM restores near-natural adjacency bandwidth. The sweep\n\
           speedup is modest on modern CPUs whose caches dwarf the Itanium2's\n\
           (the paper's motivation); grow the mesh well past cache size to see\n\
           the locality effect directly.\n";
    Rendered { json, text }
}

/// Ablation: Morton vs Peano-Hilbert space-filling curves for Cart3D
/// partitioning (paper §V: "in 3D the Peano-Hilbert SFC is generally
/// preferred"). Measures partition surface (ghost cells) and communication
/// degree on the same adapted mesh.
pub fn ablation_sfc(_: &Opts) -> Rendered {
    use columbia_cartesian::extract_mesh;
    use columbia_euler::profile::measure_ghosts;
    use columbia_sfc::CurveKind;
    let (tree, geom) = crate::cart3d_body_octree();
    let json = Json::arr([CurveKind::Morton, CurveKind::Hilbert].map(|curve| {
        let mesh = extract_mesh(&tree, &geom, curve, 0.1);
        let (g16, d16) = measure_ghosts(&mesh, 16);
        let (g64, d64) = measure_ghosts(&mesh, 64);
        Json::obj([
            ("curve", string(format!("{curve:?}"))),
            ("cells", uint(mesh.ncells())),
            ("ghosts_per_part_16", num(g16)),
            ("degree_16", uint(d16)),
            ("ghosts_per_part_64", num(g64)),
            ("degree_64", uint(d64)),
        ])
    }));
    let text = header("Ablation", "Morton vs Peano-Hilbert SFC partition quality")
        + "curve          cells  parts=16 ghosts/part  parts=64 ghosts/part\n"
        + &rows(
            "{curve:<10}{cells:>10}{ghosts_per_part_16:>15.0} (d={degree_16:>2})\
             {ghosts_per_part_64:>15.0} (d={degree_64:>2})",
            &json,
        )
        + "\nexpected: Hilbert partitions show equal or smaller surfaces and\n\
           communication degrees (better locality along the curve).\n";
    Rendered { json, text }
}
