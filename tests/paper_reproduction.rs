//! Shape assertions for every figure of the paper's evaluation section.
//!
//! EXPERIMENTS.md documents the quantitative paper-vs-model comparison;
//! these tests lock in the *qualitative* claims so regressions in any crate
//! surface immediately.

use columbia_machine::{
    ib_rank_limit, paper_cart3d_25m, paper_nsu3d_72m, simulate_cycle, Fabric, MachineConfig,
    ProgModel, RunConfig, SimError,
};

fn m() -> MachineConfig {
    MachineConfig::columbia_vortex()
}

fn nl(p: &columbia_machine::CycleProfile, n: usize) -> f64 {
    simulate_cycle(p, &m(), &RunConfig::mpi(n, Fabric::NumaLink4))
        .unwrap()
        .seconds
}

#[test]
fn fig14b_headline_cycle_times_and_speedups() {
    let p = paper_nsu3d_72m();
    let t128 = nl(&p, 128);
    let t2008 = nl(&p, 2008);
    assert!((t128 - 31.3).abs() / 31.3 < 0.10, "128-CPU cycle {t128}");
    assert!((t2008 - 1.95).abs() / 1.95 < 0.15, "2008-CPU cycle {t2008}");
    let speedup6 = 128.0 * t128 / t2008;
    assert!(
        speedup6 > 2008.0 && speedup6 < 2300.0,
        "6-level speedup {speedup6} (paper 2044)"
    );
    // Ordering: single > 4-level > 6-level.
    let s = |prof: &columbia_machine::CycleProfile| 128.0 * nl(prof, 128) / nl(prof, 2008);
    let single = s(&p.truncated(1));
    let four = s(&p.truncated(4));
    assert!(
        single > four && four > speedup6,
        "{single} {four} {speedup6}"
    );
    assert!(single > 2200.0, "single-grid {single} (paper 2395)");
}

#[test]
fn fig14b_tflops_band() {
    let p = paper_nsu3d_72m();
    let b = simulate_cycle(&p, &m(), &RunConfig::mpi(2008, Fabric::NumaLink4)).unwrap();
    let tf = b.flops_per_second() / 1e12;
    assert!((2.4..=3.4).contains(&tf), "6-level {tf} TF (paper 2.8)");
}

#[test]
fn fig15_hybrid_efficiencies() {
    let p = paper_nsu3d_72m();
    let base = simulate_cycle(
        &p,
        &m(),
        &RunConfig::mpi(128, Fabric::NumaLink4).spread_over(4),
    )
    .unwrap()
    .seconds;
    let e = |threads: usize, fabric: Fabric| {
        base / simulate_cycle(
            &p,
            &m(),
            &RunConfig::hybrid(128, fabric, threads).spread_over(4),
        )
        .unwrap()
        .seconds
    };
    assert!((e(2, Fabric::NumaLink4) - 0.984).abs() < 0.02);
    assert!((e(4, Fabric::NumaLink4) - 0.872).abs() < 0.03);
    let ib1 = e(1, Fabric::InfiniBand);
    assert!(
        ib1 > 0.90 && ib1 < 1.0,
        "IB pure-MPI eff {ib1} (paper 0.957)"
    );
}

#[test]
fn fig16_ib_collapse_is_multigrid_specific() {
    let p = paper_nsu3d_72m();
    let run_nl = RunConfig::hybrid(2008, Fabric::NumaLink4, 2);
    let run_ib = RunConfig::hybrid(2008, Fabric::InfiniBand, 2);
    let ratio = |prof: &columbia_machine::CycleProfile| {
        simulate_cycle(prof, &m(), &run_ib).unwrap().seconds
            / simulate_cycle(prof, &m(), &run_nl).unwrap().seconds
    };
    let single = ratio(&p.truncated(1));
    let mg = ratio(&p);
    assert!(single < 1.10, "single grid IB/NL {single}");
    assert!(mg > 1.30, "multigrid IB/NL {mg}");
}

#[test]
fn fig17_18_degradation_grows_with_levels() {
    let p = paper_nsu3d_72m();
    let run_nl = RunConfig::hybrid(2008, Fabric::NumaLink4, 2);
    let run_ib = RunConfig::hybrid(2008, Fabric::InfiniBand, 2);
    let mut prev = 1.0;
    for nlev in [2usize, 3, 4, 5, 6] {
        let prof = p.truncated(nlev);
        let r = simulate_cycle(&prof, &m(), &run_ib).unwrap().seconds
            / simulate_cycle(&prof, &m(), &run_nl).unwrap().seconds;
        assert!(
            r >= prev - 0.02,
            "IB/NL ratio must grow with levels: {nlev} -> {r} (prev {prev})"
        );
        prev = r;
    }
    assert!(prev > 1.3, "6-level IB/NL ratio {prev}");
}

#[test]
fn fig19_coarse_levels_alone_are_fabric_insensitive() {
    let p = paper_nsu3d_72m();
    for level in [1usize, 2] {
        let prof = p.single_level(level);
        let nl_t = simulate_cycle(&prof, &m(), &RunConfig::hybrid(2008, Fabric::NumaLink4, 2))
            .unwrap()
            .seconds;
        let ib_t = simulate_cycle(&prof, &m(), &RunConfig::hybrid(2008, Fabric::InfiniBand, 2))
            .unwrap()
            .seconds;
        let ratio = ib_t / nl_t;
        assert!(
            ratio < 1.25,
            "level {level} alone should degrade similarly on both fabrics: {ratio}"
        );
    }
}

#[test]
fn fig20_openmp_breaks_slope_at_128() {
    let p = paper_cart3d_25m();
    let omp = |n: usize| {
        simulate_cycle(
            &p,
            &m(),
            &RunConfig {
                ncpus: n,
                fabric: Fabric::NumaLink4,
                model: ProgModel::PureOpenMp,
                min_nodes: 1,
            },
        )
        .unwrap()
        .seconds
    };
    let mpi = |n: usize| nl(&p, n);
    // Below 128 CPUs OpenMP tracks MPI; above, it pays the coarse-mode
    // derate.
    let r64 = omp(64) / mpi(64);
    let r504 = omp(504) / mpi(504);
    assert!(r64 < 1.02, "OMP should match MPI below 128 CPUs: {r64}");
    assert!(
        r504 > 1.01 && r504 < 1.10,
        "OMP slope break above 128 CPUs: {r504}"
    );
    // Pure OpenMP cannot leave the node.
    assert!(matches!(
        simulate_cycle(
            &p,
            &m(),
            &RunConfig {
                ncpus: 1024,
                fabric: Fabric::NumaLink4,
                model: ProgModel::PureOpenMp,
                min_nodes: 1,
            }
        ),
        Err(SimError::OpenMpSingleNode { .. })
    ));
}

#[test]
fn fig21_cart3d_multigrid_rolls_off() {
    let p = paper_cart3d_25m();
    let sg = p.truncated(1);
    let speedup =
        |prof: &columbia_machine::CycleProfile, n: usize| 32.0 * nl(prof, 32) / nl(prof, n);
    let mg2016 = speedup(&p, 2016);
    let sg2016 = speedup(&sg, 2016);
    assert!(
        sg2016 > mg2016 * 1.10,
        "single grid {sg2016} should clearly beat multigrid {mg2016} at 2016"
    );
    // Roll-off appears late (paper: not really until above 1024).
    let mg688 = speedup(&p, 688);
    assert!(
        mg688 > 0.88 * 688.0,
        "688-CPU multigrid should still be near-ideal: {mg688}"
    );
    // TFLOP/s band.
    let b = simulate_cycle(&p, &m(), &RunConfig::mpi(2016, Fabric::NumaLink4)).unwrap();
    let tf = b.flops_per_second() / 1e12;
    assert!((2.0..=3.0).contains(&tf), "{tf} TF (paper ~2.4)");
}

#[test]
fn fig22_ib_dips_crossing_the_node_boundary() {
    let p = paper_cart3d_25m();
    let ib = |n: usize| {
        simulate_cycle(
            &p,
            &m(),
            &RunConfig::mpi(n, Fabric::InfiniBand)
                .spread_over(columbia_machine::cart3d_node_span(n)),
        )
        .unwrap()
        .seconds
    };
    let s496 = 32.0 * ib(32) / ib(496);
    let s508 = 32.0 * ib(32) / ib(508);
    assert!(
        s508 < s496,
        "IB at 508 CPUs (2 nodes) must under-perform 496 (1 node): {s508} vs {s496}"
    );
    // The 1524-rank limit ends the IB series.
    assert!(simulate_cycle(
        &p,
        &m(),
        &RunConfig::mpi(1524, Fabric::InfiniBand).spread_over(4)
    )
    .is_ok());
    assert!(matches!(
        simulate_cycle(&p, &m(), &RunConfig::mpi(2016, Fabric::InfiniBand)),
        Err(SimError::IbRankLimit { .. })
    ));
    assert_eq!(ib_rank_limit(4), 1524);
}

#[test]
fn fig14b_superlinear_speedup_shrinks_with_levels() {
    // Paper Figure 14(b): every NSU3D variant is *superlinear* at 2008
    // CPUs (cache effect of ~36k points/CPU), and the superlinearity
    // shrinks as multigrid levels are added because coarse levels
    // communicate more per flop.
    let p = paper_nsu3d_72m();
    let speedup = |prof: &columbia_machine::CycleProfile| 128.0 * nl(prof, 128) / nl(prof, 2008);
    let mut prev = f64::INFINITY;
    for nlev in [1usize, 4, 6] {
        let s = speedup(&p.truncated(nlev));
        assert!(
            s > 2008.0,
            "{nlev}-level speedup {s} at 2008 CPUs must stay superlinear"
        );
        assert!(
            s < prev,
            "{nlev}-level speedup {s} must be below the shallower hierarchy ({prev})"
        );
        prev = s;
    }
}

#[test]
fn sec5_sfc_coarsening_ratio_exceeds_seven() {
    // Paper §V: "reduction ratios of better than 7:1" for the single-pass
    // SFC sibling-collection coarsener on adapted Cart3D meshes.
    use columbia_cartesian::{build_octree, coarsen_mesh, CutCellConfig, Geometry, TriMesh};
    use columbia_mesh::Vec3;
    use columbia_sfc::CurveKind;

    let prof: Vec<(f64, f64)> = (0..=14)
        .map(|i| {
            let t = std::f64::consts::PI * i as f64 / 14.0;
            (-0.3 * t.cos(), 0.3 * t.sin())
        })
        .collect();
    let geom = Geometry::new(&[TriMesh::body_of_revolution(&prof, 16)]);
    // Production-like resolution: the body-adapted band is thin relative
    // to the uniform bulk, as in the paper's 25M-cell SSLV meshes.
    let config = CutCellConfig {
        min_level: 5,
        max_level: 6,
        origin: Vec3::new(-1.0, -1.0, -1.0),
        size: 2.0,
    };
    let tree = build_octree(&geom, &config);
    let fine = columbia_cartesian::extract_mesh(&tree, &geom, CurveKind::Hilbert, 0.1);
    let c = coarsen_mesh(&fine);
    let ratio = c.ratio(fine.ncells());
    assert!(
        ratio > 7.0,
        "SFC coarsening ratio {ratio} must beat the paper's 7:1"
    );
    // The coarse mesh must itself be coarsenable (multigrid hierarchy).
    let c2 = coarsen_mesh(&c.coarse);
    assert!(c2.ratio(c.coarse.ncells()) > 4.0);
}

#[test]
fn outlook_4016_cpus_requires_hybrid_infiniband() {
    // Paper §VI: >2048 CPUs must use InfiniBand, and the rank limit forces
    // hybrid MPI/OpenMP.
    let machine = MachineConfig::columbia_full();
    let p = paper_nsu3d_72m();
    assert!(matches!(
        simulate_cycle(&p, &machine, &RunConfig::mpi(4016, Fabric::NumaLink4)),
        Err(SimError::FabricSpan { .. })
    ));
    assert!(matches!(
        simulate_cycle(&p, &machine, &RunConfig::mpi(4016, Fabric::InfiniBand)),
        Err(SimError::IbRankLimit { .. })
    ));
    let hybrid = simulate_cycle(
        &p,
        &machine,
        &RunConfig::hybrid(4016, Fabric::InfiniBand, 4),
    );
    assert!(hybrid.is_ok(), "4 OMP threads satisfy the rank limit");
}
