//! Cross-crate integration: the full NSU3D-style pipeline.
//!
//! Convergence and W-versus-V run at 3–4k points in every `cargo test`.
//! Their 8k-point variants take ~30 s in a debug build, so they are
//! `#[ignore]`d; CI's executor legs run them with `-- --include-ignored`.

use columbia_mesh::{extract_lines, wing_mesh, WingMeshSpec};
use columbia_mg::{CycleParams, CycleType};
use columbia_rans::parallel::{partition_mesh_line_aware, run_parallel_smoothing};
use columbia_rans::{RansSolver, SolverParams};

fn params() -> SolverParams {
    SolverParams {
        mach: 0.5,
        ..Default::default()
    }
}

/// Mesh, agglomerate and converge the wing at `points` vertices.
fn converges_to_4_orders(points: usize, max_cycles: usize) {
    let mesh = wing_mesh(&WingMeshSpec {
        jitter: 0.0,
        ..WingMeshSpec::with_target_points(points)
    });
    let mut solver = RansSolver::new(mesh, params(), 5);
    let h = solver.solve(&CycleParams::default(), 1e-11, max_cycles);
    assert!(
        h.orders_reduced() > 4.0,
        "pipeline failed to converge: {} orders",
        h.orders_reduced()
    );
    // Level hierarchy is genuinely multigrid.
    let sizes = solver.level_sizes();
    assert!(sizes.len() >= 4);
    assert!(sizes[0] / sizes[sizes.len() - 1] > 50);
}

/// `cycles` W-cycles reduce the residual at least as far as V-cycles.
fn w_cycle_beats_v_cycle(points: usize, cycles: usize) {
    let mesh = wing_mesh(&WingMeshSpec {
        jitter: 0.0,
        ..WingMeshSpec::with_target_points(points)
    });
    let mut v = RansSolver::new(mesh.clone(), params(), 4);
    let mut w = RansSolver::new(mesh, params(), 4);
    let hv = v.solve(
        &CycleParams {
            cycle: CycleType::V,
            ..Default::default()
        },
        0.0,
        cycles,
    );
    let hw = w.solve(
        &CycleParams {
            cycle: CycleType::W,
            ..Default::default()
        },
        0.0,
        cycles,
    );
    // The paper uses W exclusively for robustness/speed; allow a narrow
    // tolerance since V can tie on easy cases.
    assert!(
        hw.orders_reduced() >= hv.orders_reduced() - 0.4,
        "W {} vs V {}",
        hw.orders_reduced(),
        hv.orders_reduced()
    );
}

#[test]
fn mesh_to_converged_multigrid_solution() {
    converges_to_4_orders(4_000, 40);
}

#[test]
fn w_cycle_beats_v_cycle_on_larger_mesh() {
    w_cycle_beats_v_cycle(3_000, 10);
}

#[test]
#[ignore = "8k points; run with --include-ignored"]
fn mesh_to_converged_multigrid_solution_at_8k_points() {
    converges_to_4_orders(8_000, 50);
}

#[test]
#[ignore = "8k points; run with --include-ignored"]
fn w_cycle_beats_v_cycle_at_8k_points() {
    w_cycle_beats_v_cycle(8_000, 15);
}

#[test]
fn partitioned_execution_matches_serial_and_respects_lines() {
    let mesh = wing_mesh(&WingMeshSpec {
        ni: 24,
        nj: 5,
        nk: 12,
        nk_bl: 6,
        jitter: 0.0,
        ..Default::default()
    });
    let p = params();

    // Lines never broken by the partitioner.
    let part = partition_mesh_line_aware(&mesh, 6, p.line_threshold);
    let lines = extract_lines(&mesh, p.line_threshold).lines;
    for line in &lines {
        let p0 = part[line[0] as usize];
        assert!(line.iter().all(|&v| part[v as usize] == p0));
    }

    // Parallel smoothing equals serial smoothing.
    let mut serial = columbia_rans::RansLevel::new(mesh.clone(), p);
    serial.apply_bcs();
    for _ in 0..2 {
        serial.smooth_sweep();
    }
    let (u, _, traces) =
        run_parallel_smoothing(&mesh, p, 6, 2, &mut columbia_comm::ExecContext::default());
    let mut max_diff = 0.0f64;
    for (v, su) in serial.u.to_aos().iter().enumerate() {
        for k in 0..6 {
            max_diff = max_diff.max((u[v][k] - su[k]).abs());
        }
    }
    assert!(max_diff < 1e-8, "parallel/serial mismatch {max_diff}");

    assert!(traces.iter().any(|t| t.stats.total_msgs() > 0));
}

#[test]
fn measured_profile_drives_machine_model() {
    use columbia_machine::{simulate_cycle, Fabric, MachineConfig, RunConfig};
    let mesh = wing_mesh(&WingMeshSpec {
        jitter: 0.0,
        ..WingMeshSpec::with_target_points(10_000)
    });
    let mut solver = RansSolver::new(mesh, params(), 5);
    solver.solve(&CycleParams::default(), 0.0, 2);
    let profile = columbia_rans::measure_profile(
        &mut solver,
        &CycleParams::default(),
        8,
        72.0e6,
        "measured",
        &mut columbia_comm::ExecContext::default(),
    );
    profile.validate().unwrap();
    let m = MachineConfig::columbia_vortex();
    let t128 = simulate_cycle(&profile, &m, &RunConfig::mpi(128, Fabric::NumaLink4))
        .unwrap()
        .seconds;
    let t2008 = simulate_cycle(&profile, &m, &RunConfig::mpi(2008, Fabric::NumaLink4))
        .unwrap()
        .seconds;
    // Our operator is deliberately cheaper per point than NSU3D's
    // (first-order fluxes, fewer sweeps), so the measured profile lands
    // below the paper's 31.3 s — but must stay the same order of
    // magnitude and scale the same way.
    assert!(
        t128 > 2.0 && t128 < 80.0,
        "measured 128-CPU cycle {t128} s implausible (paper 31.3 s)"
    );
    let speedup = 128.0 * t128 / t2008;
    assert!(
        speedup > 1500.0,
        "measured profile should still scale well: {speedup}"
    );
}
