//! Scalar-vs-SIMD kernel parity: the lane-interleaved batch kernels of
//! `columbia_linalg::soa` must be *bit-identical* to the scalar
//! references, at every layer — raw LU/tridiagonal solves, the bench
//! harness's kernel runners, a full `RansLevel` smoothing sweep, the
//! Cart3D Runge-Kutta stage, and a 2-rank domain-decomposed run.
//!
//! This is the contract that lets the SIMD path be the default while
//! every FNV golden in `tests/exec_context.rs` (recorded on the scalar
//! path) keeps holding verbatim.

use columbia_bench::kernels::{self, digest_states};
use columbia_cartesian::{build_octree, extract_mesh, CartMesh, CutCellConfig, Geometry, TriMesh};
use columbia_euler::state::freestream5;
use columbia_euler::{EulerLevel, EulerParams, EulerSolver};
use columbia_linalg::soa::vec_batch_zero;
use columbia_linalg::{BlockBatch, BlockMat, LinalgError, LANES};
use columbia_mesh::{wing_mesh, Vec3, WingMeshSpec};
use columbia_mg::CycleParams;
use columbia_rans::level::SolverParams;
use columbia_rans::{RansLevel, RansSolver};
use columbia_rt::env::KernelKind;
use columbia_rt::Pcg32;
use columbia_sfc::CurveKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

mod common;
use common::{on, EXECUTORS};

/// Counting allocator wrapping [`System`]: per-thread allocation counters
/// so the zero-alloc steady-state assertion below is immune to the test
/// harness running other tests on sibling threads.
struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn alloc_calls_on_this_thread() -> u64 {
    ALLOC_CALLS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn random_mat<const N: usize>(rng: &mut Pcg32, dominance: f64) -> BlockMat<N> {
    let mut m = BlockMat::from_fn(|_, _| rng.gen_f64() - 0.5);
    m.add_diagonal(dominance);
    m
}

/// LU + solve parity for one block width, across conditioning regimes:
/// dominant, barely-conditioned, and near-singular blocks must all give
/// bitwise-equal factorisations and solutions lane by lane.
fn lu_parity_prop<const N: usize>(seed: u64) {
    let mut rng = Pcg32::seed_from_u64(seed);
    for &dominance in &[4.0, 0.5, 1e-8] {
        for _ in 0..16 {
            let mats: Vec<BlockMat<N>> = (0..LANES)
                .map(|_| random_mat(&mut rng, dominance))
                .collect();
            let rhs: Vec<[f64; N]> = (0..LANES)
                .map(|_| std::array::from_fn(|_| rng.gen_f64() - 0.5))
                .collect();
            let mut x = vec_batch_zero::<N>();
            for l in 0..LANES {
                for k in 0..N {
                    x[k][l] = rhs[l][k];
                }
            }
            let ok = BlockBatch::from_lanes(&mats).lu_solve(&mut x);
            for l in 0..LANES {
                match mats[l].lu() {
                    Ok(slu) => {
                        assert!(ok[l], "lane {l} flagged singular, scalar succeeded");
                        let sx = slu.solve(&rhs[l]);
                        for k in 0..N {
                            assert_eq!(
                                sx[k].to_bits(),
                                x[k][l].to_bits(),
                                "lane {l} var {k} diverged (dominance {dominance})"
                            );
                        }
                    }
                    Err(LinalgError::Singular { .. }) => {
                        assert!(!ok[l], "lane {l} ok, scalar saw singular");
                    }
                }
            }
        }
    }
}

#[test]
fn lu_solve_parity_holds_for_5_and_6_variable_blocks() {
    lu_parity_prop::<5>(11);
    lu_parity_prop::<6>(12);
}

#[test]
fn singular_lane_is_flagged_without_poisoning_its_neighbours() {
    let mut rng = Pcg32::seed_from_u64(7);
    let mut mats: Vec<BlockMat<6>> = (0..LANES).map(|_| random_mat(&mut rng, 4.0)).collect();
    // Lane 2: a rank-deficient block (duplicate the first two rows).
    for c in 0..6 {
        let v = mats[2].get(0, c);
        mats[2].set(1, c, v);
    }
    let rhs = [1.0, -1.0, 0.5, 0.25, 2.0, -0.75];
    let mut x = vec_batch_zero::<6>();
    for (row, v) in x.iter_mut().zip(rhs) {
        *row = [v; LANES];
    }
    let ok = BlockBatch::from_lanes(&mats).lu_solve(&mut x);
    assert!(!ok[2]);
    for l in [0usize, 1, 3] {
        assert!(ok[l]);
        let sx = mats[l].lu().unwrap().solve(&rhs);
        for k in 0..6 {
            assert_eq!(sx[k].to_bits(), x[k][l].to_bits());
        }
    }
}

#[test]
fn bench_kernel_runners_agree_at_awkward_sizes() {
    // Partial final batches (n % LANES != 0) are where scatter/gather
    // bugs live; sweep the remainders.
    for n in [1usize, 3, 5, 9, 17] {
        let set = kernels::point_set(n, 99);
        let mut a = vec![[0.0; kernels::NB]; n];
        let mut b = vec![[0.0; kernels::NB]; n];
        kernels::point_lu_scalar(&set, &mut a);
        kernels::point_lu_simd(&set, &mut b);
        assert_eq!(digest_states(&a), digest_states(&b), "n = {n}");
    }
    for nlines in [1usize, 2, 5] {
        let set = kernels::line_set(nlines, 99);
        let mut a = vec![vec![[0.0; kernels::NB]; kernels::LINE_LEN]; nlines];
        let mut b = a.clone();
        let mut sc = columbia_linalg::BlockTridiag::new();
        let mut bc = columbia_linalg::TridiagBatch::new();
        kernels::line_tridiag_scalar(&set, &mut sc, &mut a);
        kernels::line_tridiag_simd(&set, &mut bc, &mut b);
        assert_eq!(
            kernels::digest_lines(&a),
            kernels::digest_lines(&b),
            "nlines = {nlines}"
        );
    }
}

fn rans_level(kernel: KernelKind) -> RansLevel {
    let mesh = wing_mesh(&WingMeshSpec {
        jitter: 0.0,
        ..WingMeshSpec::with_target_points(900)
    });
    let params = SolverParams {
        mach: 0.5,
        kernel: Some(kernel),
        ..Default::default()
    };
    RansLevel::new(mesh, params)
}

#[test]
fn rans_smoothing_sweeps_are_bit_identical_and_flop_matched() {
    let mut scalar = rans_level(KernelKind::Scalar);
    let mut simd = rans_level(KernelKind::Simd);
    for sweep in 0..4 {
        scalar.smooth_sweep();
        simd.smooth_sweep();
        assert_eq!(
            digest_states(&scalar.u.to_aos()),
            digest_states(&simd.u.to_aos()),
            "state diverged at sweep {sweep}"
        );
    }
    assert_eq!(
        scalar.flops.total(),
        simd.flops.total(),
        "ambient FLOP accounting must not depend on the kernel path"
    );
}

/// Satellite of the plane-resident migration: once the per-level scratch
/// (tridiagonal systems, batch buffers, the diag/lamsum pack buffer, the
/// cache-block gather arrays) has grown to its high-water mark, further
/// smoothing sweeps must not touch the allocator at all — on either
/// kernel path.
#[test]
fn steady_state_smoothing_sweeps_allocate_nothing() {
    for kernel in [KernelKind::Scalar, KernelKind::Simd] {
        // A dedicated thread isolates the thread-local counter from
        // whatever the harness allocates on this thread meanwhile.
        let delta = std::thread::spawn(move || {
            let mut lvl = rans_level(kernel);
            lvl.apply_bcs();
            // Warm-up: grows every lazily-sized scratch buffer.
            for _ in 0..2 {
                lvl.smooth_sweep();
            }
            let before = alloc_calls_on_this_thread();
            for _ in 0..3 {
                lvl.smooth_sweep();
            }
            alloc_calls_on_this_thread() - before
        })
        .join()
        .unwrap();
        assert_eq!(
            delta, 0,
            "steady-state smooth_sweep hit the allocator {delta} times ({kernel:?})"
        );
    }
}

/// The same contract one layer up: after a warm-up cycle has sized the
/// coarse levels' FAS fields (restriction accumulates into them in place:
/// no per-call vectors, no clone of the fine-to-coarse map, and the one
/// sweep scratch is lent down and back, not copied), the levels of a full
/// `RansSolver::cycle` — smoothing, restriction, prolongation — allocate
/// nothing, and neither does `fas_cycle` itself: with the tracer off it
/// builds no span key.
#[test]
fn steady_state_multigrid_cycle_allocates_nothing() {
    for kernel in [KernelKind::Scalar, KernelKind::Simd] {
        let delta = std::thread::spawn(move || {
            let mesh = wing_mesh(&WingMeshSpec {
                jitter: 0.0,
                ..WingMeshSpec::with_target_points(2000)
            });
            let params = SolverParams {
                mach: 0.5,
                kernel: Some(kernel),
                ..Default::default()
            };
            let mut solver = RansSolver::new(mesh, params, 3);
            assert_eq!(solver.nlevels(), 3);
            warm_cycle_allocations(|cp| solver.cycle(cp))
        })
        .join()
        .unwrap();
        assert_eq!(
            delta, 0,
            "steady-state RansSolver::cycle hit the allocator {delta} times ({kernel:?})"
        );
    }
}

/// `solve_to_tolerance` with the tracer off: once a warm-up cycle has
/// sized the levels' scratch, a solve allocates only its residual history
/// (no `cycle` or `mg_level` span keys).
#[test]
fn untraced_solve_allocates_only_its_history() {
    let (solve, history) = std::thread::spawn(|| {
        let mesh = wing_mesh(&WingMeshSpec {
            jitter: 0.0,
            ..WingMeshSpec::with_target_points(2000)
        });
        let params = SolverParams {
            mach: 0.5,
            ..Default::default()
        };
        let mut solver = RansSolver::new(mesh, params, 3);
        let cp = CycleParams::default();
        solver.cycle(&cp);
        let before = alloc_calls_on_this_thread();
        let h = solver.solve_fixed_cfl(&cp, 0.0, 4);
        let solve = alloc_calls_on_this_thread() - before;
        // The same pushes into a fresh vector: what the history costs.
        let before = alloc_calls_on_this_thread();
        let mut copy = Vec::new();
        for &r in &h.residuals {
            copy.push(std::hint::black_box(r));
        }
        std::hint::black_box(&copy);
        (solve, alloc_calls_on_this_thread() - before)
    })
    .join()
    .unwrap();
    assert!(history > 0);
    assert_eq!(
        solve, history,
        "untraced solve allocated beyond its history"
    );
}

/// Allocator calls on this thread of one `cycle` after a warm-up `cycle`.
fn warm_cycle_allocations(mut cycle: impl FnMut(&CycleParams)) -> u64 {
    let cp = CycleParams::default();
    cycle(&cp);
    let before = alloc_calls_on_this_thread();
    cycle(&cp);
    alloc_calls_on_this_thread() - before
}

fn sphere_mesh(max_level: u32) -> CartMesh {
    let prof: Vec<(f64, f64)> = (0..=12)
        .map(|i| {
            let t = std::f64::consts::PI * i as f64 / 12.0;
            (-0.3 * t.cos(), 0.3 * t.sin())
        })
        .collect();
    let geom = Geometry::new(&[TriMesh::body_of_revolution(&prof, 12)]);
    let config = CutCellConfig {
        min_level: 3,
        max_level,
        origin: Vec3::new(-1.0, -1.0, -1.0),
        size: 2.0,
    };
    let tree = build_octree(&geom, &config);
    extract_mesh(&tree, &geom, CurveKind::Hilbert, 0.1)
}

fn euler_level(kernel: KernelKind) -> EulerLevel {
    let mut lvl = EulerLevel::new(sphere_mesh(4), freestream5(0.8, 0.05, 0.0), 1.5);
    lvl.kernel = kernel;
    lvl
}

/// The Cart3D side of the same contract: after a warm-up cycle has sized
/// each coarse level's forcing and restricted state, the
/// levels of a full `EulerSolver::cycle` — RK smoothing with the per-cell
/// primitive cache, restriction, prolongation — allocate nothing (no
/// clone of the fine-to-coarse map, no per-call accumulators), and
/// `fas_cycle` adds none.
#[test]
fn steady_state_euler_cycle_allocates_nothing() {
    for kernel in [KernelKind::Scalar, KernelKind::Simd] {
        let delta = std::thread::spawn(move || {
            let mut solver = EulerSolver::new(sphere_mesh(6), EulerParams::default());
            assert_eq!(solver.nlevels(), 4);
            for lvl in &mut solver.levels {
                lvl.kernel = kernel;
            }
            warm_cycle_allocations(|cp| solver.cycle(cp))
        })
        .join()
        .unwrap();
        assert_eq!(
            delta, 0,
            "steady-state EulerSolver::cycle hit the allocator {delta} times ({kernel:?})"
        );
    }
}

#[test]
fn euler_rk_steps_are_bit_identical_and_flop_matched() {
    let mut scalar = euler_level(KernelKind::Scalar);
    let mut simd = euler_level(KernelKind::Simd);
    for step in 0..3 {
        scalar.rk_step();
        simd.rk_step();
        assert_eq!(
            digest_states(&scalar.u.to_aos()),
            digest_states(&simd.u.to_aos()),
            "state diverged at step {step}"
        );
    }
    assert_eq!(scalar.flops, simd.flops);
}

#[test]
fn two_rank_parallel_smoothing_agrees_across_kernel_paths() {
    let mesh = wing_mesh(&WingMeshSpec {
        jitter: 0.0,
        ..WingMeshSpec::with_target_points(900)
    });
    let run = |exec, kernel| {
        let params = SolverParams {
            mach: 0.5,
            kernel: Some(kernel),
            ..Default::default()
        };
        columbia_rans::parallel::run_parallel_smoothing(&mesh, params, 2, 3, &mut on(exec))
    };
    for exec in EXECUTORS {
        let (u_scalar, rms_scalar, _) = run(exec, KernelKind::Scalar);
        let (u_simd, rms_simd, _) = run(exec, KernelKind::Simd);
        assert_eq!(rms_scalar.to_bits(), rms_simd.to_bits(), "{exec:?}");
        assert_eq!(digest_states(&u_scalar), digest_states(&u_simd), "{exec:?}");
    }
}
