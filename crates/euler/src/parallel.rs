//! SFC domain-decomposed execution of the Euler solver.
//!
//! Cells are split into contiguous SFC segments (cut cells weighted 2.1x);
//! each rank owns its segment's cells plus ghost images across partition
//! boundaries; faces belong to the rank owning their `a` cell. One RK
//! stage interleaves: ghost state copy → local flux accumulation → ghost
//! residual/spectral-radius accumulation → stage update of owned cells.

use crate::level::{EulerLevel, RK5};
use crate::state::{State5, NVARS5};
use columbia_cartesian::{partition_cells, CartFace, CartMesh};
use columbia_comm::{decompose, run_world, Decomposition, ExecContext, Rank, RankTrace};
use columbia_rt::trace::SpanKey;

/// Per-rank local mesh + level.
pub struct LocalEuler {
    /// Local level (owned + ghost cells).
    pub level: EulerLevel,
    /// Owned-cell count (prefix of local numbering).
    pub n_owned: usize,
    /// Local → global cell map.
    pub local_to_global: Vec<u32>,
}

/// SFC-partition a mesh and build per-rank local levels.
pub fn build_local_levels(
    mesh: &CartMesh,
    nparts: usize,
    fs: State5,
    cfl: f64,
) -> (Decomposition, Vec<LocalEuler>) {
    let cp = partition_cells(mesh, nparts);
    let part: Vec<u32> = (0..mesh.ncells()).map(|c| cp.owner(c) as u32).collect();
    let pairs: Vec<(u32, u32)> = mesh
        .faces
        .iter()
        .filter(|f| !f.is_boundary())
        .map(|f| (f.a, f.b))
        .collect();
    let decomp = decompose(mesh.ncells(), &part, nparts, &pairs);

    let mut locals = Vec::with_capacity(nparts);
    for p in 0..nparts {
        let l2g = &decomp.local_to_global[p];
        let n_owned = decomp.n_owned[p];
        let mut local = CartMesh {
            max_level: mesh.max_level,
            ..Default::default()
        };
        for &g in l2g {
            let g = g as usize;
            local.centers.push(mesh.centers[g]);
            local.volumes.push(mesh.volumes[g]);
            local.kinds.push(mesh.kinds[g]);
            local.weights.push(mesh.weights[g]);
            local.wall_normal.push(mesh.wall_normal[g]);
            local.sfc_keys.push(mesh.sfc_keys[g]);
            local.levels.push(mesh.levels[g]);
            local.coords.push(mesh.coords[g]);
        }
        for f in &mesh.faces {
            if part[f.a as usize] as usize != p {
                continue;
            }
            let la = decomp.local_index(p, f.a).expect("owned cell missing");
            let lb = if f.is_boundary() {
                u32::MAX
            } else {
                decomp
                    .local_index(p, f.b)
                    .expect("face endpoint neither owned nor ghost")
            };
            local.faces.push(CartFace {
                a: la,
                b: lb,
                normal: f.normal,
            });
        }
        let mut level = EulerLevel::new(local, fs, cfl);
        for c in n_owned..l2g.len() {
            level.active[c] = false;
        }
        locals.push(LocalEuler {
            level,
            n_owned,
            local_to_global: l2g.clone(),
        });
    }
    (decomp, locals)
}

/// One parallel RK smoothing step.
pub fn parallel_rk_step(local: &mut LocalEuler, decomp: &Decomposition, rank: &mut Rank) {
    let plan = &decomp.plans[rank.rank()];
    let lvl = &mut local.level;
    lvl.u0.copy_from(&lvl.u);
    for (stage, &alpha) in RK5.iter().enumerate() {
        let tag = 100 + 10 * stage as u64;
        plan.exchange_copy_field(rank, tag, &mut lvl.u);
        lvl.accumulate_residual();
        // Ghost residuals and spectral radii ride ONE coalesced message
        // per peer (5 + 1 values per exchanged cell); the residual planes
        // and the `lam` plane are packed straight from the resident
        // storage — no AoS staging buffer.
        {
            let EulerLevel { res, lam, .. } = lvl;
            plan.exchange_add2_field(rank, tag + 1, res, &mut lam[..]);
        }
        lvl.finalize_residual();
        lvl.apply_stage(alpha);
    }
    let plan = &decomp.plans[rank.rank()];
    plan.exchange_copy_field(rank, 99, &mut local.level.u);
}

/// Parallel residual RMS (collective).
pub fn parallel_residual_rms(
    local: &mut LocalEuler,
    decomp: &Decomposition,
    rank: &mut Rank,
) -> f64 {
    let plan = &decomp.plans[rank.rank()];
    let lvl = &mut local.level;
    plan.exchange_copy_field(rank, 200, &mut lvl.u);
    lvl.accumulate_residual();
    plan.exchange_add_field(rank, 201, &mut lvl.res);
    lvl.finalize_residual();
    let (ss, cnt) = lvl.residual_sumsq();
    let gss = rank.allreduce_sum(ss);
    let gcnt = rank.allreduce_sum(cnt as f64);
    if gcnt == 0.0 {
        0.0
    } else {
        (gss / gcnt).sqrt()
    }
}

/// Run `steps` parallel RK steps; returns the assembled global state, the
/// global residual, and the per-rank teardown ledgers ([`RankTrace`] —
/// `traces[p].stats` carries rank `p`'s [`columbia_comm::CommStats`]).
///
/// `ctx` selects the run's capabilities: an attached fault plan injects
/// message drops/duplicates/delays and barrier stalls per its seed (the
/// retry/dedup/reorder protocol hides them from payloads, the stats carry
/// the fault-protocol counters); an enabled tracer records the run under
/// an `euler_smoothing` span — residual as a gauge, one `comm` child span
/// per rank. The default context runs clean with zero recording overhead.
pub fn run_parallel_smoothing(
    mesh: &CartMesh,
    fs: State5,
    cfl: f64,
    nparts: usize,
    steps: usize,
    ctx: &mut ExecContext,
) -> (Vec<State5>, f64, Vec<RankTrace>) {
    let (decomp, locals) = build_local_levels(mesh, nparts, fs, cfl);
    let locals = std::sync::Mutex::new(
        locals
            .into_iter()
            .map(Some)
            .collect::<Vec<Option<LocalEuler>>>(),
    );
    let (results, traces) = run_world(nparts, ctx, |rank| {
        let mut local = locals.lock().unwrap()[rank.rank()]
            .take()
            .expect("local level already taken");
        for _ in 0..steps {
            parallel_rk_step(&mut local, &decomp, rank);
        }
        let rms = parallel_residual_rms(&mut local, &decomp, rank);
        let owned: Vec<(u32, State5)> = (0..local.n_owned)
            .map(|c| (local.local_to_global[c], local.level.u.get(c)))
            .collect();
        (owned, rms)
    });
    let mut u = vec![[0.0; NVARS5]; mesh.ncells()];
    let mut rms = 0.0;
    for (owned, r) in results {
        for (g, v) in owned {
            u[g as usize] = v;
        }
        rms = r;
    }
    let tracer = ctx.tracer();
    tracer.scoped(SpanKey::new("euler_smoothing"), |t| {
        t.add("rk_steps", steps as u64);
        t.add("ranks", nparts as u64);
        t.gauge("residual_rms", rms);
        for tr in &traces {
            tr.record_to(t);
        }
    });
    (u, rms, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::freestream5;
    use columbia_cartesian::{build_octree, extract_mesh, CutCellConfig, Geometry, TriMesh};
    use columbia_mesh::Vec3;
    use columbia_sfc::CurveKind;

    fn sphere_mesh() -> CartMesh {
        let prof: Vec<(f64, f64)> = (0..=10)
            .map(|i| {
                let t = std::f64::consts::PI * i as f64 / 10.0;
                (-0.3 * t.cos(), 0.3 * t.sin())
            })
            .collect();
        let geom = Geometry::new(&[TriMesh::body_of_revolution(&prof, 10)]);
        let config = CutCellConfig {
            min_level: 3,
            max_level: 4,
            origin: Vec3::new(-1.0, -1.0, -1.0),
            size: 2.0,
        };
        let tree = build_octree(&geom, &config);
        extract_mesh(&tree, &geom, CurveKind::Hilbert, 0.1)
    }

    #[test]
    fn parallel_matches_serial_rk_steps() {
        let mesh = sphere_mesh();
        let fs = freestream5(0.5, 0.0, 0.0);
        let mut serial = EulerLevel::new(mesh.clone(), fs, 1.5);
        for _ in 0..3 {
            serial.rk_step();
        }
        let serial_rms = serial.residual_rms();
        for nparts in [2, 4] {
            let (u, rms, traces) =
                run_parallel_smoothing(&mesh, fs, 1.5, nparts, 3, &mut ExecContext::default());
            let mut max_diff = 0.0f64;
            for (c, su) in serial.u.to_aos().iter().enumerate() {
                for k in 0..NVARS5 {
                    max_diff = max_diff.max((u[c][k] - su[k]).abs());
                }
            }
            assert!(max_diff < 1e-9, "{nparts}-way diverged: {max_diff}");
            assert!((rms - serial_rms).abs() < 1e-10 * (1.0 + serial_rms));
            assert!(traces.iter().any(|t| t.stats.total_msgs() > 0));
        }
    }

    #[test]
    fn a_step_sends_what_the_profile_charges() {
        let mesh = sphere_mesh();
        let fs = freestream5(0.5, 0.0, 0.0);
        let sends = |steps| {
            let ctx = &mut ExecContext::default();
            let (_, _, traces) = run_parallel_smoothing(&mesh, fs, 1.5, 2, steps, ctx);
            traces
                .iter()
                .map(|t| t.stats.total_msgs())
                .collect::<Vec<_>>()
        };
        let (one, two) = (sends(1), sends(2));
        for p in 0..2 {
            let step = two[p] - one[p];
            assert_eq!(step, crate::profile::EXCHANGES_PER_STEP as u64, "rank {p}");
        }
    }

    #[test]
    fn traced_smoothing_matches_untraced() {
        let mesh = sphere_mesh();
        let fs = freestream5(0.5, 0.0, 0.0);
        let (u, rms, plain) =
            run_parallel_smoothing(&mesh, fs, 1.5, 2, 2, &mut ExecContext::default());
        let mut ctx = ExecContext::traced();
        let (ut, rmst, traces) = run_parallel_smoothing(&mesh, fs, 1.5, 2, 2, &mut ctx);
        assert_eq!(rms.to_bits(), rmst.to_bits());
        let bits = |u: &[State5]| u.iter().flatten().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&u), bits(&ut));
        for (p, tr) in plain.iter().zip(&traces) {
            assert_eq!(p.stats, tr.stats);
        }
        let trace = ctx.finish_trace();
        assert!(trace.find("euler_smoothing").is_some());
        assert!(trace.counter_total("comm.sends") > 0);
    }

    #[test]
    fn decomposition_covers_all_cells_and_faces() {
        let mesh = sphere_mesh();
        let fs = freestream5(0.5, 0.0, 0.0);
        let (_, locals) = build_local_levels(&mesh, 4, fs, 1.5);
        let owned: usize = locals.iter().map(|l| l.n_owned).sum();
        assert_eq!(owned, mesh.ncells());
        let faces: usize = locals.iter().map(|l| l.level.mesh.nfaces()).sum();
        assert_eq!(faces, mesh.nfaces());
    }
}
