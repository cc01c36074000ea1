//! What the suites share. The digests serve the bit-identity suites
//! (`exec_context`, `executor_parity`, `fabric_contention`); the golden
//! registry's values (`tests/goldens.txt`) were recorded with exactly these
//! byte orders and on [`sphere_mesh`], so none of them may change.
//! [`EXECUTORS`] drives every suite whose worlds must hold on both backends. Each suite uses a subset, hence the
//! `dead_code` allowance.
#![allow(dead_code)]

use columbia_cartesian::{build_octree, extract_mesh, CartMesh, CutCellConfig, Geometry, TriMesh};
use columbia_comm::{CommStats, ExecContext, Executor, RankTrace};
use columbia_mesh::Vec3;
use columbia_rt::fnv;
use columbia_sfc::CurveKind;

/// Both `run_world` backends. A suite that pins bits through a world runs
/// it on each; nothing selects the backend outside the code.
pub const EXECUTORS: [Executor; 2] = [Executor::Threads, Executor::Events];

/// Four fixed seeds for the severe fault profile: the comm-chaos suites
/// run all of them, the solver suites one each.
pub const CHAOS_SEEDS: [u64; 4] = [0xC0FFEE, 1, 0xBADC0DE, 0x5EED_2016];

/// The clean context on `exec`.
pub fn on(exec: Executor) -> ExecContext {
    ExecContext::default().with_executor(exec)
}

/// FNV-1a over the bit patterns of a stream of doubles.
pub fn digest_f64s<'a>(vals: impl Iterator<Item = &'a f64>) -> u64 {
    vals.fold(fnv::OFFSET, |h, v| fnv::word(h, v.to_bits()))
}

/// FNV-1a over every named counter and per-peer ledger of each rank.
pub fn digest_stats(stats: &[CommStats]) -> u64 {
    let mut h = fnv::OFFSET;
    for s in stats {
        for (name, v) in s.counter_pairs() {
            h = fnv::bytes(h, name.as_bytes());
            h = fnv::word(h, v);
        }
        for (peer, msgs, bytes) in s.peers() {
            h = fnv::word(h, peer as u64);
            h = fnv::word(h, msgs);
            h = fnv::word(h, bytes);
        }
    }
    h
}

/// The run's total `CommStats` per rank.
pub fn digest_trace_totals(traces: &[RankTrace]) -> u64 {
    digest_stats(&traces.iter().map(|t| t.stats.clone()).collect::<Vec<_>>())
}

/// [`digest_trace_totals`], then every rank's per-level ledger.
pub fn digest_trace_ledgers(traces: &[RankTrace]) -> u64 {
    let mut h = digest_trace_totals(traces);
    for t in traces {
        for (&level, s) in &t.per_level {
            h = fnv::word(h, level as u64);
            h = fnv::word(h, digest_stats(std::slice::from_ref(s)));
        }
    }
    h
}

/// A small cut-cell mesh around a body of revolution (octree levels 3-4).
pub fn sphere_mesh() -> CartMesh {
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
