//! Paper-scale worlds on the event executor.
//!
//! The paper's headline runs use 502–2016 CPUs of the Columbia machine;
//! the event executor's job is to host those rank counts *as real rank
//! programs* (not analytic models) on one development machine. Both
//! worlds are `ParallelMg` solves of a 2,744-point wing (3 levels, one
//! W-cycle) and run in every `cargo test`: a 512-rank world, and the full
//! 2016-rank configuration (the paper's largest NSU3D run) twice, under a
//! wall-clock sanity bound. Every rank's ledger, per level and peer, is
//! the traffic oracle's prediction.

use columbia_bench::{mach_half, wing};
use columbia_comm::{ExecContext, Executor, RankTrace};
use columbia_mg::CycleParams;
use columbia_rans::ParallelMg;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

#[path = "common/traffic.rs"]
mod traffic;

const POINTS: usize = 2500;
const LEVELS: usize = 3;
const CYCLES: usize = 1;

/// Run one paper-scale world and check its residuals and ledgers: every
/// rank's, per level and peer, is the traffic oracle's.
fn run_world_of(nranks: usize) -> (Vec<f64>, Vec<RankTrace>) {
    let pmg = ParallelMg::new(&wing(POINTS), mach_half(), nranks, LEVELS);
    let nlevels = pmg.nlevels();
    let cp = CycleParams::default();
    let want = traffic::parallel_mg(&pmg, &cp, CYCLES);
    let mut ctx = ExecContext::default().with_executor(Executor::Events);
    let (history, traces) = pmg.solve(&cp, 4.0, CYCLES, &mut ctx);
    let rms = history.residuals;
    assert_eq!(rms.len(), CYCLES + 1, "initial norm plus one per cycle");
    assert!(
        rms.iter().all(|r| r.is_finite() && *r > 0.0),
        "residual history degenerate: {rms:?}"
    );
    traffic::assert_ledgers(&traces, &want, &format!("{nranks} ranks"));
    // And every level of the hierarchy carries traffic of its own.
    let levels: BTreeSet<usize> = traces
        .iter()
        .flat_map(|t| t.per_level.iter())
        .filter(|(_, s)| s.total_msgs() > 0)
        .map(|(&l, _)| l)
        .collect();
    assert_eq!(levels, (0..nlevels).collect(), "per-level attribution");
    (rms, traces)
}

#[test]
fn event_executor_hosts_a_512_rank_world() {
    run_world_of(512);
}

#[test]
fn event_executor_hosts_the_2016_rank_paper_world() {
    let start = Instant::now();
    let (rms, _) = run_world_of(2016);
    let elapsed = start.elapsed();
    // Identical residuals on re-run: the paper world is replayable.
    let (again, _) = run_world_of(2016);
    assert_eq!(
        rms.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
        again.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
    );
    // Wall-clock sanity: a cooperative 2016-rank world is thousands of
    // context hand-offs, not thousands of busy threads. Slower-than-usual
    // CI machines must not flake the suite, so past the expected bound we
    // only warn; the hard ceiling is generous enough that tripping it
    // means the scheduler regressed to spinning, not that the runner was
    // busy.
    if elapsed >= Duration::from_secs(300) {
        eprintln!(
            "warning: 2016-rank world took {elapsed:?} (expected < 300s); \
             slow runner or scheduler regression?"
        );
    }
    assert!(
        elapsed < Duration::from_secs(1800),
        "2016-rank world took {elapsed:?}; the cooperative scheduler has \
         almost certainly regressed to spinning"
    );
}
