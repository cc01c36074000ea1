//! Paper-scale worlds on the event executor.
//!
//! The paper's headline runs use 502–2016 CPUs of the Columbia machine;
//! the event executor's job is to host those rank counts *as real rank
//! programs* (not analytic models) on one development machine. Both
//! worlds run in every `cargo test`: a 512-rank multigrid world, and the
//! full 2016-rank configuration (the paper's largest NSU3D run) twice,
//! under a wall-clock sanity bound.

use columbia_comm::workload::HaloWorkload;
use columbia_comm::{ExecContext, Executor};
use std::time::{Duration, Instant};

/// Run one paper-scale world and sanity-check the report shape.
fn run_world_of(nranks: usize, spec: HaloWorkload) -> columbia_comm::workload::WorkloadReport {
    let ctx = ExecContext::default().with_executor(Executor::Events);
    let report = spec.run(nranks, &ctx);
    assert_eq!(
        report.traces.len(),
        nranks,
        "every rank must hand in a ledger"
    );
    assert_eq!(report.rms_history.len(), spec.cycles);
    assert!(report.summary.total_bytes > 0, "halo traffic must flow");
    assert!(
        report.rms_history.iter().all(|r| r.is_finite() && *r > 0.0),
        "residual history degenerate: {:?}",
        report.rms_history
    );
    // Every rank barriers once per cycle plus once at teardown, so the
    // world really ran the full multigrid cycle structure everywhere.
    for t in &report.traces {
        assert_eq!(t.stats.barriers() as usize, spec.cycles, "{:?}", t.rank);
        assert!(!t.per_level.is_empty(), "per-level attribution missing");
    }
    report
}

#[test]
fn event_executor_hosts_a_512_rank_world() {
    let report = run_world_of(512, HaloWorkload::smoke());
    // 512 ranks × 3 levels × 3 smooths/cycle × 2 one-cell halo messages,
    // plus collectives: the world moved real traffic (~80 KB of payload).
    assert!(report.summary.total_bytes > 50_000);
}

#[test]
fn event_executor_hosts_the_2016_rank_paper_world() {
    let start = Instant::now();
    let report = run_world_of(2016, HaloWorkload::smoke());
    let elapsed = start.elapsed();
    // Identical residuals on re-run: the paper world is replayable.
    let again = run_world_of(2016, HaloWorkload::smoke());
    assert_eq!(
        report
            .rms_history
            .iter()
            .map(|r| r.to_bits())
            .collect::<Vec<_>>(),
        again
            .rms_history
            .iter()
            .map(|r| r.to_bits())
            .collect::<Vec<_>>()
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
