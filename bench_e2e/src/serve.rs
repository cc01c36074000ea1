//! The database-server workloads: `db_serve_hot` and `db_serve_cold`.
//!
//! One client in a closed loop: the next 4096-query batch goes to
//! `DatabaseServer::serve_batch` when the previous one has been answered.
//! The table is the synthetic 17x97x49 fill of `columbia_bench::database`;
//! `--seed` drives the query storm.

use crate::ledger::{duration_ns, unaccounted_frac};
use crate::metrics::Outcome;
use crate::protocol::{repeat_setup, timed, window};
use crate::stats::{highest_supported_percentile, median};
use columbia_bench::database::{
    cold_queries, hot_queries, storm_policy, synthetic_entries, BATCH_LEN, DB_SHAPE,
};
use columbia_core::{
    digest_responses, AeroDatabase, DatabaseServer, Fallback, LookupError, Query, Response,
};
use columbia_rt::trace::{SpanKey, Tracer};
use std::time::Instant;

/// Batches in the generated storm; the timed loop walks it cyclically.
const STORM_BATCHES: usize = 1024;
const WARMUP_BATCHES: usize = 64;
/// Batches per block of the traced pass, which alternates plainly timed
/// and span-recorded blocks.
const TRACE_BLOCK: usize = 64;
/// Batches re-served after the window and checked against direct lookups.
const VERIFY_BATCHES: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Storm {
    /// 32 distinct flight conditions sampled over and over.
    Hot,
    /// Every query somewhere new in the envelope.
    Cold,
}

pub struct Service {
    db: AeroDatabase,
    server: DatabaseServer,
    queries: Vec<Query>,
}

/// The set-up of the server workloads: the table, the server and the
/// query storm.
pub fn service(storm: Storm, seed: u64) -> Service {
    let db = AeroDatabase::from_entries(&synthetic_entries()).expect("the synthetic fill is clean");
    // The serve policy is pinned here: 512-cell cache, strict fallback.
    let server = DatabaseServer::new(db.clone(), &storm_policy(Fallback::Strict));
    let n = STORM_BATCHES * BATCH_LEN;
    let queries = match storm {
        Storm::Hot => hot_queries(n, seed),
        Storm::Cold => cold_queries(n, seed),
    };
    Service {
        db,
        server,
        queries,
    }
}

/// Batch `i` of the storm, walking it cyclically.
fn batch(queries: &[Query], i: usize) -> &[Query] {
    let at = (i % STORM_BATCHES) * BATCH_LEN;
    &queries[at..at + BATCH_LEN]
}

impl Service {
    /// The no-cache row: every query a full trilinear table lookup.
    fn direct(&self, batch: &[Query]) -> Vec<Result<Response, LookupError>> {
        batch
            .iter()
            .map(|q| {
                self.db
                    .lookup_checked(q.deflection, q.mach, q.alpha)
                    .map(|(force, moment)| Response {
                        force,
                        moment,
                        degraded: false,
                    })
            })
            .collect()
    }

    /// Serve [`VERIFY_BATCHES`] more batches and count the queries whose
    /// batch digest differs from the direct lookups'; returns the direct
    /// path's seconds per query.
    fn verify(&mut self, out: &mut Outcome, from: usize) -> f64 {
        let mut direct_s = 0.0;
        let mut wrong = 0;
        for i in from..from + VERIFY_BATCHES {
            let (expect, dt) = timed(|| self.direct(batch(&self.queries, i)));
            direct_s += dt;
            let got = self.server.serve_batch(batch(&self.queries, i));
            if digest_responses(&got) != digest_responses(&expect) {
                wrong += BATCH_LEN;
            }
        }
        out.attempted += (VERIFY_BATCHES * BATCH_LEN) as u64;
        out.fail(
            wrong as u64,
            "served batches differ from the uncached direct lookups".into(),
        );
        direct_s / (VERIFY_BATCHES * BATCH_LEN) as f64
    }

    /// Errors and degraded answers since the server was built: a clean
    /// table under the strict policy must give none.
    fn check_clean(&self, out: &mut Outcome) {
        let s = self.server.stats();
        out.fail(
            s.errors + s.degraded,
            format!(
                "{} errors and {} degraded answers from a clean table",
                s.errors, s.degraded
            ),
        );
    }
}

pub fn run(storm: Storm, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (mut svc, setups) = repeat_setup(|| service(storm, seed));
    for i in 0..WARMUP_BATCHES {
        std::hint::black_box(svc.server.serve_batch(batch(&svc.queries, i)));
    }
    let mut next = WARMUP_BATCHES;
    let batches = window(seconds, 1, || {
        let (answers, dt) = timed(|| svc.server.serve_batch(batch(&svc.queries, next)));
        next += 1;
        std::hint::black_box(answers);
        dt
    });
    out.attempted = (batches.len() * BATCH_LEN) as u64;
    svc.verify(&mut out, next);
    svc.check_clean(&mut out);

    out.set_op_samples(&batches, BATCH_LEN as f64, "queries/s");
    out.set_setup_samples(&setups);
    out.note(format!(
        "closed loop, 1 client, {} timed batches of {BATCH_LEN} after {WARMUP_BATCHES} warm-up; set-up is the table, the server and the {STORM_BATCHES}-batch storm",
        batches.len()
    ));
    out
}

pub fn run_traced(storm: Storm, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut svc = service(storm, seed);
    for i in 0..WARMUP_BATCHES {
        std::hint::black_box(svc.server.serve_batch(batch(&svc.queries, i)));
    }
    // Alternate blocks of plainly timed and span-recorded batches on the
    // one server, so both see the same cache and the same clock drift.
    let mut tracer = Tracer::wall();
    let mut plain_s = Vec::new();
    let mut next = WARMUP_BATCHES;
    let before = svc.server.stats();
    window(seconds, 2, || {
        let t0 = Instant::now();
        for _ in 0..TRACE_BLOCK {
            let (answers, dt) = timed(|| svc.server.serve_batch(batch(&svc.queries, next)));
            next += 1;
            std::hint::black_box(answers);
            plain_s.push(dt);
        }
        for _ in 0..TRACE_BLOCK {
            tracer.begin(SpanKey::new("serve_batch"));
            let answers = svc.server.serve_batch(batch(&svc.queries, next));
            tracer.end();
            next += 1;
            std::hint::black_box(answers);
        }
        t0.elapsed().as_secs_f64()
    });
    let trace = tracer.finish();
    let traced_s: Vec<f64> = trace
        .spans
        .iter()
        .map(|s| duration_ns(s) as f64 * 1e-9)
        .collect();
    let after = svc.server.stats();
    let served = (plain_s.len() + traced_s.len()) * BATCH_LEN;
    out.attempted = served as u64;
    let uncached_s = svc.verify(&mut out, next);
    svc.check_clean(&mut out);

    let queries = (after.queries - before.queries) as f64;
    let lookups = ((after.cache_hits - before.cache_hits)
        + (after.cache_misses - before.cache_misses)) as f64;
    out.set(
        "core.server.hit_ratio",
        (after.cache_hits - before.cache_hits) as f64 / lookups.max(1.0),
    );
    out.set(
        "core.server.dedup_ratio",
        (after.dedup_hits - before.dedup_hits) as f64 / queries,
    );
    out.set(
        "core.server.evictions_per_query",
        (after.evictions - before.evictions) as f64 / queries,
    );
    out.set(
        "core.server.ns_per_query",
        1e9 * plain_s.iter().sum::<f64>() / (plain_s.len() * BATCH_LEN) as f64,
    );
    out.set("core.server.uncached_ns_per_query", 1e9 * uncached_s);
    // The tail: p99 when ten samples lie beyond it, else the highest
    // percentile that has them.
    let (p, tail) = highest_supported_percentile(&plain_s, &[0.5, 0.9, 0.99])
        .expect("two blocks of 64 batches support a median");
    out.set("core.server.batch_p99_us", 1e6 * tail);
    let (nd, nm, na) = DB_SHAPE;
    // Six load components per node, computed from the shape.
    out.set("core.server.table_bytes", (nd * nm * na * 6 * 8) as f64);
    out.set(
        "rt.trace_overhead_frac",
        median(&traced_s) / median(&plain_s) - 1.0,
    );
    // The span is the whole operation: nothing is left to account for.
    out.set(
        "ledger.unaccounted_frac",
        unaccounted_frac(&trace.spans, &[]),
    );
    out.note(format!(
        "{} plainly timed and {} span-recorded batches; tail row is p{:.1} of {} samples; uncached direct lookups {:.1} ns/query",
        plain_s.len(),
        traced_s.len(),
        100.0 * p,
        plain_s.len(),
        1e9 * uncached_s
    ));
    out.trace = Some(trace);
    out
}
