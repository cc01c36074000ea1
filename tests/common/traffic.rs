//! The traffic oracle: the wire contract of the distributed solvers, typed
//! once, and every rank's ledger predicted from it.
//!
//! What a world sends is a function of four things: the `Decomposition`
//! plans (who ghosts what of whom), the multigrid transfer schedules, the
//! values per entry of each exchange, and the program's exchange sequence.
//! [`rans_smoothing`], [`euler_smoothing`] and [`parallel_mg`] replay that
//! sequence over the plans and schedules with the widths below and hand
//! back the `RankTrace`s the run must end with; [`assert_ledgers`] checks a
//! run against them per rank, level and peer. The suites include this file
//! by path, each using a part of it.
#![allow(dead_code)]

use columbia_comm::{CommStats, Decomposition, RankTrace};
use columbia_euler::level::RK5;
use columbia_mg::{level_visits, CycleParams};
use columbia_rans::parallel_mg::ParallelMg;
use std::collections::{BTreeMap, BTreeSet};

/// Values per entry of each RANS exchange.
#[derive(Clone, Copy, Debug)]
pub struct RansWire {
    /// State copy, owner to ghost: the 6 conserved variables.
    pub state: usize,
    /// Residual add, ghost to owner: gradient (6) and residual (6).
    pub residual: usize,
    /// The sweep's coalesced add: gradient and residual (12), implicit
    /// diagonal block (36) and `lamsum` (1).
    pub sweep: usize,
    /// Fields the sweep's add carries in one message.
    pub sweep_fields: u64,
    /// Restriction, per remote fine→coarse pair: `vol·u` (6), `r` (6) and
    /// `vol` (1).
    pub restrict: usize,
    /// Prolongation, per remote pair: the correction (6).
    pub prolong: usize,
}

/// The RANS wire contract the solver sends.
pub const RANS: RansWire = RansWire {
    state: 6,
    residual: 6 + 6,
    sweep: 12 + 36 + 1,
    sweep_fields: 3,
    restrict: 6 + 6 + 1,
    prolong: 6,
};

/// Euler state copy: the 5 conserved variables.
pub const EULER_STATE: usize = 5;
/// Euler RK-stage add, coalesced: residual (5) and spectral radius (1).
pub const EULER_STAGE: usize = 5 + 1;
/// Euler norm add: the residual (5).
pub const EULER_NORM: usize = 5;

/// Every rank's predicted ledger, built one exchange at a time; events
/// land on the total and, inside a level context, on that level.
///
/// A prediction counts each pooled checkout as a `pool.hits`: which of
/// them miss follows buffer-capacity history, not the wire, so
/// [`assert_ledgers`] compares a run's hits + misses with it.
pub struct Traffic {
    ranks: Vec<RankTrace>,
    level: Option<usize>,
}

impl Traffic {
    pub fn new(nranks: usize) -> Self {
        let ranks = (0..nranks)
            .map(|rank| RankTrace {
                rank,
                ..Default::default()
            })
            .collect();
        Traffic { ranks, level: None }
    }

    /// Attribute what follows to `level` too.
    pub fn at(&mut self, level: usize) -> &mut Self {
        self.level = Some(level);
        self
    }

    fn tally(&mut self, rank: usize, event: impl Fn(&mut CommStats)) {
        let trace = &mut self.ranks[rank];
        event(&mut trace.stats);
        if let Some(l) = self.level {
            event(trace.per_level.entry(l).or_default());
        }
    }

    /// One message of `values` doubles from `from` to `to`. A pooled one
    /// is checked out of the sender's pool and recycled by the receiver;
    /// one of several `fields` counts as coalesced.
    fn message(&mut self, from: usize, to: usize, values: usize, pooled: bool, fields: u64) {
        let bytes = 8 * values;
        self.tally(from, |s| {
            s.record_send(to, bytes);
            if pooled {
                s.record_pool_hit();
            }
            if fields > 1 {
                s.record_coalesced(fields);
            }
        });
        self.tally(to, |s| {
            s.record_recv(bytes);
            if pooled {
                s.record_pool_recycled();
            }
        });
    }

    /// A copy: every owner sends each peer `width` values per vertex the
    /// peer ghosts.
    pub fn copy(&mut self, d: &Decomposition, width: usize) -> &mut Self {
        for (p, plan) in d.plans.iter().enumerate() {
            for (q, idx) in plan.send_peers() {
                self.message(p, q, width * idx.len(), true, 1);
            }
        }
        self
    }

    /// An add of `fields` fields: every rank sends each owner `width`
    /// values per ghost it holds of that owner.
    pub fn add(&mut self, d: &Decomposition, width: usize, fields: u64) -> &mut Self {
        for (p, plan) in d.plans.iter().enumerate() {
            for (q, idx) in plan.recv_peers() {
                self.message(p, q, width * idx.len(), true, fields);
            }
        }
        self
    }

    /// The two one-value collectives of a norm (the sum of squares, then
    /// the count), each a gather to rank 0 and a broadcast from it.
    pub fn norm(&mut self) -> &mut Self {
        for _ in 0..2 {
            for q in 1..self.ranks.len() {
                self.message(q, 0, 1, false, 1);
            }
            for q in 1..self.ranks.len() {
                self.message(0, q, 1, false, 1);
            }
        }
        self
    }

    /// RANS sweeps: the coalesced add, then the state copy.
    pub fn sweeps(&mut self, d: &Decomposition, wire: &RansWire, n: usize) -> &mut Self {
        for _ in 0..n {
            self.add(d, wire.sweep, wire.sweep_fields)
                .copy(d, wire.state);
        }
        self
    }

    /// A RANS residual evaluation: one add of gradient and residual.
    pub fn residual(&mut self, d: &Decomposition, wire: &RansWire) -> &mut Self {
        self.add(d, wire.residual, 2)
    }

    /// One restriction `l -> l + 1` and its prolongation: the fine
    /// residual, the fine→coarse pairs, the coarse state copy and
    /// residual, the coarse→fine corrections and the fine state copy.
    pub fn transfer(&mut self, pmg: &ParallelMg, l: usize, wire: &RansWire) -> &mut Self {
        let (fine, coarse) = (&pmg.decomps[l], &pmg.decomps[l + 1]);
        self.residual(fine, wire);
        let recvs = &pmg.transfers[l].recvs;
        for (c, from) in recvs.iter().enumerate() {
            for (f, targets) in from {
                self.message(*f, c, wire.restrict * targets.len(), true, 1);
            }
        }
        self.copy(coarse, wire.state).residual(coarse, wire);
        for (c, to) in recvs.iter().enumerate() {
            for (f, targets) in to {
                self.message(c, *f, wire.prolong * targets.len(), true, 1);
            }
        }
        self.copy(fine, wire.state)
    }

    pub fn finish(&mut self) -> Vec<RankTrace> {
        std::mem::take(&mut self.ranks)
    }
}

/// `rans::parallel::run_parallel_smoothing` over `d`: the ghost fill,
/// `sweeps` sweeps, the norm's residual and collectives.
pub fn rans_smoothing(d: &Decomposition, sweeps: usize) -> Vec<RankTrace> {
    let mut t = Traffic::new(d.nparts());
    t.copy(d, RANS.state).sweeps(d, &RANS, sweeps);
    t.residual(d, &RANS).norm().finish()
}

/// `euler::parallel::run_parallel_smoothing` over `d`: per RK step a copy
/// and a coalesced add per stage and a closing copy; then the norm's copy,
/// add and collectives.
pub fn euler_smoothing(d: &Decomposition, steps: usize) -> Vec<RankTrace> {
    let mut t = Traffic::new(d.nparts());
    for _ in 0..steps {
        for _ in RK5 {
            t.copy(d, EULER_STATE).add(d, EULER_STAGE, 2);
        }
        t.copy(d, EULER_STATE);
    }
    t.copy(d, EULER_STATE).add(d, EULER_NORM, 1).norm().finish()
}

/// `ParallelMg::solve` of `cycles` cycles under `wire`. Level `l` gets its
/// ghost fill, its sweeps and (level 0) the norm before the first cycle
/// and after each; a restriction and its prolongation go to their coarse
/// level. Per cycle, level `l` is visited `level_visits` times: pre- and
/// post-sweeps and one transfer each, or the coarse sweeps on the
/// coarsest level.
pub fn parallel_mg_with(
    pmg: &ParallelMg,
    cp: &CycleParams,
    cycles: usize,
    wire: &RansWire,
) -> Vec<RankTrace> {
    let (d, n) = (&pmg.decomps, pmg.nlevels());
    let mut t = Traffic::new(d[0].nparts());
    for (l, d) in d.iter().enumerate() {
        t.at(l).copy(d, wire.state);
    }
    t.at(0).residual(&d[0], wire).norm();
    let visits = level_visits(n, cp.cycle);
    for _ in 0..cycles {
        for (l, &v) in visits.iter().enumerate() {
            for _ in 0..v {
                if l + 1 == n {
                    t.at(l).sweeps(&d[l], wire, cp.coarse_sweeps);
                } else {
                    let sweeps = cp.pre_sweeps + cp.post_sweeps;
                    t.at(l).sweeps(&d[l], wire, sweeps);
                    t.at(l + 1).transfer(pmg, l, wire);
                }
            }
        }
        t.at(0).residual(&d[0], wire).norm();
    }
    t.finish()
}

/// [`parallel_mg_with`] the solver's wire contract.
pub fn parallel_mg(pmg: &ParallelMg, cp: &CycleParams, cycles: usize) -> Vec<RankTrace> {
    parallel_mg_with(pmg, cp, cycles, &RANS)
}

/// Assert a fault-free run's ledgers are the prediction, exactly: per
/// rank and level, the messages and bytes sent to each peer, the receives
/// and their bytes, the coalesced messages and fields, recycled buffers,
/// and pooled checkouts as hits + misses; no barrier and no fault event.
/// Every difference is listed, the first 20 in the panic.
pub fn assert_ledgers(got: &[RankTrace], want: &[RankTrace], at: &str) {
    assert_eq!(got.len(), want.len(), "{at}: ranks");
    let mut diffs = Vec::new();
    for (g, w) in got.iter().zip(want) {
        let rank = format!("{at}: rank {}", g.rank);
        diff(&rank, &g.stats, &w.stats, &mut diffs);
        let levels: BTreeSet<&usize> = g.per_level.keys().chain(w.per_level.keys()).collect();
        let none = CommStats::default();
        for l in levels {
            let (gl, wl) = (g.per_level.get(l), w.per_level.get(l));
            let (gl, wl) = (gl.unwrap_or(&none), wl.unwrap_or(&none));
            diff(&format!("{rank}, level {l}"), gl, wl, &mut diffs);
        }
    }
    assert!(
        diffs.is_empty(),
        "{} ledger value(s) differ from the wire contract:\n{}",
        diffs.len(),
        diffs[..diffs.len().min(20)].join("\n")
    );
}

/// Each difference between a ledger and its prediction, one line each.
fn diff(at: &str, got: &CommStats, want: &CommStats, out: &mut Vec<String>) {
    let mut peers: BTreeMap<usize, [(u64, u64); 2]> = BTreeMap::new();
    for (side, s) in [got, want].into_iter().enumerate() {
        for (peer, msgs, bytes) in s.peers() {
            peers.entry(peer).or_default()[side] = (msgs, bytes);
        }
    }
    for (peer, [(gm, gb), (wm, wb)]) in peers {
        if (gm, gb) != (wm, wb) {
            out.push(format!(
                "{at}, peer {peer}: sent {gm} msgs / {gb} B where {wm} / {wb} B was predicted"
            ));
        }
    }
    let pooled = got.pool().hits + got.pool().misses;
    for ((name, g), (_, w)) in got.counter_pairs().into_iter().zip(want.counter_pairs()) {
        let g = match name {
            "comm.sends" | "comm.send_bytes" | "comm.degree" | "pool.misses" => continue,
            "pool.hits" => pooled,
            _ => g,
        };
        if g != w {
            let name = if name == "pool.hits" {
                "pooled checkouts"
            } else {
                name
            };
            out.push(format!("{at}: {name} {g} where {w} was predicted"));
        }
    }
}
