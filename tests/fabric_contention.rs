//! Contention-fabric property and parity suite.
//!
//! The discrete-event interconnect (`columbia_machine::contention`) claims
//! four things, and this suite pins each one:
//!
//! 1. **Parity** — with ideal uplinks and no overlapping traffic the
//!    simulator collapses to the analytic `interconnect` closed form,
//!    bit-for-bit (within 1 ulp) at 2/4/8 ranks;
//! 2. **Fairness/conservation/monotonicity properties** — round-robin
//!    never starves a flow, every packet is delivered exactly once and
//!    FIFO per `(src, dst)`, and added traffic never speeds the base
//!    traffic up (per-packet in the synchronous round-robin regime,
//!    makespan-of-base under any arbiter on a shared link);
//! 3. **Determinism** — double runs are bit-identical under four fixed
//!    chaos seeds;
//! 4. **Executor integration** — selecting the contention regime reshapes
//!    only the event executor's virtual clock: payloads, `CommStats` and
//!    traces of a `ParallelMg` solve stay bit-identical to the analytic
//!    regime, and the emergent InfiniBand degradation exceeds the analytic
//!    ratio on the solver's traced traffic.

use columbia_bench::{mach_half, wing};
use columbia_comm::{flows_from_traces, ExecContext, Executor, FabricModel, RankTrace};
use columbia_machine::{
    analytic_makespan, makespan, simulate, Arbiter, Delivery, Fabric, LinkSpec, Packet, Topology,
};
use columbia_mesh::UnstructuredMesh;
use columbia_mg::CycleParams;
use columbia_rans::ParallelMg;
use columbia_rt::{fnv, Pcg32};

mod common;
use common::{digest_f64s, digest_stats, CHAOS_SEEDS};

fn digest_deliveries(deliveries: &[Delivery]) -> u64 {
    let mut h = fnv::OFFSET;
    for d in deliveries {
        h = fnv::word(h, d.packet.src as u64);
        h = fnv::word(h, d.packet.dst as u64);
        h = fnv::word(h, d.packet.bytes);
        h = fnv::word(h, d.packet.inject_s.to_bits());
        h = fnv::word(h, d.deliver_s.to_bits());
        h = fnv::word(h, d.order as u64);
    }
    h
}

/// The run's total `CommStats` per rank, then every rank's per-level
/// ledger.
fn digest_trace_ledgers(traces: &[RankTrace]) -> u64 {
    let mut h = digest_stats(&traces.iter().map(|t| t.stats.clone()).collect::<Vec<_>>());
    for t in traces {
        for (&level, s) in &t.per_level {
            h = fnv::word(h, level as u64);
            h = fnv::word(h, digest_stats(std::slice::from_ref(s)));
        }
    }
    h
}

const ALL_FABRICS: [Fabric; 3] = [Fabric::NumaLink4, Fabric::InfiniBand, Fabric::TenGigE];
const ALL_ARBITERS: [Arbiter; 3] = [Arbiter::RoundRobin, Arbiter::Priority, Arbiter::FairShare];

fn pkt(src: usize, dst: usize, bytes: u64, inject_s: f64) -> Packet {
    Packet {
        src,
        dst,
        bytes,
        inject_s,
    }
}

/// Distance in representable `f64`s between two non-negative finite times.
fn ulps_apart(a: f64, b: f64) -> u64 {
    assert!(a.is_finite() && b.is_finite() && a >= 0.0 && b >= 0.0);
    (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
}

/// Random traffic on a Columbia topology: every packet gets its own
/// source/destination/size and an inject time on a microsecond grid.
fn random_traffic(rng: &mut Pcg32, nranks: usize, npkts: usize) -> Vec<Packet> {
    (0..npkts)
        .map(|_| {
            let src = rng.gen_range(0usize..nranks);
            let mut dst = rng.gen_range(0usize..nranks - 1);
            if dst >= src {
                dst += 1;
            }
            let bytes = rng.gen_range(1u64..200_000);
            let inject_s = rng.gen_range(0u64..50) as f64 * 1e-6;
            pkt(src, dst, bytes, inject_s)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// 1. Parity: uncontended simulator == analytic closed form, to 1 ulp.
// ---------------------------------------------------------------------------

/// With ideal uplinks and every packet in its own one-second time slot
/// (no queueing anywhere), each delivery must land at the closed-form
/// `inject + latency(span) + bytes / bandwidth(span)` — the exact
/// expression `machine::interconnect` evaluates — within 1 ulp, at
/// 2/4/8 ranks on all three fabrics. A second run must digest
/// identically.
#[test]
fn uncontended_deliveries_match_the_analytic_interconnect_to_one_ulp() {
    for &n in &[2usize, 4, 8] {
        for fabric in ALL_FABRICS {
            let nodes = 2usize.min(fabric.max_nodes());
            let topo = Topology::uncontended(fabric, n, nodes);
            let mut packets = Vec::new();
            let mut slot = 0u64;
            for src in 0..n {
                for hop in [1usize, 2] {
                    let dst = (src + hop) % n;
                    if dst == src {
                        continue;
                    }
                    for bytes in [1u64, 4096, 1_000_000] {
                        packets.push(pkt(src, dst, bytes, slot as f64));
                        slot += 1;
                    }
                }
            }
            let deliveries = simulate(&topo, Arbiter::RoundRobin, &packets);
            assert_eq!(deliveries.len(), packets.len());
            for d in &deliveries {
                let span = if topo.node_of(d.packet.src) == topo.node_of(d.packet.dst) {
                    1
                } else {
                    nodes
                };
                let expect = d.packet.inject_s
                    + (fabric.latency(span) + d.packet.bytes as f64 / fabric.bandwidth(span));
                assert!(
                    ulps_apart(d.deliver_s, expect) <= 1,
                    "{fabric:?} n={n} {}->{} ({} B): sim {} vs analytic {}",
                    d.packet.src,
                    d.packet.dst,
                    d.packet.bytes,
                    d.deliver_s,
                    expect
                );
            }
            let again = simulate(&topo, Arbiter::RoundRobin, &packets);
            assert_eq!(
                digest_deliveries(&deliveries),
                digest_deliveries(&again),
                "uncontended double run diverged ({fabric:?}, n={n})"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Properties: fairness, conservation/FIFO, monotonicity.
// ---------------------------------------------------------------------------

columbia_rt::props! {
    config: columbia_rt::props::Config::with_cases(48);

    /// Round-robin starves nobody: with equal-size backlogged flows on
    /// one shared link, every flow's first delivery lands within the
    /// first full round, and the last deliveries of all flows sit within
    /// one round of each other.
    fn prop_round_robin_starves_no_flow(
        nflows in 2usize..6,
        msgs in 2usize..6,
        bytes in 100u64..5000,
    ) {
        let spec = LinkSpec {
            latency_s: 1e-6,
            bandwidth_bps: 1e9,
            capacity_msgs: usize::MAX,
        };
        let topo = Topology::shared_link(nflows, spec);
        let mut packets = Vec::new();
        for f in 0..nflows {
            for _ in 0..msgs {
                packets.push(pkt(f, nflows, bytes, 0.0));
            }
        }
        let deliveries = simulate(&topo, Arbiter::RoundRobin, &packets);
        let per = spec.service_s(bytes);
        let round = nflows as f64 * per;
        let mut first = vec![f64::INFINITY; nflows];
        let mut last = vec![0.0f64; nflows];
        for d in &deliveries {
            let f = d.packet.src;
            first[f] = first[f].min(d.deliver_s);
            last[f] = last[f].max(d.deliver_s);
        }
        for (f, &t) in first.iter().enumerate() {
            assert!(
                t <= round * (1.0 + 1e-9),
                "flow {f} first delivery {t} misses the first round {round}"
            );
        }
        let spread = last.iter().cloned().fold(0.0f64, f64::max)
            - last.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            spread <= round * (1.0 + 1e-9),
            "per-flow completion spread {spread} exceeds one round {round}"
        );
    }

    /// Conservation and per-flow FIFO on the full Columbia topology:
    /// every packet comes back exactly once and in input order, delivery
    /// sequence numbers are a permutation, nothing is delivered before
    /// its inject, and packets of the same `(src, dst)` flow leave the
    /// fabric in the order they entered it.
    fn prop_conservation_and_per_flow_fifo(
        seed in 0u64..u64::MAX,
        nranks in 2usize..9,
        npkts in 1usize..40,
        fabric_idx in 0usize..3,
        nodes in 1usize..5,
        arb_idx in 0usize..3,
    ) {
        let fabric = ALL_FABRICS[fabric_idx];
        let topo = Topology::columbia(fabric, nranks, nodes);
        let mut rng = Pcg32::seed_from_u64(seed);
        let packets = random_traffic(&mut rng, nranks, npkts);
        let deliveries = simulate(&topo, ALL_ARBITERS[arb_idx], &packets);

        assert_eq!(deliveries.len(), packets.len(), "packets lost or duplicated");
        let mut seen_orders = vec![false; deliveries.len()];
        for (i, d) in deliveries.iter().enumerate() {
            assert_eq!(d.packet, packets[i], "packet {i} came back altered");
            assert!(
                !std::mem::replace(&mut seen_orders[d.order], true),
                "delivery order {} assigned twice",
                d.order
            );
            assert!(
                d.deliver_s > d.packet.inject_s,
                "packet {i} delivered at {} before its inject {}",
                d.deliver_s,
                d.packet.inject_s
            );
        }

        // FIFO per flow: the fabric enqueues a flow's packets by
        // (inject time, input index) and every hop's port is a FIFO, so
        // delivery sequence numbers must increase along that order.
        let mut by_flow: std::collections::BTreeMap<(usize, usize), Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, p) in packets.iter().enumerate() {
            by_flow.entry((p.src, p.dst)).or_default().push(i);
        }
        for (flow, mut idxs) in by_flow {
            idxs.sort_by_key(|&i| (packets[i].inject_s.to_bits(), i));
            for w in idxs.windows(2) {
                assert!(
                    deliveries[w[0]].order < deliveries[w[1]].order,
                    "flow {flow:?} reordered: packet {} (order {}) should precede {} (order {})",
                    w[0],
                    deliveries[w[0]].order,
                    w[1],
                    deliveries[w[1]].order
                );
            }
        }
    }

    /// Per-packet monotonicity in the synchronous round-robin regime:
    /// base flows `0..f` and extra flows `f..f+g` all backlogged at
    /// t = 0 on one shared link. Round-robin visits the base ports in an
    /// unchanged cyclic order — the extra ports only insert services —
    /// so no base packet is ever delivered earlier than without the
    /// extra traffic.
    fn prop_added_flows_never_speed_up_base_packets(
        seed in 0u64..u64::MAX,
        nbase in 1usize..4,
        nextra in 1usize..4,
        msgs in 1usize..5,
    ) {
        let nflows = nbase + nextra;
        let spec = LinkSpec {
            latency_s: 2e-6,
            bandwidth_bps: 0.5e9,
            capacity_msgs: usize::MAX,
        };
        let topo = Topology::shared_link(nflows, spec);
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut base = Vec::new();
        for f in 0..nbase {
            for _ in 0..msgs {
                base.push(pkt(f, nflows, rng.gen_range(1u64..100_000), 0.0));
            }
        }
        let mut extras = base.clone();
        for f in nbase..nflows {
            for _ in 0..msgs {
                extras.push(pkt(f, nflows, rng.gen_range(1u64..100_000), 0.0));
            }
        }
        let solo = simulate(&topo, Arbiter::RoundRobin, &base);
        let mixed = simulate(&topo, Arbiter::RoundRobin, &extras);
        for i in 0..base.len() {
            assert!(
                mixed[i].deliver_s >= solo[i].deliver_s,
                "base packet {i} sped up: {} -> {} with extra traffic",
                solo[i].deliver_s,
                mixed[i].deliver_s
            );
        }
    }

    /// Makespan monotonicity under any arbiter and arbitrary injects:
    /// a single work-conserving link can never finish the base traffic
    /// earlier because extra traffic was added — whichever base packet
    /// gets displaced pushes the base completion time out. (Per-packet
    /// monotonicity is deliberately NOT claimed here: early extra
    /// traffic can reshuffle arbiter rounds so one base packet lands
    /// earlier while another absorbs the delay.)
    fn prop_added_traffic_never_shrinks_the_base_makespan(
        seed in 0u64..u64::MAX,
        nbase in 1usize..12,
        nextra in 1usize..12,
        arb_idx in 0usize..3,
        capacity in 1usize..4,
    ) {
        let nflows = 5;
        let spec = LinkSpec {
            latency_s: 1e-6,
            bandwidth_bps: 1e9,
            capacity_msgs: capacity,
        };
        let topo = Topology::shared_link(nflows, spec);
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut traffic = |n: usize| -> Vec<Packet> {
            (0..n)
                .map(|_| {
                    pkt(
                        rng.gen_range(0usize..nflows),
                        nflows,
                        rng.gen_range(1u64..50_000),
                        rng.gen_range(0u64..30) as f64 * 1e-6,
                    )
                })
                .collect()
        };
        let base = traffic(nbase);
        let mut with_extras = base.clone();
        with_extras.extend(traffic(nextra));
        let arb = ALL_ARBITERS[arb_idx];
        let solo_ms = makespan(&simulate(&topo, arb, &base));
        let mixed = simulate(&topo, arb, &with_extras);
        let mixed_base_ms = makespan(&mixed[..base.len()]);
        assert!(
            mixed_base_ms >= solo_ms * (1.0 - 1e-12),
            "base makespan shrank from {solo_ms} to {mixed_base_ms} under {arb:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// 3. Determinism: bit-identical double runs under the chaos seeds.
// ---------------------------------------------------------------------------

/// The simulator's output is a pure function of (topology, arbiter,
/// packet list): for each chaos seed's random burst, on every fabric and
/// arbiter, two runs must produce byte-identical deliveries.
#[test]
fn simulator_double_run_is_bit_identical_under_chaos_seeds() {
    for seed in CHAOS_SEEDS {
        let mut rng = Pcg32::seed_from_u64(seed);
        let packets = random_traffic(&mut rng, 8, 64);
        for fabric in ALL_FABRICS {
            let topo = Topology::columbia(fabric, 8, 2);
            for arb in ALL_ARBITERS {
                let a = simulate(&topo, arb, &packets);
                let b = simulate(&topo, arb, &packets);
                assert_eq!(
                    digest_deliveries(&a),
                    digest_deliveries(&b),
                    "double run diverged (seed {seed:#x}, {fabric:?}, {arb:?})"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Executor integration: the contention regime reshapes only the clock.
// ---------------------------------------------------------------------------

/// The world sizes every integration test covers.
const PARITY_WIDTHS: [usize; 3] = [2, 4, 8];

/// `cycles` W-cycles of a `levels`-level `ParallelMg` solve of `mesh` on
/// `n` ranks under `ctx`: the residual history and the teardown ledgers.
fn solve(
    mesh: &UnstructuredMesh,
    levels: usize,
    cycles: usize,
    n: usize,
    mut ctx: ExecContext,
) -> (Vec<f64>, Vec<RankTrace>) {
    let pmg = ParallelMg::new(mesh, mach_half(), n, levels);
    let (history, traces) = pmg.solve(&CycleParams::default(), 4.0, cycles, &mut ctx);
    (history.residuals, traces)
}

/// Selecting `FabricModel::Contention` must not change a single payload,
/// counter or ledger bit — only the event executor's virtual wakeup
/// times. On the thread backend the selection is a documented no-op.
#[test]
fn contention_regime_is_payload_identical_to_analytic() {
    let mesh = wing(900);
    for n in PARITY_WIDTHS {
        for exec in [Executor::Events, Executor::Threads] {
            let ctx = || ExecContext::default().with_executor(exec);
            let analytic = solve(&mesh, 3, 2, n, ctx());
            let contended = solve(
                &mesh,
                3,
                2,
                n,
                ctx().with_fabric_model(FabricModel::Contention),
            );
            assert_eq!(
                digest_f64s(analytic.0.iter()),
                digest_f64s(contended.0.iter()),
                "residual history diverged under contention ({exec:?}, n={n})"
            );
            assert_eq!(
                digest_trace_ledgers(&analytic.1),
                digest_trace_ledgers(&contended.1),
                "ledgers diverged under contention ({exec:?}, n={n})"
            );
        }
    }
}

/// Double runs under the contention regime stay bit-identical (the
/// fabric clock is consulted only by the token holder, so its state is a
/// pure function of the send history).
#[test]
fn contention_regime_double_run_is_bit_identical() {
    let mesh = wing(900);
    let ctx = || {
        ExecContext::default()
            .with_executor(Executor::Events)
            .with_fabric_model(FabricModel::Contention)
    };
    for n in PARITY_WIDTHS {
        let a = solve(&mesh, 2, 2, n, ctx());
        let b = solve(&mesh, 2, 2, n, ctx());
        assert_eq!(
            digest_f64s(a.0.iter()),
            digest_f64s(b.0.iter()),
            "contention double run diverged at n={n}"
        );
        assert_eq!(
            digest_trace_ledgers(&a.1),
            digest_trace_ledgers(&b.1),
            "contention double-run ledgers diverged at n={n}"
        );
    }
}

/// The acceptance pin on *real traced traffic*: replaying the ledgers of
/// an 8-rank `ParallelMg` solve (2,744-point wing, 3 levels, 2 W-cycles)
/// through the contended Columbia topologies, the InfiniBand-vs-NUMAlink
/// slowdown must exceed what the analytic closed form predicts — the
/// paper's fig15/fig21 degradation emerges from uplink queueing, it is
/// not fitted.
#[test]
fn traced_halo_traffic_shows_emergent_infiniband_degradation() {
    let ctx = ExecContext::default().with_executor(Executor::Events);
    let (_, traces) = solve(&wing(2500), 3, 2, 8, ctx);
    let flows = flows_from_traces(&traces);
    assert!(!flows.is_empty(), "traced solve produced no traffic");

    let contended = |fabric: Fabric| {
        let topo = Topology::columbia(fabric, 8, 2);
        makespan(&simulate(&topo, Arbiter::RoundRobin, &flows))
    };
    let cont_ratio = contended(Fabric::InfiniBand) / contended(Fabric::NumaLink4);
    let ana_ratio = analytic_makespan(Fabric::InfiniBand, 2, &flows)
        / analytic_makespan(Fabric::NumaLink4, 2, &flows);
    assert!(
        cont_ratio > ana_ratio,
        "IB degradation not emergent: contended ratio {cont_ratio} <= analytic {ana_ratio}"
    );
}
