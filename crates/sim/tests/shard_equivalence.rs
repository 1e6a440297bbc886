//! Equivalence net for the band count: a run split across row bands
//! must be *bit-identical* to the 1-band run — same drain cycle, same
//! per-flow latency statistics, same activity counters (including the
//! float link-millimeter accumulators), same per-link flit counts — at
//! every band count, on the mesh and on the torus (whose wrap links
//! carry flits across the outermost band boundary in one hop), from
//! light load to deep saturation.
//!
//! The 1-band network is the reference: it is itself held equal to the
//! independent `smart_testkit::RefNetwork` by smart-testkit's
//! `reference_equivalence.rs` (which also runs 2 bands against it
//! directly), so this net anchors every band count to the paper's
//! pipeline as that reference states it.

use proptest::prelude::*;
use smart_sim::route::SourceRoute;
use smart_sim::topology::{LinkId, Topology};
use smart_sim::{
    FlowId, FlowTable, ModulatedTraffic, Network, SimConfig, TemporalModel, TrafficSource,
};
use std::collections::HashMap;

/// Transpose routes + a uniform per-flow rate: `(x, y) → (y, x)` flows
/// cross every row-band boundary, and on the torus the long vertical
/// legs take the wrap seam — exactly the traffic that exercises
/// cross-shard handoff (mesh) and seam handoff (torus).
fn transpose_workload(topo: Topology, rate: f64) -> (FlowTable, Vec<(FlowId, f64)>) {
    let routes: Vec<(FlowId, SourceRoute)> = topo
        .nodes()
        .filter_map(|src| {
            let c = topo.coord(src);
            let dst = topo.node_at(smart_sim::topology::Coord { x: c.y, y: c.x });
            SourceRoute::xy(topo, src, dst).ok().map(|r| (src, r))
        })
        .enumerate()
        .map(|(i, (_, r))| (FlowId(i as u32), r))
        .collect();
    let rates = routes.iter().map(|(f, _)| (*f, rate)).collect();
    (FlowTable::mesh_baseline(topo, &routes), rates)
}

/// Run one engine over a fresh, identically seeded Bernoulli stream.
fn run(engine: &mut Network, cfg: SimConfig, rates: &[(FlowId, f64)], seed: u64, cycles: u64) {
    let mut traffic =
        ModulatedTraffic::new(TemporalModel::Steady, rates, cfg.flits_per_packet, seed);
    engine.run_with(&mut traffic, cycles);
    assert!(engine.drain(100_000), "engine failed to drain");
}

/// Assert every externally observable quantity of two finished runs
/// matches bit-for-bit.
fn assert_same_run(a: &Network, b: &Network, what: &str) {
    // Same wall clock: quiescence was reached on the same cycle.
    assert_eq!(a.cycle(), b.cycle(), "{what}: drain cycle");
    // Per-flow latency statistics — the delivered-packet multiset.
    assert_eq!(a.stats(), b.stats(), "{what}: stats");
    // Every activity counter, including the float link-millimeter
    // accumulators (bit-identical accumulation by construction).
    assert_eq!(a.counters(), b.counters(), "{what}: counters");
    // Per-link flit counts: the same flits crossed the same wires.
    let a_links: HashMap<LinkId, u64> = a.link_flit_counts().collect();
    let b_links: HashMap<LinkId, u64> = b.link_flit_counts().collect();
    assert_eq!(a_links, b_links, "{what}: link utilization");
}

/// Drive the 1-band network and the banded one at every band count in
/// {2, 4, 8} over the same traffic, then compare the finished runs.
fn assert_shards_agree(topo: Topology, rate: f64, seed: u64, cycles: u64) {
    let cfg = SimConfig {
        topology: topo,
        ..SimConfig::paper_4x4()
    };
    let (flows, rates) = transpose_workload(topo, rate);

    let mut serial = Network::new(cfg, flows.clone());
    run(&mut serial, cfg, &rates, seed, cycles);

    for k in [2usize, 4, 8] {
        let mut sharded = Network::banded(cfg, flows.clone(), k);
        assert_eq!(sharded.bands(), k.min(usize::from(topo.height())));
        run(&mut sharded, cfg, &rates, seed, cycles);
        assert_same_run(&serial, &sharded, &format!("k={k}"));
    }
}

proptest! {
    // Each case is four full simulations (serial + three shard counts);
    // keep the case count low but the coverage wide: rates span light
    // load to ~3x the transpose saturation point.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn mesh_shards_agree_from_light_load_to_saturation(
        seed in 0u64..1_000_000,
        rate_milli in prop::sample::select(vec![10u32, 40, 80, 150, 300]),
    ) {
        assert_shards_agree(
            Topology::mesh(8, 8),
            f64::from(rate_milli) / 1_000.0,
            seed,
            1_000,
        );
    }

    #[test]
    fn torus_shards_agree_across_the_wrap_seam(
        seed in 0u64..1_000_000,
        rate_milli in prop::sample::select(vec![10u32, 80, 300]),
    ) {
        assert_shards_agree(
            Topology::torus(8, 8),
            f64::from(rate_milli) / 1_000.0,
            seed,
            1_000,
        );
    }
}

/// Deterministic anchor well past saturation on the mesh: transpose on
/// 8×8 admits nowhere near 0.3 packets/cycle/flow, so the run spends
/// ~all its cycles with full VCs, live switch holds, and credit stalls
/// — the regime where a boundary-exchange ordering bug would surface.
#[test]
fn deep_saturation_anchor_mesh() {
    assert_shards_agree(Topology::mesh(8, 8), 0.3, 0xD1E7, 2_000);
}

/// The torus twin: wrap routes put band-0 ↔ band-(k−1) traffic on the
/// seam links, so the outermost shards exchange flits directly — the
/// one adjacency a mesh run never exercises.
#[test]
fn deep_saturation_anchor_torus() {
    assert_shards_agree(Topology::torus(8, 8), 0.3, 0x5EA1, 2_000);
}

/// Shard counts that do not divide the height produce uneven bands;
/// identity must not depend on divisibility. 6 rows across 4 shards
/// gives bands of 1 and 2 rows.
#[test]
fn uneven_bands_agree() {
    assert_shards_agree(Topology::mesh(6, 6), 0.08, 0xBADBA2D, 1_000);
}

/// The three ways to ask for the default engine are one engine:
/// `Network::new`, one band asked for explicitly, and — on the other
/// side of the clamp — 64 bands asked of a 4-row fabric, which gets 4.
#[test]
fn one_band_is_the_default_and_the_clamp_holds() {
    let topo = Topology::mesh(4, 4);
    let cfg = SimConfig {
        topology: topo,
        ..SimConfig::paper_4x4()
    };
    let (flows, rates) = transpose_workload(topo, 0.08);
    let mut default = Network::new(cfg, flows.clone());
    run(&mut default, cfg, &rates, 0xC1A4, 1_000);
    for (asked, got) in [(1usize, 1usize), (64, 4)] {
        let mut net = Network::banded(cfg, flows.clone(), asked);
        assert_eq!(net.bands(), got, "asked for {asked}");
        run(&mut net, cfg, &rates, 0xC1A4, 1_000);
        assert_same_run(&default, &net, &format!("asked for {asked} bands"));
    }
}

/// A banded run driven one public `step()` at a time (a threaded
/// session per cycle) equals the same run driven by `run_with` +
/// `drain` (one long session each): nothing may live in a session that
/// the next one needs.
#[test]
fn stepping_a_banded_run_equals_one_long_session() {
    let topo = Topology::torus(6, 6);
    let cfg = SimConfig {
        topology: topo,
        ..SimConfig::paper_4x4()
    };
    let (flows, rates) = transpose_workload(topo, 0.15);
    let mut session = Network::banded(cfg, flows.clone(), 3);
    run(&mut session, cfg, &rates, 0x57E9, 400);

    let mut stepped = Network::banded(cfg, flows, 3);
    let mut traffic =
        ModulatedTraffic::new(TemporalModel::Steady, &rates, cfg.flits_per_packet, 0x57E9);
    for _ in 0..400 {
        for p in traffic.generate(stepped.cycle()) {
            stepped.offer(p);
        }
        stepped.step();
    }
    while !stepped.is_quiescent() {
        assert!(stepped.cycle() < 100_000, "stepped run failed to drain");
        stepped.step();
    }
    assert_same_run(&session, &stepped, "step() vs run_with");
}
