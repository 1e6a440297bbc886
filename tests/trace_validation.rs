//! The event trace must agree with the engine's live activity counters
//! — the reproduction's version of "the power numbers come from the
//! same activity the VCD carries".

use smart_noc::arch::config::NocConfig;
use smart_noc::arch::noc::SmartNoc;
use smart_noc::mapping::{place_random, MappedApp};
use smart_noc::sim::{
    ActivityCounters, ModulatedTraffic, PacketId, ReplayCounts, TemporalModel, Tracer,
};
use smart_noc::taskgraph::apps;

/// The counters a trace can reconstruct equal the engine's live ones.
fn assert_replay_matches(replay: &ReplayCounts, live: &ActivityCounters) {
    assert_eq!(replay.buffer_writes, live.buffer_writes);
    assert_eq!(replay.xbar_flit_traversals, live.xbar_flit_traversals);
    assert_eq!(replay.xbar_credit_traversals, live.xbar_credit_traversals);
    assert!((replay.link_flit_mm - live.link_flit_mm).abs() < 1e-6);
    assert!((replay.link_credit_mm - live.link_credit_mm).abs() < 1e-6);
    assert_eq!(replay.flits_delivered, live.flits_delivered);
    assert_eq!(replay.packets_delivered, live.packets_delivered);
    assert_eq!(replay.heads_delivered, replay.packets_delivered);
}

#[test]
fn replayed_trace_matches_live_counters() {
    let cfg = NocConfig::paper_4x4();
    let mapped = MappedApp::from_graph(&cfg, &apps::vopd());
    let mut noc = SmartNoc::new(&cfg, &mapped.routes);
    noc.network_mut().enable_tracing(1_000_000);
    let mut traffic = ModulatedTraffic::new(
        TemporalModel::Steady,
        &mapped.rates,
        cfg.flits_per_packet(),
        17,
    );
    noc.network_mut().run_with(&mut traffic, 20_000);
    noc.network_mut().drain(5_000);

    let live = *noc.network().counters();
    let tracer = noc.network().tracer().expect("enabled");
    assert_eq!(tracer.dropped(), 0, "trace capacity must suffice");
    assert_replay_matches(&tracer.replay_counts(), &live);
}

/// A traced SMART run of randomly placed VOPD on `cfg`: 8×8 routes are
/// long enough for multi-hop legs that cross band boundaries (and, on
/// the torus, the wrap seam) within one cycle.
fn traced_vopd(cfg: &NocConfig) -> SmartNoc {
    let graph = apps::vopd();
    let placement = place_random(cfg.topology, &graph, 2026);
    let mapped = MappedApp::with_placement(cfg, &graph, placement);
    let mut noc = SmartNoc::new(cfg, &mapped.routes);
    noc.network_mut().enable_tracing(1_000_000);
    let mut traffic = ModulatedTraffic::new(
        TemporalModel::Steady,
        &mapped.rates,
        cfg.flits_per_packet(),
        23,
    );
    noc.network_mut().run_with(&mut traffic, 5_000);
    assert!(noc.network_mut().drain(5_000), "traced run drains");
    noc
}

/// The records of a trace as an order-free multiset.
fn record_multiset(tracer: &Tracer) -> Vec<String> {
    let mut recs: Vec<String> = tracer.records().iter().map(|r| format!("{r:?}")).collect();
    recs.sort();
    recs
}

/// Tracing works at every band count and tells the 1-band story: the
/// per-band traces merge to the same record multiset, the replayed
/// counters equal the live (merged) ones, and every packet's journey
/// reads identically — on the mesh and across the torus wrap seam.
#[test]
fn banded_trace_tells_the_one_band_story() {
    for base in [NocConfig::scaled(8), NocConfig::scaled_torus(8)] {
        let solo = traced_vopd(&base);
        let solo_trace = solo.network().tracer().expect("enabled");
        assert_eq!(solo_trace.dropped(), 0, "trace capacity must suffice");
        let mut packets: Vec<PacketId> = solo_trace.records().iter().map(|r| r.packet).collect();
        packets.sort();
        packets.dedup();
        assert!(packets.len() > 100, "the run carries real traffic");

        for bands in [2usize, 4] {
            let what = format!("{} on {bands} bands", base.topology.label());
            let banded = traced_vopd(&base.clone().sharded(bands));
            assert_eq!(banded.network().bands(), bands, "{what}");
            let trace = banded.network().tracer().expect("enabled");
            assert_eq!(trace.dropped(), 0, "{what}: trace capacity must suffice");
            assert!(
                trace.records().windows(2).all(|w| w[0].cycle <= w[1].cycle),
                "{what}: merged trace is cycle-ordered"
            );
            assert_eq!(
                record_multiset(&trace),
                record_multiset(&solo_trace),
                "{what}: record multiset"
            );
            assert_replay_matches(&trace.replay_counts(), banded.network().counters());
            for &p in &packets {
                assert_eq!(trace.journey(p), solo_trace.journey(p), "{what}: {p:?}");
            }
        }
    }
}

#[test]
fn vcd_dump_is_wellformed_for_real_traffic() {
    let cfg = NocConfig::paper_4x4();
    let mapped = MappedApp::from_graph(&cfg, &apps::pip());
    let mut noc = SmartNoc::new(&cfg, &mapped.routes);
    noc.network_mut().enable_tracing(100_000);
    let mut traffic = ModulatedTraffic::new(
        TemporalModel::Steady,
        &mapped.rates,
        cfg.flits_per_packet(),
        3,
    );
    noc.network_mut().run_with(&mut traffic, 5_000);
    let vcd = noc
        .network()
        .tracer()
        .expect("enabled")
        .to_vcd(cfg.topology, "pip");
    assert_eq!(vcd.matches("$var wire 1").count(), 16);
    assert!(vcd.matches('#').count() > 10, "timestamps present");
    // Every value-change line references a declared identifier.
    let idents: Vec<&str> = vcd
        .lines()
        .filter(|l| l.starts_with("$var"))
        .map(|l| l.split_whitespace().nth(3).expect("var id"))
        .collect();
    for line in vcd.lines() {
        if line.starts_with('0') || line.starts_with('1') {
            let id = &line[1..];
            assert!(idents.contains(&id), "undeclared id {id}");
        }
    }
}
