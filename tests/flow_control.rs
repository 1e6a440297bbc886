//! Flow-control integration tests: the multi-hop credit mesh must
//! sustain throughput with only two VCs, and throughput limits must
//! match first-principles bounds.

use smart_noc::arch::config::NocConfig;
use smart_noc::arch::noc::SmartNoc;
use smart_noc::sim::{FlowId, NodeId, ScriptedTraffic, SourceRoute};

/// A long back-to-back packet train over a multi-hop bypass path. With
/// VCT + 2 VCs, serialization (8 cycles/packet) dominates as long as
/// the credit round trip (segment + pipeline + credit mesh return)
/// stays under two packet times — which the single-cycle credit mesh
/// guarantees even for a 6-hop segment. Sustained throughput must be
/// within a few percent of 1 packet per 8 cycles.
#[test]
fn credit_mesh_sustains_full_throughput_across_six_hops() {
    let cfg = NocConfig::paper_4x4();
    let route = SourceRoute::xy(cfg.topology, NodeId(0), NodeId(15)).unwrap(); // 6 hops
    let routes = vec![(FlowId(0), route)];
    let mut noc = SmartNoc::new(&cfg, &routes);
    assert!(
        noc.compiled().stops(FlowId(0)).is_empty(),
        "single flow flies NIC to NIC"
    );
    let n_packets = 200u64;
    let events: Vec<(u64, FlowId)> = (0..n_packets).map(|_| (0, FlowId(0))).collect();
    let mut traffic = ScriptedTraffic::new(events, cfg.flits_per_packet());
    let horizon = n_packets * 8 + 200;
    noc.network_mut().run_with(&mut traffic, horizon);
    assert!(noc.network_mut().drain(1_000));
    let delivered = noc.network().counters().packets_delivered;
    assert_eq!(delivered, n_packets);
    // Completion time bounds throughput: the tail of the last packet
    // must leave within ~8 cycles per packet plus pipeline slack.
    let finished = noc.network().cycle();
    let ideal = n_packets * u64::from(cfg.flits_per_packet());
    assert!(
        finished < ideal + ideal / 10 + 100,
        "train of {n_packets} packets took {finished} cycles (ideal ≈ {ideal})"
    );
}

/// The same train through a path with stops: still full throughput —
/// stops add latency, not bandwidth loss (pipelined 3-stage routers).
#[test]
fn stops_cost_latency_not_bandwidth() {
    let cfg = NocConfig::paper_4x4();
    // Two flows sharing a link force stops on both.
    let routes = vec![
        (
            FlowId(0),
            SourceRoute::from_router_path(
                cfg.topology,
                &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            ),
        ),
        (
            FlowId(1),
            SourceRoute::from_router_path(
                cfg.topology,
                &[NodeId(4), NodeId(0), NodeId(1), NodeId(5)],
            ),
        ),
    ];
    let mut noc = SmartNoc::new(&cfg, &routes);
    assert!(
        !noc.compiled().stops(FlowId(0)).is_empty(),
        "flow 0 must stop somewhere"
    );
    // Drive only flow 0 hard.
    let n_packets = 100u64;
    let events: Vec<(u64, FlowId)> = (0..n_packets).map(|_| (0, FlowId(0))).collect();
    let mut traffic = ScriptedTraffic::new(events, cfg.flits_per_packet());
    noc.network_mut()
        .run_with(&mut traffic, n_packets * 8 + 300);
    assert!(noc.network_mut().drain(2_000));
    assert_eq!(noc.network().counters().packets_delivered, n_packets);
    let finished = noc.network().cycle();
    let ideal = n_packets * 8;
    assert!(
        finished < ideal + ideal / 5 + 200,
        "stopped path still streams: {finished} cycles for ideal {ideal}"
    );
}

/// Zero-load latency must be unaffected by buffer depth above the
/// packet size, but throughput collapses if VCs cannot cover the
/// round trip (1 VC: next packet waits for the previous credit).
#[test]
fn one_vc_halves_train_throughput() {
    let mut cfg = NocConfig::paper_4x4();
    cfg.vcs_per_port = 1;
    let route = SourceRoute::xy(cfg.topology, NodeId(0), NodeId(15)).unwrap();
    let routes = vec![(FlowId(0), route)];
    let mut noc = SmartNoc::new(&cfg, &routes);
    let n_packets = 50u64;
    let events: Vec<(u64, FlowId)> = (0..n_packets).map(|_| (0, FlowId(0))).collect();
    let mut traffic = ScriptedTraffic::new(events, cfg.flits_per_packet());
    noc.network_mut().run_with(&mut traffic, 3_000);
    assert!(noc.network_mut().drain(2_000));
    let finished = noc.network().cycle();
    // With one VC the sender stalls each packet on the previous one's
    // credit round trip: strictly slower than the 2-VC ideal of
    // 8 cycles/packet.
    assert!(
        finished > n_packets * 9,
        "1 VC must be credit-bound, finished in {finished}"
    );
    assert_eq!(noc.network().counters().packets_delivered, n_packets);
}
