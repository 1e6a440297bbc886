//! Integration test: the paper's Fig 7 worked example, end to end
//! through mapping-free preset compilation and the cycle-accurate
//! engine.

use smart_noc::arch::config::NocConfig;
use smart_noc::arch::noc::SmartNoc;
use smart_noc::arch::scenarios::fig7_flows;
use smart_noc::sim::{FlowId, NodeId, ScriptedTraffic, SourceRoute};

fn routes() -> (NocConfig, Vec<(FlowId, SourceRoute, u64)>) {
    let cfg = NocConfig::paper_4x4();
    (cfg.clone(), fig7_flows(cfg.topology))
}

#[test]
fn traversal_times_match_the_figure() {
    let (cfg, flows) = routes();
    let routes: Vec<(FlowId, SourceRoute)> =
        flows.iter().map(|(f, r, _)| (*f, r.clone())).collect();
    let mut noc = SmartNoc::new(&cfg, &routes);

    // Staggered single packets: per-flow zero-load latency.
    let events: Vec<(u64, FlowId)> = flows
        .iter()
        .enumerate()
        .map(|(i, (f, _, _))| (50 * i as u64, *f))
        .collect();
    let mut traffic = ScriptedTraffic::new(events, cfg.flits_per_packet());
    noc.network_mut().run_with(&mut traffic, 400);
    assert!(noc.network().is_quiescent());

    for (flow, _, expected) in &flows {
        let got = noc
            .network()
            .stats()
            .flow(*flow)
            .unwrap_or_else(|| panic!("{flow} not delivered"))
            .avg_head_latency();
        assert_eq!(got, *expected as f64, "{flow}");
    }
}

#[test]
fn red_and_blue_stop_exactly_at_routers_9_and_10() {
    let (cfg, flows) = routes();
    let routes: Vec<(FlowId, SourceRoute)> =
        flows.iter().map(|(f, r, _)| (*f, r.clone())).collect();
    let noc = SmartNoc::new(&cfg, &routes);
    let stops = |f| noc.compiled().stops(FlowId(f));
    assert!(stops(0).is_empty(), "green bypasses everything");
    assert!(stops(1).is_empty(), "purple bypasses everything");
    assert_eq!(stops(2), vec![NodeId(9), NodeId(10)], "red");
    assert_eq!(stops(3), vec![NodeId(9), NodeId(10)], "blue");
}

#[test]
fn credit_path_returns_vcs_for_repeated_packets() {
    // The blue flow's credits travel NIC3 -> (3,7,11 preset credit
    // crossbars) -> router 10 in one cycle; with only 2 VCs per port, a
    // long packet train only flows if those multi-hop credits work.
    let (cfg, flows) = routes();
    let routes: Vec<(FlowId, SourceRoute)> =
        flows.iter().map(|(f, r, _)| (*f, r.clone())).collect();
    let mut noc = SmartNoc::new(&cfg, &routes);
    let blue = flows[3].0;
    let events: Vec<(u64, FlowId)> = (0..20).map(|i| (i, blue)).collect();
    let mut traffic = ScriptedTraffic::new(events, cfg.flits_per_packet());
    noc.network_mut().run_with(&mut traffic, 2_000);
    assert!(noc.network().is_quiescent(), "train must drain");
    let st = noc.network().stats().flow(blue).expect("delivered");
    assert_eq!(st.packets, 20, "all packets through 2 VCs via credit mesh");
}

#[test]
fn simultaneous_arrival_serializes_per_footnote_7() {
    let (cfg, flows) = routes();
    let routes: Vec<(FlowId, SourceRoute)> =
        flows.iter().map(|(f, r, _)| (*f, r.clone())).collect();
    let mut noc = SmartNoc::new(&cfg, &routes);
    let events = vec![(0, flows[2].0), (0, flows[3].0)];
    let mut traffic = ScriptedTraffic::new(events, cfg.flits_per_packet());
    noc.network_mut().run_with(&mut traffic, 300);
    let red = noc.network().stats().flow(flows[2].0).expect("red");
    let blue = noc.network().stats().flow(flows[3].0).expect("blue");
    let (fast, slow) = if red.avg_head_latency() < blue.avg_head_latency() {
        (red, blue)
    } else {
        (blue, red)
    };
    assert_eq!(fast.avg_head_latency(), 7.0, "winner sees Fig 7 latency");
    // Loser waits for the winner's 8-flit packet to clear the shared
    // output port.
    assert!(
        slow.avg_head_latency() >= 14.0,
        "loser head latency {} must include the serialization wait",
        slow.avg_head_latency()
    );
}
