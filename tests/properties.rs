//! Property-based tests over the preset compiler and the cycle-accurate
//! engine: for *any* set of routed flows, compilation must succeed, all
//! invariants must hold (the engine asserts link exclusivity, VC
//! protocol and buffer bounds internally), every packet must be
//! delivered, and zero-load latencies must equal the plan's prediction.

use proptest::prelude::*;
use smart_noc::arch::compile::compile;
use smart_noc::arch::config::NocConfig;
use smart_noc::arch::noc::{Design, DesignKind};
use smart_noc::sim::{FlowId, NodeId, ScriptedTraffic, SourceRoute, Topology};

/// Strategy: up to `n` random (src, dst) pairs on the 4x4 mesh, routed
/// XY (always deadlock-free) — the preset compiler must handle ANY such
/// set, including heavy overlaps.
fn arb_flows(n: usize) -> impl Strategy<Value = Vec<(u16, u16)>> {
    prop::collection::vec((0u16..16, 0u16..16), 1..=n)
        .prop_map(|v| v.into_iter().filter(|(s, d)| s != d).collect::<Vec<_>>())
        .prop_filter("need at least one flow", |v| !v.is_empty())
}

fn routed(pairs: &[(u16, u16)]) -> Vec<(FlowId, SourceRoute)> {
    let mesh = Topology::paper_4x4();
    pairs
        .iter()
        .enumerate()
        .map(|(i, (s, d))| {
            (
                FlowId(i as u32),
                SourceRoute::xy(mesh, NodeId(*s), NodeId(*d)).unwrap(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compiler_accepts_any_flow_set(pairs in arb_flows(12)) {
        let routes = routed(&pairs);
        let app = compile(Topology::paper_4x4(), 8, &routes);
        // Every flow got a plan covering its route (validated inside),
        // and stop fractions are sane.
        prop_assert_eq!(app.flows.len(), routes.len());
        let frac = app.bypass_fraction(Topology::paper_4x4());
        prop_assert!((0.0..=1.0).contains(&frac));
    }

    #[test]
    fn all_packets_delivered_under_random_contention(
        pairs in arb_flows(10),
        seed in 0u64..1000,
    ) {
        let cfg = NocConfig::paper_4x4();
        let routes = routed(&pairs);
        let mut design = Design::build(DesignKind::Smart, &cfg, &routes);
        // Three packets per flow at scattered times.
        let mut events = Vec::new();
        for (i, (f, _)) in routes.iter().enumerate() {
            for k in 0..3u64 {
                events.push((seed % 97 + 13 * k + i as u64, *f));
            }
        }
        let n_packets = events.len() as u64;
        let mut traffic = ScriptedTraffic::new(events, cfg.flits_per_packet());
        design.run_with(&mut traffic, 4_000);
        prop_assert!(design.drain(4_000), "network must drain");
        prop_assert_eq!(design.counters().packets_delivered, n_packets);
        prop_assert_eq!(
            design.counters().flits_delivered,
            n_packets * u64::from(cfg.flits_per_packet())
        );
    }

    #[test]
    fn lone_packet_latency_equals_plan_prediction(
        src in 0u16..16,
        dst in 0u16..16,
        kind in prop::sample::select(DesignKind::ALL.to_vec()),
    ) {
        prop_assume!(src != dst);
        let cfg = NocConfig::paper_4x4();
        let routes = routed(&[(src, dst)]);
        let mut design = Design::build(kind, &cfg, &routes);
        let mut traffic = ScriptedTraffic::new(vec![(0, FlowId(0))], cfg.flits_per_packet());
        design.run_with(&mut traffic, 200);
        prop_assert!(design.drain(200));
        let got = design.stats().avg_network_latency();
        let expected = match kind {
            DesignKind::Mesh => {
                let hops = Topology::paper_4x4().distance(NodeId(src), NodeId(dst));
                f64::from(4 * hops + 4)
            }
            DesignKind::Smart => {
                let app = compile(cfg.topology, cfg.hpc_max, &routes);
                app.flows.plan(FlowId(0)).zero_load_latency() as f64
            }
            // A private wire lands the head in one cycle.
            DesignKind::Dedicated => 1.0,
        };
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn smart_zero_load_latency_is_one_plus_three_stops(pairs in arb_flows(8)) {
        let cfg = NocConfig::paper_4x4();
        let routes = routed(&pairs);
        let app = compile(cfg.topology, cfg.hpc_max, &routes);
        for (flow, _) in &routes {
            let plan = app.flows.plan(*flow);
            prop_assert_eq!(
                plan.zero_load_latency(),
                1 + 3 * app.stops(*flow).len() as u64
            );
        }
    }

    #[test]
    fn route_encoding_round_trips(src in 0u16..16, dst in 0u16..16) {
        prop_assume!(src != dst);
        let mesh = Topology::paper_4x4();
        let r = SourceRoute::xy(mesh, NodeId(src), NodeId(dst)).unwrap();
        let bits = r.encode();
        let back = SourceRoute::decode(NodeId(src), bits, r.num_hops());
        prop_assert_eq!(back, r);
    }

    #[test]
    fn preset_registers_round_trip(word in 0u64..(1 << 40)) {
        use smart_noc::arch::preset::RouterPreset;
        // Not every word is a valid encoding; only test words that
        // decode cleanly (catch_unwind to filter).
        let decoded = std::panic::catch_unwind(|| RouterPreset::decode(word));
        if let Ok(p) = decoded {
            prop_assert_eq!(RouterPreset::decode(p.encode()), p);
        }
    }
}

#[test]
fn mesh_and_smart_agree_on_packet_counts_under_suite_traffic() {
    // Same scripted traffic on both designs: identical delivery counts.
    let cfg = NocConfig::paper_4x4();
    let routes = routed(&[(0, 5), (5, 10), (10, 15), (3, 12), (12, 3)]);
    let mut counts = Vec::new();
    for kind in [DesignKind::Mesh, DesignKind::Smart] {
        let mut design = Design::build(kind, &cfg, &routes);
        let events: Vec<(u64, FlowId)> = (0..50u64)
            .map(|i| (i * 3, FlowId((i % 5) as u32)))
            .collect();
        let mut traffic = ScriptedTraffic::new(events, cfg.flits_per_packet());
        design.run_with(&mut traffic, 2_000);
        assert!(design.drain(2_000));
        counts.push(design.counters().packets_delivered);
    }
    assert_eq!(counts[0], counts[1]);
    assert_eq!(counts[0], 50);
}
