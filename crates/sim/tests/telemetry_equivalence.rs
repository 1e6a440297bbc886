//! Equivalence net for the telemetry layer: attaching a probe must
//! never perturb the simulation (telemetry-on and telemetry-off runs
//! are bit-identical in every externally observable quantity), and the
//! merged per-band series must equal the 1-band network's series
//! byte-for-byte — on the mesh and on the torus, whose wrap links carry
//! probe events across the outermost band boundary. The wire format is
//! closed under round-trip for arbitrary series, not just simulated
//! ones.

use proptest::prelude::*;
use smart_sim::route::SourceRoute;
use smart_sim::telemetry::BYPASS_BUCKETS;
use smart_sim::topology::{LinkId, Topology};
use smart_sim::{
    FlowId, FlowTable, MetricsWindow, ModulatedTraffic, Network, SimConfig, TelemetryConfig,
    TelemetrySeries, TemporalModel,
};
use std::collections::HashMap;

/// Transpose routes + a uniform per-flow rate — the same cross-band,
/// cross-seam workload `shard_equivalence.rs` uses.
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

fn run(engine: &mut Network, cfg: SimConfig, rates: &[(FlowId, f64)], seed: u64, cycles: u64) {
    let mut traffic =
        ModulatedTraffic::new(TemporalModel::Steady, rates, cfg.flits_per_packet, seed);
    engine.run_with(&mut traffic, cycles);
    assert!(engine.drain(100_000), "engine failed to drain");
}

/// Telemetry must be a pure observer: the probed run and the plain run
/// agree on drain cycle, per-flow latency statistics, activity
/// counters, and per-link flit counts.
fn assert_probe_is_invisible(topo: Topology, rate: f64, seed: u64, cycles: u64) {
    let cfg = SimConfig {
        topology: topo,
        ..SimConfig::paper_4x4()
    };
    let (flows, rates) = transpose_workload(topo, rate);

    let mut plain = Network::new(cfg, flows.clone());
    run(&mut plain, cfg, &rates, seed, cycles);

    let mut probed = Network::new(cfg, flows);
    probed.set_telemetry(TelemetryConfig::windowed(64));
    run(&mut probed, cfg, &rates, seed, cycles);

    assert_eq!(plain.cycle(), probed.cycle(), "drain cycle");
    assert_eq!(plain.stats(), probed.stats(), "stats");
    assert_eq!(plain.counters(), probed.counters(), "counters");
    let plain_links: HashMap<LinkId, u64> = plain.link_flit_counts().collect();
    let probed_links: HashMap<LinkId, u64> = probed.link_flit_counts().collect();
    assert_eq!(plain_links, probed_links, "link utilization");

    // And the series itself is coherent: the final window's cumulative
    // figures match the engine's own counters.
    let series = probed.take_telemetry().expect("telemetry enabled");
    let last = series.windows.last().expect("at least one window");
    assert_eq!(last.injected, probed.counters().packets_injected);
    assert_eq!(last.delivered, probed.counters().packets_delivered);
    assert_eq!(last.buffered, 0, "drained fabric buffers nothing");
}

/// The merged per-band series must serialize byte-identically to the
/// 1-band network's series at every band count.
fn assert_sharded_series_match(topo: Topology, rate: f64, seed: u64, cycles: u64, window: u64) {
    let cfg = SimConfig {
        topology: topo,
        ..SimConfig::paper_4x4()
    };
    let (flows, rates) = transpose_workload(topo, rate);

    let mut serial = Network::new(cfg, flows.clone());
    serial.set_telemetry(TelemetryConfig::windowed(window));
    run(&mut serial, cfg, &rates, seed, cycles);
    let reference = serial
        .take_telemetry()
        .expect("telemetry enabled")
        .to_jsonl();

    for k in [2usize, 4, 8] {
        let mut sharded = Network::banded(cfg, flows.clone(), k);
        sharded.set_telemetry(TelemetryConfig::windowed(window));
        run(&mut sharded, cfg, &rates, seed, cycles);
        let merged = sharded
            .take_telemetry()
            .expect("telemetry enabled")
            .to_jsonl();
        assert_eq!(reference, merged, "k={k}: telemetry series diverged");
    }
}

proptest! {
    // Each case runs multiple full simulations; keep cases few but
    // rates spanning light load to past transpose saturation.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn probe_never_perturbs_the_simulation(
        seed in 0u64..1_000_000,
        rate_milli in prop::sample::select(vec![10u32, 80, 300]),
    ) {
        assert_probe_is_invisible(
            Topology::mesh(8, 8),
            f64::from(rate_milli) / 1_000.0,
            seed,
            1_000,
        );
    }

    #[test]
    fn mesh_sharded_telemetry_is_byte_identical(
        seed in 0u64..1_000_000,
        rate_milli in prop::sample::select(vec![10u32, 80, 300]),
    ) {
        assert_sharded_series_match(
            Topology::mesh(8, 8),
            f64::from(rate_milli) / 1_000.0,
            seed,
            1_000,
            128,
        );
    }

    #[test]
    fn torus_sharded_telemetry_is_byte_identical_across_the_seam(
        seed in 0u64..1_000_000,
        rate_milli in prop::sample::select(vec![10u32, 300]),
    ) {
        assert_sharded_series_match(
            Topology::torus(8, 8),
            f64::from(rate_milli) / 1_000.0,
            seed,
            1_000,
            128,
        );
    }
}

/// Build an arbitrary-but-consistent series from a flat pool of
/// generated counters: vectors are sized to the header's router/link
/// counts (as the collector guarantees for real series), every other
/// field is drawn freely from the pool. Sparse rendering is exercised
/// by the pool's zeros.
fn series_from_pool(
    routers: usize,
    window: u64,
    label: Option<String>,
    n_windows: usize,
    pool: &[u64],
) -> TelemetrySeries {
    let links = routers * 5;
    let mut cursor = pool.iter().copied().cycle();
    let mut take = |n: usize| -> Vec<u64> { cursor.by_ref().take(n).collect() };
    let windows = (0..n_windows)
        .map(|i| MetricsWindow {
            end: (i as u64 + 1) * window,
            ssr_setups: take(1)[0],
            ssr_grants: take(1)[0],
            bypass: take(BYPASS_BUCKETS),
            stalls: take(routers * 4),
            link_flits: take(links),
            injected: take(1)[0],
            delivered: take(1)[0],
            buffered: take(1)[0],
        })
        .collect();
    TelemetrySeries {
        window,
        routers,
        links,
        label,
        windows,
    }
}

proptest! {
    #[test]
    fn metrics_v1_round_trips_arbitrary_series(
        routers in 1usize..20,
        window in 1u64..10_000,
        n_windows in 0usize..6,
        label_kind in 0usize..3,
        pool in prop::collection::vec(0u64..100_000, 32..300),
    ) {
        // Labels cover: absent, plain, and needing JSON escaping.
        let label = match label_kind {
            0 => None,
            1 => Some("phase0:WLAN".to_owned()),
            _ => Some("a \"quoted\"\\label\n".to_owned()),
        };
        let series = series_from_pool(routers, window, label, n_windows, &pool);
        let jsonl = series.to_jsonl();
        let parsed = TelemetrySeries::parse(&jsonl).expect("round-trip");
        prop_assert_eq!(parsed, series);
    }
}
