//! Integration tests for the Section V reconfiguration story: presets
//! round-trip through the memory-mapped register file, the network
//! refuses to reconfigure with traffic in flight, and the full
//! eight-application rotation works.

use smart_noc::arch::config::NocConfig;
use smart_noc::arch::noc::SmartNoc;
use smart_noc::arch::preset::MeshPresets;
use smart_noc::arch::reconfig::ReconfigurableNoc;
use smart_noc::mapping::MappedApp;
use smart_noc::sim::{ModulatedTraffic, TemporalModel};
use smart_noc::taskgraph::apps;

#[test]
fn presets_survive_the_register_file_for_every_app() {
    let cfg = NocConfig::paper_4x4();
    for graph in apps::all() {
        let mapped = MappedApp::from_graph(&cfg, &graph);
        let noc = SmartNoc::new(&cfg, &mapped.routes);
        let presets = noc.presets();
        let stores = presets.store_sequence(0x8000_0000);
        assert_eq!(stores.len(), 16, "{}", graph.name());
        let back = MeshPresets::from_store_sequence(cfg.topology, 0x8000_0000, &stores);
        assert_eq!(&back, presets, "{}: register round-trip", graph.name());
    }
}

#[test]
fn rotating_through_all_eight_apps() {
    let cfg = NocConfig::paper_4x4();
    let mut noc = ReconfigurableNoc::new(cfg.clone(), 0x4000_0000);
    for graph in apps::all() {
        let mapped = MappedApp::from_graph(&cfg, &graph);
        let report = noc
            .load_app(&mapped.name, &mapped.routes, 20_000)
            .expect("traffic drains within the budget");
        assert_eq!(report.cost_instructions, 16);
        // Push some traffic through so the next load has to drain.
        let live = noc.noc_mut().expect("loaded");
        let mut traffic = ModulatedTraffic::new(
            TemporalModel::Steady,
            &mapped.rates,
            cfg.flits_per_packet(),
            5,
        );
        live.network_mut().run_with(&mut traffic, 2_000);
        assert!(
            live.network().counters().packets_delivered > 0,
            "{}: traffic must flow after reconfiguration",
            mapped.name
        );
    }
    assert_eq!(noc.reconfig_count(), 8);
    assert_eq!(noc.current_app(), Some("PIP"));
}

#[test]
fn different_apps_produce_different_store_values() {
    let cfg = NocConfig::paper_4x4();
    let mut sequences = Vec::new();
    for graph in [apps::wlan(), apps::h264(), apps::vopd()] {
        let mapped = MappedApp::from_graph(&cfg, &graph);
        let noc = SmartNoc::new(&cfg, &mapped.routes);
        sequences.push(
            noc.presets()
                .store_sequence(0)
                .iter()
                .map(|s| s.value)
                .collect::<Vec<u64>>(),
        );
    }
    assert_ne!(sequences[0], sequences[1]);
    assert_ne!(sequences[1], sequences[2]);
}

#[test]
fn gating_follows_presets_per_app() {
    // Enabled port counts differ across applications and never exceed
    // the physical 160 ports of the 4x4 mesh.
    let cfg = NocConfig::paper_4x4();
    let mut counts = Vec::new();
    for graph in apps::all() {
        let mapped = MappedApp::from_graph(&cfg, &graph);
        let noc = SmartNoc::new(&cfg, &mapped.routes);
        let n = noc.presets().enabled_ports();
        assert!(n > 0 && n <= 160, "{}: {n}", graph.name());
        counts.push(n);
    }
    counts.dedup();
    assert!(counts.len() > 1, "apps must differ in port usage");
}
