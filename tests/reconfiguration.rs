//! Integration tests for the Section V reconfiguration registers:
//! presets round-trip through the memory-mapped register file, differ
//! across applications, and gate the ports each application uses. The
//! live drain-then-store switch between applications is
//! `tests/multi_app.rs`.

use smart_noc::arch::config::NocConfig;
use smart_noc::arch::noc::SmartNoc;
use smart_noc::arch::preset::MeshPresets;
use smart_noc::mapping::MappedApp;
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
