//! Fig 1: runtime reconfiguration — one physical mesh, three virtual
//! topologies.
//!
//! The same 4x4 SMART NoC is retargeted to WLAN, then H264, then VOPD:
//! drain the network, execute one memory-mapped store per router
//! (16 instructions), run. Each application sees a mesh whose bold
//! single-cycle paths match *its* traffic.
//!
//! ```text
//! cargo run --example reconfigure
//! ```

use smart_noc::arch::config::NocConfig;
use smart_noc::arch::reconfig::ReconfigurableNoc;
use smart_noc::mapping::MappedApp;
use smart_noc::sim::{ModulatedTraffic, TemporalModel};
use smart_noc::taskgraph::apps;

fn main() {
    let cfg = NocConfig::paper_4x4();
    let mut noc = ReconfigurableNoc::new(cfg.clone(), 0x4000_0000);

    for graph in [apps::wlan(), apps::h264(), apps::vopd()] {
        let mapped = MappedApp::from_graph(&cfg, &graph);
        let report = noc
            .load_app(&mapped.name, &mapped.routes, 50_000)
            .expect("traffic drains within the budget");
        println!(
            "== {} == ({} stores at {:#x}.., drained previous app in {} cycles)",
            report.app_name, report.cost_instructions, report.stores[0].addr, report.drain_cycles
        );

        let live = noc.noc_mut().expect("app loaded");
        println!(
            "   bypass fraction {:.0}%, enabled ports {}/160",
            live.compiled().bypass_fraction(cfg.topology) * 100.0,
            live.presets().enabled_ports()
        );
        // A couple of interesting registers, as the memory map sees them.
        for store in report.stores.iter().take(3) {
            println!("   store [{:#010x}] = {:#018x}", store.addr, store.value);
        }

        let mut traffic = ModulatedTraffic::new(
            TemporalModel::Steady,
            &mapped.rates,
            cfg.flits_per_packet(),
            99,
        );
        live.network_mut().run_with(&mut traffic, 20_000);
        let stats = live.network().stats();
        println!(
            "   ran 20k cycles: {} packets, avg latency {:.2} cycles\n",
            stats.packets(),
            stats.avg_network_latency()
        );
    }
    println!(
        "Reconfigured {} times; each switch cost {} store instructions.",
        noc.reconfig_count(),
        cfg.topology.len()
    );
}
