//! Reconfiguration cost study (Section V / Fig 1): store-instruction
//! counts and drain times when retargeting the SMART NoC across the
//! eight applications back-to-back.
//!
//! `repro reconfig_cost`

use super::Sink;
use smart_core::config::NocConfig;
use smart_core::reconfig::ReconfigurableNoc;
use smart_mapping::MappedApp;
use smart_sim::{ModulatedTraffic, TemporalModel};

pub(super) fn run(_quick: bool, _args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let cfg = NocConfig::paper_4x4();
    let mut noc = ReconfigurableNoc::new(cfg.clone(), 0x4000_0000);
    writeln!(
        out,
        "Reconfiguration across the application suite (Section V):"
    )?;
    writeln!(
        out,
        "{:<10} {:>8} {:>12} {:>14} {:>12}",
        "app", "stores", "drain (cyc)", "preset ports", "avg stops"
    )?;
    for graph in smart_taskgraph::apps::all() {
        let mapped = MappedApp::from_graph(&cfg, &graph);
        let report = noc
            .load_app(&mapped.name, &mapped.routes, 10_000)
            .expect("traffic drains within the budget");
        let live = noc.noc_mut().expect("app loaded");
        let ports = live.presets().enabled_ports();
        let stops = live.compiled().avg_stops();
        // Run some traffic, then leave a burst queued so the next
        // reconfiguration actually has to drain in-flight packets.
        let mut traffic = ModulatedTraffic::new(
            TemporalModel::Steady,
            &mapped.rates,
            cfg.flits_per_packet(),
            7,
        );
        live.network_mut().run_with(&mut traffic, 3_000);
        for p in traffic.generate_burst(live.network().cycle(), 3) {
            live.network_mut().offer(p);
        }
        writeln!(
            out,
            "{:<10} {:>8} {:>12} {:>14} {:>12.2}",
            report.app_name, report.cost_instructions, report.drain_cycles, ports, stops
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "Every reconfiguration costs exactly {} store instructions (one\n\
         double-word register per router), matching the paper's \"16 registers\n\
         ... correspond to 16 instructions\" for the 16-node mesh. The network\n\
         is drained before each register write, as the paper requires.",
        cfg.topology.len()
    )?;
    Ok(())
}
