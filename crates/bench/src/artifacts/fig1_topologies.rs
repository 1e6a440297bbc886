//! Regenerates **Fig 1**: "Mesh reconfiguration for three applications.
//! All links in bold take one-cycle." The same physical 4x4 mesh, with
//! WLAN, H264 and VOPD presets rendered as virtual topologies (bold =
//! configured single-cycle path, brackets = stop routers).
//!
//! `repro fig1_topologies`

use super::Sink;
use smart_core::compile::compile;
use smart_core::config::NocConfig;
use smart_core::viz::{render_topology, topology_summary};
use smart_mapping::MappedApp;

pub(super) fn run(_quick: bool, _args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let cfg = NocConfig::paper_4x4();
    for graph in [
        smart_taskgraph::apps::wlan(),
        smart_taskgraph::apps::h264(),
        smart_taskgraph::apps::vopd(),
    ] {
        let mapped = MappedApp::from_graph(&cfg, &graph);
        let app = compile(cfg.topology, cfg.hpc_max, &mapped.routes);
        writeln!(out, "== {} ==", graph.name())?;
        writeln!(out, "{}", render_topology(cfg.topology, &app))?;
        writeln!(out, "{}\n", topology_summary(cfg.topology, &app))?;
    }
    writeln!(
        out,
        "One physical mesh, three virtual topologies — switching between\n\
         them costs {} store instructions (see `reconfig_cost`).",
        cfg.topology.len()
    )?;
    Ok(())
}
