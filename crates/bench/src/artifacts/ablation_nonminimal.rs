//! Ablation from the paper's future work (§VI): "SMART can also enable
//! non-minimal routes for higher path diversity without any delay
//! penalty." On SMART, a detour that avoids link sharing costs extra
//! millimetres but **zero extra cycles** — the longer path is still one
//! single-cycle bypass segment (as long as it fits HPC_max) — whereas
//! on the baseline mesh every extra hop costs 4 cycles.
//!
//! `repro ablation_nonminimal`

use super::{run_mapped, Sink};
use crate::RunPlan;
use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use smart_mapping::{
    place_random, routable_flows, select_routes, select_routes_with, MappedApp, RouteOptions,
};
use smart_sim::{FlowId, SourceRoute};

fn scenario(
    out: &mut Sink<'_>,
    cfg: &NocConfig,
    plan: &RunPlan,
    label: &str,
    routes_of: impl Fn(&smart_taskgraph::TaskGraph, RouteOptions) -> MappedApp,
) -> Result<(), String> {
    writeln!(out, "--- {label} ---")?;
    writeln!(
        out,
        "{:<10} {:>14} {:>14} {:>12} {:>12} {:>12}",
        "app", "SMART minimal", "SMART detour", "gain", "stops min", "stops det"
    )?;
    let mut gains = Vec::new();
    for graph in smart_taskgraph::apps::all() {
        let minimal = routes_of(&graph, RouteOptions::default());
        let detoured = routes_of(&graph, RouteOptions::with_detours());
        let run = |mapped| run_mapped(cfg, mapped, DesignKind::Smart, *plan);
        let (min_r, det_r) = (run(&minimal), run(&detoured));
        let stops_min = min_r.compile.as_ref().expect("SMART metrics").avg_stops;
        let stops_det = det_r.compile.as_ref().expect("SMART metrics").avg_stops;
        let lat_min = min_r.avg_network_latency;
        let lat_det = det_r.avg_network_latency;
        gains.push(lat_min - lat_det);
        writeln!(
            out,
            "{:<10} {:>14.2} {:>14.2} {:>12.2} {:>12.2} {:>12.2}",
            graph.name(),
            lat_min,
            lat_det,
            lat_min - lat_det,
            stops_min,
            stops_det
        )?;
    }
    let avg: f64 = gains.iter().sum::<f64>() / gains.len() as f64;
    writeln!(out, "average latency gain: {avg:.2} cycles\n")?;
    Ok(())
}

pub(super) fn run(_quick: bool, _args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let plan = RunPlan::quick();
    let cfg = NocConfig::paper_4x4();

    // NMAP placement: link sharing is already mapped away, so detours
    // have nothing to fix — the residual stops are hub (endpoint) stops.
    scenario(out, &cfg, &plan, "NMAP placement", |graph, opts| {
        MappedApp::from_graph_with_routing(&cfg, graph, opts)
    })?;

    // Heterogeneous (fixed random) placement: routes are long and
    // overlap; this is where path diversity pays.
    scenario(
        out,
        &cfg,
        &plan,
        "fixed random placement (heterogeneous SoC)",
        |graph, opts| {
            let placement = place_random(cfg.topology, graph, 1234);
            let flows = routable_flows(graph, &placement);
            let routes: Vec<(FlowId, SourceRoute)> = if opts.allow_detours {
                select_routes_with(cfg.topology, &flows, opts)
            } else {
                select_routes(cfg.topology, &flows)
            };
            let mut app = MappedApp::with_placement(&cfg, graph, placement);
            app.routes = routes;
            app
        },
    )?;

    writeln!(
        out,
        "Expected shape: under NMAP the gain is ~0 (remaining stops are hub\n\
         fan-in/fan-out, which no route can bypass). Under fixed placement,\n\
         detours convert shared-link stops into longer-but-free bypass\n\
         segments — latency drops at zero cycle cost, the paper's §VI claim."
    )?;
    Ok(())
}
