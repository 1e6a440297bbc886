//! ASCII rendering of the reconfigured topology (Fig 1) and of
//! telemetry time-series (bypass histogram, link-utilization heatmap).
//!
//! The paper's Fig 1 draws the same physical mesh three times — once per
//! application — with the preset single-cycle paths in bold. This module
//! renders that view: links carrying configured flows are drawn bold
//! (`═`/`║`), idle links thin (`─`/`│`), and routers where some flow
//! stops (buffers + arbitrates) are bracketed. The telemetry renderers
//! turn a [`TelemetrySeries`] into the paper's dynamic-behavior views:
//! how many hops SMART actually covers per launch, and where link
//! traffic concentrates over time.

use crate::compile::CompiledApp;
use smart_sim::topology::PORTS;
use smart_sim::{Direction, LinkId, NodeId, TelemetrySeries, Topology};
use std::collections::HashSet;

/// Render the virtual topology of `app` over `mesh`.
///
/// Rows print north (high y) first, matching the paper's figures.
#[must_use]
pub fn render_topology(mesh: Topology, app: &CompiledApp) -> String {
    // Links used by any leg (either direction renders the segment bold).
    let mut used: HashSet<LinkId> = HashSet::new();
    for plan in app.flows.iter() {
        for leg in plan.legs {
            used.extend(plan.links(leg));
        }
    }
    let is_used = |from: NodeId, dir: Direction| -> bool {
        let fwd = LinkId { from, dir };
        let back = mesh.neighbor(from, dir).map(|n| LinkId {
            from: n,
            dir: dir.opposite(),
        });
        used.contains(&fwd) || back.is_some_and(|b| used.contains(&b))
    };
    let stops: HashSet<NodeId> = app.flows.iter().flat_map(|p| app.stops(p.flow)).collect();

    let mut s = String::new();
    for y in (0..mesh.height()).rev() {
        // Node row.
        for x in 0..mesh.width() {
            let n = mesh.node_at(smart_sim::Coord { x, y });
            if stops.contains(&n) {
                s.push_str(&format!("[{:>2}]", n.0));
            } else {
                s.push_str(&format!(" {:>2} ", n.0));
            }
            if x + 1 < mesh.width() {
                let seg = if is_used(n, Direction::East) {
                    "═══"
                } else {
                    "───"
                };
                s.push_str(seg);
            }
        }
        s.push('\n');
        // Vertical links row.
        if y > 0 {
            for x in 0..mesh.width() {
                let n = mesh.node_at(smart_sim::Coord { x, y });
                let seg = if is_used(n, Direction::South) {
                    " ║  "
                } else {
                    " │  "
                };
                s.push_str(seg);
                if x + 1 < mesh.width() {
                    s.push_str("   ");
                }
            }
            s.push('\n');
        }
    }
    s
}

/// One-line summary of the virtual topology: bold links, stop routers,
/// bypass fraction.
#[must_use]
pub fn topology_summary(mesh: Topology, app: &CompiledApp) -> String {
    let mut used: HashSet<LinkId> = HashSet::new();
    for plan in app.flows.iter() {
        for leg in plan.legs {
            used.extend(plan.links(leg));
        }
    }
    let stops: HashSet<NodeId> = app.flows.iter().flat_map(|p| app.stops(p.flow)).collect();
    format!(
        "{} bold links, {} stop routers, {:.0}% of router visits bypassed",
        used.len(),
        stops.len(),
        app.bypass_fraction(mesh) * 100.0
    )
}

/// Render the achieved-bypass-length histogram of `series` as ASCII
/// bars: one row per length (0 = local/ejection legs, then 1..=the
/// longest achieved bypass), each counting flit launches whose leg
/// crossed exactly that many links in one cycle. `hpc_max` marks the
/// configured ceiling — the paper's central curve is how far short of
/// `HPC_max` real traffic stops.
#[must_use]
pub fn bypass_histogram(series: &TelemetrySeries, hpc_max: usize) -> String {
    const WIDTH: usize = 40;
    let totals = series.bypass_totals();
    // Always draw out to the configured ceiling so the HPC_max marker
    // shows even when no launch reached it.
    let top = series
        .max_bypass()
        .unwrap_or(0)
        .max(hpc_max.min(totals.len() - 1));
    let peak = totals.iter().copied().max().unwrap_or(0).max(1);
    let launches: u64 = totals.iter().sum();
    let mut s = String::new();
    s.push_str(&format!(
        "bypass length (links/cycle) over {} launches, HPC_max = {}\n",
        launches, hpc_max
    ));
    for (len, &count) in totals.iter().enumerate().take(top + 1) {
        let bar = (count as usize * WIDTH).div_ceil(peak as usize);
        let marker = if len == hpc_max { " <- HPC_max" } else { "" };
        let tag = if len == 0 { " (eject)" } else { "" };
        s.push_str(&format!(
            "{len:>3}{tag:<8} {count:>9} {}{marker}\n",
            "#".repeat(bar)
        ));
    }
    s.push_str(&format!(
        "ssr: {} setups, {} grants, {} premature stops\n",
        series.ssr_setups(),
        series.ssr_grants(),
        series.premature_stops()
    ));
    s
}

/// Render per-router link utilization over time as an ASCII heatmap:
/// one row per telemetry window, one column per router, shaded by that
/// router's outgoing-link flits in the window relative to the series
/// peak (` ` idle through `@` peak).
#[must_use]
pub fn link_heatmap_over_time(series: &TelemetrySeries, mesh: Topology) -> String {
    const SHADES: [char; 6] = [' ', '.', ':', '=', '#', '@'];
    let n = mesh.len();
    // Outgoing flits per router per window.
    let rows: Vec<Vec<u64>> = series
        .windows
        .iter()
        .map(|w| {
            (0..n)
                .map(|r| w.link_flits[r * PORTS..(r + 1) * PORTS].iter().sum())
                .collect()
        })
        .collect();
    let peak = rows.iter().flatten().copied().max().unwrap_or(0).max(1);
    let mut s = String::new();
    s.push_str(&format!(
        "link flits per router per {}-cycle window (columns: router 0..{}, peak {} flits)\n",
        series.window,
        n - 1,
        peak
    ));
    for (w, row) in series.windows.iter().zip(rows.iter()) {
        s.push_str(&format!("c{:>8} |", w.end));
        for &flits in row {
            let shade = (flits as usize * (SHADES.len() - 1)).div_ceil(peak as usize);
            s.push(SHADES[shade.min(SHADES.len() - 1)]);
        }
        s.push_str(&format!("| {:>9} in flight\n", w.in_flight()));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use smart_sim::{FlowId, SourceRoute};

    fn mesh() -> Topology {
        Topology::paper_4x4()
    }

    #[test]
    fn bold_links_follow_the_flows() {
        let route = SourceRoute::xy(mesh(), NodeId(0), NodeId(3)).unwrap();
        let app = compile(mesh(), 8, &[(FlowId(0), route)]);
        let r = render_topology(mesh(), &app);
        // The bottom row (printed last) is the path 0-1-2-3: all bold.
        let bottom = r.lines().last().expect("nonempty");
        assert_eq!(bottom.matches('═').count(), 9, "{bottom}");
        // No vertical link is used.
        assert_eq!(r.matches('║').count(), 0);
        // No stops: no brackets.
        assert!(!r.contains('['));
    }

    #[test]
    fn stop_routers_are_bracketed() {
        let red = SourceRoute::from_router_path(mesh(), &[NodeId(13), NodeId(9), NodeId(10)]);
        let blue = SourceRoute::from_router_path(
            mesh(),
            &[
                NodeId(8),
                NodeId(9),
                NodeId(10),
                NodeId(11),
                NodeId(7),
                NodeId(3),
            ],
        );
        let app = compile(mesh(), 8, &[(FlowId(0), red), (FlowId(1), blue)]);
        let r = render_topology(mesh(), &app);
        assert!(r.contains("[ 9]"), "{r}");
        assert!(r.contains("[10]"), "{r}");
        assert!(!r.contains("[11]"), "11 is bypassed: {r}");
    }

    #[test]
    fn summary_counts() {
        let route = SourceRoute::xy(mesh(), NodeId(0), NodeId(3)).unwrap();
        let app = compile(mesh(), 8, &[(FlowId(0), route)]);
        let s = topology_summary(mesh(), &app);
        assert!(s.contains("3 bold links"), "{s}");
        assert!(s.contains("0 stop routers"), "{s}");
        assert!(s.contains("100% of router visits bypassed"), "{s}");
    }

    #[test]
    fn telemetry_renderers_shape_real_series() {
        use crate::config::NocConfig;
        use crate::noc::SmartNoc;
        use smart_sim::{ScriptedTraffic, TelemetryConfig};

        let cfg = NocConfig::paper_4x4();
        let route = SourceRoute::xy(cfg.topology, NodeId(0), NodeId(3)).unwrap();
        let mut noc = SmartNoc::new(&cfg, &[(FlowId(0), route)]);
        noc.network_mut()
            .set_telemetry(TelemetryConfig::windowed(16));
        let mut traffic =
            ScriptedTraffic::new(vec![(0, FlowId(0)), (5, FlowId(0))], cfg.flits_per_packet());
        noc.network_mut().run_with(&mut traffic, 40);
        let series = noc.network_mut().take_telemetry().expect("enabled");

        let hist = bypass_histogram(&series, cfg.hpc_max);
        assert!(hist.contains("HPC_max = 8"), "{hist}");
        // Full 3-link bypass on the 0->3 flow: bucket 3 populated.
        assert!(hist.contains("\n  3"), "{hist}");
        assert!(hist.contains("<- HPC_max"), "{hist}");

        let heat = link_heatmap_over_time(&series, cfg.topology);
        // One row per window, 16 router columns between the pipes.
        for line in heat.lines().skip(1) {
            let cols = line.split('|').nth(1).expect("pipes").chars().count();
            assert_eq!(cols, 16, "{line}");
        }
        assert!(heat.lines().count() >= 2, "{heat}");
    }

    #[test]
    fn grid_dimensions() {
        let route = SourceRoute::xy(mesh(), NodeId(0), NodeId(15)).unwrap();
        let app = compile(mesh(), 8, &[(FlowId(0), route)]);
        let r = render_topology(mesh(), &app);
        // 4 node rows + 3 vertical-link rows.
        assert_eq!(r.lines().count(), 7);
        // Top row is printed first (nodes 12..15).
        assert!(r.lines().next().expect("rows").contains("12"));
    }
}
