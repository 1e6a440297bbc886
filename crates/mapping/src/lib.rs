//! Task mapping and routing for the SMART NoC (DATE 2013, Section VI).
//!
//! Pipeline: a [`smart_taskgraph::TaskGraph`] is placed onto the mesh by
//! the paper's modified [`nmap`] heuristic, its flows are routed by
//! contention-aware minimal [`routes`] (verified deadlock-free by
//! [`deadlock`]), and the result feeds `smart_core::compile` to produce
//! presets. [`MappedApp`] bundles the whole thing per application.
//!
//! ```
//! use smart_mapping::MappedApp;
//! use smart_core::config::NocConfig;
//! use smart_taskgraph::apps;
//!
//! let cfg = NocConfig::paper_4x4();
//! let app = MappedApp::from_graph(&cfg, &apps::vopd());
//! assert_eq!(app.routes.len(), apps::vopd().flows().len());
//! // Injection rates are packets/cycle, ready for Bernoulli traffic.
//! assert!(app.rates.iter().all(|(_, r)| *r > 0.0 && *r < 1.0));
//! ```

pub mod deadlock;
pub mod nmap;
pub mod routes;

pub use deadlock::{check, DeadlockCheck};
pub use nmap::{place, place_and_route, place_random, routable_flows, Placement};
pub use routes::{
    candidates, detour_candidates, select_routes, select_routes_with, yx, RoutableFlow,
    RouteOptions,
};

use smart_core::config::NocConfig;
use smart_sim::{FlowId, SourceRoute};
use smart_taskgraph::TaskGraph;

/// A fully mapped application: placement, routes and injection rates.
#[derive(Debug, Clone)]
pub struct MappedApp {
    /// Application name.
    pub name: String,
    /// Task placement.
    pub placement: Placement,
    /// One route per task-graph flow (`FlowId` = flow index).
    pub routes: Vec<(FlowId, SourceRoute)>,
    /// Per-flow injection rates in packets per cycle at the
    /// configuration's clock and packet size.
    pub rates: Vec<(FlowId, f64)>,
}

impl MappedApp {
    /// Map `graph` onto `cfg`'s mesh and derive injection rates.
    #[must_use]
    pub fn from_graph(cfg: &NocConfig, graph: &TaskGraph) -> Self {
        let (placement, routes) = place_and_route(cfg.topology, graph);
        MappedApp::assemble(cfg, graph, placement, routes)
    }

    /// Use a caller-supplied placement (e.g. [`place_random`] for the
    /// heterogeneous-SoC scenario) and route its flows.
    #[must_use]
    pub fn with_placement(cfg: &NocConfig, graph: &TaskGraph, placement: Placement) -> Self {
        let flows = routable_flows(graph, &placement);
        let routes = select_routes(cfg.topology, &flows);
        MappedApp::assemble(cfg, graph, placement, routes)
    }

    /// Map with an explicit routing policy (e.g.
    /// [`RouteOptions::with_detours`] for the paper's non-minimal
    /// future-work mode).
    #[must_use]
    pub fn from_graph_with_routing(cfg: &NocConfig, graph: &TaskGraph, opts: RouteOptions) -> Self {
        let placement = place(cfg.topology, graph);
        let flows = routable_flows(graph, &placement);
        let routes = select_routes_with(cfg.topology, &flows, opts);
        MappedApp::assemble(cfg, graph, placement, routes)
    }

    fn assemble(
        cfg: &NocConfig,
        graph: &TaskGraph,
        placement: Placement,
        routes: Vec<(FlowId, SourceRoute)>,
    ) -> Self {
        let rates = graph
            .flows()
            .iter()
            .enumerate()
            .map(|(i, f)| (FlowId(i as u32), cfg.packets_per_cycle(f.bandwidth_mbs)))
            .collect();
        MappedApp {
            name: graph.name().to_owned(),
            placement,
            routes,
            rates,
        }
    }

    /// Average route length in hops.
    #[must_use]
    pub fn avg_hops(&self) -> f64 {
        if self.routes.is_empty() {
            return 0.0;
        }
        let total: usize = self.routes.iter().map(|(_, r)| r.num_hops()).sum();
        total as f64 / self.routes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_taskgraph::apps;

    #[test]
    fn all_apps_map_cleanly() {
        let cfg = NocConfig::paper_4x4();
        for g in apps::all() {
            let app = MappedApp::from_graph(&cfg, &g);
            assert_eq!(app.routes.len(), g.flows().len(), "{}", g.name());
            let offered: f64 = app.rates.iter().map(|(_, r)| r).sum();
            assert!(offered > 0.0 && offered < 0.5);
            assert!(app.avg_hops() >= 1.0);
            // Routes are deadlock-free by construction.
            let rs: Vec<SourceRoute> = app.routes.iter().map(|(_, r)| r.clone()).collect();
            assert!(deadlock::check(cfg.topology, &rs).is_free(), "{}", g.name());
        }
    }

    #[test]
    fn rates_follow_bandwidth() {
        let cfg = NocConfig::paper_4x4();
        let g = apps::vopd();
        let app = MappedApp::from_graph(&cfg, &g);
        // Flow 9 (vop_rec -> pad) is the 500 MB/s hot flow.
        let (_, hot) = app.rates[9];
        assert!((hot - cfg.packets_per_cycle(500.0)).abs() < 1e-15);
        // All rates positive.
        assert!(app.rates.iter().all(|(_, r)| *r > 0.0));
    }
}
