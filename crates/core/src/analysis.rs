//! Static analysis of a compiled application: zero-load latencies, link
//! utilization, and bandwidth feasibility — the checks a SMART tool
//! flow runs before committing presets to the configuration registers.

use crate::compile::CompiledApp;
use smart_sim::{FlowId, LinkId};
use std::collections::BTreeMap;
use std::fmt;

/// Per-flow static figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowFigures {
    /// Route length, links.
    pub hops: usize,
    /// Stop routers along the way.
    pub stops: usize,
    /// Zero-load head latency, cycles (`1 + 3·stops`).
    pub zero_load_latency: u64,
    /// The baseline mesh's zero-load latency for the same route
    /// (`4·hops + 4`), for the per-flow speedup column.
    pub mesh_latency: u64,
}

impl FlowFigures {
    /// Zero-load speedup over the baseline mesh.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.mesh_latency as f64 / self.zero_load_latency as f64
    }
}

/// Utilization of one link under given flow rates.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkUtilization {
    /// The link.
    pub link: LinkId,
    /// Flows crossing it.
    pub flows: Vec<FlowId>,
    /// Offered load in flits per cycle.
    pub flits_per_cycle: f64,
}

/// The full static report for a compiled application.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Per-flow figures, by flow id.
    pub flows: BTreeMap<FlowId, FlowFigures>,
    /// Per-link utilization, densest first.
    pub links: Vec<LinkUtilization>,
}

impl AnalysisReport {
    /// Zero-load average latency (unweighted across flows).
    #[must_use]
    pub fn avg_zero_load_latency(&self) -> f64 {
        if self.flows.is_empty() {
            return f64::NAN;
        }
        let sum: u64 = self.flows.values().map(|f| f.zero_load_latency).sum();
        sum as f64 / self.flows.len() as f64
    }

    /// Links offered more than one flit per cycle — infeasible load the
    /// open-loop traffic model would backlog indefinitely.
    #[must_use]
    pub fn oversubscribed(&self) -> Vec<&LinkUtilization> {
        self.links
            .iter()
            .filter(|l| l.flits_per_cycle > 1.0)
            .collect()
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<6} {:>5} {:>6} {:>10} {:>10} {:>9}",
            "flow", "hops", "stops", "SMART lat", "Mesh lat", "speedup"
        )?;
        for (flow, fig) in &self.flows {
            writeln!(
                f,
                "{:<6} {:>5} {:>6} {:>10} {:>10} {:>8.1}x",
                flow.to_string(),
                fig.hops,
                fig.stops,
                fig.zero_load_latency,
                fig.mesh_latency,
                fig.speedup()
            )?;
        }
        writeln!(f, "hottest links (flits/cycle):")?;
        for l in self.links.iter().take(5) {
            writeln!(
                f,
                "  {:<8} {:>6.3}  ({} flows)",
                l.link.to_string(),
                l.flits_per_cycle,
                l.flows.len()
            )?;
        }
        Ok(())
    }
}

/// Analyze `app` under per-flow packet rates (`packets/cycle`), with
/// `flits_per_packet` flits each.
///
/// # Panics
///
/// Panics if a rate references an unknown flow.
#[must_use]
pub fn analyze(app: &CompiledApp, rates: &[(FlowId, f64)], flits_per_packet: u8) -> AnalysisReport {
    let mut flows = BTreeMap::new();
    let mut per_link: BTreeMap<LinkId, (Vec<FlowId>, f64)> = BTreeMap::new();
    let rate_of: BTreeMap<FlowId, f64> = rates.iter().copied().collect();
    for plan in app.flows.iter() {
        let hops = plan.legs.iter().map(|l| usize::from(l.n_links)).sum();
        let stops = plan.num_stops();
        flows.insert(
            plan.flow,
            FlowFigures {
                hops,
                stops,
                zero_load_latency: plan.zero_load_latency(),
                mesh_latency: 4 * hops as u64 + 4,
            },
        );
        let flits = rate_of
            .get(&plan.flow)
            .copied()
            .unwrap_or_else(|| panic!("no rate for {}", plan.flow))
            * f64::from(flits_per_packet);
        for link in plan.legs.iter().flat_map(|l| plan.links(l)) {
            let e = per_link.entry(link).or_default();
            e.0.push(plan.flow);
            e.1 += flits;
        }
    }
    let mut links: Vec<LinkUtilization> = per_link
        .into_iter()
        .map(|(link, (flows, flits_per_cycle))| LinkUtilization {
            link,
            flows,
            flits_per_cycle,
        })
        .collect();
    links.sort_by(|a, b| {
        b.flits_per_cycle
            .partial_cmp(&a.flits_per_cycle)
            .expect("finite loads")
            .then(a.link.cmp(&b.link))
    });
    AnalysisReport { flows, links }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use smart_sim::Topology;
    use smart_sim::{NodeId, SourceRoute};

    fn mesh() -> Topology {
        Topology::paper_4x4()
    }

    fn two_flow_app() -> (CompiledApp, Vec<(FlowId, f64)>) {
        let routes = vec![
            (
                FlowId(0),
                SourceRoute::xy(mesh(), NodeId(0), NodeId(3)).unwrap(),
            ),
            (
                FlowId(1),
                SourceRoute::xy(mesh(), NodeId(4), NodeId(7)).unwrap(),
            ),
        ];
        let app = compile(mesh(), 8, &routes);
        let rates = vec![(FlowId(0), 0.01), (FlowId(1), 0.02)];
        (app, rates)
    }

    #[test]
    fn figures_match_compiler_outputs() {
        let (app, rates) = two_flow_app();
        let rep = analyze(&app, &rates, 8);
        let f0 = rep.flows[&FlowId(0)];
        assert_eq!(f0.hops, 3);
        assert_eq!(f0.stops, 0);
        assert_eq!(f0.zero_load_latency, 1);
        assert_eq!(f0.mesh_latency, 16);
        assert!((f0.speedup() - 16.0).abs() < 1e-12);
        assert_eq!(rep.avg_zero_load_latency(), 1.0);
    }

    #[test]
    fn link_loads_accumulate() {
        let (app, rates) = two_flow_app();
        let rep = analyze(&app, &rates, 8);
        // Flow 1 at 0.02 packets/cycle × 8 flits = 0.16 flits/cycle on
        // each of its 3 links.
        let hot = rep.links.first().expect("links exist");
        assert!((hot.flits_per_cycle - 0.16).abs() < 1e-12);
        assert_eq!(hot.flows, vec![FlowId(1)]);
        assert!(rep.oversubscribed().is_empty());
    }

    #[test]
    fn oversubscription_detected() {
        let routes = vec![(
            FlowId(0),
            SourceRoute::xy(mesh(), NodeId(0), NodeId(1)).unwrap(),
        )];
        let app = compile(mesh(), 8, &routes);
        let rep = analyze(&app, &[(FlowId(0), 0.2)], 8);
        // 0.2 × 8 = 1.6 flits/cycle > link capacity.
        assert_eq!(rep.oversubscribed().len(), 1);
    }

    #[test]
    fn display_renders_rows() {
        let (app, rates) = two_flow_app();
        let rep = analyze(&app, &rates, 8).to_string();
        assert!(rep.contains("f0"));
        assert!(rep.contains("speedup"));
        assert!(rep.contains("hottest links"));
    }
}
