//! The conformance runner: drive one design through one scenario and
//! assert the delivery, link-exclusivity and zero-load invariants.

use crate::scenario::Scenario;
use smart_core::compile::CompiledApp;
use smart_core::config::NocConfig;
use smart_harness::{Experiment, RunPlan, ScheduleDesign};
use smart_sim::{Direction, FlowId, LinkId, NodeId, SourceRoute};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything measured while checking one (design, scenario) cell.
/// Byte-identical across runs with the same [`Conformance`] settings.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseReport {
    /// Design label.
    pub design: String,
    /// Scenario name.
    pub scenario: String,
    /// Packets offered during the loaded run.
    pub packets_injected: u64,
    /// Packets delivered by the end of the drain.
    pub packets_delivered: u64,
    /// Flits delivered by the end of the drain.
    pub flits_delivered: u64,
    /// Average head-flit network latency over the loaded run.
    pub avg_network_latency: f64,
    /// Flows whose lone-packet latency was checked against prediction.
    pub zero_load_flows_checked: usize,
    /// Links carrying more than one flow (0 means trivially exclusive).
    pub shared_links: usize,
}

impl CaseReport {
    /// One stable line, full float precision — the golden-matrix
    /// snapshot format (`tests/golden/conformance_matrix.txt`).
    #[must_use]
    pub fn golden_line(&self) -> String {
        format!(
            "{}/{} injected={} delivered={} flits={} latency={} zero_load={} shared={}",
            self.design,
            self.scenario,
            self.packets_injected,
            self.packets_delivered,
            self.flits_delivered,
            self.avg_network_latency,
            self.zero_load_flows_checked,
            self.shared_links
        )
    }
}

/// Conformance settings: one fixed seed, one design point, bounded
/// cycle budgets. The defaults suit CI; [`Conformance::quick`] is for
/// smoke tests.
#[derive(Debug, Clone)]
pub struct Conformance {
    /// The design point (Table II by default).
    pub cfg: NocConfig,
    /// Traffic RNG seed shared by every case.
    pub seed: u64,
    /// Cycles of Bernoulli load per case.
    pub run_cycles: u64,
    /// Drain budget after the loaded run.
    pub drain_budget: u64,
    /// At most this many flows get a lone-packet zero-load run.
    pub zero_load_flow_cap: usize,
}

impl Default for Conformance {
    fn default() -> Self {
        Conformance {
            cfg: NocConfig::paper_4x4(),
            seed: 0x5AA7_C0DE,
            run_cycles: 4_000,
            drain_budget: 4_000,
            zero_load_flow_cap: 6,
        }
    }
}

impl Conformance {
    /// A lighter battery for smoke tests and doctests.
    #[must_use]
    pub fn quick() -> Self {
        Conformance {
            run_cycles: 1_000,
            drain_budget: 2_000,
            zero_load_flow_cap: 2,
            ..Conformance::default()
        }
    }

    /// Run every design × every scenario; panics on the first invariant
    /// violation, otherwise returns one report per combination.
    #[must_use]
    pub fn run_matrix(
        &self,
        designs: &[ScheduleDesign],
        scenarios: &[Scenario],
    ) -> Vec<CaseReport> {
        let mut out = Vec::with_capacity(designs.len() * scenarios.len());
        for scenario in scenarios {
            for design in designs {
                out.push(self.run_case(*design, scenario));
            }
        }
        out
    }

    /// Check one (design, scenario) combination. Every design runs
    /// through [`Experiment`] as its [`ScheduleDesign::kind`]: a
    /// one-application case has no transition, so
    /// [`ScheduleDesign::Reconfigurable`] is the SMART network it
    /// reconfigures.
    ///
    /// # Panics
    ///
    /// Panics if any conformance invariant fails — delivery, structural
    /// link exclusivity or zero-load latency.
    #[must_use]
    pub fn run_case(&self, design: ScheduleDesign, scenario: &Scenario) -> CaseReport {
        // `Experiment::run_routed` shares the routed form, not a copy.
        let scenario = &Arc::new(scenario.clone());
        let ctx = format!("{}/{}", design.label(), scenario.name);

        // --- Invariant 2 (structural): Section IV stop rules. ---
        let compiled = match design {
            ScheduleDesign::Smart | ScheduleDesign::Reconfigurable => {
                let app = smart_core::compile::compile(
                    self.cfg.topology,
                    self.cfg.hpc_max,
                    &scenario.routes,
                );
                check_link_exclusivity(&ctx, &self.cfg, scenario, &app);
                Some(app)
            }
            // The mesh stops at every router and the dedicated design
            // has one private link per flow: exclusive by construction.
            ScheduleDesign::Mesh | ScheduleDesign::Dedicated => None,
        };
        let shared_links = count_shared_links(&self.cfg, &scenario.routes);

        // --- Invariant 1: loaded run must deliver everything. ---
        let report = Experiment::new(self.cfg.clone())
            .design(design.kind())
            .plan(RunPlan::measure_all(
                self.run_cycles,
                self.drain_budget,
                self.seed,
            ))
            .run_routed(scenario);
        assert!(
            report.drained,
            "{ctx}: network failed to drain within {} cycles",
            self.drain_budget
        );
        let (injected, delivered) = (report.packets_injected, report.packets_delivered);
        assert_eq!(
            delivered, injected,
            "{ctx}: {injected} packets in, only {delivered} out"
        );
        assert_eq!(
            report.flits_delivered,
            delivered * u64::from(self.cfg.flits_per_packet()),
            "{ctx}: flit count disagrees with packet count"
        );

        // --- Invariant 3: lone-packet latency equals the prediction. ---
        let checked = self.check_zero_load(&ctx, design, scenario, compiled.as_ref());

        CaseReport {
            design: design.label().to_owned(),
            scenario: scenario.name.clone(),
            packets_injected: injected,
            packets_delivered: delivered,
            flits_delivered: report.flits_delivered,
            avg_network_latency: report.avg_network_latency,
            zero_load_flows_checked: checked,
            shared_links,
        }
    }

    /// Lone-packet runs: measured latency must equal the analytical
    /// zero-load prediction for up to `zero_load_flow_cap` flows.
    fn check_zero_load(
        &self,
        ctx: &str,
        design: ScheduleDesign,
        scenario: &Arc<Scenario>,
        compiled: Option<&CompiledApp>,
    ) -> usize {
        let mut checked = 0;
        for (flow, route) in scenario.routes.iter().take(self.zero_load_flow_cap) {
            let expected = match design {
                ScheduleDesign::Mesh => 4.0 * route.num_hops() as f64 + 4.0,
                ScheduleDesign::Dedicated => {
                    // Private sink: NIC-to-NIC in one cycle. Shared
                    // sink: the paper serializes flows into the
                    // destination NIC through a stop router (+3).
                    let dst = route.destination(self.cfg.topology);
                    let shared = scenario
                        .routes
                        .iter()
                        .any(|(f, r)| f != flow && r.destination(self.cfg.topology) == dst);
                    if shared {
                        4.0
                    } else {
                        1.0
                    }
                }
                ScheduleDesign::Smart | ScheduleDesign::Reconfigurable => {
                    let app = compiled.expect("compiled for SMART designs");
                    app.flows.plan(*flow).zero_load_latency() as f64
                }
            };
            let report = Experiment::new(self.cfg.clone())
                .design(design.kind())
                .scripted(vec![(0, *flow)])
                .plan(RunPlan::measure_all(8, 1_000, self.seed))
                .run_routed(scenario);
            assert!(report.drained, "{ctx}: lone packet stuck");
            let got = report.avg_network_latency;
            assert!(
                (got - expected).abs() < 1e-9,
                "{ctx}: flow {flow} zero-load latency {got}, predicted {expected}"
            );
            checked += 1;
        }
        checked
    }
}

/// Per-flow port usage along a route, mirroring the compiler's view:
/// `routers[i]` is entered via `inputs[i]` and left via `outputs[i]`
/// (`Core` at the source / destination); `links[i]` connects
/// `routers[i]` to `routers[i + 1]`.
struct RoutePorts {
    flow: FlowId,
    routers: Vec<NodeId>,
    inputs: Vec<Direction>,
    outputs: Vec<Direction>,
    links: Vec<LinkId>,
}

fn route_ports(cfg: &NocConfig, flow: FlowId, route: &SourceRoute) -> RoutePorts {
    let routers = route.routers(cfg.topology);
    let outputs = route.outputs();
    let mut inputs = Vec::with_capacity(routers.len());
    inputs.push(Direction::Core);
    for o in &outputs[..outputs.len() - 1] {
        inputs.push(o.opposite());
    }
    RoutePorts {
        flow,
        routers,
        inputs,
        outputs,
        links: route.links(cfg.topology),
    }
}

/// Number of mesh links used by more than one flow.
fn count_shared_links(cfg: &NocConfig, routes: &[(FlowId, SourceRoute)]) -> usize {
    let mut users: BTreeMap<LinkId, usize> = BTreeMap::new();
    for (_, route) in routes {
        for link in route.links(cfg.topology) {
            *users.entry(link).or_default() += 1;
        }
    }
    users.values().filter(|&&n| n > 1).count()
}

/// Structural link-exclusivity: the Section IV stop rules, checked as
/// *necessary* conditions against the compiler's stop sets. For every
/// link carried by more than one flow:
///
/// * flows **diverging at the sink** (different outputs there) must all
///   stop at the sink — the bypass mux cannot steer them apart;
/// * flows **converging at the source** (different inputs there) must
///   all stop at the source — the crossbar select cannot arbitrate.
fn check_link_exclusivity(ctx: &str, cfg: &NocConfig, scenario: &Scenario, app: &CompiledApp) {
    let ports: Vec<RoutePorts> = scenario
        .routes
        .iter()
        .map(|(f, r)| route_ports(cfg, *f, r))
        .collect();
    // link -> (flow, index of the link's source router in the route).
    let mut by_link: BTreeMap<LinkId, Vec<(usize, usize)>> = BTreeMap::new();
    for (pi, p) in ports.iter().enumerate() {
        for (i, link) in p.links.iter().enumerate() {
            by_link.entry(*link).or_default().push((pi, i));
        }
    }
    for (link, users) in &by_link {
        if users.len() < 2 {
            continue;
        }
        // Output direction at the sink router (Core when terminating),
        // input direction at the source router (Core when originating).
        let outputs_at_sink: Vec<Direction> = users
            .iter()
            .map(|(pi, i)| ports[*pi].outputs[i + 1])
            .collect();
        let inputs_at_source: Vec<Direction> =
            users.iter().map(|(pi, i)| ports[*pi].inputs[*i]).collect();
        let diverge = outputs_at_sink.windows(2).any(|w| w[0] != w[1]);
        let converge = inputs_at_source.windows(2).any(|w| w[0] != w[1]);
        for (pi, i) in users {
            let p = &ports[*pi];
            let stops = app.stops(p.flow);
            if diverge {
                let sink = p.routers[i + 1];
                assert!(
                    stops.contains(&sink),
                    "{ctx}: flows diverge after {link} but {} does not stop at {sink}",
                    p.flow
                );
            }
            if converge {
                let source = p.routers[*i];
                assert!(
                    stops.contains(&source),
                    "{ctx}: flows converge onto {link} but {} does not stop at {source}",
                    p.flow
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_smart_case_passes_and_reports() {
        let conf = Conformance::quick();
        let s = Scenario::fig7(&conf.cfg);
        let r = conf.run_case(ScheduleDesign::Smart, &s);
        assert_eq!(r.design, "SMART");
        assert_eq!(r.packets_delivered, r.packets_injected);
        // Red and blue share link 9→10.
        assert_eq!(r.shared_links, 1);
    }

    #[test]
    fn all_designs_pass_fig7() {
        let conf = Conformance::quick();
        let s = Scenario::fig7(&conf.cfg);
        for d in ScheduleDesign::ALL {
            let r = conf.run_case(d, &s);
            assert!(r.zero_load_flows_checked > 0, "{}", d.label());
        }
    }

    #[test]
    fn reports_are_deterministic() {
        let conf = Conformance::quick();
        let s = Scenario::fig7(&conf.cfg);
        let a = conf.run_case(ScheduleDesign::Smart, &s);
        let b = conf.run_case(ScheduleDesign::Smart, &s);
        assert_eq!(a, b);
    }

    #[test]
    fn shared_link_counter_counts() {
        let cfg = NocConfig::paper_4x4();
        let s = Scenario::fig7(&cfg);
        assert_eq!(count_shared_links(&cfg, &s.routes), 1);
    }
}
