//! The preset compiler: from routed flows to stop sets, single-cycle
//! segments, flow plans and router presets.
//!
//! Given an application's flows mapped onto static routes, SMART presets
//! the network so that every flit bypasses as many routers as possible.
//! A flit must **stop** (be buffered and arbitrate) at router `r` exactly
//! when the preset hardware cannot disambiguate it (Section IV):
//!
//! * its input link at `r` also carries a flow needing a *different*
//!   output (the bypass mux would have to look at the flit), or
//! * its output port at `r` is also used by a flow arriving on a
//!   *different* input (the crossbar select would have to arbitrate), or
//! * the preceding stop is more than `HPC_max` hops away (the paper's
//!   8 mm at 2 GHz single-cycle reach, Table I).
//!
//! The first two rules collapse to one statement: *an input port is a
//! stop-input iff its flows disagree on the output, or any of its
//! outputs is shared with another input.* Flows stop wherever they enter
//! a stop-input. The compiler computes this to fixpoint (HPC splits can
//! create new stop-inputs), then emits [`FlowPlan`]s with merged
//! `ST+LT` single-cycle legs and [`MeshPresets`] for every router.

use crate::preset::{InputMux, MeshPresets, XbarSelect};
use smart_sim::forward::{Endpoint, FlowPlan, Segment, Sender};
use smart_sim::{Direction, FlowId, FlowTable, LinkId, NodeId, SourceRoute, Topology};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Result of compiling one application onto the SMART mesh.
#[derive(Debug, Clone)]
pub struct CompiledApp {
    /// Flow plans (single-cycle multi-hop legs) for the simulator.
    pub flows: FlowTable,
    /// Router presets (bypass muxes, crossbar selects, credit crossbars).
    pub presets: MeshPresets,
    /// Stop routers per flow, in travel order.
    pub stops: BTreeMap<FlowId, Vec<NodeId>>,
}

impl CompiledApp {
    /// Mean number of stops per flow — the paper's latency driver
    /// (zero-load latency is `1 + 3·stops`).
    #[must_use]
    pub fn avg_stops(&self) -> f64 {
        if self.stops.is_empty() {
            return 0.0;
        }
        let total: usize = self.stops.values().map(Vec::len).sum();
        total as f64 / self.stops.len() as f64
    }

    /// Fraction of (flow, router) visits that are bypassed.
    #[must_use]
    pub fn bypass_fraction(&self, mesh: Topology) -> f64 {
        let mut visits = 0usize;
        let mut stops = 0usize;
        for plan in self.flows.iter() {
            visits += plan.route.routers(mesh).len();
            stops += self.stops[&plan.flow].len();
        }
        if visits == 0 {
            return 0.0;
        }
        1.0 - stops as f64 / visits as f64
    }
}

/// Per-flow port usage at each visited router.
#[derive(Debug, Clone)]
struct FlowUse {
    flow: FlowId,
    routers: Vec<NodeId>,
    /// Input direction at each router (`Core` at the source).
    inputs: Vec<Direction>,
    /// Output direction at each router (`Core` at the destination).
    outputs: Vec<Direction>,
}

fn flow_use(mesh: Topology, flow: FlowId, route: &SourceRoute) -> FlowUse {
    let routers = route.routers(mesh);
    let outputs = route.outputs();
    let mut inputs = Vec::with_capacity(routers.len());
    inputs.push(Direction::Core);
    for o in &outputs[..outputs.len() - 1] {
        inputs.push(o.opposite());
    }
    FlowUse {
        flow,
        routers,
        inputs,
        outputs,
    }
}

/// Compile `routes` for a mesh with single-cycle reach `hpc_max`.
///
/// # Panics
///
/// Panics if `hpc_max` is zero, a flow id repeats, or the resulting
/// presets would be inconsistent (a compiler bug, not a user error —
/// the stop rules guarantee consistency for any route set).
#[must_use]
pub fn compile(mesh: Topology, hpc_max: usize, routes: &[(FlowId, SourceRoute)]) -> CompiledApp {
    assert!(hpc_max > 0, "HPC_max must be at least 1");
    let uses: Vec<FlowUse> = routes.iter().map(|(f, r)| flow_use(mesh, *f, r)).collect();

    // --- Conflict-driven stop inputs. ---
    // (router, input) -> set of outputs used through it.
    let mut in_outs: HashMap<(NodeId, Direction), BTreeSet<Direction>> = HashMap::new();
    // (router, output) -> set of inputs feeding it.
    let mut out_ins: HashMap<(NodeId, Direction), BTreeSet<Direction>> = HashMap::new();
    for u in &uses {
        for i in 0..u.routers.len() {
            let r = u.routers[i];
            in_outs
                .entry((r, u.inputs[i]))
                .or_default()
                .insert(u.outputs[i]);
            out_ins
                .entry((r, u.outputs[i]))
                .or_default()
                .insert(u.inputs[i]);
        }
    }
    let mut stop_inputs: HashMap<NodeId, BTreeSet<Direction>> = HashMap::new();
    for ((r, input), outs) in &in_outs {
        if outs.len() > 1 {
            stop_inputs.entry(*r).or_default().insert(*input);
        }
    }
    for ((r, _out), ins) in &out_ins {
        if ins.len() > 1 {
            for i in ins {
                stop_inputs.entry(*r).or_default().insert(*i);
            }
        }
    }

    // --- HPC_max splitting, to fixpoint. ---
    loop {
        let mut changed = false;
        for u in &uses {
            let stops = stop_indices(u, &stop_inputs);
            let mut prev = 0usize; // links consumed up to the last boundary
            for &s in &stops {
                if s - prev > hpc_max {
                    let split = prev + hpc_max;
                    stop_inputs
                        .entry(u.routers[split])
                        .or_default()
                        .insert(u.inputs[split]);
                    changed = true;
                }
                prev = s;
            }
            let last = u.routers.len() - 1;
            if last - prev > hpc_max {
                let split = prev + hpc_max;
                stop_inputs
                    .entry(u.routers[split])
                    .or_default()
                    .insert(u.inputs[split]);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // --- Plans. ---
    let mut flows = FlowTable::new();
    let mut stops_by_flow = BTreeMap::new();
    for ((_, route), u) in routes.iter().zip(uses.iter()) {
        let stops = stop_indices(u, &stop_inputs);
        stops_by_flow.insert(u.flow, stops.iter().map(|&i| u.routers[i]).collect());
        let plan = build_plan(mesh, u, route, &stops);
        flows.insert(mesh, plan);
    }

    // --- Presets. ---
    let mut presets = MeshPresets::idle(mesh);
    for u in &uses {
        for i in 0..u.routers.len() {
            let r = u.routers[i];
            let is_stop = stop_inputs
                .get(&r)
                .is_some_and(|s| s.contains(&u.inputs[i]));
            let p = presets.router_mut(r);
            let mux = if is_stop {
                InputMux::Buffer
            } else {
                InputMux::Bypass
            };
            let slot = &mut p.input_mux[u.inputs[i].index()];
            match slot {
                None => *slot = Some(mux),
                Some(existing) => assert_eq!(
                    *existing, mux,
                    "{}: input mux conflict at {r} {}",
                    u.flow, u.inputs[i]
                ),
            }
            let want = if is_stop {
                XbarSelect::Arbitrated
            } else {
                XbarSelect::FromInput(u.inputs[i])
            };
            let xslot = &mut p.xbar[u.outputs[i].index()];
            match xslot {
                XbarSelect::Unused => *xslot = want,
                other => assert_eq!(
                    *other, want,
                    "{}: crossbar select conflict at {r} {}",
                    u.flow, u.outputs[i]
                ),
            }
            if !is_stop {
                // Pass-through credit crossbar: credits for this flow
                // enter on the data-output side and leave on the
                // data-input side.
                let cslot = &mut p.credit_xbar[u.inputs[i].index()];
                match cslot {
                    None => *cslot = Some(u.outputs[i]),
                    Some(existing) => assert_eq!(
                        *existing, u.outputs[i],
                        "{}: credit crossbar conflict at {r}",
                        u.flow
                    ),
                }
            }
        }
    }

    // --- Single-cycle link exclusivity: every link belongs to one leg
    // sender. ---
    let mut link_owner: HashMap<LinkId, Sender> = HashMap::new();
    for plan in flows.iter() {
        for leg in &plan.legs {
            for link in &leg.links {
                if let Some(prev) = link_owner.insert(*link, leg.sender) {
                    assert_eq!(
                        prev, leg.sender,
                        "link {link} shared across senders: preset compiler bug"
                    );
                }
            }
        }
    }

    CompiledApp {
        flows,
        presets,
        stops: stops_by_flow,
    }
}

/// Indices (into the flow's router list) where the flow stops.
fn stop_indices(u: &FlowUse, stop_inputs: &HashMap<NodeId, BTreeSet<Direction>>) -> Vec<usize> {
    (0..u.routers.len())
        .filter(|&i| {
            stop_inputs
                .get(&u.routers[i])
                .is_some_and(|s| s.contains(&u.inputs[i]))
        })
        .collect()
}

/// Build the flow plan given its stop indices.
fn build_plan(mesh: Topology, u: &FlowUse, route: &SourceRoute, stops: &[usize]) -> FlowPlan {
    let links = route.links(mesh);
    let last = u.routers.len() - 1;
    let mut legs = Vec::new();

    // Boundaries: source NIC, each stop, destination NIC.
    let mut from: Option<usize> = None; // None = source NIC
    let mut remaining: Vec<usize> = stops.to_vec();
    remaining.push(usize::MAX); // sentinel for the final leg to the NIC
    for &to in &remaining {
        let (sender, out_dir, start_link) = match from {
            None => (
                Sender::Nic(u.routers[0]),
                if to == 0 {
                    Direction::Core
                } else {
                    u.outputs[0]
                },
                0usize,
            ),
            Some(j) => (
                Sender::RouterOutput(u.routers[j], u.outputs[j]),
                u.outputs[j],
                j,
            ),
        };
        if to == usize::MAX {
            // Final leg to the destination NIC.
            let start = from.map_or(0, |j| j);
            legs.push(Segment {
                sender,
                out_dir,
                links: links[start..].to_vec(),
                end: Endpoint::Nic {
                    node: u.routers[last],
                },
                cycles: 1,
            });
            break;
        }
        legs.push(Segment {
            sender,
            out_dir,
            links: links[start_link..to].to_vec(),
            end: Endpoint::Stop {
                router: u.routers[to],
                in_dir: u.inputs[to],
            },
            cycles: 1,
        });
        from = Some(to);
    }
    FlowPlan {
        flow: u.flow,
        route: route.clone(),
        legs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Topology {
        Topology::paper_4x4()
    }

    fn route(path: &[u16]) -> SourceRoute {
        let nodes: Vec<NodeId> = path.iter().map(|n| NodeId(*n)).collect();
        SourceRoute::from_router_path(mesh(), &nodes)
    }

    #[test]
    fn lone_flow_has_no_stops() {
        let app = compile(mesh(), 8, &[(FlowId(0), route(&[0, 1, 2, 3]))]);
        assert_eq!(app.stops[&FlowId(0)], Vec::<NodeId>::new());
        let plan = app.flows.plan(FlowId(0));
        assert_eq!(plan.legs.len(), 1);
        assert_eq!(
            plan.zero_load_latency(),
            1,
            "source NIC to dest NIC in 1 cycle"
        );
        assert!((app.bypass_fraction(mesh()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shared_link_forces_stops_on_both_sides() {
        // The paper's Fig 7 red/blue situation: two flows share link
        // 9 -> 10; both stop at 9 (output conflict) and at 10 (input
        // conflict).
        let red = route(&[13, 9, 10]);
        let blue = route(&[8, 9, 10, 11, 7, 3]);
        let app = compile(mesh(), 8, &[(FlowId(0), red), (FlowId(1), blue)]);
        assert_eq!(app.stops[&FlowId(0)], vec![NodeId(9), NodeId(10)]);
        assert_eq!(app.stops[&FlowId(1)], vec![NodeId(9), NodeId(10)]);
        // Zero-load latencies: 1 + 3 stops · 2 = 7 (the figure's labels).
        assert_eq!(app.flows.plan(FlowId(0)).zero_load_latency(), 7);
        assert_eq!(app.flows.plan(FlowId(1)).zero_load_latency(), 7);
    }

    #[test]
    fn same_source_different_directions_stop_at_source() {
        // Two flows from node 5: one east, one north. The Core input at
        // router 5 carries flows with different outputs -> both stop at
        // the source router.
        let a = route(&[5, 6, 7]);
        let b = route(&[5, 9, 13]);
        let app = compile(mesh(), 8, &[(FlowId(0), a), (FlowId(1), b)]);
        assert_eq!(app.stops[&FlowId(0)], vec![NodeId(5)]);
        assert_eq!(app.stops[&FlowId(1)], vec![NodeId(5)]);
        assert_eq!(app.flows.plan(FlowId(0)).zero_load_latency(), 4);
    }

    #[test]
    fn shared_sink_stops_at_destination() {
        // Two flows into node 6 from different inputs: the Core output
        // at 6 has two inputs -> both stop at 6 (serialized ejection).
        let a = route(&[5, 6]);
        let b = route(&[10, 6]);
        let app = compile(mesh(), 8, &[(FlowId(0), a), (FlowId(1), b)]);
        assert_eq!(app.stops[&FlowId(0)], vec![NodeId(6)]);
        assert_eq!(app.stops[&FlowId(1)], vec![NodeId(6)]);
    }

    #[test]
    fn hpc_max_splits_long_segments() {
        // A 6-hop unconflicted flow with HPC_max = 2 must stop every
        // 2 hops: at router index 2 and 4 (routers 2 and 8? path
        // 0,1,2,3,7,11,15).
        let app = compile(mesh(), 2, &[(FlowId(0), route(&[0, 1, 2, 3, 7, 11, 15]))]);
        assert_eq!(app.stops[&FlowId(0)], vec![NodeId(2), NodeId(7)]);
        // With HPC_max = 8 the same flow flies through.
        let app8 = compile(mesh(), 8, &[(FlowId(0), route(&[0, 1, 2, 3, 7, 11, 15]))]);
        assert!(app8.stops[&FlowId(0)].is_empty());
    }

    #[test]
    fn hpc_one_degenerates_to_per_hop_stops() {
        let app = compile(mesh(), 1, &[(FlowId(0), route(&[0, 1, 2, 3]))]);
        // Stops after every link except the last (the final link plus
        // ejection through the destination crossbar fits one cycle).
        assert_eq!(app.stops[&FlowId(0)], vec![NodeId(1), NodeId(2)]);
        // 1 + 3·2 = 7 < mesh baseline's 16: ST+LT merging still wins.
        assert_eq!(app.flows.plan(FlowId(0)).zero_load_latency(), 7);
    }

    #[test]
    fn presets_mark_bypass_and_arbitrated_ports() {
        let red = route(&[13, 9, 10]);
        let blue = route(&[8, 9, 10, 11, 7, 3]);
        let app = compile(mesh(), 8, &[(FlowId(0), red), (FlowId(1), blue)]);
        // Router 9: both inputs buffered, East output arbitrated.
        let p9 = app.presets.router(NodeId(9));
        assert_eq!(
            p9.input_mux[Direction::North.index()],
            Some(InputMux::Buffer)
        );
        assert_eq!(
            p9.input_mux[Direction::West.index()],
            Some(InputMux::Buffer)
        );
        assert_eq!(p9.xbar[Direction::East.index()], XbarSelect::Arbitrated);
        // Router 11: blue bypasses it (in W, out S... path 10->11->7:
        // enters 11 at West, leaves South).
        let p11 = app.presets.router(NodeId(11));
        assert_eq!(
            p11.input_mux[Direction::West.index()],
            Some(InputMux::Bypass)
        );
        assert_eq!(
            p11.xbar[Direction::South.index()],
            XbarSelect::FromInput(Direction::West)
        );
        // And the credit crossbar mirrors the data path at 11.
        assert_eq!(
            p11.credit_xbar[Direction::West.index()],
            Some(Direction::South)
        );
        // Router 13 (red's source, pure bypass): Core input bypassed into
        // the South output.
        let p13 = app.presets.router(NodeId(13));
        assert_eq!(
            p13.input_mux[Direction::Core.index()],
            Some(InputMux::Bypass)
        );
        assert_eq!(
            p13.xbar[Direction::South.index()],
            XbarSelect::FromInput(Direction::Core)
        );
    }

    #[test]
    fn unused_routers_stay_idle_for_clock_gating() {
        let app = compile(mesh(), 8, &[(FlowId(0), route(&[0, 1]))]);
        assert!(app.presets.router(NodeId(15)).is_idle());
        assert!(app.presets.router(NodeId(5)).is_idle());
        assert!(!app.presets.router(NodeId(0)).is_idle());
    }

    #[test]
    fn merged_flows_share_a_sender_leg() {
        // Two flows from the same source, same first link, diverging
        // later: they stop at the source (output conflict? no — same
        // output E at 0; but at router 1 they diverge -> input conflict
        // at 1) and both legs 0->1 share the NIC sender.
        let a = route(&[0, 1, 2]);
        let b = route(&[0, 1, 5]);
        let app = compile(mesh(), 8, &[(FlowId(0), a), (FlowId(1), b)]);
        assert_eq!(app.stops[&FlowId(0)], vec![NodeId(1)]);
        assert_eq!(app.stops[&FlowId(1)], vec![NodeId(1)]);
        let plan_a = app.flows.plan(FlowId(0));
        assert_eq!(plan_a.legs[0].sender, Sender::Nic(NodeId(0)));
        assert_eq!(plan_a.legs[0].links.len(), 1);
    }

    #[test]
    fn avg_stops_reflects_contention() {
        let free = compile(mesh(), 8, &[(FlowId(0), route(&[0, 1, 2]))]);
        assert_eq!(free.avg_stops(), 0.0);
        let contended = compile(
            mesh(),
            8,
            &[(FlowId(0), route(&[5, 6])), (FlowId(1), route(&[10, 6]))],
        );
        assert_eq!(contended.avg_stops(), 1.0);
    }

    #[test]
    #[should_panic(expected = "HPC_max must be at least 1")]
    fn zero_hpc_rejected() {
        let _ = compile(mesh(), 0, &[]);
    }
}
