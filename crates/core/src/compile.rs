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
//!
//! A router has five ports, so each predicate is a `u8` bit mask (bit
//! `Direction::index`) in a dense array indexed `node * PORTS + dir`.

use crate::preset::{InputMux, MeshPresets, XbarSelect};
use smart_sim::forward::{Endpoint, FlowPlan, Segment, Sender};
use smart_sim::topology::PORTS;
use smart_sim::{Direction, FlowId, FlowTable, LinkId, NodeId, SourceRoute, Topology};

/// Result of compiling one application onto the SMART mesh.
#[derive(Debug, Clone)]
pub struct CompiledApp {
    /// Flow plans (single-cycle multi-hop legs) for the simulator.
    pub flows: FlowTable,
    /// Router presets (bypass muxes, crossbar selects, credit crossbars).
    pub presets: MeshPresets,
}

impl CompiledApp {
    /// Stop routers of `flow`, in travel order: where every leg but the
    /// last ends. Panics if the flow is unknown.
    #[must_use]
    pub fn stops(&self, flow: FlowId) -> Vec<NodeId> {
        let legs = self.flows.plan(flow).legs;
        let ends = legs[..legs.len() - 1].iter();
        ends.map(|l| l.end.node()).collect()
    }

    /// Mean number of stops per flow — the paper's latency driver
    /// (zero-load latency is `1 + 3·stops`).
    #[must_use]
    pub fn avg_stops(&self) -> f64 {
        if self.flows.is_empty() {
            return 0.0;
        }
        let total: usize = self.flows.iter().map(|p| p.num_stops()).sum();
        total as f64 / self.flows.len() as f64
    }

    /// Fraction of (flow, router) visits that are bypassed; a flow
    /// visits one router more than it crosses links. `mesh` is not
    /// consulted: the legs carry the links.
    #[must_use]
    pub fn bypass_fraction(&self, _mesh: Topology) -> f64 {
        let mut visits = 0usize;
        let mut stops = 0usize;
        for plan in self.flows.iter() {
            let links = plan.legs.iter().map(|l| usize::from(l.n_links));
            visits += 1 + links.sum::<usize>();
            stops += plan.num_stops();
        }
        if visits == 0 {
            return 0.0;
        }
        1.0 - stops as f64 / visits as f64
    }
}

/// Per-flow port usage: the route walked once.
struct FlowUse {
    flow: FlowId,
    /// `(router, output)` at each visited router, ending with
    /// `(destination, Core)`; all but the last are the route's links.
    hops: Vec<LinkId>,
}

impl FlowUse {
    fn new(mesh: Topology, flow: FlowId, route: &SourceRoute) -> Self {
        let hops = route
            .hops(mesh)
            .map(|(from, dir)| LinkId { from, dir })
            .collect();
        FlowUse { flow, hops }
    }

    /// Input direction at hop `i` (`Core` at the source).
    fn input(&self, i: usize) -> Direction {
        match i {
            0 => Direction::Core,
            _ => self.hops[i - 1].dir.opposite(),
        }
    }

    /// `true` if the flow stops at hop `i`: it enters a stop-input there.
    fn stops_at(&self, stop_in: &[u8], i: usize) -> bool {
        stop_in[usize::from(self.hops[i].from.0)] & bit(self.input(i)) != 0
    }
}

/// Dense index of port `dir` of router `node`.
fn port(node: NodeId, dir: Direction) -> usize {
    usize::from(node.0) * PORTS + dir.index()
}

/// `dir`'s bit in a per-router port mask.
fn bit(dir: Direction) -> u8 {
    1 << dir.index()
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
    let uses: Vec<FlowUse> = routes
        .iter()
        .map(|(f, r)| FlowUse::new(mesh, *f, r))
        .collect();

    // --- Conflict-driven stop inputs. ---
    // Per (router, input): the outputs used through it. Per (router,
    // output): the inputs feeding it.
    let mut in_outs = vec![0u8; mesh.len() * PORTS];
    let mut out_ins = vec![0u8; mesh.len() * PORTS];
    for u in &uses {
        for (i, hop) in u.hops.iter().enumerate() {
            let input = u.input(i);
            in_outs[port(hop.from, input)] |= bit(hop.dir);
            out_ins[port(hop.from, hop.dir)] |= bit(input);
        }
    }
    // Per router: its stop-inputs.
    let mut stop_in = vec![0u8; mesh.len()];
    for (p, (outs, ins)) in in_outs.iter().zip(&out_ins).enumerate() {
        if outs.count_ones() > 1 {
            stop_in[p / PORTS] |= 1 << (p % PORTS);
        }
        if ins.count_ones() > 1 {
            stop_in[p / PORTS] |= ins;
        }
    }

    // --- HPC_max splitting, to fixpoint. ---
    let mut stops = Vec::new();
    loop {
        let mut changed = false;
        for u in &uses {
            stop_indices(u, &stop_in, &mut stops);
            // The destination closes the last gap.
            stops.push(u.hops.len() - 1);
            let mut prev = 0usize; // links consumed up to the last boundary
            for &s in &stops {
                if s - prev > hpc_max {
                    let split = prev + hpc_max;
                    stop_in[usize::from(u.hops[split].from.0)] |= bit(u.input(split));
                    changed = true;
                }
                prev = s;
            }
        }
        if !changed {
            break;
        }
    }

    // --- Plans. ---
    let mut flows = FlowTable::new();
    for ((_, route), u) in routes.iter().zip(&uses) {
        stop_indices(u, &stop_in, &mut stops);
        flows.insert(mesh, build_plan(u, route, &stops));
    }

    // --- Presets. ---
    let mut presets = MeshPresets::idle(mesh);
    for u in &uses {
        for (i, &LinkId { from: r, dir: out }) in u.hops.iter().enumerate() {
            let input = u.input(i);
            let is_stop = u.stops_at(&stop_in, i);
            let p = presets.router_mut(r);
            let mux = if is_stop {
                InputMux::Buffer
            } else {
                InputMux::Bypass
            };
            let slot = &mut p.input_mux[input.index()];
            match slot {
                None => *slot = Some(mux),
                Some(existing) => assert_eq!(
                    *existing, mux,
                    "{}: input mux conflict at {r} {input}",
                    u.flow
                ),
            }
            let want = if is_stop {
                XbarSelect::Arbitrated
            } else {
                XbarSelect::FromInput(input)
            };
            let xslot = &mut p.xbar[out.index()];
            match xslot {
                XbarSelect::Unused => *xslot = want,
                other => assert_eq!(
                    *other, want,
                    "{}: crossbar select conflict at {r} {out}",
                    u.flow
                ),
            }
            if !is_stop {
                // Pass-through credit crossbar: credits for this flow
                // enter on the data-output side and leave on the
                // data-input side.
                let cslot = &mut p.credit_xbar[input.index()];
                match cslot {
                    None => *cslot = Some(out),
                    Some(existing) => assert_eq!(
                        *existing, out,
                        "{}: credit crossbar conflict at {r}",
                        u.flow
                    ),
                }
            }
        }
    }

    // --- Single-cycle link exclusivity: every link belongs to one leg
    // sender. ---
    let mut link_owner: Vec<Option<Sender>> = vec![None; mesh.len() * PORTS];
    for plan in flows.iter() {
        for leg in plan.legs {
            for link in plan.links(leg) {
                if let Some(prev) = link_owner[port(link.from, link.dir)].replace(leg.sender) {
                    assert_eq!(
                        prev, leg.sender,
                        "link {link} shared across senders: preset compiler bug"
                    );
                }
            }
        }
    }

    CompiledApp { flows, presets }
}

/// Indices (into the flow's hops) where the flow stops, into `out`.
fn stop_indices(u: &FlowUse, stop_in: &[u8], out: &mut Vec<usize>) {
    out.clear();
    out.extend((0..u.hops.len()).filter(|&i| u.stops_at(stop_in, i)));
}

/// Build the flow plan given its stop indices.
fn build_plan(u: &FlowUse, route: &SourceRoute, stops: &[usize]) -> FlowPlan {
    // The leg from boundary `from` (`None` = source NIC) to hop `to`.
    let leg = |from: Option<usize>, to: usize, end: Endpoint| {
        let (sender, out_dir, start) = match from {
            None => (
                Sender::Nic(u.hops[0].from),
                if to == 0 {
                    Direction::Core
                } else {
                    u.hops[0].dir
                },
                0,
            ),
            Some(j) => (
                Sender::RouterOutput(u.hops[j].from, u.hops[j].dir),
                u.hops[j].dir,
                j,
            ),
        };
        Segment {
            sender,
            out_dir,
            links: u.hops[start..to].to_vec(),
            end,
            cycles: 1,
        }
    };
    // Boundaries: source NIC, each stop, destination NIC.
    let mut legs = Vec::with_capacity(stops.len() + 1);
    let mut from = None;
    for &to in stops {
        let end = Endpoint::Stop {
            router: u.hops[to].from,
            in_dir: u.input(to),
        };
        legs.push(leg(from, to, end));
        from = Some(to);
    }
    let last = u.hops.len() - 1;
    let end = Endpoint::Nic {
        node: u.hops[last].from,
    };
    legs.push(leg(from, last, end));
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
        assert_eq!(app.stops(FlowId(0)), Vec::<NodeId>::new());
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
        assert_eq!(app.stops(FlowId(0)), vec![NodeId(9), NodeId(10)]);
        assert_eq!(app.stops(FlowId(1)), vec![NodeId(9), NodeId(10)]);
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
        assert_eq!(app.stops(FlowId(0)), vec![NodeId(5)]);
        assert_eq!(app.stops(FlowId(1)), vec![NodeId(5)]);
        assert_eq!(app.flows.plan(FlowId(0)).zero_load_latency(), 4);
    }

    #[test]
    fn shared_sink_stops_at_destination() {
        // Two flows into node 6 from different inputs: the Core output
        // at 6 has two inputs -> both stop at 6 (serialized ejection).
        let a = route(&[5, 6]);
        let b = route(&[10, 6]);
        let app = compile(mesh(), 8, &[(FlowId(0), a), (FlowId(1), b)]);
        assert_eq!(app.stops(FlowId(0)), vec![NodeId(6)]);
        assert_eq!(app.stops(FlowId(1)), vec![NodeId(6)]);
    }

    #[test]
    fn hpc_max_splits_long_segments() {
        // A 6-hop unconflicted flow with HPC_max = 2 must stop every
        // 2 hops: at router index 2 and 4 (routers 2 and 8? path
        // 0,1,2,3,7,11,15).
        let app = compile(mesh(), 2, &[(FlowId(0), route(&[0, 1, 2, 3, 7, 11, 15]))]);
        assert_eq!(app.stops(FlowId(0)), vec![NodeId(2), NodeId(7)]);
        // With HPC_max = 8 the same flow flies through.
        let app8 = compile(mesh(), 8, &[(FlowId(0), route(&[0, 1, 2, 3, 7, 11, 15]))]);
        assert!(app8.stops(FlowId(0)).is_empty());
    }

    #[test]
    fn hpc_one_degenerates_to_per_hop_stops() {
        let app = compile(mesh(), 1, &[(FlowId(0), route(&[0, 1, 2, 3]))]);
        // Stops after every link except the last (the final link plus
        // ejection through the destination crossbar fits one cycle).
        assert_eq!(app.stops(FlowId(0)), vec![NodeId(1), NodeId(2)]);
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
        assert_eq!(app.stops(FlowId(0)), vec![NodeId(1)]);
        assert_eq!(app.stops(FlowId(1)), vec![NodeId(1)]);
        let plan_a = app.flows.plan(FlowId(0));
        assert_eq!(plan_a.legs[0].sender, Sender::Nic(NodeId(0)));
        assert_eq!(plan_a.legs[0].n_links, 1);
    }

    /// A leg record counts links and crossbars in a `u8`. A 299-link leg
    /// used to be stored with its count wrapped to 43: the link guard saw
    /// 43 links, and an 8-flit packet was charged 344 link flit-hops
    /// instead of 2 392.
    #[test]
    #[should_panic(expected = "f0: a leg over 299 links does not fit a leg record")]
    fn a_leg_longer_than_a_record_counts_is_refused() {
        let row = Topology::mesh(300, 1);
        let route = SourceRoute::xy(row, NodeId(0), NodeId(299)).unwrap();
        let _ = compile(row, 400, &[(FlowId(0), route)]);
    }

    /// The longest leg a record holds — 254 links, then the ejection's
    /// crossbar — is charged in full.
    #[test]
    fn the_longest_recordable_leg_is_charged_in_full() {
        use smart_sim::{Network, Packet, PacketId, SimConfig};
        let row = Topology::mesh(255, 1);
        let route = SourceRoute::xy(row, NodeId(0), NodeId(254)).unwrap();
        let app = compile(row, 400, &[(FlowId(0), route)]);
        assert_eq!(app.flows.plan(FlowId(0)).legs[0].n_links, 254);
        let cfg = SimConfig {
            topology: row,
            ..SimConfig::paper_4x4()
        };
        let mut net = Network::new(cfg, app.flows);
        net.offer(Packet {
            id: PacketId(0),
            flow: FlowId(0),
            gen_cycle: 0,
            num_flits: 8,
        });
        assert!(net.drain(1_000));
        let hops: u64 = net.link_flit_counts().map(|(_, n)| n).sum();
        assert_eq!(hops, 8 * 254);
        assert_eq!(net.counters().xbar_flit_traversals, 8 * 255);
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
