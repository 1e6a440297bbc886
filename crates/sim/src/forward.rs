//! Flow plans: how packets of a flow traverse the network as a sequence
//! of single-cycle *segments* between stop routers.
//!
//! This is the unifying abstraction of the reproduction. In the paper,
//! a flit either **bypasses** a router (the preset crossbar forwards it
//! within the same cycle) or **stops** (it is buffered, arbitrates, and
//! leaves one or more cycles later). A flow's journey is therefore a list
//! of *legs*: each leg starts at the NIC or at a stop router, crosses
//! zero or more links in a single `ST(+LT)` cycle, and ends buffered at
//! the next stop router or delivered at the destination NIC.
//!
//! * The baseline 3-cycle **Mesh** router is the degenerate plan where
//!   every router is a stop and `ST`/`LT` are separate cycles.
//! * **SMART** plans have multi-link legs (bounded by `HPC_max`) with
//!   merged `ST+LT`.
//!
//! Virtual-cut-through flow control attaches to legs: the sender of a leg
//! (a NIC or a router output port) owns the *free-VC queue* tracking the
//! VCs of the leg's endpoint, which — in the SMART case — can be an input
//! port several hops away (paper, Section IV *Flow Control*).

use crate::flit::FlowId;
use crate::route::SourceRoute;
use crate::topology::{Direction, LinkId, NodeId, Topology, HOP_MM, PORTS};
use std::collections::HashMap;

/// The party that launches flits onto a leg (and owns the free-VC queue
/// for the leg's endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sender {
    /// The injecting NIC at `node`.
    Nic(NodeId),
    /// Output port `dir` of router `node`.
    RouterOutput(NodeId, Direction),
}

impl Sender {
    /// The node the sender sits at.
    #[must_use]
    pub fn node(self) -> NodeId {
        match self {
            Sender::Nic(n) | Sender::RouterOutput(n, _) => n,
        }
    }
}

/// Where a leg lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// Buffered at input port `in_dir` of `router` (a *stop*).
    Stop {
        /// The stop router.
        router: NodeId,
        /// The input port the flit lands in (`Core` for injection into
        /// the local router).
        in_dir: Direction,
    },
    /// Delivered to the destination NIC at `node`.
    Nic {
        /// Destination node.
        node: NodeId,
    },
}

impl Endpoint {
    /// The node the endpoint sits at.
    #[must_use]
    pub fn node(self) -> NodeId {
        match self {
            Endpoint::Stop { router: n, .. } | Endpoint::Nic { node: n } => n,
        }
    }
}

/// One single-`ST` traversal: from a sender, across `links`, into an
/// endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Who launches flits onto this leg.
    pub sender: Sender,
    /// Output direction arbitrated at the sender (routers only; `Core`
    /// for ejection legs).
    pub out_dir: Direction,
    /// Links crossed within the single `ST(+LT)` traversal.
    pub links: Vec<LinkId>,
    /// Where the leg ends.
    pub end: Endpoint,
    /// Cycles from switch-allocation grant to arrival at the endpoint:
    /// 1 when `ST+LT` are merged (SMART, and all ejections), 2 for the
    /// baseline's separate `ST` then `LT`.
    pub cycles: u8,
}

impl Segment {
    /// Number of router crossbars a flit traverses on this leg (for
    /// activity/power accounting): one per link plus the destination
    /// router's crossbar when ejecting to a NIC.
    #[must_use]
    pub fn crossbars(&self) -> u32 {
        let eject = matches!(self.end, Endpoint::Nic { .. });
        self.links.len() as u32 + u32::from(eject)
    }

    /// Millimetres of link wire crossed ([`HOP_MM`] per hop).
    #[must_use]
    pub fn link_mm(&self) -> f64 {
        self.links.len() as f64 * HOP_MM
    }
}

/// The complete journey of a flow: its static route plus the stop
/// decomposition into legs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowPlan {
    /// Flow this plan is for.
    pub flow: FlowId,
    /// The underlying source route.
    pub route: SourceRoute,
    /// Legs in travel order; `legs[0]` starts at the source NIC.
    pub legs: Vec<Segment>,
}

impl FlowPlan {
    /// Number of *stops* (buffered routers) along the journey — the `S`
    /// in the zero-load latency `1 + 3·S`.
    #[must_use]
    pub fn num_stops(&self) -> usize {
        self.legs.len() - 1
    }

    /// Zero-load head-flit network latency in cycles: every leg costs
    /// its `cycles` (the first from injection), and every stop adds the
    /// `BW` + `SA` pipeline cycles before the next leg's `ST`.
    #[must_use]
    pub fn zero_load_latency(&self) -> u64 {
        let legs: u64 = self.legs.iter().map(|l| u64::from(l.cycles)).sum();
        legs + 2 * self.num_stops() as u64
    }

    /// The destination node.
    #[must_use]
    pub fn destination(&self, topo: Topology) -> NodeId {
        self.route.destination(topo)
    }

    /// Validate internal consistency: legs chain (each leg's endpoint is
    /// the next leg's sender router), no router is left twice, the first
    /// leg starts at the source NIC, and the last leg ends at the
    /// destination NIC.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violation found.
    pub fn validate(&self, mesh: Topology) {
        assert!(!self.legs.is_empty(), "{}: plan has no legs", self.flow);
        assert_eq!(
            self.legs[0].sender,
            Sender::Nic(self.route.source()),
            "{}: first leg must start at the source NIC",
            self.flow
        );
        // One walk of the route: its links against the legs', and its
        // destination (the walk's last router, even past a mismatch).
        let mut hops = self.route.hops(mesh);
        let mut dst = self.route.source();
        let covered = self
            .legs
            .iter()
            .flat_map(|l| l.links.iter().copied())
            .eq(hops
                .by_ref()
                .inspect(|&(r, _)| dst = r)
                .filter(|&(_, d)| d != Direction::Core)
                .map(|(from, dir)| LinkId { from, dir }));
        if let Some((r, _)) = hops.last() {
            dst = r;
        }
        assert_eq!(
            self.legs.last().expect("nonempty").end,
            Endpoint::Nic { node: dst },
            "{}: last leg must end at the destination NIC",
            self.flow
        );
        for w in self.legs.windows(2) {
            match (w[0].end, w[1].sender) {
                (Endpoint::Stop { router, .. }, Sender::RouterOutput(r, _)) => {
                    assert_eq!(router, r, "{}: legs do not chain", self.flow);
                }
                (e, s) => panic!("{}: leg ends {e:?} but next starts {s:?}", self.flow),
            }
        }
        let mut left: Vec<NodeId> = Vec::with_capacity(self.legs.len() - 1);
        for leg in &self.legs[1..] {
            if let Sender::RouterOutput(r, _) = leg.sender {
                assert!(!left.contains(&r), "{}: revisits router {r}", self.flow);
                left.push(r);
            }
        }
        // The union of leg links must equal the route's links, in order.
        assert!(covered, "{}: leg links do not cover the route", self.flow);
    }
}

/// All flow plans of an application, by flow.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    plans: HashMap<FlowId, FlowPlan>,
}

impl FlowTable {
    /// Empty table.
    #[must_use]
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Insert a plan (validating it against `mesh`).
    ///
    /// # Panics
    ///
    /// Panics if the plan is inconsistent or a plan for the flow already
    /// exists.
    pub fn insert(&mut self, mesh: Topology, plan: FlowPlan) {
        plan.validate(mesh);
        let flow = plan.flow;
        let prev = self.plans.insert(flow, plan);
        assert!(prev.is_none(), "{flow}: duplicate plan");
    }

    /// The plan for `flow`.
    ///
    /// # Panics
    ///
    /// Panics if the flow is unknown.
    #[must_use]
    pub fn plan(&self, flow: FlowId) -> &FlowPlan {
        self.plans
            .get(&flow)
            .unwrap_or_else(|| panic!("no plan for {flow}"))
    }

    /// Iterate over all plans.
    pub fn iter(&self) -> impl Iterator<Item = &FlowPlan> {
        self.plans.values()
    }

    /// Number of flows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// `true` when no flows are planned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Build the baseline **Mesh** plan for a set of routed flows: every
    /// router on the route is a stop, `ST` and `LT` are separate cycles
    /// (the paper's 3-cycle router + 1-cycle link).
    #[must_use]
    pub fn mesh_baseline(mesh: Topology, routes: &[(FlowId, SourceRoute)]) -> Self {
        let mut table = FlowTable::new();
        for (flow, route) in routes {
            table.insert(mesh, mesh_plan_for(mesh, *flow, route.clone()));
        }
        table
    }
}

/// Dense per-cycle leg records compiled once from a [`FlowTable`].
///
/// [`FlowTable`] is the mutable, validated source of truth; its lookups
/// hash a [`FlowId`], which is fine at build time but not in the
/// engine's per-cycle hot path. `LegLut` flattens every plan's legs
/// into one dense array **in travel order**, so the engine never looks
/// a route up: an injected head starts on its flow's first leg, and a
/// head that arrived on leg `i` leaves its stop router on leg `i + 1`.
/// [`LegLut::new`] asserts the chain that makes this true.
#[derive(Debug, Clone)]
pub struct LegLut {
    index: FlowIndex,
    /// Dense flow → index of its injection leg in `recs`.
    first: Vec<u32>,
    /// Hot launch-path facts of every leg of every plan, each plan's
    /// legs consecutive and in travel order.
    recs: Vec<LegRec>,
    /// Precomputed dense link indices (`node * 5 + dir`) of every leg's
    /// links, flattened; a leg's slice starts at its `links_start`.
    link_idx: Vec<u32>,
}

/// Flat, copyable summary of one leg's launch-path facts, resolved at
/// build time: the engine's per-departure work reads one dense record
/// instead of the full [`Segment`], whose link list lives behind a
/// separate allocation.
#[derive(Debug, Clone, Copy)]
pub struct LegRec {
    /// Start of this leg's links in the lut's flat link-index array.
    links_start: u32,
    /// Number of links crossed in the single traversal.
    pub n_links: u8,
    /// Cycles from grant to arrival ([`Segment::cycles`]).
    pub cycles: u8,
    /// Output direction arbitrated at the sender.
    pub out_dir: Direction,
    /// Who launches flits onto the leg.
    pub sender: Sender,
    /// Crossbar traversals charged per flit ([`Segment::crossbars`]).
    pub crossbars: u32,
    /// Millimetres of link wire charged per flit ([`Segment::link_mm`]).
    pub mm: f64,
    /// Where the leg lands.
    pub end: Endpoint,
}

/// Flow-id → dense-index mapping: direct-indexed when ids are compact
/// (every workload in the tree numbers flows from 0), hashed otherwise.
#[derive(Debug, Clone)]
enum FlowIndex {
    /// `ids[flow.0]` is the dense index, `u32::MAX` for unknown flows.
    Direct(Vec<u32>),
    /// Fallback for sparse id spaces.
    Hashed(HashMap<FlowId, u32>),
}

impl LegLut {
    /// Compile the leg records for `flows`.
    ///
    /// # Panics
    ///
    /// Panics if some leg of a plan does not start at the router the
    /// leg before it ends at. [`FlowTable::insert`] already refuses
    /// such a plan; the chain is restated here because this layout is
    /// what turns it into the engine's route.
    #[must_use]
    pub fn new(flows: &FlowTable) -> Self {
        let mut plans: Vec<&FlowPlan> = flows.iter().collect();
        plans.sort_by_key(|p| p.flow);
        let mut first = Vec::with_capacity(plans.len());
        let mut recs: Vec<LegRec> = Vec::new();
        let mut link_idx = Vec::new();
        for plan in &plans {
            first.push(recs.len() as u32);
            for (i, leg) in plan.legs.iter().enumerate() {
                if i > 0 {
                    // What the engine's `leg + 1` relies on.
                    assert_eq!(
                        leg.sender.node(),
                        recs[recs.len() - 1].end.node(),
                        "{}: leg {i} does not start where leg {} ends",
                        plan.flow,
                        i - 1
                    );
                }
                let links_start = link_idx.len() as u32;
                for link in &leg.links {
                    link_idx.push(link.from.0 as u32 * PORTS as u32 + link.dir.index() as u32);
                }
                recs.push(LegRec {
                    links_start,
                    n_links: leg.links.len() as u8,
                    cycles: leg.cycles,
                    out_dir: leg.out_dir,
                    sender: leg.sender,
                    crossbars: leg.crossbars(),
                    mm: leg.link_mm(),
                    end: leg.end,
                });
            }
        }
        let max_id = plans.iter().map(|p| p.flow.0 as usize).max().unwrap_or(0);
        let index = if max_id <= 8 * plans.len() + 1024 {
            let mut ids = vec![u32::MAX; max_id + 1];
            for (d, plan) in plans.iter().enumerate() {
                ids[plan.flow.0 as usize] = d as u32;
            }
            FlowIndex::Direct(ids)
        } else {
            FlowIndex::Hashed(
                plans
                    .iter()
                    .enumerate()
                    .map(|(d, p)| (p.flow, d as u32))
                    .collect(),
            )
        };
        LegLut {
            index,
            first,
            recs,
            link_idx,
        }
    }

    /// Index of the injection leg of `flow`, for [`LegLut::rec`]; the
    /// flow's later legs follow it consecutively.
    ///
    /// # Panics
    ///
    /// Panics if the flow is unknown.
    #[must_use]
    pub fn first_leg_idx(&self, flow: FlowId) -> u32 {
        let d = match &self.index {
            FlowIndex::Direct(ids) => ids.get(flow.0 as usize).copied().unwrap_or(u32::MAX),
            FlowIndex::Hashed(map) => map.get(&flow).copied().unwrap_or(u32::MAX),
        };
        assert!(d != u32::MAX, "no plan for {flow}");
        self.first[d as usize]
    }

    /// The launch-path record of leg `leg`: an index from
    /// [`LegLut::first_leg_idx`], or the successor of the leg a head
    /// arrived on.
    #[must_use]
    pub fn rec(&self, leg: u32) -> &LegRec {
        &self.recs[leg as usize]
    }

    /// Dense link indices (`node * 5 + dir`) crossed by `rec`'s leg.
    #[must_use]
    pub fn rec_links(&self, rec: &LegRec) -> &[u32] {
        let s = rec.links_start as usize;
        &self.link_idx[s..s + rec.n_links as usize]
    }
}

/// The baseline plan for one routed flow (every router a stop).
#[must_use]
pub fn mesh_plan_for(mesh: Topology, flow: FlowId, route: SourceRoute) -> FlowPlan {
    let src = route.source();
    let mut legs = Vec::with_capacity(route.num_hops() + 2);
    // Injection: NIC into the source router's Core input buffer.
    legs.push(Segment {
        sender: Sender::Nic(src),
        out_dir: Direction::Core,
        links: Vec::new(),
        end: Endpoint::Stop {
            router: src,
            in_dir: Direction::Core,
        },
        cycles: 1,
    });
    let mut hops = route.hops(mesh).peekable();
    while let Some((r, out)) = hops.next() {
        legs.push(match hops.peek() {
            Some(&(next, _)) => Segment {
                sender: Sender::RouterOutput(r, out),
                out_dir: out,
                links: vec![LinkId { from: r, dir: out }],
                end: Endpoint::Stop {
                    router: next,
                    in_dir: out.opposite(),
                },
                cycles: 2,
            },
            // Ejection from the destination router.
            None => Segment {
                sender: Sender::RouterOutput(r, Direction::Core),
                out_dir: Direction::Core,
                links: Vec::new(),
                end: Endpoint::Nic { node: r },
                cycles: 1,
            },
        });
    }
    drop(hops); // it borrows `route`
    FlowPlan { flow, route, legs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Topology {
        Topology::paper_4x4()
    }

    #[test]
    fn mesh_plan_stops_everywhere() {
        let route = SourceRoute::xy(mesh(), NodeId(0), NodeId(15)).unwrap();
        let plan = mesh_plan_for(mesh(), FlowId(0), route);
        plan.validate(mesh());
        // 6 hops -> 7 routers; legs = inject + 6 links + eject = 8.
        assert_eq!(plan.legs.len(), 8);
        assert_eq!(plan.num_stops(), 7);
        // Zero-load: every leg (1 + 6·2 + 1 = 14) + 2 per stop (14) = 28
        // = 4·hops + 4 = 4·(6+1).
        assert_eq!(plan.zero_load_latency(), 28);
        assert_eq!(plan.zero_load_latency(), 4 * (6 + 1));
    }

    #[test]
    fn one_hop_mesh_latency_is_eight() {
        let route = SourceRoute::xy(mesh(), NodeId(9), NodeId(10)).unwrap();
        let plan = mesh_plan_for(mesh(), FlowId(1), route);
        assert_eq!(plan.zero_load_latency(), 8);
    }

    #[test]
    fn crossbar_and_mm_accounting() {
        let route = SourceRoute::xy(mesh(), NodeId(0), NodeId(2)).unwrap();
        let plan = mesh_plan_for(mesh(), FlowId(0), route);
        let xbars: u32 = plan.legs.iter().map(Segment::crossbars).sum();
        let mm: f64 = plan.legs.iter().map(Segment::link_mm).sum();
        // Inject leg: 0 xbars; two link legs: 1 each; eject: 1.
        assert_eq!(xbars, 3);
        assert!((mm - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "f7: revisits router n1")]
    fn a_plan_that_leaves_a_router_twice_is_refused() {
        let route = SourceRoute::xy(mesh(), NodeId(0), NodeId(3)).unwrap();
        let mut plan = mesh_plan_for(mesh(), FlowId(7), route);
        // Legs: inject, 0→1, 1→2, 2→3, eject. Detour 1→2→1 after the
        // first hop: the legs still chain, but router 1 is left twice.
        let back = Segment {
            sender: Sender::RouterOutput(NodeId(2), Direction::West),
            out_dir: Direction::West,
            links: vec![LinkId {
                from: NodeId(2),
                dir: Direction::West,
            }],
            end: Endpoint::Stop {
                router: NodeId(1),
                in_dir: Direction::East,
            },
            cycles: 2,
        };
        let out = plan.legs[2].clone();
        plan.legs.splice(2..2, [out, back]);
        plan.validate(mesh());
    }

    #[test]
    fn mesh_legs_pair_each_sender_with_its_neighbour() {
        let flows = [(0, 3), (4, 3), (0, 12)].map(|(s, d)| {
            let route = SourceRoute::xy(mesh(), NodeId(s), NodeId(d)).unwrap();
            (FlowId(u32::from(s * 16 + d)), route)
        });
        let table = FlowTable::mesh_baseline(mesh(), &flows);
        let mut link_legs = 0;
        for leg in table.iter().flat_map(|p| &p.legs) {
            match (leg.sender, leg.end) {
                (Sender::RouterOutput(r, d), Endpoint::Stop { router, in_dir }) => {
                    // Every mesh link leg ends at its sender's neighbour.
                    assert_eq!(mesh().neighbor(r, d), Some(router));
                    assert_eq!(in_dir, d.opposite());
                    link_legs += 1;
                }
                (Sender::Nic(n), Endpoint::Stop { router, in_dir }) => {
                    assert_eq!((n, in_dir), (router, Direction::Core), "injection");
                }
                (Sender::RouterOutput(r, d), Endpoint::Nic { node }) => {
                    assert_eq!((r, d), (node, Direction::Core), "ejection");
                }
                (s, e) => panic!("a mesh leg from {s:?} to {e:?}"),
            }
        }
        assert_eq!(link_legs, 3 + 4 + 3, "one leg per hop");
    }

    /// Every plan's legs sit consecutively in the lut, in travel order,
    /// record for record, and each starts where the one before ended.
    fn assert_lut_follows_plans(table: &FlowTable) {
        let lut = LegLut::new(table);
        for plan in table.iter() {
            let first = lut.first_leg_idx(plan.flow);
            for (j, leg) in plan.legs.iter().enumerate() {
                let rec = lut.rec(first + j as u32);
                assert_eq!(
                    (rec.sender, rec.out_dir, rec.end, rec.cycles),
                    (leg.sender, leg.out_dir, leg.end, leg.cycles),
                    "{} leg {j}",
                    plan.flow
                );
                assert_eq!(rec.crossbars, leg.crossbars());
                let links: Vec<u32> = leg
                    .links
                    .iter()
                    .map(|l| u32::from(l.from.0) * PORTS as u32 + l.dir.index() as u32)
                    .collect();
                assert_eq!(lut.rec_links(rec), links, "{} leg {j}", plan.flow);
                if j > 0 {
                    let prev = lut.rec(first + j as u32 - 1);
                    assert_eq!(prev.end.node(), rec.sender.node(), "{} leg {j}", plan.flow);
                    assert!(matches!(prev.end, Endpoint::Stop { .. }));
                }
            }
        }
        let legs: usize = table.iter().map(|p| p.legs.len()).sum();
        assert_eq!(lut.recs.len(), legs, "plans share no lut entries");
    }

    #[test]
    fn leg_lut_lays_plans_out_in_travel_order() {
        // Sparse, shuffled flow ids exercise the direct index.
        let sparse = [(7, 0, 3), (0, 4, 6), (3, 12, 0)].map(|(f, s, d)| {
            let route = SourceRoute::xy(mesh(), NodeId(s), NodeId(d)).unwrap();
            (FlowId(f), route)
        });
        assert_lut_follows_plans(&FlowTable::mesh_baseline(mesh(), &sparse));
        // Ids far apart take the hashed index.
        let far = [(5_000_000, 1, 14), (9, 2, 8)].map(|(f, s, d)| {
            let route = SourceRoute::xy(mesh(), NodeId(s), NodeId(d)).unwrap();
            (FlowId(f), route)
        });
        assert_lut_follows_plans(&FlowTable::mesh_baseline(mesh(), &far));
        // Every pair of a 6x6 torus: routes that cross the wrap seam.
        let torus = Topology::torus(6, 6);
        let mut all = Vec::new();
        for s in torus.nodes() {
            for d in torus.nodes().filter(|d| *d != s) {
                let route = SourceRoute::xy(torus, s, d).unwrap();
                all.push((FlowId(all.len() as u32), route));
            }
        }
        assert_lut_follows_plans(&FlowTable::mesh_baseline(torus, &all));
    }

    #[test]
    #[should_panic(expected = "f0: leg 2 does not start where leg 1 ends")]
    fn leg_lut_refuses_a_plan_whose_legs_do_not_chain() {
        let route = SourceRoute::xy(mesh(), NodeId(0), NodeId(3)).unwrap();
        let mut table = FlowTable::mesh_baseline(mesh(), &[(FlowId(0), route)]);
        // Legs: inject, 0→1, 1→2, 2→3, eject. Swapped, leg 2 leaves
        // router 2 although leg 1 ended at router 1.
        table.plans.get_mut(&FlowId(0)).unwrap().legs.swap(2, 3);
        let _ = LegLut::new(&table);
    }

    #[test]
    #[should_panic(expected = "no plan for")]
    fn leg_lut_rejects_unknown_flow() {
        let route = SourceRoute::xy(mesh(), NodeId(0), NodeId(3)).unwrap();
        let table = FlowTable::mesh_baseline(mesh(), &[(FlowId(0), route)]);
        let lut = LegLut::new(&table);
        let _ = lut.first_leg_idx(FlowId(99));
    }

    #[test]
    #[should_panic(expected = "duplicate plan")]
    fn duplicate_flow_rejected() {
        let mut t = FlowTable::new();
        let route = SourceRoute::xy(mesh(), NodeId(0), NodeId(1)).unwrap();
        t.insert(mesh(), mesh_plan_for(mesh(), FlowId(0), route.clone()));
        t.insert(mesh(), mesh_plan_for(mesh(), FlowId(0), route));
    }

    #[test]
    #[should_panic(expected = "leg links do not cover the route")]
    fn truncated_plan_rejected() {
        let route = SourceRoute::xy(mesh(), NodeId(0), NodeId(2)).unwrap();
        let mut plan = mesh_plan_for(mesh(), FlowId(0), route);
        // Drop one link from a middle leg.
        plan.legs[1].links.clear();
        plan.validate(mesh());
    }
}
