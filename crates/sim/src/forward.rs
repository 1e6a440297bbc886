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
//!
//! Builders hand a [`FlowPlan`] of [`Segment`]s to [`FlowTable::insert`],
//! which checks it once and keeps only its legs, as the dense
//! [`LegRec`]s the engine steps; readers borrow them through
//! [`FlowTable::plan`].

use crate::flit::FlowId;
use crate::route::SourceRoute;
use crate::topology::{Direction, LinkId, NodeId, Topology, HOP_MM, PORTS};

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

/// A flow's journey as a builder states it: its static route plus the
/// stop decomposition into legs. [`FlowTable::insert`] checks the legs
/// against the route, stores them and drops the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowPlan {
    /// Flow this plan is for.
    pub flow: FlowId,
    /// The underlying source route, which the legs' links must cover.
    pub route: SourceRoute,
    /// Legs in travel order; `legs[0]` starts at the source NIC.
    pub legs: Vec<Segment>,
}

/// One stored leg: the launch-path facts of a [`Segment`], resolved
/// when the plan is inserted, so the engine's per-departure work reads
/// one flat record. The leg's links live in the table's flat link-index
/// array ([`Plan::links`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegRec {
    /// Start of this leg's links in the table's flat link-index array.
    links_start: u32,
    /// Number of links crossed in the single traversal.
    pub n_links: u8,
    /// Cycles from grant to arrival ([`Segment::cycles`]).
    pub cycles: u8,
    /// Output direction arbitrated at the sender.
    pub out_dir: Direction,
    /// Crossbar traversals charged per flit ([`Segment::crossbars`]).
    pub crossbars: u8,
    /// Who launches flits onto the leg.
    pub sender: Sender,
    /// Where the leg lands.
    pub end: Endpoint,
    /// Millimetres of link wire charged per flit ([`Segment::link_mm`]).
    pub mm: f64,
}

/// A leg's launch-path facts as [`FlowTable::insert`] flattens them:
/// sender, output direction, links, endpoint and cycles.
type LegParts<'a> = (Sender, Direction, &'a [LinkId], Endpoint, u8);

/// All flow plans of an application, stored once, in the form the engine
/// steps: every flow's legs as consecutive [`LegRec`]s in travel order,
/// their links in one flat array of dense link indices
/// (`node * PORTS + dir`), and a sorted flow-id column searched by
/// bisection, so dense and sparse flow ids take the same path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowTable {
    /// Planned flows, ascending.
    ids: Vec<FlowId>,
    /// `spans[d]`: the range of flow `ids[d]`'s legs in `legs`.
    spans: Vec<(u32, u32)>,
    /// Every plan's legs, each plan consecutive and in travel order.
    legs: Vec<LegRec>,
    /// Dense link indices of every leg's links, flattened.
    links: Vec<u32>,
}

impl FlowTable {
    /// Empty table.
    #[must_use]
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Check `plan` against its route on `mesh` and store its legs; the
    /// route and the segment list are dropped.
    ///
    /// # Panics
    ///
    /// Panics, naming the flow, if the plan is inconsistent: its first
    /// leg does not start at the source NIC, its last does not end at
    /// the destination NIC, a leg does not start at the router the leg
    /// before it ends at, a router is left twice, or the legs' links are
    /// not the route's. Also panics if a leg crosses more than 255 links
    /// or crossbars (a record counts them in a `u8`), or if a plan for
    /// the flow already exists.
    pub fn insert(&mut self, mesh: Topology, plan: FlowPlan) {
        let start = self.legs.len();
        for l in &plan.legs {
            self.push_leg(plan.flow, (l.sender, l.out_dir, &l.links, l.end, l.cycles));
        }
        self.seal(mesh, plan.flow, &plan.route, start);
    }

    /// Append one leg of `flow` after the legs already stored.
    fn push_leg(&mut self, flow: FlowId, (sender, out_dir, links, end, cycles): LegParts<'_>) {
        let crossbars = links.len() + usize::from(matches!(end, Endpoint::Nic { .. }));
        assert!(
            crossbars <= usize::from(u8::MAX),
            "{flow}: a leg over {} links does not fit a leg record \
             (at most 255 links and 255 crossbars)",
            links.len()
        );
        self.legs.push(LegRec {
            links_start: self.links.len() as u32,
            n_links: links.len() as u8,
            cycles,
            out_dir,
            crossbars: crossbars as u8,
            sender,
            end,
            mm: links.len() as f64 * HOP_MM,
        });
        self.links.extend(links.iter().map(|&l| link_index(l)));
    }

    /// The one check of a plan, run on the legs `start..` just stored
    /// for `flow`; then the flow's entry in the id column.
    fn seal(&mut self, mesh: Topology, flow: FlowId, route: &SourceRoute, start: usize) {
        let legs = &self.legs[start..];
        assert!(!legs.is_empty(), "{flow}: plan has no legs");
        assert_eq!(
            legs[0].sender,
            Sender::Nic(route.source()),
            "{flow}: first leg must start at the source NIC"
        );
        // One walk of the route: its links against the legs', and its
        // destination (the walk's last router, even past a mismatch).
        let mut hops = route.hops(mesh);
        let mut dst = route.source();
        let covered = self.links[legs[0].links_start as usize..]
            .iter()
            .copied()
            .eq(hops
                .by_ref()
                .inspect(|&(r, _)| dst = r)
                .filter(|&(_, d)| d != Direction::Core)
                .map(|(from, dir)| link_index(LinkId { from, dir })));
        if let Some((r, _)) = hops.last() {
            dst = r;
        }
        assert_eq!(
            legs[legs.len() - 1].end,
            Endpoint::Nic { node: dst },
            "{flow}: last leg must end at the destination NIC"
        );
        // What the engine's `leg + 1` relies on.
        for (i, w) in legs.windows(2).enumerate() {
            match (w[0].end, w[1].sender) {
                (Endpoint::Stop { router, .. }, Sender::RouterOutput(r, _)) => {
                    let next = i + 1;
                    assert_eq!(
                        router, r,
                        "{flow}: leg {next} does not start where leg {i} ends"
                    );
                }
                (e, s) => panic!("{flow}: leg ends {e:?} but next starts {s:?}"),
            }
        }
        for (i, leg) in legs.iter().enumerate().skip(2) {
            let r = leg.sender.node();
            let again = legs[1..i].iter().any(|l| l.sender.node() == r);
            assert!(!again, "{flow}: revisits router {r}");
        }
        // The union of leg links must equal the route's links, in order.
        assert!(covered, "{flow}: leg links do not cover the route");
        let Err(d) = self.ids.binary_search(&flow) else {
            panic!("{flow}: duplicate plan");
        };
        self.ids.insert(d, flow);
        self.spans.insert(d, (start as u32, self.legs.len() as u32));
    }

    /// Position of `flow` in the id column.
    fn find(&self, flow: FlowId) -> usize {
        self.ids
            .binary_search(&flow)
            .unwrap_or_else(|_| panic!("no plan for {flow}"))
    }

    fn plan_at(&self, d: usize) -> Plan<'_> {
        let (s, e) = self.spans[d];
        Plan {
            flow: self.ids[d],
            legs: &self.legs[s as usize..e as usize],
            links: &self.links,
        }
    }

    /// The plan for `flow`.
    ///
    /// # Panics
    ///
    /// Panics if the flow is unknown.
    #[must_use]
    pub fn plan(&self, flow: FlowId) -> Plan<'_> {
        self.plan_at(self.find(flow))
    }

    /// Refuse the first of `flows` this table does not plan, with the
    /// message [`FlowTable::plan`] panics with.
    ///
    /// # Errors
    ///
    /// Returns `no plan for f…` naming that flow.
    pub fn check_planned(&self, flows: impl IntoIterator<Item = FlowId>) -> Result<(), String> {
        let unplanned = flows
            .into_iter()
            .find(|f| self.ids.binary_search(f).is_err());
        unplanned.map_or(Ok(()), |flow| Err(format!("no plan for {flow}")))
    }

    /// Iterate over all plans, by ascending flow id.
    pub fn iter(&self) -> impl Iterator<Item = Plan<'_>> {
        (0..self.ids.len()).map(|d| self.plan_at(d))
    }

    /// Number of flows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when no flows are planned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Index of the injection leg of `flow`, for [`FlowTable::rec`]; the
    /// flow's later legs follow it consecutively.
    ///
    /// # Panics
    ///
    /// Panics if the flow is unknown.
    pub(crate) fn first_leg(&self, flow: FlowId) -> u32 {
        self.spans[self.find(flow)].0
    }

    /// The node whose NIC injects `flow`'s packets: where its first leg
    /// starts.
    ///
    /// # Panics
    ///
    /// Panics if the flow is unknown.
    pub(crate) fn source(&self, flow: FlowId) -> NodeId {
        self.rec(self.first_leg(flow)).sender.node()
    }

    /// Leg `leg`: an index from [`FlowTable::first_leg`], or the
    /// successor of the leg a head arrived on.
    pub(crate) fn rec(&self, leg: u32) -> &LegRec {
        &self.legs[leg as usize]
    }

    /// Dense link indices (`node * 5 + dir`) crossed by `rec`'s leg.
    pub(crate) fn rec_links(&self, rec: &LegRec) -> &[u32] {
        let s = rec.links_start as usize;
        &self.links[s..s + usize::from(rec.n_links)]
    }

    /// Build the baseline **Mesh** plan for a set of routed flows: every
    /// router on the route is a stop, `ST` and `LT` are separate cycles
    /// (the paper's 3-cycle router + 1-cycle link). The legs are stored
    /// as they are generated, into a table sized up front.
    #[must_use]
    pub fn mesh_baseline(mesh: Topology, routes: &[(FlowId, SourceRoute)]) -> Self {
        let links: usize = routes.iter().map(|(_, r)| r.num_hops()).sum();
        let mut table = FlowTable {
            ids: Vec::with_capacity(routes.len()),
            spans: Vec::with_capacity(routes.len()),
            legs: Vec::with_capacity(links + 2 * routes.len()),
            links: Vec::with_capacity(links),
        };
        for (flow, route) in routes {
            let start = table.legs.len();
            for (sender, out_dir, link, end, cycles) in mesh_legs(mesh, route) {
                table.push_leg(*flow, (sender, out_dir, link.as_slice(), end, cycles));
            }
            table.seal(mesh, *flow, route, start);
        }
        table
    }
}

/// A stored plan, borrowed from its [`FlowTable`].
#[derive(Debug, Clone, Copy)]
pub struct Plan<'a> {
    /// Flow this plan is for.
    pub flow: FlowId,
    /// Legs in travel order; the first starts at the source NIC, the
    /// last ends at the destination NIC.
    pub legs: &'a [LegRec],
    /// The table's whole link-index array.
    links: &'a [u32],
}

impl<'a> Plan<'a> {
    /// The links `leg`, one of this plan's legs, crosses, in order.
    pub fn links(&self, leg: &LegRec) -> impl Iterator<Item = LinkId> + 'a {
        let s = leg.links_start as usize;
        self.links[s..s + usize::from(leg.n_links)]
            .iter()
            .map(|&li| link_of(li as usize))
    }

    /// The flow's source and destination: where its first leg starts and
    /// its last leg ends.
    #[must_use]
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        let last = self.legs.len() - 1;
        (self.legs[0].sender.node(), self.legs[last].end.node())
    }

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
}

/// The dense index (`node * 5 + dir`) of a link.
fn link_index(l: LinkId) -> u32 {
    u32::from(l.from.0) * PORTS as u32 + l.dir.index() as u32
}

/// The link a dense link index (`node * 5 + dir`) names.
pub(crate) fn link_of(li: usize) -> LinkId {
    LinkId {
        from: NodeId((li / PORTS) as u16),
        dir: Direction::from_index(li % PORTS),
    }
}

/// The baseline legs of `route` in travel order, as `(sender, out_dir,
/// link, end, cycles)`: injection into the source router's `Core` input,
/// one leg per link with `ST` and `LT` in separate cycles, and ejection
/// at the destination router.
fn mesh_legs(
    mesh: Topology,
    route: &SourceRoute,
) -> impl Iterator<Item = (Sender, Direction, Option<LinkId>, Endpoint, u8)> + '_ {
    let src = route.source();
    let inject = Endpoint::Stop {
        router: src,
        in_dir: Direction::Core,
    };
    let hops = route.hops(mesh).map(move |(r, out)| {
        let sender = Sender::RouterOutput(r, out);
        match mesh.neighbor(r, out) {
            Some(next) => {
                let end = Endpoint::Stop {
                    router: next,
                    in_dir: out.opposite(),
                };
                (sender, out, Some(LinkId { from: r, dir: out }), end, 2)
            }
            None => (sender, out, None, Endpoint::Nic { node: r }, 1),
        }
    });
    std::iter::once((Sender::Nic(src), Direction::Core, None, inject, 1)).chain(hops)
}

/// The baseline plan for one routed flow (every router a stop).
#[must_use]
pub fn mesh_plan_for(mesh: Topology, flow: FlowId, route: SourceRoute) -> FlowPlan {
    let legs = mesh_legs(mesh, &route)
        .map(|(sender, out_dir, link, end, cycles)| Segment {
            sender,
            out_dir,
            links: link.into_iter().collect(),
            end,
            cycles,
        })
        .collect();
    FlowPlan { flow, route, legs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Topology {
        Topology::paper_4x4()
    }

    /// A table holding `plans`, inserted one by one.
    fn table_of(topo: Topology, plans: &[FlowPlan]) -> FlowTable {
        let mut table = FlowTable::new();
        for plan in plans {
            table.insert(topo, plan.clone());
        }
        table
    }

    #[test]
    fn mesh_plan_stops_everywhere() {
        let route = SourceRoute::xy(mesh(), NodeId(0), NodeId(15)).unwrap();
        let table = FlowTable::mesh_baseline(mesh(), &[(FlowId(0), route)]);
        let plan = table.plan(FlowId(0));
        // 6 hops -> 7 routers; legs = inject + 6 links + eject = 8.
        assert_eq!(plan.legs.len(), 8);
        assert_eq!(plan.num_stops(), 7);
        assert_eq!(plan.endpoints(), (NodeId(0), NodeId(15)));
        // Zero-load: every leg (1 + 6·2 + 1 = 14) + 2 per stop (14) = 28
        // = 4·hops + 4 = 4·(6+1).
        assert_eq!(plan.zero_load_latency(), 28);
        assert_eq!(plan.zero_load_latency(), 4 * (6 + 1));
    }

    #[test]
    fn one_hop_mesh_latency_is_eight() {
        let route = SourceRoute::xy(mesh(), NodeId(9), NodeId(10)).unwrap();
        let table = FlowTable::mesh_baseline(mesh(), &[(FlowId(1), route)]);
        assert_eq!(table.plan(FlowId(1)).zero_load_latency(), 8);
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
        // The stored records charge the same.
        let table = table_of(mesh(), &[plan]);
        let legs = table.plan(FlowId(0)).legs;
        assert_eq!(legs.iter().map(|l| u32::from(l.crossbars)).sum::<u32>(), 3);
        assert!((legs.iter().map(|l| l.mm).sum::<f64>() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn a_leg_record_is_24_bytes() {
        assert_eq!(std::mem::size_of::<LegRec>(), 24);
    }

    #[test]
    fn packet_records_leave_the_endpoints_to_the_plan() {
        // Neither record repeats its flow's endpoints, which the plan
        // holds. Every offered packet, every live arena slot and every
        // cross-band arrival (which carries a `PacketMeta`) costs these.
        assert_eq!(std::mem::size_of::<crate::flit::Packet>(), 24);
        assert_eq!(std::mem::size_of::<crate::flit::PacketMeta>(), 32);
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
        FlowTable::new().insert(mesh(), plan);
    }

    #[test]
    fn mesh_legs_pair_each_sender_with_its_neighbour() {
        let flows = [(0, 3), (4, 3), (0, 12)].map(|(s, d)| {
            let route = SourceRoute::xy(mesh(), NodeId(s), NodeId(d)).unwrap();
            (FlowId(u32::from(s * 16 + d)), route)
        });
        let table = FlowTable::mesh_baseline(mesh(), &flows);
        let mut link_legs = 0;
        for leg in table.iter().flat_map(|p| p.legs) {
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

    /// The table built from `plans` holds each plan's legs consecutively,
    /// in travel order, record for record, each starting where the one
    /// before ended; `mesh_baseline` stores the same plans as
    /// inserting `mesh_plan_for`'s.
    fn assert_table_follows_plans(topo: Topology, routes: &[(FlowId, SourceRoute)]) {
        let plans: Vec<FlowPlan> = (routes.iter())
            .map(|(f, r)| mesh_plan_for(topo, *f, r.clone()))
            .collect();
        let table = table_of(topo, &plans);
        for plan in &plans {
            let stored = table.plan(plan.flow);
            assert_eq!(
                (stored.flow, stored.legs.len()),
                (plan.flow, plan.legs.len())
            );
            let first = table.first_leg(plan.flow);
            for (j, leg) in plan.legs.iter().enumerate() {
                let rec = table.rec(first + j as u32);
                assert_eq!(
                    (rec.sender, rec.out_dir, rec.end, rec.cycles),
                    (leg.sender, leg.out_dir, leg.end, leg.cycles),
                    "{} leg {j}",
                    plan.flow
                );
                assert_eq!(u32::from(rec.crossbars), leg.crossbars());
                assert_eq!(rec.mm, leg.link_mm());
                let links: Vec<u32> = leg.links.iter().map(|&l| link_index(l)).collect();
                assert_eq!(table.rec_links(rec), links, "{} leg {j}", plan.flow);
                assert!(stored.links(rec).eq(leg.links.iter().copied()));
                if j > 0 {
                    let prev = table.rec(first + j as u32 - 1);
                    assert_eq!(prev.end.node(), rec.sender.node(), "{} leg {j}", plan.flow);
                    assert!(matches!(prev.end, Endpoint::Stop { .. }));
                }
            }
        }
        let legs: usize = plans.iter().map(|p| p.legs.len()).sum();
        assert_eq!(table.legs.len(), legs, "plans share no records");
        assert_eq!(FlowTable::mesh_baseline(topo, routes), table);
    }

    #[test]
    fn the_table_lays_plans_out_in_travel_order() {
        // Shuffled flow ids, inserted out of order.
        let sparse = [(7, 0, 3), (0, 4, 6), (3, 12, 0)].map(|(f, s, d)| {
            let route = SourceRoute::xy(mesh(), NodeId(s), NodeId(d)).unwrap();
            (FlowId(f), route)
        });
        assert_table_follows_plans(mesh(), &sparse);
        // Ids far apart: the same bisection finds them.
        let far = [(5_000_000, 1, 14), (9, 2, 8)].map(|(f, s, d)| {
            let route = SourceRoute::xy(mesh(), NodeId(s), NodeId(d)).unwrap();
            (FlowId(f), route)
        });
        assert_table_follows_plans(mesh(), &far);
        // Every pair of a 6x6 torus: routes that cross the wrap seam.
        let torus = Topology::torus(6, 6);
        let mut all = Vec::new();
        for s in torus.nodes() {
            for d in torus.nodes().filter(|d| *d != s) {
                let route = SourceRoute::xy(torus, s, d).unwrap();
                all.push((FlowId(all.len() as u32), route));
            }
        }
        assert_table_follows_plans(torus, &all);
    }

    #[test]
    #[should_panic(expected = "f0: leg 2 does not start where leg 1 ends")]
    fn a_plan_whose_legs_do_not_chain_is_refused() {
        let route = SourceRoute::xy(mesh(), NodeId(0), NodeId(3)).unwrap();
        let mut plan = mesh_plan_for(mesh(), FlowId(0), route);
        // Legs: inject, 0→1, 1→2, 2→3, eject. Swapped, leg 2 leaves
        // router 2 although leg 1 ended at router 1.
        plan.legs.swap(2, 3);
        FlowTable::new().insert(mesh(), plan);
    }

    #[test]
    #[should_panic(expected = "no plan for")]
    fn unknown_flow_rejected() {
        let route = SourceRoute::xy(mesh(), NodeId(0), NodeId(3)).unwrap();
        let table = FlowTable::mesh_baseline(mesh(), &[(FlowId(0), route)]);
        let _ = table.first_leg(FlowId(99));
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
        FlowTable::new().insert(mesh(), plan);
    }
}
