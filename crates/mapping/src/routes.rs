//! Route candidate generation and contention-aware selection.
//!
//! SMART's single-cycle bypass only materializes where flows do *not*
//! share links, so route selection minimizes bandwidth-weighted link
//! sharing first and hop count second. Candidates are the two
//! dimension-ordered minimal routes (XY and YX); the selected set is
//! verified deadlock-free ([`crate::deadlock`]) and falls back to
//! all-XY (provably acyclic) if the mix ever creates a cycle.
//!
//! The routes committed so far live in one dense `LinkLoad`: a slot
//! per router output port, indexed `node * PORTS + dir` like the preset
//! compiler's port masks, holding the bandwidth committed across that
//! port. Route selection here and NMAP's placement ([`crate::nmap`])
//! score and commit over the same type, so a candidate is costed by
//! indexing, not hashing.

use crate::deadlock::{check, DeadlockCheck};
use smart_sim::topology::PORTS;
use smart_sim::{Coord, Direction, FlowId, NodeId, SourceRoute, Topology};

/// A flow to be routed: `(flow, src node, dst node, bandwidth MB/s)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutableFlow {
    /// Flow id.
    pub flow: FlowId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Bandwidth demand, MB/s.
    pub bandwidth_mbs: f64,
}

/// The YX (Y-then-X) dimension-ordered route on the unwrapped grid.
/// On a torus this is the non-wrapping alternative candidate; the
/// wrap-aware shortest routes come from [`SourceRoute::xy`].
///
/// Each step is named the way [`SourceRoute::from_router_path`] names
/// it: the *first* of East, South, West, North that reaches the next
/// router. On a torus 2 wide, East and West reach the same neighbour,
/// so every x-hop is East; on a torus 2 high, every y-hop is South.
///
/// # Panics
///
/// Panics if `src == dst`.
#[must_use]
pub fn yx(mesh: Topology, src: NodeId, dst: NodeId) -> SourceRoute {
    assert_ne!(src, dst, "no route from a node to itself");
    let dirs: Vec<Direction> = yx_legs(mesh, mesh.coord(src), mesh.coord(dst))
        .into_iter()
        .flat_map(|(dir, hops)| std::iter::repeat_n(dir, usize::from(hops)))
        .collect();
    SourceRoute::from_directions(src, &dirs)
}

/// [`yx`] as two straight legs, `(direction, hops)` along y and then
/// along x (a leg may have no hops): the one statement of that route's
/// directions, narrow-torus naming included. A walk that needs only the
/// ports the route crosses steps these legs without building the route.
pub(crate) fn yx_legs(topo: Topology, src: Coord, dst: Coord) -> [(Direction, u16); 2] {
    let two_ring = |size: u16| topo.is_torus() && size == 2;
    let y = if dst.y < src.y || two_ring(topo.height()) {
        Direction::South
    } else {
        Direction::North
    };
    let x = if dst.x > src.x || two_ring(topo.width()) {
        Direction::East
    } else {
        Direction::West
    };
    [(y, src.y.abs_diff(dst.y)), (x, src.x.abs_diff(dst.x))]
}

/// The output ports (`node * PORTS + dir`) crossed by taking `legs` in
/// order from `start`, stepping coordinates (a torus edge wraps).
pub(crate) fn leg_ports(
    topo: Topology,
    start: Coord,
    legs: [(Direction, u16); 2],
) -> impl Iterator<Item = usize> {
    let (w, h) = (topo.width(), topo.height());
    let Coord { mut x, mut y } = start;
    legs.into_iter()
        .flat_map(|(dir, hops)| std::iter::repeat_n(dir, usize::from(hops)))
        .map(move |dir| {
            let port = (usize::from(y) * usize::from(w) + usize::from(x)) * PORTS + dir.index();
            match dir {
                Direction::East => x = if x + 1 == w { 0 } else { x + 1 },
                Direction::West => x = x.checked_sub(1).unwrap_or(w - 1),
                Direction::North => y = if y + 1 == h { 0 } else { y + 1 },
                Direction::South => y = y.checked_sub(1).unwrap_or(h - 1),
                Direction::Core => unreachable!("legs run along compass directions"),
            }
            port
        })
}

/// The output ports (`node * PORTS + dir`) `route` crosses, in order.
fn route_ports(topo: Topology, route: &SourceRoute) -> impl Iterator<Item = usize> + '_ {
    route
        .hops(topo)
        .filter(|(_, dir)| *dir != Direction::Core)
        .map(|(node, dir)| usize::from(node.0) * PORTS + dir.index())
}

/// Minimal route candidates between two nodes (XY, plus YX when they
/// differ).
#[must_use]
pub fn candidates(mesh: Topology, src: NodeId, dst: NodeId) -> Vec<SourceRoute> {
    let a = SourceRoute::xy(mesh, src, dst).expect("distinct endpoints");
    let b = yx(mesh, src, dst);
    if a == b {
        vec![a]
    } else {
        vec![a, b]
    }
}

/// Non-minimal candidates: routes through a waypoint with up to
/// `max_extra` additional hops (the paper's §VI future work — on SMART,
/// a detour that avoids link sharing costs extra *millimetres* but zero
/// extra *cycles*, because the whole path is still one bypass segment).
///
/// Composes XY(src→w) with YX(w→dst) and keeps only loop-free results;
/// minimal candidates are always included first.
#[must_use]
pub fn detour_candidates(
    mesh: Topology,
    src: NodeId,
    dst: NodeId,
    max_extra: u16,
) -> Vec<SourceRoute> {
    let mut out = candidates(mesh, src, dst);
    let min_hops = mesh.distance(src, dst);
    for w in mesh.nodes() {
        if w == src || w == dst {
            continue;
        }
        let total = mesh.distance(src, w) + mesh.distance(w, dst);
        if total > min_hops + max_extra {
            continue;
        }
        // Stitch every combination of dimension-ordered halves at the
        // waypoint; keep the loop-free ones.
        for first in candidates(mesh, src, w) {
            for second in candidates(mesh, w, dst) {
                let mut routers = first.routers(mesh);
                routers.extend_from_slice(&second.routers(mesh)[1..]);
                let mut seen = std::collections::HashSet::new();
                if !routers.iter().all(|r| seen.insert(*r)) {
                    continue;
                }
                let route = SourceRoute::from_router_path(mesh, &routers);
                if !out.contains(&route) {
                    out.push(route);
                }
            }
        }
    }
    out
}

/// Route-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteOptions {
    /// Consider non-minimal detours (bounded by `max_extra_hops`).
    pub allow_detours: bool,
    /// Extra hops a detour may take beyond the minimal distance.
    pub max_extra_hops: u16,
}

impl Default for RouteOptions {
    fn default() -> Self {
        RouteOptions {
            allow_detours: false,
            max_extra_hops: 2,
        }
    }
}

impl RouteOptions {
    /// The paper's future-work policy: detours up to 2 extra hops.
    #[must_use]
    pub fn with_detours() -> Self {
        RouteOptions {
            allow_detours: true,
            max_extra_hops: 2,
        }
    }
}

/// Bandwidth committed per router output port, indexed
/// `node * PORTS + dir`. `None` means no committed route crosses the
/// port; any `Some` counts as sharing, whatever the load it holds.
pub(crate) struct LinkLoad {
    ports: Vec<Option<f64>>,
}

impl LinkLoad {
    /// No route committed on `topo`.
    pub(crate) fn new(topo: Topology) -> Self {
        LinkLoad {
            ports: vec![None; topo.len() * PORTS],
        }
    }

    /// Cost of laying a route crossing `ports` (in route order) for a
    /// flow of `bandwidth`: bandwidth-weighted sharing dominates; hop
    /// count breaks ties.
    pub(crate) fn cost(&self, ports: impl Iterator<Item = usize>, bandwidth: f64) -> f64 {
        let mut shared = 0.0;
        let mut hops = 0usize;
        for port in ports {
            hops += 1;
            if let Some(other) = self.ports[port] {
                // Both flows suffer: weight by the smaller of the demands
                // plus a fixed penalty per shared link (any sharing forces
                // stops regardless of magnitude).
                shared += 1.0 + (other.min(bandwidth)) / 1000.0;
            }
        }
        shared * 1_000.0 + hops as f64
    }

    /// Commit a flow of `bandwidth` across `ports`.
    pub(crate) fn commit(&mut self, ports: impl Iterator<Item = usize>, bandwidth: f64) {
        for port in ports {
            *self.ports[port].get_or_insert(0.0) += bandwidth;
        }
    }
}

/// Greedily route `flows` (descending bandwidth), minimizing sharing.
/// Returns deadlock-free routes.
#[must_use]
pub fn select_routes(topo: Topology, flows: &[RoutableFlow]) -> Vec<(FlowId, SourceRoute)> {
    select_routes_with(topo, flows, RouteOptions::default())
}

/// [`select_routes`] with an explicit policy (e.g. non-minimal detours).
#[must_use]
pub fn select_routes_with(
    mesh: Topology,
    flows: &[RoutableFlow],
    opts: RouteOptions,
) -> Vec<(FlowId, SourceRoute)> {
    let mut order: Vec<&RoutableFlow> = flows.iter().collect();
    order.sort_by(|a, b| {
        b.bandwidth_mbs
            .partial_cmp(&a.bandwidth_mbs)
            .expect("bandwidths are finite")
            .then(a.flow.0.cmp(&b.flow.0))
    });
    let mut load = LinkLoad::new(mesh);
    let mut picked: Vec<(FlowId, SourceRoute)> = Vec::new();
    for f in order {
        let cands = if opts.allow_detours {
            detour_candidates(mesh, f.src, f.dst, opts.max_extra_hops)
        } else {
            candidates(mesh, f.src, f.dst)
        };
        let mut best: Option<(f64, SourceRoute)> = None;
        for cand in cands {
            let cost = load.cost(route_ports(mesh, &cand), f.bandwidth_mbs);
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, cand));
            }
        }
        let (_, route) = best.expect("at least one candidate");
        load.commit(route_ports(mesh, &route), f.bandwidth_mbs);
        picked.push((f.flow, route));
    }
    picked.sort_by_key(|(f, _)| f.0);

    // Deadlock safety net: XY+YX mixes (and detours) can create turn
    // cycles.
    let just_routes: Vec<SourceRoute> = picked.iter().map(|(_, r)| r.clone()).collect();
    if let DeadlockCheck::Cyclic(_) = check(mesh, &just_routes) {
        return flows
            .iter()
            .map(|f| {
                (
                    f.flow,
                    SourceRoute::xy(mesh, f.src, f.dst).expect("distinct endpoints"),
                )
            })
            .collect();
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Topology {
        Topology::paper_4x4()
    }

    #[test]
    fn yx_differs_from_xy_on_l_shapes() {
        let a = SourceRoute::xy(mesh(), NodeId(0), NodeId(5)).unwrap();
        let b = yx(mesh(), NodeId(0), NodeId(5));
        assert_ne!(a, b);
        assert_eq!(a.num_hops(), b.num_hops());
        // Straight lines coincide.
        assert_eq!(
            SourceRoute::xy(mesh(), NodeId(0), NodeId(3)).unwrap(),
            yx(mesh(), NodeId(0), NodeId(3))
        );
        assert_eq!(candidates(mesh(), NodeId(0), NodeId(3)).len(), 1);
        assert_eq!(candidates(mesh(), NodeId(0), NodeId(5)).len(), 2);
    }

    #[test]
    fn leg_walks_cross_the_ports_of_the_built_routes() {
        // Every ordered pair on meshes and tori, the narrow tori among
        // them: there YX's x-hops are all East and its y-hops all South.
        let port = |l: smart_sim::LinkId| usize::from(l.from.0) * PORTS + l.dir.index();
        for topo in [
            Topology::mesh(4, 3),
            Topology::mesh(1, 4),
            Topology::torus(2, 2),
            Topology::torus(2, 5),
            Topology::torus(5, 2),
            Topology::torus(4, 5),
        ] {
            for (s, d) in topo.nodes().flat_map(|s| topo.nodes().map(move |d| (s, d))) {
                if s == d {
                    continue;
                }
                let (cs, cd) = (topo.coord(s), topo.coord(d));
                let walk = |legs| leg_ports(topo, cs, legs).collect::<Vec<_>>();
                let xy = SourceRoute::xy(topo, s, d).unwrap();
                let built =
                    |r: &SourceRoute| r.links(topo).into_iter().map(port).collect::<Vec<_>>();
                assert_eq!(
                    walk(SourceRoute::dimension_order_legs(topo, cs, cd)),
                    built(&xy),
                    "XY {s}->{d} on {topo:?}"
                );
                assert_eq!(
                    walk(yx_legs(topo, cs, cd)),
                    built(&yx(topo, s, d)),
                    "YX {s}->{d} on {topo:?}"
                );
            }
        }
    }

    #[test]
    fn selection_avoids_sharing_when_possible() {
        // Two crossing flows: 0->5 and 4->1. XY for both shares no link
        // (0->1->5 and 4->5->1? XY: 4->5 (E) then 5->1 (S); 0->1 (E)
        // then 1->5 (N). Links disjoint? 0.E, 1.N vs 4.E, 5.S — yes).
        // Whatever the geometry, the selected routes must not overlap.
        let flows = [
            RoutableFlow {
                flow: FlowId(0),
                src: NodeId(0),
                dst: NodeId(5),
                bandwidth_mbs: 100.0,
            },
            RoutableFlow {
                flow: FlowId(1),
                src: NodeId(4),
                dst: NodeId(1),
                bandwidth_mbs: 100.0,
            },
        ];
        let picked = select_routes(mesh(), &flows);
        let l0 = picked[0].1.links(mesh());
        let l1 = picked[1].1.links(mesh());
        assert!(
            l0.iter().all(|l| !l1.contains(l)),
            "routes must not share links: {l0:?} vs {l1:?}"
        );
    }

    #[test]
    fn selection_dodges_a_congested_straight_line() {
        // Flow A occupies the bottom row 0->3. Flow B (0->7) should
        // prefer a route avoiding row links used by A.
        let flows = [
            RoutableFlow {
                flow: FlowId(0),
                src: NodeId(0),
                dst: NodeId(3),
                bandwidth_mbs: 500.0,
            },
            RoutableFlow {
                flow: FlowId(1),
                src: NodeId(0),
                dst: NodeId(7),
                bandwidth_mbs: 100.0,
            },
        ];
        let picked = select_routes(mesh(), &flows);
        let a_links = picked[0].1.links(mesh());
        let b_links = picked[1].1.links(mesh());
        assert!(
            b_links.iter().all(|l| !a_links.contains(l)),
            "B must take the YX detour"
        );
    }

    #[test]
    fn selected_routes_are_deadlock_free() {
        // A dense random-ish flow set; whatever mix is chosen must pass
        // the CDG check (select_routes guarantees it by construction).
        let mut flows = Vec::new();
        for (i, (s, d)) in [
            (0u16, 15u16),
            (3, 12),
            (12, 3),
            (15, 0),
            (5, 10),
            (10, 5),
            (1, 14),
            (7, 8),
        ]
        .iter()
        .enumerate()
        {
            flows.push(RoutableFlow {
                flow: FlowId(i as u32),
                src: NodeId(*s),
                dst: NodeId(*d),
                bandwidth_mbs: 50.0 + i as f64,
            });
        }
        let picked = select_routes(mesh(), &flows);
        let routes: Vec<SourceRoute> = picked.iter().map(|(_, r)| r.clone()).collect();
        assert!(check(mesh(), &routes).is_free());
        assert_eq!(picked.len(), flows.len());
    }

    #[test]
    fn detour_candidates_include_minimal_and_bounded_detours() {
        let cands = detour_candidates(mesh(), NodeId(0), NodeId(2), 2);
        let min = mesh().distance(NodeId(0), NodeId(2)) as usize;
        assert!(cands.iter().any(|r| r.num_hops() == min), "minimal kept");
        assert!(
            cands.iter().any(|r| r.num_hops() == min + 2),
            "a 2-hop detour exists"
        );
        assert!(cands.iter().all(|r| r.num_hops() <= min + 2));
        // All loop-free.
        for r in &cands {
            let routers = r.routers(mesh());
            let mut seen = std::collections::HashSet::new();
            assert!(routers.iter().all(|n| seen.insert(*n)), "{routers:?}");
        }
    }

    #[test]
    fn detours_dodge_a_fully_blocked_row() {
        // Flow A saturates the straight line 0->1->2. With detours
        // enabled, flow B (0->2) must route around it entirely.
        let flows = [
            RoutableFlow {
                flow: FlowId(0),
                src: NodeId(0),
                dst: NodeId(2),
                bandwidth_mbs: 900.0,
            },
            RoutableFlow {
                flow: FlowId(1),
                src: NodeId(0),
                dst: NodeId(2),
                bandwidth_mbs: 100.0,
            },
        ];
        // Minimal-only: both flows share the row (0->2 has a single
        // minimal route).
        let minimal = select_routes(mesh(), &flows);
        assert_eq!(minimal[0].1, minimal[1].1);
        // With detours: B takes the +2 route through row 1 and shares
        // nothing (except unavoidably the endpoints' ports).
        let detoured = select_routes_with(mesh(), &flows, RouteOptions::with_detours());
        let a_links = detoured[0].1.links(mesh());
        let b_links = detoured[1].1.links(mesh());
        assert!(b_links.iter().all(|l| !a_links.contains(l)));
        assert_eq!(detoured[1].1.num_hops(), 4);
    }

    #[test]
    fn detoured_route_sets_stay_deadlock_free() {
        let mut flows = Vec::new();
        for (i, (s, d)) in [(0u16, 15u16), (15, 0), (3, 12), (12, 3), (1, 11), (14, 4)]
            .iter()
            .enumerate()
        {
            flows.push(RoutableFlow {
                flow: FlowId(i as u32),
                src: NodeId(*s),
                dst: NodeId(*d),
                bandwidth_mbs: 100.0,
            });
        }
        let picked = select_routes_with(mesh(), &flows, RouteOptions::with_detours());
        let routes: Vec<SourceRoute> = picked.iter().map(|(_, r)| r.clone()).collect();
        assert!(check(mesh(), &routes).is_free());
    }

    #[test]
    fn results_sorted_by_flow_id() {
        let flows = [
            RoutableFlow {
                flow: FlowId(3),
                src: NodeId(0),
                dst: NodeId(1),
                bandwidth_mbs: 10.0,
            },
            RoutableFlow {
                flow: FlowId(1),
                src: NodeId(2),
                dst: NodeId(3),
                bandwidth_mbs: 99.0,
            },
        ];
        let picked = select_routes(mesh(), &flows);
        assert_eq!(picked[0].0, FlowId(1));
        assert_eq!(picked[1].0, FlowId(3));
    }
}
