//! Source routes and their 2-bit-per-router encoding.
//!
//! The paper (Section IV, *Routing*): routes are static and carried in
//! the head flit. "At the source router, the 2-bit corresponds to East,
//! South, West and North output ports, while at all other routers, the
//! bits correspond to Left, Right, Straight and Core", relative to the
//! flit's travelling direction. Deadlock freedom is enforced by the route
//! *generator* (a turn model — see `smart-mapping`), not by the encoding.
//!
//! The encoding is topology-agnostic: crossing a torus wrap link
//! preserves the travelling direction (East across the seam is still
//! East), so the same relative turns steer a flit on either fabric.
//! [`SourceRoute::dimension_order`] is the generic minimal generator —
//! classic XY on a mesh, per-axis shorter-way-around on a torus.

use crate::topology::{Coord, Direction, LinkId, NodeId, Topology, Turn};
use std::fmt;

/// Why a route could not be generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// The source and destination are the same node: the paper's route
    /// encoding has no zero-hop form (the first field is an absolute
    /// output port, so every route crosses at least one link). Flow
    /// generators must filter self-pairs before routing.
    SelfRoute(NodeId),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::SelfRoute(node) => write!(
                f,
                "no route from {node} to itself: the 2-bit route encoding \
                 has no zero-hop form"
            ),
        }
    }
}

impl std::error::Error for RouteError {}

/// A static source route: the absolute output direction at the source
/// router, followed by one relative turn per subsequent router, ending
/// with [`Turn::Core`] at the destination.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SourceRoute {
    src: NodeId,
    first: Direction,
    turns: Vec<Turn>,
}

impl SourceRoute {
    /// Build a route from the source output direction and per-router
    /// turns.
    ///
    /// # Panics
    ///
    /// Panics if `first` is `Core`, if `turns` is empty, if any turn
    /// before the last is `Core`, or if the last turn is not `Core`.
    #[must_use]
    pub fn new(src: NodeId, first: Direction, turns: Vec<Turn>) -> Self {
        assert!(
            first != Direction::Core,
            "source output must be a mesh port"
        );
        assert!(!turns.is_empty(), "route must terminate with a Core turn");
        assert_eq!(
            *turns.last().expect("nonempty"),
            Turn::Core,
            "route must end by ejecting to the core"
        );
        assert!(
            turns[..turns.len() - 1].iter().all(|t| *t != Turn::Core),
            "Core turn only allowed at the destination"
        );
        SourceRoute { src, first, turns }
    }

    /// Build the route that follows `routers` (which must start at the
    /// source, step between adjacent nodes, and have ≥ 2 entries).
    ///
    /// # Panics
    ///
    /// Panics if consecutive routers are not neighbours on `topo` or
    /// fewer than two routers are given.
    #[must_use]
    pub fn from_router_path(topo: Topology, routers: &[NodeId]) -> Self {
        assert!(routers.len() >= 2, "a route needs at least two routers");
        let mut dirs = Vec::with_capacity(routers.len() - 1);
        for w in routers.windows(2) {
            let dir = Direction::MESH
                .iter()
                .copied()
                .find(|d| topo.neighbor(w[0], *d) == Some(w[1]))
                .unwrap_or_else(|| panic!("{} and {} are not neighbours", w[0], w[1]));
            dirs.push(dir);
        }
        SourceRoute::from_directions(routers[0], &dirs)
    }

    /// Build the route that leaves `src` and takes `dirs` in order
    /// (≥ 1 of them), ejecting to the core after the last.
    ///
    /// # Panics
    ///
    /// Panics if `dirs` is empty, contains `Core`, or reverses
    /// direction between consecutive hops (U-turns are not encodable).
    #[must_use]
    pub fn from_directions(src: NodeId, dirs: &[Direction]) -> Self {
        assert!(!dirs.is_empty(), "a route needs at least one hop");
        let first = dirs[0];
        let mut turns = Vec::with_capacity(dirs.len());
        for w in dirs.windows(2) {
            turns.push(w[0].turn_to(w[1]));
        }
        turns.push(Turn::Core);
        SourceRoute::new(src, first, turns)
    }

    /// Dimension-ordered (X-then-Y) minimal route from `src` to `dst`.
    /// On a mesh this is the classic deadlock-free XY baseline; on a
    /// torus each axis independently takes the direction with fewer
    /// hops, wrapping across the seam when that is shorter (ties — an
    /// even ring crossed exactly half-way — break toward East/North for
    /// determinism).
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::SelfRoute`] when `src == dst` — the route
    /// encoding has no zero-hop form, so self-flows must be filtered by
    /// the caller.
    pub fn dimension_order(topo: Topology, src: NodeId, dst: NodeId) -> Result<Self, RouteError> {
        if src == dst {
            return Err(RouteError::SelfRoute(src));
        }
        let legs = SourceRoute::dimension_order_legs(topo, topo.coord(src), topo.coord(dst));
        let mut dirs = Vec::with_capacity(usize::from(legs[0].1 + legs[1].1));
        for (dir, hops) in legs {
            dirs.extend(std::iter::repeat_n(dir, usize::from(hops)));
        }
        Ok(SourceRoute::from_directions(src, &dirs))
    }

    /// [`SourceRoute::dimension_order`] as its two straight legs,
    /// `(direction, hops)` along x and then along y (a leg may have no
    /// hops): the one statement of that route's directions and its
    /// torus tie rule. A caller that needs only the ports the route
    /// crosses can step these legs without building the route.
    #[must_use]
    pub fn dimension_order_legs(topo: Topology, src: Coord, dst: Coord) -> [(Direction, u16); 2] {
        let axis = |from: u16, to: u16, size: u16, pos: Direction, neg: Direction| {
            if topo.is_torus() {
                // On a tie (an even ring crossed half-way) take the
                // positive direction.
                let fwd = (to + size - from) % size;
                if fwd <= size - fwd {
                    (pos, fwd)
                } else {
                    (neg, size - fwd)
                }
            } else if to >= from {
                (pos, to - from)
            } else {
                (neg, from - to)
            }
        };
        [
            axis(src.x, dst.x, topo.width(), Direction::East, Direction::West),
            axis(
                src.y,
                dst.y,
                topo.height(),
                Direction::North,
                Direction::South,
            ),
        ]
    }

    /// The historical name for [`SourceRoute::dimension_order`] —
    /// X-then-Y on a mesh, wrap-aware on a torus.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::SelfRoute`] when `src == dst`.
    pub fn xy(topo: Topology, src: NodeId, dst: NodeId) -> Result<Self, RouteError> {
        SourceRoute::dimension_order(topo, src, dst)
    }

    /// Source node of the route.
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.src
    }

    /// The relative turns at routers after the source.
    #[must_use]
    pub fn turns(&self) -> &[Turn] {
        &self.turns
    }

    /// Number of links traversed.
    #[must_use]
    pub fn num_hops(&self) -> usize {
        self.turns.len()
    }

    /// Output direction at each visited router, source first, ending
    /// with `Core`: the one place the relative turns are followed.
    fn directions(&self) -> impl Iterator<Item = Direction> + '_ {
        let mut travel = self.first;
        std::iter::once(self.first).chain(self.turns.iter().map(move |t| {
            travel = travel.apply_turn(*t);
            travel
        }))
    }

    /// The route walked once: `(router, output)` at every visited router
    /// in travel order, source first, ending with `(destination, Core)`
    /// (`num_hops() + 1` items). Allocates nothing; [`routers`],
    /// [`outputs`], [`links`] and [`destination`] are views of it.
    ///
    /// [`routers`]: SourceRoute::routers
    /// [`outputs`]: SourceRoute::outputs
    /// [`links`]: SourceRoute::links
    /// [`destination`]: SourceRoute::destination
    ///
    /// # Panics
    ///
    /// Panics (as the walk reaches it) if the route leaves the fabric.
    pub fn hops(&self, topo: Topology) -> impl Iterator<Item = (NodeId, Direction)> + '_ {
        let mut next = self.src;
        self.directions().map(move |out| {
            let here = next;
            if out != Direction::Core {
                next = topo
                    .neighbor(here, out)
                    .unwrap_or_else(|| panic!("route leaves the fabric at {here}"));
            }
            (here, out)
        })
    }

    /// The routers visited, source first, destination last
    /// (`num_hops() + 1` entries).
    ///
    /// # Panics
    ///
    /// Panics if the route walks off a fabric edge.
    #[must_use]
    pub fn routers(&self, topo: Topology) -> Vec<NodeId> {
        self.hops(topo).map(|(r, _)| r).collect()
    }

    /// The destination node.
    #[must_use]
    pub fn destination(&self, topo: Topology) -> NodeId {
        self.hops(topo).last().expect("routes are nonempty").0
    }

    /// Output direction at each visited router, ending with `Core`
    /// (`num_hops() + 1` entries, aligned with [`SourceRoute::routers`]).
    #[must_use]
    pub fn outputs(&self) -> Vec<Direction> {
        self.directions().collect()
    }

    /// The directed links traversed, in order.
    #[must_use]
    pub fn links(&self, topo: Topology) -> Vec<LinkId> {
        self.hops(topo)
            .filter(|(_, d)| *d != Direction::Core)
            .map(|(from, dir)| LinkId { from, dir })
            .collect()
    }

    /// Encode as the paper's bit format: 2 bits absolute at the source,
    /// then 2 bits per router (LSB-first per field).
    #[must_use]
    pub fn encode(&self) -> u64 {
        let mut bits = u64::from(self.first.index() as u32);
        let mut shift = 2;
        for t in &self.turns {
            assert!(shift + 2 <= 64, "route too long for a 64-bit encoding");
            bits |= u64::from(t.bits()) << shift;
            shift += 2;
        }
        bits
    }

    /// Decode a route of `num_hops` links for source `src` from the bit
    /// format produced by [`SourceRoute::encode`].
    ///
    /// # Panics
    ///
    /// Panics if the encoded fields violate route invariants.
    #[must_use]
    pub fn decode(src: NodeId, bits: u64, num_hops: usize) -> Self {
        let first = Direction::from_index((bits & 0b11) as usize);
        let mut turns = Vec::with_capacity(num_hops);
        for i in 0..num_hops {
            let f = (bits >> (2 + 2 * i)) & 0b11;
            turns.push(Turn::from_bits(f as u32));
        }
        SourceRoute::new(src, first, turns)
    }

    /// Number of route bits in a head-flit header for a mesh whose
    /// longest minimal route has `max_hops` links: one absolute field
    /// plus one per subsequent router.
    #[must_use]
    pub fn header_bits(max_hops: usize) -> usize {
        2 * (max_hops + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Topology {
        Topology::paper_4x4()
    }

    #[test]
    fn xy_route_shape() {
        let r = SourceRoute::xy(mesh(), NodeId(0), NodeId(15)).unwrap();
        assert_eq!(r.num_hops(), 6);
        assert_eq!(
            r.routers(mesh()),
            vec![
                NodeId(0),
                NodeId(1),
                NodeId(2),
                NodeId(3),
                NodeId(7),
                NodeId(11),
                NodeId(15)
            ]
        );
        assert_eq!(r.destination(mesh()), NodeId(15));
        let outs = r.outputs();
        assert_eq!(outs[0], Direction::East);
        assert_eq!(outs[3], Direction::North);
        assert_eq!(*outs.last().expect("nonempty"), Direction::Core);
    }

    #[test]
    fn single_hop_route() {
        let r = SourceRoute::xy(mesh(), NodeId(9), NodeId(10)).unwrap();
        assert_eq!(r.num_hops(), 1);
        assert_eq!(r.turns(), &[Turn::Core]);
        assert_eq!(r.links(mesh()).len(), 1);
        assert_eq!(
            r.links(mesh())[0],
            LinkId {
                from: NodeId(9),
                dir: Direction::East
            }
        );
    }

    #[test]
    fn hops_pair_each_router_with_its_output() {
        let r = SourceRoute::xy(mesh(), NodeId(4), NodeId(9)).unwrap();
        let hops: Vec<_> = r.hops(mesh()).collect();
        assert_eq!(
            hops,
            vec![
                (NodeId(4), Direction::East),
                (NodeId(5), Direction::North),
                (NodeId(9), Direction::Core)
            ]
        );
        let (routers, outputs): (Vec<_>, Vec<_>) = hops.into_iter().unzip();
        assert_eq!((routers, outputs), (r.routers(mesh()), r.outputs()));
    }

    #[test]
    #[should_panic(expected = "route leaves the fabric at n3")]
    fn a_route_off_the_edge_panics_where_it_leaves() {
        let r = SourceRoute::from_directions(NodeId(2), &[Direction::East, Direction::East]);
        let _ = r.destination(mesh());
    }

    #[test]
    fn from_router_path_round_trips_routers() {
        let path = vec![NodeId(8), NodeId(9), NodeId(10), NodeId(6), NodeId(2)];
        let r = SourceRoute::from_router_path(mesh(), &path);
        assert_eq!(r.routers(mesh()), path);
        // East, East, then turn right (South), straight, eject.
        assert_eq!(
            r.turns(),
            &[Turn::Straight, Turn::Right, Turn::Straight, Turn::Core]
        );
    }

    #[test]
    fn encode_decode_round_trip() {
        for (s, d) in [(0u16, 15u16), (9, 10), (3, 12), (14, 1), (5, 6)] {
            let r = SourceRoute::xy(mesh(), NodeId(s), NodeId(d)).unwrap();
            let bits = r.encode();
            let back = SourceRoute::decode(NodeId(s), bits, r.num_hops());
            assert_eq!(back, r, "route {s}->{d}");
        }
    }

    #[test]
    fn paper_header_budget() {
        // 4x4 mesh: longest minimal route is 6 links; 2·(6+1) = 14 route
        // bits — fits the 20-bit head header with VC + type to spare.
        assert_eq!(SourceRoute::header_bits(6), 14);
    }

    #[test]
    fn links_match_hops() {
        let r = SourceRoute::xy(mesh(), NodeId(12), NodeId(3)).unwrap();
        assert_eq!(r.links(mesh()).len(), r.num_hops());
        assert_eq!(r.num_hops(), 6);
    }

    #[test]
    #[should_panic(expected = "not neighbours")]
    fn non_adjacent_path_rejected() {
        let _ = SourceRoute::from_router_path(mesh(), &[NodeId(0), NodeId(5)]);
    }

    #[test]
    fn self_route_is_a_typed_error() {
        let err = SourceRoute::xy(mesh(), NodeId(3), NodeId(3)).expect_err("self route");
        assert_eq!(err, RouteError::SelfRoute(NodeId(3)));
        assert!(err.to_string().contains("no route from n3 to itself"));
        let torus_err = SourceRoute::dimension_order(Topology::torus(4, 4), NodeId(0), NodeId(0))
            .expect_err("self route");
        assert_eq!(torus_err, RouteError::SelfRoute(NodeId(0)));
    }

    #[test]
    fn torus_route_wraps_the_short_way() {
        let t = Topology::torus(4, 4);
        // 0 -> 3: one West wrap hop instead of three East hops.
        let r = SourceRoute::dimension_order(t, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(r.num_hops(), 1);
        assert_eq!(r.routers(t), vec![NodeId(0), NodeId(3)]);
        // 0 -> 15: West wrap then South wrap, 2 hops total.
        let r = SourceRoute::dimension_order(t, NodeId(0), NodeId(15)).unwrap();
        assert_eq!(r.num_hops(), 2);
        assert_eq!(r.routers(t), vec![NodeId(0), NodeId(3), NodeId(15)]);
        assert_eq!(r.destination(t), NodeId(15));
        // The same pair on the mesh needs 6 hops.
        let m = SourceRoute::dimension_order(mesh(), NodeId(0), NodeId(15)).unwrap();
        assert_eq!(m.num_hops(), 6);
    }

    #[test]
    fn torus_half_way_tie_breaks_east_and_north() {
        let t = Topology::torus(4, 4);
        // x: 0 -> 2 is 2 hops either way; the tie goes East.
        let r = SourceRoute::dimension_order(t, NodeId(0), NodeId(2)).unwrap();
        assert_eq!(r.routers(t), vec![NodeId(0), NodeId(1), NodeId(2)]);
        // y: 0 -> 8 is 2 hops either way; the tie goes North.
        let r = SourceRoute::dimension_order(t, NodeId(0), NodeId(8)).unwrap();
        assert_eq!(r.routers(t), vec![NodeId(0), NodeId(4), NodeId(8)]);
    }

    #[test]
    fn torus_route_length_matches_distance() {
        let t = Topology::torus(4, 4);
        for s in 0..16u16 {
            for d in 0..16u16 {
                if s == d {
                    continue;
                }
                let r = SourceRoute::dimension_order(t, NodeId(s), NodeId(d)).unwrap();
                assert_eq!(
                    r.num_hops() as u16,
                    t.distance(NodeId(s), NodeId(d)),
                    "{s}->{d}"
                );
                assert_eq!(r.destination(t), NodeId(d), "{s}->{d}");
            }
        }
    }

    #[test]
    fn torus_routes_encode_and_decode_like_mesh_routes() {
        let t = Topology::torus(8, 8);
        let r = SourceRoute::dimension_order(t, NodeId(0), NodeId(63)).unwrap();
        let back = SourceRoute::decode(NodeId(0), r.encode(), r.num_hops());
        assert_eq!(back, r);
    }

    #[test]
    fn mesh_routes_on_wrapped_grid_still_work() {
        // A mesh route threaded through a same-size torus visits the
        // same routers: non-wrap links are identical in both fabrics.
        let m = mesh();
        let t = Topology::torus(4, 4);
        let r = SourceRoute::dimension_order(m, NodeId(1), NodeId(14)).unwrap();
        assert_eq!(r.routers(m), r.routers(t));
    }

    #[test]
    #[should_panic(expected = "Core turn only allowed at the destination")]
    fn early_core_rejected() {
        let _ = SourceRoute::new(NodeId(0), Direction::East, vec![Turn::Core, Turn::Core]);
    }
}
