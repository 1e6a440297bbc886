//! Property tests for wrap-aware dimension-order routing on the torus:
//! every route is minimal (each axis independently takes the shorter
//! way around its ring, ties breaking East/North), terminates at its
//! destination, and is never longer than the same pair's mesh route —
//! and for the one grid type underneath: a mesh and a torus of equal
//! dimensions are the same grid and differ exactly on the seam links.

use proptest::prelude::*;
use smart_sim::{Direction, LinkId, NodeId, SourceRoute, Topology};

/// Per-axis hop counts the shorter-way rule demands, as
/// `(east, west, north, south)`.
fn expected_steps(topo: Topology, src: NodeId, dst: NodeId) -> (u16, u16, u16, u16) {
    let (cs, cd) = (topo.coord(src), topo.coord(dst));
    let axis = |from: u16, to: u16, size: u16| -> (u16, u16) {
        let fwd = (to + size - from) % size;
        let bwd = size - fwd;
        if fwd == 0 || fwd <= bwd {
            (fwd, 0)
        } else {
            (0, bwd)
        }
    };
    let (east, west) = axis(cs.x, cd.x, topo.width());
    let (north, south) = axis(cs.y, cd.y, topo.height());
    (east, west, north, south)
}

/// Count the route's steps per direction by walking its links.
fn taken_steps(route: &SourceRoute, topo: Topology) -> (u16, u16, u16, u16) {
    let mut counts = (0u16, 0u16, 0u16, 0u16);
    for link in route.links(topo) {
        match link.dir {
            Direction::East => counts.0 += 1,
            Direction::West => counts.1 += 1,
            Direction::North => counts.2 += 1,
            Direction::South => counts.3 += 1,
            Direction::Core => panic!("a route never uses the core port"),
        }
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Each axis independently takes the direction with fewer hops
    /// around its ring; an exact half-way tie goes East/North.
    #[test]
    fn torus_routes_take_the_shorter_wrap_direction(
        w in 2u16..10,
        h in 2u16..10,
        src in 0u16..100,
        dst in 0u16..100,
    ) {
        let topo = Topology::torus(w, h);
        let n = topo.len() as u16;
        let (src, dst) = (NodeId(src % n), NodeId(dst % n));
        prop_assume!(src != dst);
        let route = SourceRoute::dimension_order(topo, src, dst).expect("distinct endpoints");
        prop_assert_eq!(taken_steps(&route, topo), expected_steps(topo, src, dst));
        // Minimality follows: the step counts sum to the wrap-aware
        // distance.
        prop_assert_eq!(route.num_hops() as u16, topo.distance(src, dst));
        prop_assert_eq!(route.destination(topo), dst);
    }

    /// On `2^k × 2^k` fabrics the torus route for any pair is at most
    /// as long as the mesh route (the wrap links can only help), and
    /// both fit the torus header budget `⌊w/2⌋ + ⌊h/2⌋`.
    #[test]
    fn torus_route_never_longer_than_mesh_route_on_pow2(
        k in 1u32..5,
        src in 0u16..1000,
        dst in 0u16..1000,
    ) {
        let edge = 2u16.pow(k);
        let torus = Topology::torus(edge, edge);
        let mesh = Topology::mesh(edge, edge);
        let n = torus.len() as u16;
        let (src, dst) = (NodeId(src % n), NodeId(dst % n));
        prop_assume!(src != dst);
        let on_torus = SourceRoute::dimension_order(torus, src, dst).expect("distinct endpoints");
        let on_mesh = SourceRoute::dimension_order(mesh, src, dst).expect("distinct endpoints");
        prop_assert!(on_torus.num_hops() <= on_mesh.num_hops());
        prop_assert!(on_torus.num_hops() <= torus.max_route_hops());
    }

    /// Self-routes are a typed error on every topology, never a panic.
    #[test]
    fn self_routes_fail_identically_on_mesh_and_torus(node in 0u16..64) {
        let node = NodeId(node);
        let mesh_err = SourceRoute::dimension_order(Topology::mesh(8, 8), node, node);
        let torus_err = SourceRoute::dimension_order(Topology::torus(8, 8), node, node);
        prop_assert_eq!(mesh_err.unwrap_err(), torus_err.unwrap_err());
    }

    /// `wrap` changes nothing but the seam: same nodes, same numbering,
    /// same interior links; the torus adds exactly the links the mesh
    /// lacks, and its distance can only shrink.
    #[test]
    fn mesh_and_torus_are_one_grid_differing_only_at_the_seam(
        w in 2u16..=12,
        h in 2u16..=12,
        a in 0u16..144,
        b in 0u16..144,
    ) {
        let (mesh, torus) = (Topology::mesh(w, h), Topology::torus(w, h));
        prop_assert_eq!(mesh.len(), torus.len());
        prop_assert_eq!(mesh.nodes().collect::<Vec<_>>(), torus.nodes().collect::<Vec<_>>());
        for n in mesh.nodes() {
            let c = mesh.coord(n);
            prop_assert_eq!(c, torus.coord(n));
            prop_assert_eq!(mesh.node_at(c), n);
            prop_assert_eq!(torus.node_at(c), n);
            for dir in Direction::MESH {
                let link = LinkId { from: n, dir };
                let across = torus.neighbor(n, dir).expect("a torus links every compass port");
                prop_assert_eq!(torus.neighbor(across, dir.opposite()), Some(n));
                let on_mesh = mesh.neighbor(n, dir);
                prop_assert!(on_mesh.is_none() || on_mesh == Some(across));
                prop_assert_eq!(torus.is_wrap_link(link), on_mesh.is_none());
                prop_assert!(!mesh.is_wrap_link(link));
            }
        }
        let (w, h) = (usize::from(w), usize::from(h));
        prop_assert_eq!(mesh.links().len(), 2 * (w * (h - 1) + h * (w - 1)));
        prop_assert_eq!(torus.links().len(), 4 * w * h);
        let n = mesh.len() as u16;
        let (a, b) = (NodeId(a % n), NodeId(b % n));
        prop_assert_eq!(torus.distance(a, b), torus.distance(b, a));
        prop_assert!(torus.distance(a, b) <= mesh.distance(a, b));
    }
}
