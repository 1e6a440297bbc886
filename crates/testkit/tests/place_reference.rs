//! NMAP placement and route selection over the dense per-port load
//! (`smart_mapping::place`, `smart_mapping::select_routes_with`) equal
//! the statement over route objects and a hashed link load
//! (`smart_testkit::reference_place`, `reference_select_routes`): the
//! same core for every task, the same route for every flow.
//!
//! Fabrics are meshes and tori from 2×2 to 16×16, with an edge of 2
//! drawn often: a torus 2 wide or 2 high is where YX names its steps
//! East or South whichever way they go. Task graphs are seeded random,
//! 2 to min(cores, 40) tasks, with non-integer bandwidths that often
//! repeat, so both the floating-point summation order and the
//! tie-breaks between equal costs are exercised.

use proptest::prelude::*;
use smart_mapping::{candidates, place, routable_flows, select_routes_with, RouteOptions};
use smart_sim::{NodeId, Topology};
use smart_taskgraph::{apps, TaskGraph, TaskId};
use smart_testkit::{reference_candidates, reference_place, reference_select_routes};
use std::collections::{BTreeMap, BTreeSet};

/// SplitMix64: a seeded stream for the graph shapes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random task graph of 2 to min(`cores`, 40) tasks: mostly a random
/// spanning tree (now and then a task is left isolated) plus random
/// extra flows, each bandwidth either one of three shared values or a
/// fresh non-integer one.
fn random_graph(cores: usize, rng: &mut Rng) -> TaskGraph {
    let tasks = 2 + rng.below(cores.min(40) - 1);
    let mut graph = TaskGraph::new("random");
    let ids: Vec<TaskId> = (0..tasks)
        .map(|i| graph.add_task(&format!("t{i}")))
        .collect();
    let mut edges = BTreeSet::new();
    let mut add = |graph: &mut TaskGraph, a: usize, b: usize, rng: &mut Rng| {
        if a != b && edges.insert((a, b)) {
            let bandwidth = if rng.below(3) == 0 {
                [12.5, 70.0, 0.75][rng.below(3)]
            } else {
                0.01 + rng.below(100_000) as f64 / 37.0
            };
            graph.add_flow(ids[a], ids[b], bandwidth);
        }
    };
    for i in 1..tasks {
        if rng.below(8) != 0 {
            let j = rng.below(i);
            if rng.below(2) == 0 {
                add(&mut graph, i, j, rng);
            } else {
                add(&mut graph, j, i, rng);
            }
        }
    }
    for _ in 0..rng.below(2 * tasks) {
        let (a, b) = (rng.below(tasks), rng.below(tasks));
        add(&mut graph, a, b, rng);
    }
    graph
}

/// Place `graph` on `topo` both ways and route the flows both ways,
/// with and without detours; panics on the first difference.
fn assert_equal(topo: Topology, graph: &TaskGraph, at: &str) {
    let placed = place(topo, graph);
    let dense: BTreeMap<TaskId, NodeId> = placed.iter().map(|(t, c)| (*t, *c)).collect();
    assert_eq!(dense, reference_place(topo, graph), "placement, {at}");
    let flows = routable_flows(graph, &placed);
    for opts in [RouteOptions::default(), RouteOptions::with_detours()] {
        assert_eq!(
            select_routes_with(topo, &flows, opts),
            reference_select_routes(topo, &flows, opts),
            "routes with {opts:?}, {at}"
        );
    }
}

/// An edge in 2..=16, 2 a quarter of the time.
fn edge(draw: u16) -> u16 {
    if draw > 16 {
        2
    } else {
        draw
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_placement_and_routes_equal_the_reference(
        width in 2u16..=20,
        height in 2u16..=20,
        torus in 0u8..2,
        seed in 0u64..u64::MAX,
    ) {
        let (width, height) = (edge(width), edge(height));
        let topo = if torus == 1 {
            Topology::torus(width, height)
        } else {
            Topology::mesh(width, height)
        };
        let graph = random_graph(topo.len(), &mut Rng(seed));
        assert_equal(topo, &graph, &format!("{topo:?} seed {seed}"));
    }
}

/// The eight applications, and a few seeded graphs, on a fixed set of
/// fabrics that includes every narrow torus.
#[test]
fn apps_and_seeded_graphs_on_fixed_fabrics_equal_the_reference() {
    let fabrics = [
        Topology::mesh(4, 4),
        Topology::mesh(8, 8),
        Topology::mesh(16, 16),
        Topology::mesh(12, 5),
        Topology::mesh(2, 3),
        Topology::torus(2, 2),
        Topology::torus(2, 5),
        Topology::torus(5, 2),
        Topology::torus(3, 3),
        Topology::torus(8, 8),
        Topology::torus(16, 16),
    ];
    for topo in fabrics {
        for graph in apps::all() {
            if graph.num_tasks() <= topo.len() {
                assert_equal(topo, &graph, &format!("{topo:?} {}", graph.name()));
            }
        }
        for seed in 0..4 {
            let graph = random_graph(topo.len(), &mut Rng(seed));
            assert_equal(topo, &graph, &format!("{topo:?} seed {seed}"));
        }
    }
}

/// The XY and YX candidates between every ordered pair of nodes equal
/// the reference's, which builds YX router by router: the narrow tori
/// are where its steps are named East or South whichever way they go.
#[test]
fn candidates_equal_the_reference_between_every_pair() {
    for topo in [
        Topology::mesh(4, 3),
        Topology::mesh(1, 4),
        Topology::torus(2, 2),
        Topology::torus(2, 5),
        Topology::torus(5, 2),
        Topology::torus(4, 5),
    ] {
        for s in topo.nodes() {
            for d in topo.nodes().filter(|d| *d != s) {
                assert_eq!(
                    candidates(topo, s, d),
                    reference_candidates(topo, s, d),
                    "{s}->{d} on {topo:?}"
                );
            }
        }
    }
}
