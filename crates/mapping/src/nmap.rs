//! The paper's modified NMAP placement (Section VI, *Configurations*).
//!
//! "We first map the task with highest communication demand to the core
//! with the most number of neighbors (i.e. middle of the mesh). Then,
//! we pick a task that communicates the most with the mapped tasks and
//! find an unmapped core that minimizes the chance of getting buffered
//! at intermediate cores. This process is iterated to map all tasks to
//! physical cores. As the tasks are mapped to the physical cores, the
//! flows between tasks are also mapped to routes with minimum number of
//! hops between cores."
//!
//! "Chance of getting buffered" is evaluated exactly as the SMART
//! compiler would see it: a candidate placement is scored by the
//! bandwidth-weighted link sharing the new task's flows would incur
//! against the routes committed so far (plus hop count to break ties).
//!
//! A candidate is scored without building a route. For every free core
//! and every flow the task exchanges with placed tasks, the XY route
//! ([`SourceRoute::dimension_order_legs`]) and then the YX route are
//! walked as a sequence of output-port indices by stepping (x, y)
//! coordinates, and each port is looked up in the dense load of the
//! routes committed so far ([`crate::routes`]). A flow costs the cheaper
//! of its two routes, and the core the sum of its flows' costs in flow
//! order; the first cheapest core wins, and each flow then commits its
//! cheaper route (XY on a tie). The YX walk steps the same legs
//! [`crate::routes::yx`] is built from, so it crosses the same ports,
//! quirk included: on a torus 2 wide every x-hop is East, on a torus 2
//! high every y-hop is South.

use crate::routes::{leg_ports, yx_legs, LinkLoad, RoutableFlow};
use smart_sim::{Coord, FlowId, NodeId, SourceRoute, Topology};
use smart_taskgraph::{TaskGraph, TaskId};
use std::collections::BTreeMap;

/// A task-to-core placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    assignment: BTreeMap<TaskId, NodeId>,
}

impl Placement {
    /// Core hosting `task`.
    ///
    /// # Panics
    ///
    /// Panics if the task was never placed.
    #[must_use]
    pub fn core(&self, task: TaskId) -> NodeId {
        *self
            .assignment
            .get(&task)
            .unwrap_or_else(|| panic!("{task} was not placed"))
    }

    /// Iterate `(task, core)` pairs in task order.
    pub fn iter(&self) -> impl Iterator<Item = (&TaskId, &NodeId)> {
        self.assignment.iter()
    }

    /// Number of placed tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// `true` when nothing has been placed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }
}

/// Run the modified NMAP on `graph` over `mesh`.
///
/// # Panics
///
/// Panics if the graph has more tasks than the mesh has cores.
#[must_use]
pub fn place(mesh: Topology, graph: &TaskGraph) -> Placement {
    assert!(
        graph.num_tasks() <= mesh.len(),
        "{}: {} tasks exceed {} cores",
        graph.name(),
        graph.num_tasks(),
        mesh.len()
    );

    let tasks = graph.num_tasks();
    let mut core_of: Vec<Option<NodeId>> = vec![None; tasks];
    let mut free = vec![true; mesh.len()];
    let mut load = LinkLoad::new(mesh);
    // The placed task's flows to placed peers: outgoing?, peer, MB/s.
    let mut pending: Vec<(bool, Coord, f64)> = Vec::new();

    // Seed: highest-demand task onto the most-connected core (ties:
    // lowest node id — deterministic).
    let seed_task = graph
        .task_ids()
        .max_by(|a, b| {
            graph
                .comm_demand(*a)
                .partial_cmp(&graph.comm_demand(*b))
                .expect("finite demand")
                .then(b.0.cmp(&a.0))
        })
        .expect("graph has tasks");
    let seed_core = mesh
        .nodes()
        .max_by_key(|n| (mesh.degree(*n), std::cmp::Reverse(n.0)))
        .expect("mesh has nodes");
    core_of[usize::from(seed_task.0)] = Some(seed_core);
    free[usize::from(seed_core.0)] = false;

    for _ in 1..tasks {
        // Most-communicating unmapped task w.r.t. the mapped set: the
        // bandwidth of its flows to placed tasks, summed in flow order.
        let mapped_demand =
            |t: TaskId| -> f64 { placed_flows(graph, &core_of, t).map(|(.., bw)| bw).sum() };
        let next_task = graph
            .task_ids()
            .filter(|t| core_of[usize::from(t.0)].is_none())
            .max_by(|a, b| {
                mapped_demand(*a)
                    .partial_cmp(&mapped_demand(*b))
                    .expect("finite demand")
                    .then(b.0.cmp(&a.0))
            })
            .expect("unmapped tasks remain");

        pending.clear();
        pending.extend(
            placed_flows(graph, &core_of, next_task)
                .map(|(outgoing, core, bw)| (outgoing, mesh.coord(core), bw)),
        );

        // Score every free core, in node order, by the buffering chance
        // of those flows; the first cheapest wins.
        let mut best: Option<(f64, NodeId)> = None;
        for (i, _) in free.iter().enumerate().filter(|(_, f)| **f) {
            let core = NodeId(i as u16);
            let here = mesh.coord(core);
            let mut cost = 0.0;
            for &(outgoing, peer, bw) in &pending {
                let (s, d) = if outgoing { (here, peer) } else { (peer, here) };
                // A free core never hosts a placed peer.
                debug_assert_ne!(s, d);
                let (xy, yx) = route_costs(mesh, &load, s, d, bw);
                cost += xy.min(yx);
            }
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, core));
            }
        }
        let (_, core) = best.expect("free cores remain");
        core_of[usize::from(next_task.0)] = Some(core);
        free[usize::from(core.0)] = false;

        // Commit routes for the newly-connected flows so later
        // placements see their load.
        let here = mesh.coord(core);
        for &(outgoing, peer, bw) in &pending {
            let (s, d) = if outgoing { (here, peer) } else { (peer, here) };
            let (xy, yx) = route_costs(mesh, &load, s, d, bw);
            let legs = if yx < xy {
                yx_legs(mesh, s, d)
            } else {
                SourceRoute::dimension_order_legs(mesh, s, d)
            };
            load.commit(leg_ports(mesh, s, legs), bw);
        }
    }

    let assignment = graph
        .task_ids()
        .zip(core_of)
        .map(|(t, core)| (t, core.expect("every task placed")))
        .collect();
    Placement { assignment }
}

/// Costs of the XY and the YX route from `s` to `d` over `load`.
fn route_costs(mesh: Topology, load: &LinkLoad, s: Coord, d: Coord, bw: f64) -> (f64, f64) {
    let xy = SourceRoute::dimension_order_legs(mesh, s, d);
    (
        load.cost(leg_ports(mesh, s, xy), bw),
        load.cost(leg_ports(mesh, s, yx_legs(mesh, s, d)), bw),
    )
}

/// Task `t`'s flows to placed peers, in flow order: outgoing?, the
/// peer's core, MB/s.
fn placed_flows<'a>(
    graph: &'a TaskGraph,
    core_of: &'a [Option<NodeId>],
    t: TaskId,
) -> impl Iterator<Item = (bool, NodeId, f64)> + 'a {
    graph.flows().iter().filter_map(move |f| {
        let (outgoing, peer) = if f.src == t {
            (true, f.dst)
        } else if f.dst == t {
            (false, f.src)
        } else {
            return None;
        };
        core_of[usize::from(peer.0)].map(|core| (outgoing, core, f.bandwidth_mbs))
    })
}

/// A seeded random placement — the paper's "heterogeneous SoC" remark:
/// when tasks are tied to specific cores the mapping cannot chase
/// locality, routes get longer, and SMART's multi-hop bypass matters
/// more. Deterministic for a given `seed`.
///
/// # Panics
///
/// Panics if the graph has more tasks than the mesh has cores.
#[must_use]
pub fn place_random(mesh: Topology, graph: &TaskGraph, seed: u64) -> Placement {
    assert!(
        graph.num_tasks() <= mesh.len(),
        "{}: {} tasks exceed {} cores",
        graph.name(),
        graph.num_tasks(),
        mesh.len()
    );
    // Fisher-Yates with a splitmix64 stream — no rand dependency needed.
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut cores: Vec<NodeId> = mesh.nodes().collect();
    for i in (1..cores.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        cores.swap(i, j);
    }
    let assignment = graph.task_ids().zip(cores).collect();
    Placement { assignment }
}

/// Turn a placement into routable flows (`FlowId` = index into
/// `graph.flows()`).
#[must_use]
pub fn routable_flows(graph: &TaskGraph, placement: &Placement) -> Vec<RoutableFlow> {
    graph
        .flows()
        .iter()
        .enumerate()
        .map(|(i, f)| RoutableFlow {
            flow: FlowId(i as u32),
            src: placement.core(f.src),
            dst: placement.core(f.dst),
            bandwidth_mbs: f.bandwidth_mbs,
        })
        .collect()
}

/// Convenience: place, route and return `(flow, route)` pairs plus the
/// placement.
#[must_use]
pub fn place_and_route(
    mesh: Topology,
    graph: &TaskGraph,
) -> (Placement, Vec<(FlowId, SourceRoute)>) {
    let placement = place(mesh, graph);
    let flows = routable_flows(graph, &placement);
    let routes = crate::routes::select_routes(mesh, &flows);
    (placement, routes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_taskgraph::apps;
    use std::collections::HashSet;

    fn mesh() -> Topology {
        Topology::paper_4x4()
    }

    #[test]
    fn placements_are_injective_and_complete() {
        for g in apps::all() {
            let p = place(mesh(), &g);
            assert_eq!(p.len(), g.num_tasks(), "{}", g.name());
            let cores: HashSet<NodeId> = p.iter().map(|(_, c)| *c).collect();
            assert_eq!(
                cores.len(),
                g.num_tasks(),
                "{}: one task per core",
                g.name()
            );
        }
    }

    #[test]
    fn seed_lands_in_the_mesh_interior() {
        // The highest-demand task must sit on a degree-4 core.
        for g in apps::all() {
            let p = place(mesh(), &g);
            let seed = g
                .task_ids()
                .max_by(|a, b| {
                    g.comm_demand(*a)
                        .partial_cmp(&g.comm_demand(*b))
                        .expect("finite")
                        .then(b.0.cmp(&a.0))
                })
                .expect("tasks");
            assert_eq!(
                mesh().degree(p.core(seed)),
                4,
                "{}: seed task should sit mid-mesh",
                g.name()
            );
        }
    }

    #[test]
    fn communicating_tasks_land_close() {
        // NMAP's whole point: average flow distance well below the mesh
        // average (~2.67 hops for random placement on a 4x4).
        for g in apps::all() {
            let p = place(mesh(), &g);
            let flows = routable_flows(&g, &p);
            let avg: f64 = flows
                .iter()
                .map(|f| f64::from(mesh().distance(f.src, f.dst)))
                .sum::<f64>()
                / flows.len() as f64;
            assert!(
                avg < 2.2,
                "{}: average flow distance {avg:.2} hops is not local",
                g.name()
            );
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let g = apps::vopd();
        let a = place(mesh(), &g);
        let b = place(mesh(), &g);
        assert_eq!(a, b);
    }

    #[test]
    fn place_and_route_produces_one_route_per_flow() {
        let g = apps::mwd();
        let (p, routes) = place_and_route(mesh(), &g);
        assert_eq!(routes.len(), g.flows().len());
        for (i, (fid, route)) in routes.iter().enumerate() {
            assert_eq!(fid.0 as usize, i);
            let f = &g.flows()[i];
            assert_eq!(route.source(), p.core(f.src));
            assert_eq!(route.destination(mesh()), p.core(f.dst));
        }
    }

    #[test]
    fn random_placement_is_injective_and_seeded() {
        let g = apps::vopd();
        let a = place_random(mesh(), &g, 7);
        let b = place_random(mesh(), &g, 7);
        let c = place_random(mesh(), &g, 8);
        assert_eq!(a, b, "same seed, same placement");
        assert_ne!(a, c, "different seeds should differ");
        let cores: HashSet<NodeId> = a.iter().map(|(_, n)| *n).collect();
        assert_eq!(cores.len(), g.num_tasks());
    }

    #[test]
    fn random_placement_spreads_further_than_nmap() {
        // The whole point of the heterogeneous-SoC scenario: longer
        // routes than the locality-chasing NMAP.
        let g = apps::vopd();
        let nmap_p = place(mesh(), &g);
        let rand_p = place_random(mesh(), &g, 3);
        let avg = |p: &Placement| -> f64 {
            let flows = routable_flows(&g, p);
            flows
                .iter()
                .map(|f| f64::from(mesh().distance(f.src, f.dst)))
                .sum::<f64>()
                / flows.len() as f64
        };
        assert!(avg(&rand_p) > avg(&nmap_p));
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn oversized_graph_rejected() {
        let mut g = TaskGraph::new("big");
        let ids: Vec<TaskId> = (0..17).map(|i| g.add_task(&format!("t{i}"))).collect();
        for w in ids.windows(2) {
            g.add_flow(w[0], w[1], 1.0);
        }
        let _ = place(mesh(), &g);
    }
}
