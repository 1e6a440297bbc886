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

use crate::routes::{candidates, route_cost, RoutableFlow};
use smart_sim::{FlowId, LinkId, NodeId, SourceRoute, Topology};
use smart_taskgraph::{TaskGraph, TaskId};
use std::collections::{BTreeMap, HashMap, HashSet};

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

    let mut assignment: BTreeMap<TaskId, NodeId> = BTreeMap::new();
    let mut free_cores: HashSet<NodeId> = mesh.nodes().collect();
    let mut link_load: HashMap<LinkId, f64> = HashMap::new();

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
    assignment.insert(seed_task, seed_core);
    free_cores.remove(&seed_core);

    while assignment.len() < graph.num_tasks() {
        // Most-communicating unmapped task w.r.t. the mapped set.
        let next_task = graph
            .task_ids()
            .filter(|t| !assignment.contains_key(t))
            .max_by(|a, b| {
                let da = mapped_demand(graph, &assignment, *a);
                let db = mapped_demand(graph, &assignment, *b);
                da.partial_cmp(&db)
                    .expect("finite demand")
                    .then(b.0.cmp(&a.0))
            })
            .expect("unmapped tasks remain");

        // The flows this task exchanges with already-placed tasks.
        let pending: Vec<(bool, TaskId, f64)> = graph
            .flows()
            .iter()
            .filter_map(|f| {
                if f.src == next_task && assignment.contains_key(&f.dst) {
                    Some((true, f.dst, f.bandwidth_mbs))
                } else if f.dst == next_task && assignment.contains_key(&f.src) {
                    Some((false, f.src, f.bandwidth_mbs))
                } else {
                    None
                }
            })
            .collect();

        // Score every free core by the buffering chance of those flows.
        let mut best: Option<(f64, NodeId)> = None;
        let mut cores: Vec<NodeId> = free_cores.iter().copied().collect();
        cores.sort_unstable();
        for core in cores {
            let mut cost = 0.0;
            for (outgoing, peer, bw) in &pending {
                let peer_core = assignment[peer];
                let (s, d) = if *outgoing {
                    (core, peer_core)
                } else {
                    (peer_core, core)
                };
                if s == d {
                    // Placing both endpoints on one tile is not allowed
                    // (one task per core); candidates exclude it anyway.
                    cost += 1e12;
                    continue;
                }
                let route_best = candidates(mesh, s, d)
                    .into_iter()
                    .map(|r| route_cost(mesh, &r, *bw, &link_load))
                    .fold(f64::INFINITY, f64::min);
                cost += route_best;
            }
            if best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, core));
            }
        }
        let (_, core) = best.expect("free cores remain");
        assignment.insert(next_task, core);
        free_cores.remove(&core);

        // Commit routes for the newly-connected flows so later
        // placements see their load.
        for (outgoing, peer, bw) in &pending {
            let peer_core = assignment[peer];
            let (s, d) = if *outgoing {
                (core, peer_core)
            } else {
                (peer_core, core)
            };
            let route = candidates(mesh, s, d)
                .into_iter()
                .min_by(|a, b| {
                    route_cost(mesh, a, *bw, &link_load)
                        .partial_cmp(&route_cost(mesh, b, *bw, &link_load))
                        .expect("finite cost")
                })
                .expect("at least one candidate");
            for l in route.links(mesh) {
                *link_load.entry(l).or_insert(0.0) += bw;
            }
        }
    }

    Placement { assignment }
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

/// Bandwidth `t` exchanges with already-mapped tasks.
fn mapped_demand(graph: &TaskGraph, assignment: &BTreeMap<TaskId, NodeId>, t: TaskId) -> f64 {
    graph
        .flows()
        .iter()
        .filter(|f| {
            (f.src == t && assignment.contains_key(&f.dst))
                || (f.dst == t && assignment.contains_key(&f.src))
        })
        .map(|f| f.bandwidth_mbs)
        .sum()
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
