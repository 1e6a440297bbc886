//! NMAP placement and route selection as they were first written: route
//! objects built per candidate, a `HashMap` link load, a `HashSet` of
//! free cores sorted afresh for every task. The test oracle for
//! `smart_mapping::place` and `smart_mapping::select_routes_with`, which
//! score the same candidates over a dense per-port load and walk
//! placement candidates as port indices; `tests/place_reference.rs`
//! holds them equal on random task graphs, meshes and tori. The
//! candidate routes are kept here as first written too: YX steps the
//! unwrapped grid and names each step by probing neighbours, so the
//! oracle does not share `smart_mapping`'s statement of YX.

use smart_mapping::deadlock::{check, DeadlockCheck};
use smart_mapping::{RoutableFlow, RouteOptions};
use smart_sim::{FlowId, LinkId, NodeId, SourceRoute, Topology};
use smart_taskgraph::{TaskGraph, TaskId};
use std::collections::{BTreeMap, HashMap, HashSet};

/// The YX route by stepping the unwrapped grid router by router, each
/// step named by [`SourceRoute::from_router_path`].
fn reference_yx(mesh: Topology, src: NodeId, dst: NodeId) -> SourceRoute {
    assert_ne!(src, dst, "no route from a node to itself");
    let (cs, cd) = (mesh.coord(src), mesh.coord(dst));
    let mut routers = vec![src];
    let mut cur = cs;
    while cur.y != cd.y {
        cur.y = if cd.y > cur.y { cur.y + 1 } else { cur.y - 1 };
        routers.push(mesh.node_at(cur));
    }
    while cur.x != cd.x {
        cur.x = if cd.x > cur.x { cur.x + 1 } else { cur.x - 1 };
        routers.push(mesh.node_at(cur));
    }
    SourceRoute::from_router_path(mesh, &routers)
}

/// Minimal route candidates (XY, plus YX when they differ); must equal
/// `smart_mapping::candidates`.
#[must_use]
pub fn reference_candidates(mesh: Topology, src: NodeId, dst: NodeId) -> Vec<SourceRoute> {
    let a = SourceRoute::xy(mesh, src, dst).expect("distinct endpoints");
    let b = reference_yx(mesh, src, dst);
    if a == b {
        vec![a]
    } else {
        vec![a, b]
    }
}

/// Minimal candidates, then XY/YX halves stitched at every waypoint
/// within `max_extra` extra hops, loop-free ones only.
fn reference_detour_candidates(
    mesh: Topology,
    src: NodeId,
    dst: NodeId,
    max_extra: u16,
) -> Vec<SourceRoute> {
    let mut out = reference_candidates(mesh, src, dst);
    let min_hops = mesh.distance(src, dst);
    for w in mesh.nodes() {
        if w == src || w == dst {
            continue;
        }
        let total = mesh.distance(src, w) + mesh.distance(w, dst);
        if total > min_hops + max_extra {
            continue;
        }
        for first in reference_candidates(mesh, src, w) {
            for second in reference_candidates(mesh, w, dst) {
                let mut routers = first.routers(mesh);
                routers.extend_from_slice(&second.routers(mesh)[1..]);
                let mut seen = HashSet::new();
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

/// The modified NMAP on `graph` over `mesh`, stated over route
/// objects, a hashed link load and sorted free-core lists; the result must
/// equal `smart_mapping::place` task for task.
///
/// # Panics
///
/// Panics if the graph has more tasks than the mesh has cores.
#[must_use]
pub fn reference_place(mesh: Topology, graph: &TaskGraph) -> BTreeMap<TaskId, NodeId> {
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
                let route_best = reference_candidates(mesh, s, d)
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
            let route = reference_candidates(mesh, s, d)
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

    assignment
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

/// Cost of laying `route` over the current `link_load` map:
/// bandwidth-weighted sharing dominates; hop count breaks ties.
fn route_cost(
    mesh: Topology,
    route: &SourceRoute,
    bandwidth: f64,
    link_load: &HashMap<LinkId, f64>,
) -> f64 {
    let mut shared = 0.0;
    for l in route.links(mesh) {
        if let Some(other) = link_load.get(&l) {
            // Both flows suffer: weight by the smaller of the demands
            // plus a fixed penalty per shared link (any sharing forces
            // stops regardless of magnitude).
            shared += 1.0 + (other.min(bandwidth)) / 1000.0;
        }
    }
    shared * 1_000.0 + route.num_hops() as f64
}

/// Greedy contention-aware route selection over a hashed link load; the
/// result must equal `smart_mapping::select_routes_with` flow for flow.
#[must_use]
pub fn reference_select_routes(
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
    let mut link_load: HashMap<LinkId, f64> = HashMap::new();
    let mut picked: Vec<(FlowId, SourceRoute)> = Vec::new();
    for f in order {
        let cands = if opts.allow_detours {
            reference_detour_candidates(mesh, f.src, f.dst, opts.max_extra_hops)
        } else {
            reference_candidates(mesh, f.src, f.dst)
        };
        let mut best: Option<(f64, SourceRoute)> = None;
        for cand in cands {
            let cost = route_cost(mesh, &cand, f.bandwidth_mbs, &link_load);
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, cand));
            }
        }
        let (_, route) = best.expect("at least one candidate");
        for l in route.links(mesh) {
            *link_load.entry(l).or_insert(0.0) += f.bandwidth_mbs;
        }
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
