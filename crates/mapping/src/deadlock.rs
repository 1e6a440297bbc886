//! Channel-dependency-graph deadlock check.
//!
//! The paper avoids network deadlock "by enforcing a deadlock-free turn
//! model across the routes for all flows" (Section IV). We verify route
//! sets the standard way: build the channel dependency graph (one node
//! per directed link; one edge per consecutive link pair used by any
//! route) and check it is acyclic (Dally & Towles, the paper's reference \[11\]).

use smart_sim::{LinkId, SourceRoute, Topology};
use std::collections::{HashMap, HashSet};

/// Result of a deadlock check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeadlockCheck {
    /// The channel dependency graph is acyclic.
    Free,
    /// A dependency cycle exists; one witness cycle is returned.
    Cyclic(Vec<LinkId>),
}

impl DeadlockCheck {
    /// `true` when no cycle was found.
    #[must_use]
    pub fn is_free(&self) -> bool {
        matches!(self, DeadlockCheck::Free)
    }
}

/// Check a set of routes for channel-dependency cycles. Works on any
/// topology: on a torus, wrap-around routes that close a ring show up
/// as ordinary link-dependency cycles here.
#[must_use]
pub fn check(mesh: Topology, routes: &[SourceRoute]) -> DeadlockCheck {
    // Build adjacency: link -> links that may be waited on next.
    let mut adj: HashMap<LinkId, HashSet<LinkId>> = HashMap::new();
    for r in routes {
        let links = r.links(mesh);
        for w in links.windows(2) {
            adj.entry(w[0]).or_default().insert(w[1]);
        }
        // Make sure lone links appear as nodes too.
        for l in links {
            adj.entry(l).or_default();
        }
    }

    // Iterative DFS with colors; reconstruct a cycle on back-edge.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color: HashMap<LinkId, Color> = adj.keys().map(|l| (*l, Color::White)).collect();
    let mut parent: HashMap<LinkId, LinkId> = HashMap::new();
    let nodes: Vec<LinkId> = {
        let mut v: Vec<LinkId> = adj.keys().copied().collect();
        v.sort_unstable();
        v
    };
    let succs: HashMap<LinkId, Vec<LinkId>> = adj
        .iter()
        .map(|(k, v)| {
            let mut s: Vec<LinkId> = v.iter().copied().collect();
            s.sort_unstable();
            (*k, s)
        })
        .collect();
    for start in nodes {
        if color[&start] != Color::White {
            continue;
        }
        // Stack of (node, iterator index over sorted successors).
        let mut stack: Vec<(LinkId, usize)> = vec![(start, 0)];
        color.insert(start, Color::Grey);
        while let Some((node, idx)) = stack.last().copied() {
            if idx < succs[&node].len() {
                stack.last_mut().expect("nonempty").1 += 1;
                let next = succs[&node][idx];
                match color[&next] {
                    Color::White => {
                        parent.insert(next, node);
                        color.insert(next, Color::Grey);
                        stack.push((next, 0));
                    }
                    Color::Grey => {
                        // Back edge: reconstruct node -> ... -> next.
                        let mut cycle = vec![next];
                        let mut cur = node;
                        while cur != next {
                            cycle.push(cur);
                            cur = parent[&cur];
                        }
                        cycle.reverse();
                        return DeadlockCheck::Cyclic(cycle);
                    }
                    Color::Black => {}
                }
            } else {
                color.insert(node, Color::Black);
                stack.pop();
            }
        }
    }
    DeadlockCheck::Free
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_sim::NodeId;

    fn mesh() -> Topology {
        Topology::paper_4x4()
    }

    #[test]
    fn xy_routes_are_deadlock_free() {
        // Dimension-ordered routing is provably deadlock-free; exercise
        // an all-to-all batch.
        let mut routes = Vec::new();
        for s in 0..16u16 {
            for d in 0..16u16 {
                if s != d {
                    routes.push(SourceRoute::xy(mesh(), NodeId(s), NodeId(d)).unwrap());
                }
            }
        }
        assert!(check(mesh(), &routes).is_free());
    }

    #[test]
    fn turn_cycle_is_detected() {
        // Four routes forming the classic clockwise turn cycle around
        // the 0-1-5-4 square: each takes one turn of the ring.
        let path = |p: &[u16]| {
            let nodes: Vec<NodeId> = p.iter().map(|n| NodeId(*n)).collect();
            SourceRoute::from_router_path(mesh(), &nodes)
        };
        let routes = vec![
            path(&[0, 1, 5]),
            path(&[1, 5, 4]),
            path(&[5, 4, 0]),
            path(&[4, 0, 1]),
        ];
        match check(mesh(), &routes) {
            DeadlockCheck::Cyclic(cycle) => {
                assert!(cycle.len() >= 4, "witness cycle: {cycle:?}");
            }
            DeadlockCheck::Free => panic!("the turn cycle must be detected"),
        }
    }

    #[test]
    fn empty_and_single_route_are_free() {
        assert!(check(mesh(), &[]).is_free());
        let r = SourceRoute::xy(mesh(), NodeId(0), NodeId(15)).unwrap();
        assert!(check(mesh(), &[r]).is_free());
    }

    #[test]
    fn disjoint_straight_routes_are_free() {
        let routes = vec![
            SourceRoute::xy(mesh(), NodeId(0), NodeId(3)).unwrap(),
            SourceRoute::xy(mesh(), NodeId(15), NodeId(12)).unwrap(),
        ];
        assert!(check(mesh(), &routes).is_free());
    }
}
