//! Worked scenarios from the paper's figures, reusable by examples,
//! tests and benches.

use smart_sim::{FlowId, NodeId, SourceRoute, Topology};

/// The four flows of **Fig 7** ("SMART NoC in action"): green and purple
/// fly source-NIC to destination-NIC in one cycle; red and blue share
/// link 9→10 and therefore stop at routers 9 and 10, arriving at cycle 7.
///
/// Returns `(flow, route, expected_zero_load_latency)`.
#[must_use]
pub fn fig7_flows(mesh: Topology) -> Vec<(FlowId, SourceRoute, u64)> {
    let path = |p: &[u16]| {
        let nodes: Vec<NodeId> = p.iter().map(|n| NodeId(*n)).collect();
        SourceRoute::from_router_path(mesh, &nodes)
    };
    vec![
        // Green: a single-cycle multi-hop flow along the bottom row.
        (FlowId(0), path(&[0, 1, 2]), 1),
        // Purple: a single-cycle flow with a turn, no overlaps.
        (FlowId(1), path(&[4, 5, 6, 7]), 1),
        // Red: 13 → 9 → 10 (ends at 10), shares 9→10 with blue.
        (FlowId(2), path(&[13, 9, 10]), 7),
        // Blue: 8 → 9 → 10 → 11 → 7 → 3, shares 9→10 with red.
        (FlowId(3), path(&[8, 9, 10, 11, 7, 3]), 7),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;

    #[test]
    fn fig7_expected_latencies_come_from_the_compiler() {
        let mesh = Topology::paper_4x4();
        let flows = fig7_flows(mesh);
        let routes: Vec<(FlowId, SourceRoute)> =
            flows.iter().map(|(f, r, _)| (*f, r.clone())).collect();
        let app = compile(mesh, 8, &routes);
        for (flow, _, expected) in &flows {
            assert_eq!(
                app.flows.plan(*flow).zero_load_latency(),
                *expected,
                "{flow}"
            );
        }
        // Red and blue stop exactly at routers 9 and 10 (paper text).
        assert_eq!(app.stops(FlowId(2)), vec![NodeId(9), NodeId(10)]);
        assert_eq!(app.stops(FlowId(3)), vec![NodeId(9), NodeId(10)]);
        // Green and purple never stop.
        assert!(app.stops(FlowId(0)).is_empty());
        assert!(app.stops(FlowId(1)).is_empty());
    }
}
