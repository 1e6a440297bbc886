//! Small scopes, exhausted: on three four-node fabrics, every schedule
//! of at most three packets injected in the first `K` cycles, over
//! every ordered node pair, on Mesh plans and SMART plans — the engine
//! stepped one cycle at a time beside [`RefNetwork`], with every
//! activity counter compared after every cycle, every packet delivered,
//! and both quiescent on the same cycle within a fixed bound.
//!
//! The fabrics are a 2×2 mesh, a 1×4 mesh and a 1×4 torus (a ring of
//! four). `Topology` refuses a torus dimension below 2, so the ring is
//! row 0 of a 4×2 torus: routes between nodes of one row never leave
//! it, so the flows see exactly the four-router ring, wrap link
//! included, and the idle second row only adds gated ports on both
//! sides.
//!
//! Plans are built for the distinct flows a schedule injects, so a
//! SMART flow alone on the fabric bypasses every router between its
//! ends, and two or three flows force the stops Section IV prescribes
//! where they share links. Packets are three flits (head, body, tail)
//! on the paper's 2 VCs: short enough that a NIC sending its third
//! packet waits on the credit loop, so credit timing is observable.

use smart_core::compile::compile;
use smart_sim::{
    FlowId, FlowTable, Network, NodeId, ScriptedTraffic, Segment, SimConfig, SourceRoute, Topology,
    TrafficSource,
};
use smart_testkit::reference::segments;
use smart_testkit::RefNetwork;
use std::collections::HashMap;

/// Packets are injected in cycles `0..K`: the largest `K` that keeps
/// this file within 10 s in release on 2 vCPUs (6.0 s; `K = 7` took
/// 9.9 s, no margin, and would cost ~80 s in CI's debug step).
const K: u64 = 6;
/// Every schedule is quiescent this many cycles after `K`.
const QUIET_WITHIN: u64 = 200;

/// SMART's `HPC_max` here: enough to cross any of these fabrics.
const HPC_MAX: usize = 8;

/// Flows run between every ordered pair of nodes 0..4: the whole of
/// the two meshes, and the ring in row 0 of the 4×2 torus.
const NODES: u16 = 4;

/// Every multiset of at most three `(cycle, flow)` injections with
/// `cycle < K`, in a fixed order.
fn schedules(flows: usize) -> Vec<Vec<(u64, FlowId)>> {
    let items: Vec<(u64, FlowId)> = (0..K)
        .flat_map(|c| (0..flows).map(move |f| (c, FlowId(f as u32))))
        .collect();
    let n = items.len();
    let mut out = Vec::new();
    for i in 0..n {
        out.push(vec![items[i]]);
        for j in i..n {
            out.push(vec![items[i], items[j]]);
            for k in j..n {
                out.push(vec![items[i], items[j], items[k]]);
            }
        }
    }
    out
}

/// Step the engine and the reference side by side through `schedule`.
fn assert_schedule(cfg: SimConfig, flows: &FlowTable, schedule: &[(u64, FlowId)], ctx: &str) {
    let mut traffic = ScriptedTraffic::new(schedule.to_vec(), cfg.flits_per_packet);
    let mut net = Network::new(cfg, flows.clone());
    let mut reference = RefNetwork::new(cfg, flows.clone());
    for c in 0..K + QUIET_WITHIN {
        for p in traffic.generate(c) {
            net.offer(p.clone());
            reference.offer(p);
        }
        net.step();
        reference.step();
        assert_eq!(net.counters(), reference.counters(), "{ctx}: cycle {c}");
        let quiet = net.is_quiescent();
        assert_eq!(
            quiet,
            reference.is_quiescent(),
            "{ctx}: quiescence, cycle {c}"
        );
        if quiet && c + 1 >= K {
            break;
        }
    }
    assert!(
        net.is_quiescent(),
        "{ctx}: not quiescent by cycle {}",
        K + QUIET_WITHIN
    );
    let c = net.counters();
    assert_eq!(c.packets_injected, schedule.len() as u64, "{ctx}");
    assert_eq!(c.packets_delivered, c.packets_injected, "{ctx}");
    assert_eq!(net.stats(), reference.stats(), "{ctx}");
    assert!(
        net.link_flit_counts().eq(reference.link_flit_counts()),
        "{ctx}: link counts"
    );
}

/// Every schedule on the fabric `name`, Mesh and SMART.
fn exhaust(name: &str, topo: Topology) {
    let cfg = SimConfig {
        topology: topo,
        flits_per_packet: 3,
        ..SimConfig::paper_4x4()
    };
    let pairs: Vec<SourceRoute> = (0..NODES)
        .flat_map(|s| (0..NODES).map(move |d| (NodeId(s), NodeId(d))))
        .filter(|(s, d)| s != d)
        .map(|(s, d)| SourceRoute::xy(topo, s, d).expect("distinct nodes"))
        .collect();
    let mut plans: HashMap<(bool, Vec<FlowId>), FlowTable> = HashMap::new();
    let all = schedules(pairs.len());
    for schedule in &all {
        let mut used: Vec<FlowId> = schedule.iter().map(|(_, f)| *f).collect();
        used.sort();
        used.dedup();
        for smart in [false, true] {
            let flows = plans.entry((smart, used.clone())).or_insert_with(|| {
                let routes: Vec<(FlowId, SourceRoute)> = used
                    .iter()
                    .map(|f| (*f, pairs[f.0 as usize].clone()))
                    .collect();
                if smart {
                    compile(topo, HPC_MAX, &routes).flows
                } else {
                    FlowTable::mesh_baseline(topo, &routes)
                }
            });
            let design = if smart { "SMART" } else { "Mesh" };
            let ctx = format!("{name} / {design} / {schedule:?}");
            assert_schedule(cfg, flows, schedule, &ctx);
        }
    }
    let n = pairs.len() * K as usize;
    let multisets = n + n * (n + 1) / 2 + n * (n + 1) * (n + 2) / 6;
    assert_eq!(all.len(), multisets, "{name}");
    // The SMART half crossed bypass legs, and on the ring the seam.
    let smart_legs: Vec<_> = plans
        .iter()
        .filter(|((smart, _), _)| *smart)
        .flat_map(|(_, table)| table.iter().flat_map(segments))
        .collect();
    assert!(smart_legs.iter().any(|leg| leg.links.len() > 1), "{name}");
    let wraps = |leg: &Segment| leg.links.iter().any(|l| topo.is_wrap_link(*l));
    assert_eq!(smart_legs.iter().any(wraps), topo.is_torus(), "{name}");
}

#[test]
fn every_schedule_on_a_2x2_mesh() {
    exhaust("2x2 mesh", Topology::mesh(2, 2));
}

#[test]
fn every_schedule_on_a_1x4_mesh() {
    exhaust("1x4 mesh", Topology::mesh(4, 1));
}

#[test]
fn every_schedule_on_a_1x4_torus() {
    exhaust("1x4 torus", Topology::torus(4, 2));
}
