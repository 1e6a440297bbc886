//! The engine's single-cycle link-exclusivity guard: a preset that sends
//! two flits over one link in the same `ST` cycle is refused with a
//! panic, at one band and at several, instead of being time-multiplexed.
//!
//! Two hand-built SMART-style plans on row 0 of a 4×4 mesh: flow A's
//! router leg leaves router 0 East over 0→1→2 and stops at 2, flow B's
//! leaves router 1 East over 1→2→3 and stops at 3. Both inject at cycle
//! 0, are buffer-written at their source router in cycle 1, win switch
//! allocation in cycle 2 and traverse in cycle 3 — both over 1→2.

use smart_sim::forward::{Endpoint, FlowPlan, FlowTable, Segment, Sender};
use smart_sim::network::{Network, SimConfig};
use smart_sim::route::SourceRoute;
use smart_sim::topology::{Direction, LinkId, NodeId};
use smart_sim::traffic::ScriptedTraffic;
use smart_sim::FlowId;

/// Flow `flow` from `src` to `dst` (same row, eastward): inject into the
/// source router, one multi-link leg to the destination router, eject.
fn bypass_plan(cfg: SimConfig, flow: FlowId, src: u16, dst: u16) -> FlowPlan {
    let (src, dst) = (NodeId(src), NodeId(dst));
    let route = SourceRoute::xy(cfg.topology, src, dst).unwrap();
    let links = (src.0..dst.0)
        .map(|n| LinkId {
            from: NodeId(n),
            dir: Direction::East,
        })
        .collect();
    let legs = vec![
        Segment {
            sender: Sender::Nic(src),
            out_dir: Direction::Core,
            links: Vec::new(),
            end: Endpoint::Stop {
                router: src,
                in_dir: Direction::Core,
            },
            cycles: 1,
        },
        Segment {
            sender: Sender::RouterOutput(src, Direction::East),
            out_dir: Direction::East,
            links,
            end: Endpoint::Stop {
                router: dst,
                in_dir: Direction::West,
            },
            cycles: 1,
        },
        Segment {
            sender: Sender::RouterOutput(dst, Direction::Core),
            out_dir: Direction::Core,
            links: Vec::new(),
            end: Endpoint::Nic { node: dst },
            cycles: 1,
        },
    ];
    FlowPlan { flow, route, legs }
}

/// Run the two overlapping plans on `bands` row bands.
fn overlapping_legs(bands: usize) {
    let cfg = SimConfig::paper_4x4();
    let mut flows = FlowTable::new();
    flows.insert(cfg.topology, bypass_plan(cfg, FlowId(0), 0, 2));
    flows.insert(cfg.topology, bypass_plan(cfg, FlowId(1), 1, 3));
    let events = vec![(0, FlowId(0)), (0, FlowId(1))];
    let mut traffic = ScriptedTraffic::new(events, 1);
    let mut net = Network::banded(cfg, flows, bands);
    net.run_with(&mut traffic, 10);
}

#[test]
#[should_panic(expected = "preset violation")]
fn two_flits_on_one_link_in_one_cycle_panic_at_one_band() {
    overlapping_legs(1);
}

#[test]
#[should_panic(expected = "preset violation")]
fn two_flits_on_one_link_in_one_cycle_panic_at_two_bands() {
    overlapping_legs(2);
}
