//! Traffic generation.
//!
//! The paper's evaluation "generate\[s\] synthetic traffic from 8 SoC task
//! graphs, modeling a uniform random injection rate to meet the
//! specified bandwidth for each flow". [`BernoulliTraffic`] implements
//! exactly that: per flow, a packet is generated each cycle with
//! probability chosen so the average flit rate matches the flow's
//! bandwidth. [`ScriptedTraffic`] injects packets at fixed cycles for
//! deterministic tests and the Fig 7 walk-through.

use crate::flit::{FlowId, Packet, PacketId};
use crate::forward::FlowTable;
use crate::topology::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Produces packets for each simulated cycle.
pub trait TrafficSource {
    /// Packets generated at (the start of) `cycle`.
    fn generate(&mut self, cycle: u64) -> Vec<Packet>;
}

/// Per-flow uniform-random (Bernoulli) injection.
#[derive(Debug, Clone)]
pub struct BernoulliTraffic {
    flows: Vec<(FlowId, NodeId, NodeId, f64)>,
    flits_per_packet: u8,
    rng: StdRng,
    next_id: u64,
}

impl BernoulliTraffic {
    /// Build from `(flow, packets_per_cycle)` rates; sources and
    /// destinations are read from the flow table's plans.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]` or any flow is unknown.
    #[must_use]
    pub fn new(
        rates: &[(FlowId, f64)],
        flows: &FlowTable,
        flits_per_packet: u8,
        seed: u64,
    ) -> Self {
        let specs = rates
            .iter()
            .map(|(flow, rate)| {
                assert!(
                    (0.0..=1.0).contains(rate),
                    "{flow}: injection rate {rate} outside [0,1]"
                );
                let (src, dst) = flows.plan(*flow).endpoints();
                (*flow, src, dst, *rate)
            })
            .collect();
        BernoulliTraffic {
            flows: specs,
            flits_per_packet,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
        }
    }

    /// Generate `per_flow` packets for every flow immediately (e.g. to
    /// leave traffic in flight before a reconfiguration drain).
    #[must_use]
    pub fn generate_burst(&mut self, cycle: u64, per_flow: usize) -> Vec<Packet> {
        let mut out = Vec::new();
        for (flow, src, dst, _) in &self.flows {
            for _ in 0..per_flow {
                out.push(Packet {
                    id: PacketId(self.next_id),
                    flow: *flow,
                    src: *src,
                    dst: *dst,
                    gen_cycle: cycle,
                    num_flits: self.flits_per_packet,
                });
                self.next_id += 1;
            }
        }
        out
    }
}

impl TrafficSource for BernoulliTraffic {
    fn generate(&mut self, cycle: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        for (flow, src, dst, rate) in &self.flows {
            if self.rng.gen::<f64>() < *rate {
                out.push(Packet {
                    id: PacketId(self.next_id),
                    flow: *flow,
                    src: *src,
                    dst: *dst,
                    gen_cycle: cycle,
                    num_flits: self.flits_per_packet,
                });
                self.next_id += 1;
            }
        }
        out
    }
}

/// Deterministic traffic: one packet per `(cycle, flow)` event.
#[derive(Debug, Clone)]
pub struct ScriptedTraffic {
    /// Events sorted by cycle.
    events: Vec<(u64, FlowId)>,
    idx: usize,
    flits_per_packet: u8,
    endpoints: HashMap<FlowId, (NodeId, NodeId)>,
    next_id: u64,
}

impl ScriptedTraffic {
    /// Build from `(cycle, flow)` events. Events are sorted by cycle;
    /// same-cycle events keep the order they were given in (so a
    /// recorded injection schedule replays in its original per-cycle
    /// order — queue order at a shared source NIC matters).
    ///
    /// # Panics
    ///
    /// Panics if an event references an unknown flow.
    #[must_use]
    pub fn new(mut events: Vec<(u64, FlowId)>, flits_per_packet: u8, flows: &FlowTable) -> Self {
        events.sort_by_key(|(c, _)| *c);
        let endpoints = events
            .iter()
            .map(|(_, f)| (*f, flows.plan(*f).endpoints()))
            .collect();
        ScriptedTraffic {
            events,
            idx: 0,
            flits_per_packet,
            endpoints,
            next_id: 0,
        }
    }

    /// `true` once every scripted event has fired.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.idx >= self.events.len()
    }
}

impl TrafficSource for ScriptedTraffic {
    fn generate(&mut self, cycle: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        while self.idx < self.events.len() && self.events[self.idx].0 <= cycle {
            let (gen, flow) = self.events[self.idx];
            let (src, dst) = self.endpoints[&flow];
            out.push(Packet {
                id: PacketId(self.next_id),
                flow,
                src,
                dst,
                gen_cycle: gen,
                num_flits: self.flits_per_packet,
            });
            self.next_id += 1;
            self.idx += 1;
        }
        out
    }
}

/// Convert a bandwidth in MB/s into packets per cycle for a NoC with
/// `flit_bytes`-byte flits, `flits_per_packet`-flit packets, clocked at
/// `clock_ghz` — the conversion behind the paper's "uniform random
/// injection rate to meet the specified bandwidth for each flow".
#[must_use]
pub fn mbps_to_packet_rate(
    bandwidth_mbs: f64,
    flit_bytes: u32,
    flits_per_packet: u8,
    clock_ghz: f64,
) -> f64 {
    let bytes_per_cycle = bandwidth_mbs * 1e6 / (clock_ghz * 1e9);
    bytes_per_cycle / f64::from(flit_bytes * u32::from(flits_per_packet))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::SourceRoute;
    use crate::topology::Topology;

    fn table() -> FlowTable {
        let mesh = Topology::paper_4x4();
        let routes = vec![
            (
                FlowId(0),
                SourceRoute::xy(mesh, NodeId(0), NodeId(3)).unwrap(),
            ),
            (
                FlowId(1),
                SourceRoute::xy(mesh, NodeId(12), NodeId(15)).unwrap(),
            ),
        ];
        FlowTable::mesh_baseline(mesh, &routes)
    }

    #[test]
    fn bernoulli_rate_is_approximately_met() {
        let flows = table();
        let mut t = BernoulliTraffic::new(&[(FlowId(0), 0.1)], &flows, 8, 42);
        let mut count = 0;
        for c in 0..20_000 {
            count += t.generate(c).len();
        }
        let rate = count as f64 / 20_000.0;
        assert!((rate - 0.1).abs() < 0.01, "measured {rate}, expected ~0.1");
    }

    #[test]
    fn bernoulli_is_deterministic_per_seed() {
        let flows = table();
        let mut a = BernoulliTraffic::new(&[(FlowId(0), 0.3)], &flows, 8, 7);
        let mut b = BernoulliTraffic::new(&[(FlowId(0), 0.3)], &flows, 8, 7);
        for c in 0..100 {
            assert_eq!(a.generate(c).len(), b.generate(c).len());
        }
    }

    #[test]
    fn scripted_fires_in_order() {
        let flows = table();
        let mut t = ScriptedTraffic::new(
            vec![(5, FlowId(1)), (2, FlowId(0)), (5, FlowId(0))],
            8,
            &flows,
        );
        assert!(t.generate(0).is_empty());
        let at2 = t.generate(2);
        assert_eq!(at2.len(), 1);
        assert_eq!(at2[0].flow, FlowId(0));
        assert_eq!(at2[0].src, NodeId(0));
        let at5 = t.generate(5);
        assert_eq!(at5.len(), 2);
        assert!(t.exhausted());
    }

    #[test]
    fn same_cycle_events_keep_their_given_order() {
        // Queue order at a shared source NIC matters, so replaying a
        // recorded schedule must not reorder same-cycle events.
        let flows = table();
        let mut t = ScriptedTraffic::new(
            vec![(3, FlowId(1)), (3, FlowId(0)), (1, FlowId(0))],
            8,
            &flows,
        );
        assert_eq!(t.generate(1).len(), 1);
        let at3: Vec<FlowId> = t.generate(3).iter().map(|p| p.flow).collect();
        assert_eq!(at3, vec![FlowId(1), FlowId(0)]);
    }

    #[test]
    fn burst_covers_every_flow() {
        let flows = table();
        let mut t = BernoulliTraffic::new(&[(FlowId(0), 0.1), (FlowId(1), 0.1)], &flows, 8, 0);
        let burst = t.generate_burst(42, 3);
        assert_eq!(burst.len(), 6);
        assert!(burst.iter().all(|p| p.gen_cycle == 42));
        assert_eq!(burst.iter().filter(|p| p.flow == FlowId(0)).count(), 3);
    }

    #[test]
    fn bandwidth_conversion_matches_hand_calculation() {
        // 500 MB/s on a 2 GHz NoC with 4-byte flits, 8-flit packets:
        // 500e6/2e9 = 0.25 B/cycle; /32 B per packet = 1/128 packets/cycle.
        let r = mbps_to_packet_rate(500.0, 4, 8, 2.0);
        assert!((r - 1.0 / 128.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn silly_rate_rejected() {
        let flows = table();
        let _ = BernoulliTraffic::new(&[(FlowId(0), 1.5)], &flows, 8, 0);
    }
}
