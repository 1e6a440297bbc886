//! The *Dedicated* baseline (Section VI): the ideal NoC SMART chases,
//! with a private 1-cycle wire per flow, so no path contention and no
//! source bandwidth limit. The only serialization the paper keeps is at
//! destinations: "if there are multiple traffic flows to the same
//! destination, they need to stop at a router at the destination to go
//! up serially into the NIC". The model is that definition, one record
//! per piece:
//!
//! * a `Wire` per flow launches one flit a cycle from its packet queue;
//!   a flit launched in cycle *c* arrives at the end of *c*, and a
//!   private destination takes it NIC to NIC in that one cycle;
//! * flows sharing a destination arrive into their own FIFO lane of its
//!   `Sink`, which buffers (BW), arbitrates round-robin with the switch
//!   held per packet (SA) and ejects one flit a cycle (ST): +3 cycles at
//!   zero load.
//!
//! A held wire costs a copy per flit, the rule the SDM circuit-switching
//! paper (PAPERS.md) applies to held paths. Power: the paper plots only
//! link power for Dedicated, so flits charge `link_flit_mm` over their
//! wire's Manhattan length and no buffer or crossbar activity.
//!
//! The cycle engine ([`smart_sim::Network`]) does not host this model as
//! one leg per flow, because each of these would be a Dedicated-only
//! branch in its `launch`/`receive` hot path:
//!
//! 1. no source serialization: a NIC injects one flit per cycle, and
//!    the engine refuses one sender feeding two endpoints;
//! 2. a shared sink's lanes are unbounded and credit-free, where a
//!    router has five inputs of finite, credited VCs;
//! 3. only link millimetres are charged, where an engine leg also
//!    charges crossbars, credits and port gating.

use crate::config::NocConfig;
use smart_sim::arbiter::RoundRobin;
use smart_sim::counters::ActivityCounters;
use smart_sim::stats::SimStats;
use smart_sim::traffic::TrafficSource;
use smart_sim::{FlowId, NodeId, Packet, SourceRoute, HOP_MM};
use std::collections::{BTreeMap, VecDeque};

/// A flit on a wire or in a sink lane: packet bookkeeping only.
#[derive(Debug, Clone, Copy)]
struct DFlit {
    flow: FlowId,
    is_head: bool,
    is_tail: bool,
    gen_cycle: u64,
    inject_cycle: u64,
}

/// One flow's private single-cycle wire.
#[derive(Debug)]
struct Wire {
    flow: FlowId,
    /// Packets waiting at the source end.
    queue: VecDeque<Packet>,
    /// The packet being sent, its inject cycle and next flit's sequence.
    sending: Option<(Packet, u64, u8)>,
    /// The flit launched last cycle; it lands at the start of this one,
    /// so a flit never crosses a `reset_counters` in its launch cycle.
    landing: Option<DFlit>,
    /// Wire length: Manhattan distance × [`HOP_MM`].
    mm: f64,
    /// `(sink, lane)` when the destination is shared.
    lane: Option<(usize, usize)>,
}

/// A destination shared by several flows: one FIFO lane of `(flit,
/// arrival cycle)` per flow, in route order, arbitrated into the NIC.
#[derive(Debug)]
struct Sink {
    lanes: Vec<VecDeque<(DFlit, u64)>>,
    arb: RoundRobin,
    /// The lane holding the switch until its packet's tail passes.
    held: Option<usize>,
}

/// The ideal dedicated-topology NoC.
#[derive(Debug)]
pub struct DedicatedNoc {
    /// Sorted by flow id: [`DedicatedNoc::offer`] binary-searches it.
    wires: Vec<Wire>,
    sinks: Vec<Sink>,
    /// Per-sink scratch: which lanes may arbitrate this cycle.
    eligible: Vec<bool>,
    cycle: u64,
    /// Packets offered whose tail has not been delivered: zero exactly
    /// when the model is quiescent. Kept apart from `counters`, which
    /// `reset_counters` zeroes.
    in_flight: u64,
    counters: ActivityCounters,
    stats: SimStats,
    stats_from: u64,
}

impl DedicatedNoc {
    /// One wire per routed flow on the `cfg` floorplan, as long as the
    /// Manhattan distance between the route's endpoints.
    ///
    /// # Panics
    ///
    /// Panics on duplicate flow ids or a flow from a node to itself.
    #[must_use]
    pub fn new(cfg: &NocConfig, routes: &[(FlowId, SourceRoute)]) -> Self {
        let topo = cfg.topology;
        // Flows sharing a destination get a sink, laned in route order.
        let mut by_dst: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        let mut wires: Vec<Wire> = (routes.iter().enumerate())
            .map(|(i, (flow, r))| {
                let (src, dst) = (r.source(), r.destination(topo));
                assert_ne!(src, dst, "{flow}: src == dst");
                by_dst.entry(dst).or_default().push(i);
                Wire {
                    flow: *flow,
                    queue: VecDeque::new(),
                    sending: None,
                    landing: None,
                    mm: f64::from(topo.distance(src, dst)) * HOP_MM,
                    lane: None,
                }
            })
            .collect();
        let mut sinks = Vec::new();
        for flows in by_dst.into_values().filter(|f| f.len() > 1) {
            for (lane, &i) in flows.iter().enumerate() {
                wires[i].lane = Some((sinks.len(), lane));
            }
            sinks.push(Sink {
                lanes: vec![VecDeque::new(); flows.len()],
                arb: RoundRobin::new(flows.len()),
                held: None,
            });
        }
        wires.sort_by_key(|w| w.flow);
        if let Some(p) = wires.windows(2).find(|p| p[0].flow == p[1].flow) {
            panic!("{}: duplicate flow", p[0].flow);
        }
        DedicatedNoc {
            wires,
            sinks,
            eligible: Vec::new(),
            cycle: 0,
            in_flight: 0,
            counters: ActivityCounters::new(),
            stats: SimStats::new(),
            stats_from: 0,
        }
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Latency statistics.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Activity counters (link activity only, per the paper).
    #[must_use]
    pub fn counters(&self) -> &ActivityCounters {
        &self.counters
    }

    /// Only packets generated at or after `cycle` count toward stats.
    pub fn set_stats_from(&mut self, cycle: u64) {
        self.stats_from = cycle;
    }

    /// Zero the activity counters.
    pub fn reset_counters(&mut self) {
        self.counters = ActivityCounters::new();
    }

    /// Queue a packet at its flow's dedicated source port.
    ///
    /// # Panics
    ///
    /// Panics on an unknown flow or a packet of no flits.
    pub fn offer(&mut self, packet: Packet) {
        assert!(packet.num_flits > 0, "a packet needs at least one flit");
        let i = self
            .wires
            .binary_search_by_key(&packet.flow, |w| w.flow)
            .unwrap_or_else(|_| panic!("unknown flow {}", packet.flow));
        self.wires[i].queue.push_back(packet);
        self.in_flight += 1;
    }

    /// Advance one cycle: every wire lands last cycle's flit and launches
    /// one, then every shared sink ejects at most one flit.
    pub fn step(&mut self) {
        let c = self.cycle;
        for i in 0..self.wires.len() {
            if let Some(flit) = self.wires[i].landing.take() {
                match self.wires[i].lane {
                    Some((s, l)) => self.sinks[s].lanes[l].push_back((flit, c - 1)),
                    None => self.deliver(flit, c - 1),
                }
            }
            let w = &mut self.wires[i];
            if w.sending.is_none() {
                if let Some(p) = w.queue.pop_front() {
                    self.counters.packets_injected += 1;
                    w.sending = Some((p, c, 0));
                }
            }
            if let Some((p, inject_cycle, seq)) = &mut w.sending {
                let flit = DFlit {
                    flow: p.flow,
                    is_head: *seq == 0,
                    is_tail: *seq + 1 == p.num_flits,
                    gen_cycle: p.gen_cycle,
                    inject_cycle: *inject_cycle,
                };
                *seq += 1;
                self.counters.link_flit_mm += w.mm;
                w.landing = Some(flit);
                if flit.is_tail {
                    w.sending = None;
                }
            }
        }

        // Shared sinks: BW the cycle after arrival, SA, then ST in c+1.
        for s in 0..self.sinks.len() {
            let sink = &mut self.sinks[s];
            self.eligible.clear();
            self.eligible.extend(
                sink.lanes
                    .iter()
                    .map(|q| q.front().is_some_and(|&(_, arrival)| arrival + 2 <= c)),
            );
            let winner = match sink.held {
                Some(h) => self.eligible[h].then_some(h),
                None => sink.arb.grant(&self.eligible),
            };
            let Some(w) = winner else { continue };
            let (flit, _) = sink.lanes[w]
                .pop_front()
                .expect("eligible lane has a front");
            sink.held = (!flit.is_tail).then_some(w);
            self.deliver(flit, c + 1);
        }

        self.counters.cycles += 1;
        self.cycle += 1;
    }

    /// Run `cycles` cycles pulling from `traffic`.
    pub fn run_with(&mut self, traffic: &mut dyn TrafficSource, cycles: u64) {
        for _ in 0..cycles {
            for p in traffic.generate(self.cycle) {
                self.offer(p);
            }
            self.step();
        }
    }

    /// `true` when nothing is queued, on a wire or in a sink.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        // The definition the in-flight count summarizes — every wire and
        // sink lane empty — walked in debug builds only.
        debug_assert_eq!(
            self.in_flight == 0,
            self.wires
                .iter()
                .all(|w| w.queue.is_empty() && w.sending.is_none() && w.landing.is_none())
                && self
                    .sinks
                    .iter()
                    .all(|s| s.lanes.iter().all(VecDeque::is_empty)),
            "in-flight count diverged from the wires and sinks"
        );
        self.in_flight == 0
    }

    /// Step until quiescent (up to `max_cycles`); `true` on success.
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.is_quiescent() {
                return true;
            }
            self.step();
        }
        self.is_quiescent()
    }

    /// Record `flit` reaching its destination NIC at the end of
    /// `arrival`.
    fn deliver(&mut self, flit: DFlit, arrival: u64) {
        self.counters.flits_delivered += 1;
        let measured = flit.gen_cycle >= self.stats_from;
        let latency = arrival - flit.inject_cycle + 1;
        if flit.is_head && measured {
            let queued = flit.inject_cycle - flit.gen_cycle;
            self.stats.record_head(flit.flow, latency, queued);
        }
        if flit.is_tail {
            self.in_flight -= 1;
            self.counters.packets_delivered += 1;
            if measured {
                self.stats.record_tail(flit.flow, latency);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_sim::PacketId;

    /// A Dedicated NoC on the paper's 4×4 with one XY-routed flow per
    /// `(src, dst)` pair, flow ids in order.
    fn noc(pairs: &[(u16, u16)]) -> DedicatedNoc {
        let cfg = NocConfig::paper_4x4();
        let routes: Vec<(FlowId, SourceRoute)> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| {
                let r = SourceRoute::xy(cfg.topology, NodeId(s), NodeId(d)).expect("route");
                (FlowId(i as u32), r)
            })
            .collect();
        DedicatedNoc::new(&cfg, &routes)
    }

    fn packet(flow: u32, gen: u64) -> Packet {
        Packet {
            id: PacketId(u64::from(flow) * 1000 + gen),
            flow: FlowId(flow),
            gen_cycle: gen,
            num_flits: 8,
        }
    }

    fn head_latency(noc: &DedicatedNoc, flow: u32) -> f64 {
        noc.stats()
            .flow(FlowId(flow))
            .expect("delivered")
            .avg_head_latency()
    }

    #[test]
    fn private_sink_is_single_cycle() {
        let mut noc = noc(&[(0, 15)]);
        noc.offer(packet(0, 0));
        noc.drain(100);
        assert_eq!(head_latency(&noc, 0), 1.0, "dedicated wire = 1 cycle");
        // Tail follows 7 cycles later.
        let s = noc.stats().flow(FlowId(0)).expect("delivered");
        assert_eq!(s.avg_packet_latency(), 8.0);
    }

    #[test]
    fn shared_sink_costs_a_stop() {
        let mut noc = noc(&[(0, 5), (10, 5)]);
        // Only one packet in the system: still pays the sink pipeline.
        noc.offer(packet(0, 0));
        noc.drain(100);
        assert_eq!(head_latency(&noc, 0), 4.0, "sink stop adds BW+SA+ST");
    }

    #[test]
    fn contending_sinks_serialize() {
        let mut noc = noc(&[(0, 5), (10, 5)]);
        noc.offer(packet(0, 0));
        noc.offer(packet(1, 0));
        noc.drain(200);
        // Lane 0 wins the first grant; lane 1's head waits out its
        // 8 flits.
        assert_eq!(head_latency(&noc, 0), 4.0);
        assert_eq!(head_latency(&noc, 1), 12.0);
        assert_eq!(noc.counters().packets_delivered, 2);
    }

    #[test]
    fn no_source_serialization_across_flows() {
        // Two flows from the SAME source to private sinks: both heads
        // arrive in 1 cycle (parallel dedicated wires).
        let mut noc = noc(&[(0, 3), (0, 12)]);
        noc.offer(packet(0, 0));
        noc.offer(packet(1, 0));
        noc.drain(100);
        assert_eq!(head_latency(&noc, 0), 1.0);
        assert_eq!(head_latency(&noc, 1), 1.0);
    }

    #[test]
    fn only_link_activity_is_counted() {
        let mut noc = noc(&[(0, 15)]);
        noc.offer(packet(0, 0));
        noc.drain(100);
        let c = noc.counters();
        // 8 flits × 6 mm Manhattan wire.
        assert!((c.link_flit_mm - 48.0).abs() < 1e-9);
        assert_eq!(c.buffer_writes, 0);
        assert_eq!(c.xbar_flit_traversals, 0);
        assert_eq!(c.sa_grants, 0);
    }

    #[test]
    fn flit_conservation() {
        let mut noc = noc(&[(1, 14), (2, 14)]);
        for g in 0..10 {
            noc.offer(packet(0, g));
            noc.offer(packet(1, g));
        }
        assert!(noc.drain(5000));
        assert_eq!(noc.counters().packets_delivered, 20);
        assert_eq!(noc.counters().flits_delivered, 160);
    }
}
