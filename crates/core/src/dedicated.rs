//! The *Dedicated* baseline: an ideal NoC with 1-cycle dedicated links
//! between all communicating cores (Section VI).
//!
//! The paper uses this as the yardstick SMART chases: every flow gets a
//! private single-cycle wire, so there is no path contention and no
//! bandwidth limit at sources. The only serialization the paper retains
//! is at destinations: "if there are multiple traffic flows to the same
//! destination, they need to stop at a router at the destination to go
//! up serially into the NIC". We model exactly that — a flow whose sink
//! is private flies NIC-to-NIC in one cycle; flows sharing a sink stop
//! at the destination router (BW/SA/ST, +3 cycles at zero load) and are
//! round-robin-serialized into the NIC one flit per cycle.
//!
//! Power-wise the paper plots **only link power** for Dedicated (the
//! high-radix sink routers, source muxes and pipeline registers are
//! acknowledged but ignored); the activity counters here do the same:
//! flits accumulate `link_flit_mm` over the Manhattan distance of their
//! dedicated wire, and no buffer/crossbar activity is charged.

use crate::config::NocConfig;
use smart_sim::arbiter::RoundRobin;
use smart_sim::counters::ActivityCounters;
use smart_sim::stats::SimStats;
use smart_sim::traffic::TrafficSource;
use smart_sim::{FlowId, NodeId, Packet, Topology};
use std::collections::{HashMap, VecDeque};

/// One flow over a dedicated link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DedicatedFlow {
    /// Flow id.
    pub flow: FlowId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
}

/// A flit in flight inside the dedicated model (we only need packet
/// bookkeeping, not routing state).
#[derive(Debug, Clone, Copy)]
struct DFlit {
    flow: FlowId,
    is_head: bool,
    is_tail: bool,
    gen_cycle: u64,
    inject_cycle: u64,
}

/// Per-flow injection state: packets queue at the source end of their
/// private wire (one wire per flow — no source serialization).
#[derive(Debug, Clone, Default)]
struct FlowTx {
    queue: VecDeque<Packet>,
    /// Remaining flits of the packet being serialized.
    in_progress: VecDeque<DFlit>,
}

/// Per-destination sink state for shared sinks: per-flow reorder-free
/// queues plus a round-robin arbiter into the NIC.
#[derive(Debug)]
struct Sink {
    /// Flows sinking here, fixed order.
    flows: Vec<FlowId>,
    /// Buffered flits per flow with their arrival cycles.
    queues: Vec<VecDeque<(DFlit, u64)>>,
    arb: RoundRobin,
    /// Switch held by a packet until its tail passes (VCT semantics).
    held: Option<usize>,
}

/// The ideal dedicated-topology NoC.
#[derive(Debug)]
pub struct DedicatedNoc {
    mesh: Topology,
    flits_per_packet: u8,
    flows: Vec<DedicatedFlow>,
    flow_index: HashMap<FlowId, usize>,
    /// Manhattan wire length per flow (for link power).
    wire_mm: Vec<f64>,
    tx: Vec<FlowTx>,
    /// Shared sinks by destination node.
    sinks: HashMap<NodeId, Sink>,
    /// Whether each flow's sink is shared.
    shared_sink: Vec<bool>,
    cycle: u64,
    counters: ActivityCounters,
    stats: SimStats,
    stats_from: u64,
    /// In-flight arrivals to shared sinks / NICs by apply slot:
    /// (flow index, flit).
    arrivals: Vec<Vec<(usize, DFlit)>>,
    /// Per-cycle scratch, reused so the steady state allocates nothing.
    arrival_scratch: Vec<(usize, DFlit)>,
    eligible_scratch: Vec<bool>,
}

const RING: usize = 8;

impl DedicatedNoc {
    /// Build the dedicated network for `flows` on the physical `cfg`
    /// floorplan (wire lengths are Manhattan distances between tiles).
    ///
    /// # Panics
    ///
    /// Panics on duplicate flow ids or a flow from a node to itself.
    #[must_use]
    pub fn new(cfg: &NocConfig, flows: &[DedicatedFlow]) -> Self {
        let mesh = cfg.topology;
        let mut flow_index = HashMap::new();
        let mut by_dst: HashMap<NodeId, Vec<FlowId>> = HashMap::new();
        for (i, f) in flows.iter().enumerate() {
            assert_ne!(f.src, f.dst, "{}: src == dst", f.flow);
            let prev = flow_index.insert(f.flow, i);
            assert!(prev.is_none(), "{}: duplicate flow", f.flow);
            by_dst.entry(f.dst).or_default().push(f.flow);
        }
        let mut sinks = HashMap::new();
        let mut shared_sink = vec![false; flows.len()];
        for (dst, fs) in &by_dst {
            if fs.len() > 1 {
                for f in fs {
                    shared_sink[flow_index[f]] = true;
                }
                sinks.insert(
                    *dst,
                    Sink {
                        flows: fs.clone(),
                        queues: vec![VecDeque::new(); fs.len()],
                        arb: RoundRobin::new(fs.len()),
                        held: None,
                    },
                );
            }
        }
        let wire_mm = flows
            .iter()
            .map(|f| f64::from(mesh.distance(f.src, f.dst)) * cfg.hop_mm)
            .collect();
        DedicatedNoc {
            mesh,
            flits_per_packet: cfg.flits_per_packet(),
            flows: flows.to_vec(),
            flow_index,
            wire_mm,
            tx: vec![FlowTx::default(); flows.len()],
            sinks,
            shared_sink,
            cycle: 0,
            counters: ActivityCounters::new(),
            stats: SimStats::new(),
            stats_from: 0,
            arrivals: vec![Vec::new(); RING],
            arrival_scratch: Vec::new(),
            eligible_scratch: Vec::new(),
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
    /// Panics if the flow is unknown.
    pub fn offer(&mut self, packet: Packet) {
        let idx = *self
            .flow_index
            .get(&packet.flow)
            .unwrap_or_else(|| panic!("unknown flow {}", packet.flow));
        self.tx[idx].queue.push_back(packet);
    }

    /// Advance one cycle.
    pub fn step(&mut self) {
        let c = self.cycle;
        let slot = (c % RING as u64) as usize;

        // 1. Arrivals scheduled for end of cycle c-1 (swapped out through
        // the scratch buffer so ring-slot capacity is reused).
        let mut arrivals = std::mem::take(&mut self.arrival_scratch);
        std::mem::swap(&mut arrivals, &mut self.arrivals[slot]);
        for (fi, flit) in arrivals.drain(..) {
            if self.shared_sink[fi] {
                let dst = self.flows[fi].dst;
                let sink = self.sinks.get_mut(&dst).expect("shared sink exists");
                let qi = sink
                    .flows
                    .iter()
                    .position(|f| *f == self.flows[fi].flow)
                    .expect("flow registered at its sink");
                sink.queues[qi].push_back((flit, c - 1));
            } else {
                self.deliver(flit, c - 1);
            }
        }
        self.arrival_scratch = arrivals;

        // 2. Injection: every flow's private wire can carry one flit per
        // cycle (no source serialization across flows).
        for fi in 0..self.flows.len() {
            let tx = &mut self.tx[fi];
            if tx.in_progress.is_empty() {
                if let Some(p) = tx.queue.pop_front() {
                    self.counters.packets_injected += 1;
                    let n = p.num_flits;
                    for s in 0..n {
                        tx.in_progress.push_back(DFlit {
                            flow: p.flow,
                            is_head: s == 0,
                            is_tail: s == n - 1,
                            gen_cycle: p.gen_cycle,
                            inject_cycle: c,
                        });
                    }
                }
            }
            if let Some(flit) = self.tx[fi].in_progress.pop_front() {
                // The dedicated wire: arrival at the end of this cycle.
                self.counters.link_flit_mm += self.wire_mm[fi];
                let apply = ((c + 1) % RING as u64) as usize;
                self.arrivals[apply].push((fi, flit));
            }
        }

        // 3. Shared sinks: BW (cycle after arrival), SA, then ST into the
        // NIC — one flit per cycle per destination, packet-granular hold.
        let mut sinks = std::mem::take(&mut self.sinks);
        let mut eligible = std::mem::take(&mut self.eligible_scratch);
        for sink in sinks.values_mut() {
            eligible.clear();
            eligible.extend(
                sink.queues
                    .iter()
                    .map(|q| q.front().is_some_and(|(_, arr)| arr + 2 <= c)),
            );
            let winner = match sink.held {
                Some(h) if eligible[h] => Some(h),
                Some(_) => None,
                None => sink.arb.grant(&eligible),
            };
            let Some(w) = winner else { continue };
            let (flit, _) = sink.queues[w].pop_front().expect("eligible has front");
            sink.held = if flit.is_tail { None } else { Some(w) };
            // ST during c+1; NIC arrival end of c+1.
            self.deliver(flit, c + 1);
        }
        self.sinks = sinks;
        self.eligible_scratch = eligible;

        self.counters.cycles += 1;
        self.cycle += 1;
    }

    /// Record a flit reaching its destination NIC at the end of
    /// `arrival_cycle`.
    fn deliver(&mut self, flit: DFlit, arrival_cycle: u64) {
        self.counters.flits_delivered += 1;
        let measured = flit.gen_cycle >= self.stats_from;
        if flit.is_head && measured {
            let lat = arrival_cycle - flit.inject_cycle + 1;
            self.stats
                .record_head(flit.flow, lat, flit.inject_cycle - flit.gen_cycle);
        }
        if flit.is_tail {
            self.counters.packets_delivered += 1;
            if measured {
                let lat = arrival_cycle - flit.inject_cycle + 1;
                self.stats.record_tail(flit.flow, lat);
            }
        }
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

    /// `true` when nothing is queued or in flight.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.tx
            .iter()
            .all(|t| t.queue.is_empty() && t.in_progress.is_empty())
            && self.arrivals.iter().all(Vec::is_empty)
            && self
                .sinks
                .values()
                .all(|s| s.queues.iter().all(VecDeque::is_empty))
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

    /// The topology/floorplan underneath (for reporting).
    #[must_use]
    pub fn mesh(&self) -> Topology {
        self.mesh
    }

    /// Flits per packet.
    #[must_use]
    pub fn flits_per_packet(&self) -> u8 {
        self.flits_per_packet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_sim::PacketId;

    fn cfg() -> NocConfig {
        NocConfig::paper_4x4()
    }

    fn packet(flow: u32, src: u16, dst: u16, gen: u64) -> Packet {
        Packet {
            id: PacketId(u64::from(flow) * 1000 + gen),
            flow: FlowId(flow),
            src: NodeId(src),
            dst: NodeId(dst),
            gen_cycle: gen,
            num_flits: 8,
        }
    }

    #[test]
    fn private_sink_is_single_cycle() {
        let flows = [DedicatedFlow {
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(15),
        }];
        let mut noc = DedicatedNoc::new(&cfg(), &flows);
        noc.offer(packet(0, 0, 15, 0));
        noc.drain(100);
        let s = noc.stats().flow(FlowId(0)).expect("delivered");
        assert_eq!(s.avg_head_latency(), 1.0, "dedicated wire = 1 cycle");
        // Tail follows 7 cycles later.
        assert_eq!(s.avg_packet_latency(), 8.0);
    }

    #[test]
    fn shared_sink_costs_a_stop() {
        let flows = [
            DedicatedFlow {
                flow: FlowId(0),
                src: NodeId(0),
                dst: NodeId(5),
            },
            DedicatedFlow {
                flow: FlowId(1),
                src: NodeId(10),
                dst: NodeId(5),
            },
        ];
        let mut noc = DedicatedNoc::new(&cfg(), &flows);
        // Only one packet in the system: still pays the sink pipeline.
        noc.offer(packet(0, 0, 5, 0));
        noc.drain(100);
        let s = noc.stats().flow(FlowId(0)).expect("delivered");
        assert_eq!(
            s.avg_head_latency(),
            4.0,
            "sink stop adds BW+SA+ST = 3 cycles"
        );
    }

    #[test]
    fn contending_sinks_serialize() {
        let flows = [
            DedicatedFlow {
                flow: FlowId(0),
                src: NodeId(0),
                dst: NodeId(5),
            },
            DedicatedFlow {
                flow: FlowId(1),
                src: NodeId(10),
                dst: NodeId(5),
            },
        ];
        let mut noc = DedicatedNoc::new(&cfg(), &flows);
        noc.offer(packet(0, 0, 5, 0));
        noc.offer(packet(1, 10, 5, 0));
        noc.drain(200);
        let s0 = noc.stats().flow(FlowId(0)).expect("f0");
        let s1 = noc.stats().flow(FlowId(1)).expect("f1");
        // One of the packets waits for the other's 8 flits to clear.
        let (fast, slow) = if s0.avg_head_latency() < s1.avg_head_latency() {
            (s0, s1)
        } else {
            (s1, s0)
        };
        assert_eq!(fast.avg_head_latency(), 4.0);
        assert!(
            slow.avg_head_latency() >= 11.0,
            "loser head waits out the winner's packet, got {}",
            slow.avg_head_latency()
        );
        assert_eq!(noc.counters().packets_delivered, 2);
    }

    #[test]
    fn no_source_serialization_across_flows() {
        // Two flows from the SAME source to private sinks: both heads
        // arrive in 1 cycle (parallel dedicated wires).
        let flows = [
            DedicatedFlow {
                flow: FlowId(0),
                src: NodeId(0),
                dst: NodeId(3),
            },
            DedicatedFlow {
                flow: FlowId(1),
                src: NodeId(0),
                dst: NodeId(12),
            },
        ];
        let mut noc = DedicatedNoc::new(&cfg(), &flows);
        noc.offer(packet(0, 0, 3, 0));
        noc.offer(packet(1, 0, 12, 0));
        noc.drain(100);
        assert_eq!(
            noc.stats().flow(FlowId(0)).expect("f0").avg_head_latency(),
            1.0
        );
        assert_eq!(
            noc.stats().flow(FlowId(1)).expect("f1").avg_head_latency(),
            1.0
        );
    }

    #[test]
    fn only_link_activity_is_counted() {
        let flows = [DedicatedFlow {
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(15),
        }];
        let mut noc = DedicatedNoc::new(&cfg(), &flows);
        noc.offer(packet(0, 0, 15, 0));
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
        let flows = [
            DedicatedFlow {
                flow: FlowId(0),
                src: NodeId(1),
                dst: NodeId(14),
            },
            DedicatedFlow {
                flow: FlowId(1),
                src: NodeId(2),
                dst: NodeId(14),
            },
        ];
        let mut noc = DedicatedNoc::new(&cfg(), &flows);
        for g in 0..10 {
            noc.offer(packet(0, 1, 14, g));
            noc.offer(packet(1, 2, 14, g));
        }
        assert!(noc.drain(5000));
        assert_eq!(noc.counters().packets_delivered, 20);
        assert_eq!(noc.counters().flits_delivered, 160);
    }
}
