//! The synchronous network engine.
//!
//! Drives routers and NICs through a deterministic per-cycle schedule:
//!
//! 1. apply credit returns scheduled for this cycle;
//! 2. apply flit arrivals (buffer writes / NIC deliveries);
//! 3. NIC injection (one flit per NIC per cycle);
//! 4. switch allocation at every router; granted flits traverse their
//!    leg (`ST+LT`) and are scheduled to arrive at its end;
//! 5. accounting (clock gating, cycle counters).
//!
//! The engine enforces the SMART preset invariant at runtime: **no two
//! flits may cross the same link in the same cycle** — if a preset
//! compiler produced plans that violate single-cycle exclusivity, the
//! engine panics rather than silently time-multiplexing the wire.

use crate::counters::ActivityCounters;
use crate::flit::{Flit, Packet, VcId};
use crate::forward::{Endpoint, FlowTable, Segment, Sender};
use crate::nic::{Nic, RxEvent};
use crate::router::{CreditRelease, RouterBank, RouterDeparture};
use crate::stats::SimStats;
use crate::topology::{Direction, LinkId, NodeId, Topology, PORTS};
use crate::trace::{TraceKind, TraceRecord, Tracer};
use crate::traffic::TrafficSource;
use std::collections::HashMap;

/// Sizing parameters shared by all designs (Table II defaults via
/// [`SimConfig::paper_4x4`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Mesh dimensions.
    pub mesh: Topology,
    /// Virtual channels per input port.
    pub vcs_per_port: usize,
    /// Flits of buffering per VC.
    pub vc_depth: usize,
    /// Flits per packet (packet size / flit size).
    pub flits_per_packet: u8,
}

impl SimConfig {
    /// Table II: 4×4 mesh, 2 VCs × 10 flits, 256-bit packets of 32-bit
    /// flits.
    #[must_use]
    pub fn paper_4x4() -> Self {
        SimConfig {
            mesh: Topology::paper_4x4(),
            vcs_per_port: 2,
            vc_depth: 10,
            flits_per_packet: 8,
        }
    }

    /// Validate invariants (virtual cut-through needs whole packets to
    /// fit in one VC).
    ///
    /// # Panics
    ///
    /// Panics if a packet cannot fit in a VC buffer.
    pub fn validate(&self) {
        assert!(
            usize::from(self.flits_per_packet) <= self.vc_depth,
            "virtual cut-through requires vc_depth >= flits_per_packet"
        );
        assert!(self.vcs_per_port > 0 && self.flits_per_packet > 0);
    }
}

/// Ring-buffer depth for scheduled events (max lookahead is 4 cycles).
const RING: usize = 16;

/// The precomputed reverse path of a credit: which sender's free-VC
/// queue gets the freed VC back, and the leg cost charged to the credit
/// network.
#[derive(Debug, Clone, Copy)]
struct CreditPath {
    sender: Sender,
    crossbars: u32,
    mm: f64,
}

/// Everything in flight between routers: the arrival/credit event rings
/// and the dense per-link occupancy arrays. Grouped so the launch path
/// can borrow it independently of the route tables.
#[derive(Debug)]
struct Flight {
    arrivals: Vec<Vec<(Endpoint, Flit)>>,
    credit_ring: Vec<Vec<(Sender, VcId)>>,
    /// Arrivals scheduled but not yet applied (quiescence check).
    scheduled_arrivals: usize,
    /// `1 + last ST cycle` each link carried a flit, indexed
    /// `node * 5 + dir` (0 = never) — single-cycle exclusivity.
    link_guard: Vec<u64>,
    /// Flits carried per link since the last counter reset, same index.
    link_flits: Vec<u64>,
}

/// The simulated network: the router bank + NICs + in-flight events.
#[derive(Debug)]
pub struct Network {
    cfg: SimConfig,
    flows: FlowTable,
    bank: RouterBank,
    nics: Vec<Nic>,
    /// Credit reverse paths for stop endpoints, indexed
    /// `router * 5 + in_dir`.
    stop_credit: Vec<Option<CreditPath>>,
    /// Credit reverse paths for NIC endpoints, indexed by node.
    nic_credit: Vec<Option<CreditPath>>,
    flight: Flight,
    cycle: u64,
    counters: ActivityCounters,
    stats: SimStats,
    stats_from: u64,
    enabled_ports: u64,
    total_ports: u64,
    tracer: Option<Tracer>,
    /// NICs with a nonzero injection backlog, ascending — the only
    /// NICs the per-cycle injection scan visits. Kept sorted so the
    /// scan order (and therefore every downstream event order) matches
    /// a full 0..n sweep exactly.
    active_nics: Vec<u32>,
    /// Membership mask for `active_nics`, indexed by node.
    nic_active: Vec<bool>,
    /// Per-cycle scratch, reused so the steady state allocates nothing.
    arrival_scratch: Vec<(Endpoint, Flit)>,
    credit_scratch: Vec<(Sender, VcId)>,
    dep_scratch: Vec<RouterDeparture>,
    rel_scratch: Vec<CreditRelease>,
}

impl Network {
    /// Build a network for `flows` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration or the flow plans are inconsistent
    /// (see [`FlowTable::sender_endpoints`]).
    #[must_use]
    pub fn new(cfg: SimConfig, flows: FlowTable) -> Self {
        cfg.validate();
        let n = cfg.mesh.len();
        let mut bank = RouterBank::new(n, cfg.vcs_per_port, cfg.vc_depth);
        let nics: Vec<Nic> = cfg
            .mesh
            .nodes()
            .map(|id| Nic::new(id, cfg.vcs_per_port))
            .collect();

        // Preset-driven port enables + credit reverse-path tables. The
        // sender/endpoint pairing invariant is checked up front.
        let _ = flows.sender_endpoints();
        let mut stop_credit = vec![None; n * PORTS];
        let mut nic_credit = vec![None; n];
        for plan in flows.iter() {
            for leg in &plan.legs {
                if let Sender::RouterOutput(r, d) = leg.sender {
                    bank.enable_output(r.0 as usize, d);
                }
                for link in &leg.links {
                    bank.enable_output(link.from.0 as usize, link.dir);
                    let to = cfg
                        .mesh
                        .neighbor(link.from, link.dir)
                        .unwrap_or_else(|| panic!("{link} leaves the mesh"));
                    bank.enable_input(to.0 as usize, link.dir.opposite());
                }
                let path = Some(CreditPath {
                    sender: leg.sender,
                    crossbars: leg.crossbars(),
                    mm: leg.link_mm(),
                });
                match leg.end {
                    Endpoint::Stop { router, in_dir } => {
                        bank.enable_input(router.0 as usize, in_dir);
                        stop_credit[router.0 as usize * PORTS + in_dir.index()] = path;
                    }
                    Endpoint::Nic { node } => nic_credit[node.0 as usize] = path,
                }
            }
        }

        let enabled_ports: u64 = (0..n).map(|r| bank.enabled_ports(r) as u64).sum();
        let total_ports = (n * 10) as u64; // 5 in + 5 out per router

        Network {
            cfg,
            flows,
            bank,
            nics,
            stop_credit,
            nic_credit,
            flight: Flight {
                arrivals: vec![Vec::new(); RING],
                credit_ring: vec![Vec::new(); RING],
                scheduled_arrivals: 0,
                link_guard: vec![0; n * PORTS],
                link_flits: vec![0; n * PORTS],
            },
            cycle: 0,
            counters: ActivityCounters::new(),
            stats: SimStats::new(),
            stats_from: 0,
            enabled_ports,
            total_ports,
            tracer: None,
            active_nics: Vec::new(),
            nic_active: vec![false; n],
            arrival_scratch: Vec::new(),
            credit_scratch: Vec::new(),
            dep_scratch: Vec::new(),
            rel_scratch: Vec::new(),
        }
    }

    /// Record micro-architectural events (up to `capacity` of them) for
    /// journey logs, VCD dumps and counter cross-validation.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.tracer = Some(Tracer::with_capacity(capacity));
    }

    /// The tracer, if tracing is enabled.
    #[must_use]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        self.cfg
    }

    /// The mesh being simulated.
    #[must_use]
    pub fn mesh(&self) -> Topology {
        self.cfg.mesh
    }

    /// The flow table in use.
    #[must_use]
    pub fn flows(&self) -> &FlowTable {
        &self.flows
    }

    /// Current cycle (cycles fully processed).
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Activity counters accumulated since the last reset.
    #[must_use]
    pub fn counters(&self) -> &ActivityCounters {
        &self.counters
    }

    /// Latency statistics.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Only packets *generated* at or after `cycle` contribute to
    /// latency statistics (warm-up exclusion).
    pub fn set_stats_from(&mut self, cycle: u64) {
        self.stats_from = cycle;
    }

    /// Zero the activity counters (e.g. at the end of warm-up).
    pub fn reset_counters(&mut self) {
        self.counters = ActivityCounters::new();
        self.flight.link_flits.fill(0);
    }

    /// Flits carried per link since the last counter reset — the
    /// utilization heatmap's raw data. Assembled on demand from the
    /// engine's dense per-link array; links that carried nothing are
    /// absent.
    #[must_use]
    pub fn link_flit_counts(&self) -> HashMap<LinkId, u64> {
        self.flight
            .link_flits
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| {
                (
                    LinkId {
                        from: NodeId((i / PORTS) as u16),
                        dir: Direction::from_index(i % PORTS),
                    },
                    *n,
                )
            })
            .collect()
    }

    /// Queue a generated packet at its source NIC.
    ///
    /// # Panics
    ///
    /// Panics if the packet's flow is unknown or its src/dst disagree
    /// with the flow's route.
    pub fn offer(&mut self, packet: Packet) {
        let plan = self.flows.plan(packet.flow);
        assert_eq!(packet.src, plan.route.source(), "packet src mismatch");
        assert_eq!(
            packet.dst,
            plan.route.destination(self.cfg.mesh),
            "packet dst mismatch"
        );
        let src = packet.src.0 as usize;
        self.nics[src].offer(packet);
        if !self.nic_active[src] {
            self.nic_active[src] = true;
            let pos = self
                .active_nics
                .binary_search(&(src as u32))
                .expect_err("mask says absent");
            self.active_nics.insert(pos, src as u32);
        }
    }

    /// Advance one cycle.
    pub fn step(&mut self) {
        let c = self.cycle;
        let slot = (c % RING as u64) as usize;

        // 1. Credits landing this cycle (swapped out through the scratch
        // buffer so ring-slot capacity is reused, not reallocated).
        let mut credits = std::mem::take(&mut self.credit_scratch);
        std::mem::swap(&mut credits, &mut self.flight.credit_ring[slot]);
        for (sender, vc) in credits.drain(..) {
            match sender {
                Sender::Nic(n) => self.nics[n.0 as usize].credit(vc),
                Sender::RouterOutput(r, d) => self.bank.credit(r.0 as usize, d, vc),
            }
        }
        self.credit_scratch = credits;

        // 2. Flit arrivals (scheduled for end of cycle c-1).
        let mut arrivals = std::mem::take(&mut self.arrival_scratch);
        std::mem::swap(&mut arrivals, &mut self.flight.arrivals[slot]);
        self.flight.scheduled_arrivals -= arrivals.len();
        for (end, flit) in arrivals.drain(..) {
            match end {
                Endpoint::Stop { router, in_dir } => {
                    if let Some(t) = self.tracer.as_mut() {
                        t.record(TraceRecord {
                            cycle: c.saturating_sub(1),
                            flow: flit.flow,
                            packet: flit.packet,
                            kind: TraceKind::BufferWrite { router, in_dir },
                        });
                    }
                    self.bank.receive(
                        router.0 as usize,
                        in_dir,
                        flit,
                        c.saturating_sub(1),
                        &mut self.counters,
                    );
                }
                Endpoint::Nic { node } => {
                    let arrival_cycle = c - 1;
                    let gen = flit.gen_cycle;
                    if let Some(t) = self.tracer.as_mut() {
                        t.record(TraceRecord {
                            cycle: arrival_cycle,
                            flow: flit.flow,
                            packet: flit.packet,
                            kind: TraceKind::Deliver {
                                node,
                                head: flit.is_head(),
                                tail: flit.is_tail(),
                            },
                        });
                    }
                    let events = self.nics[node.0 as usize].receive(
                        &flit,
                        arrival_cycle,
                        &mut self.counters,
                    );
                    for ev in events {
                        match ev {
                            RxEvent::Head(flow, lat, srcq) => {
                                if gen >= self.stats_from {
                                    self.stats.record_head(flow, lat, srcq);
                                }
                            }
                            RxEvent::Tail(flow, lat, vc) => {
                                if gen >= self.stats_from {
                                    self.stats.record_tail(flow, lat);
                                }
                                // Credit for the freed NIC reception VC.
                                let path = self.nic_credit[node.0 as usize]
                                    .unwrap_or_else(|| panic!("no sender tracks endpoint {end:?}"));
                                emit_credit(
                                    path,
                                    vc,
                                    c + 1,
                                    &mut self.flight,
                                    &mut self.counters,
                                    &mut self.tracer,
                                );
                            }
                        }
                    }
                }
            }
        }
        self.arrival_scratch = arrivals;

        // 3. NIC injection, scanning only the active set (NICs with a
        // backlog). A NIC whose backlog empties retires from the set in
        // place; the compaction preserves ascending order, so the event
        // stream is bit-identical to a full 0..n sweep. Skipped idle
        // NICs would have returned `None` without touching any state.
        let mut kept = 0;
        for k in 0..self.active_nics.len() {
            let i = self.active_nics[k] as usize;
            if let Some(flit) = self.nics[i].try_inject(c, &mut self.counters) {
                let leg = &self.flows.plan(flit.flow).legs[0];
                debug_assert!(matches!(leg.sender, Sender::Nic(n) if n.0 as usize == i));
                launch(
                    leg,
                    flit,
                    c,
                    &mut self.flight,
                    &mut self.counters,
                    &mut self.tracer,
                );
            }
            if self.nics[i].backlog() > 0 {
                self.active_nics[kept] = self.active_nics[k];
                kept += 1;
            } else {
                self.nic_active[i] = false;
            }
        }
        self.active_nics.truncate(kept);

        // 4. Switch allocation; ST happens during c + 1. Departures and
        // credit releases land in reused scratch vectors, and routers
        // with nothing buffered are skipped without touching their
        // state.
        let mut deps = std::mem::take(&mut self.dep_scratch);
        let mut rels = std::mem::take(&mut self.rel_scratch);
        for r in 0..self.bank.len() {
            if self.bank.is_drained(r) {
                continue;
            }
            let node = NodeId(r as u16);
            let flows = &self.flows;
            deps.clear();
            rels.clear();
            self.bank.allocate(
                r,
                c,
                |flow| flows.leg_from(flow, node).out_dir,
                &mut self.counters,
                &mut deps,
                &mut rels,
            );
            for dep in deps.drain(..) {
                let leg = self.flows.leg_from(dep.flit.flow, node);
                assert_eq!(leg.out_dir, dep.out_dir, "plan/grant mismatch at {node}");
                launch(
                    leg,
                    dep.flit,
                    c + 1,
                    &mut self.flight,
                    &mut self.counters,
                    &mut self.tracer,
                );
            }
            for rel in rels.drain(..) {
                // Tail departs the buffer during c+1; the credit crosses
                // the reverse mesh during c+2 and is usable at c+3.
                let path = self.stop_credit[r * PORTS + rel.in_dir.index()]
                    .unwrap_or_else(|| panic!("no sender tracks endpoint {node}/{}", rel.in_dir));
                emit_credit(
                    path,
                    rel.vc,
                    c + 3,
                    &mut self.flight,
                    &mut self.counters,
                    &mut self.tracer,
                );
            }
        }
        self.dep_scratch = deps;
        self.rel_scratch = rels;

        // 5. Gating + cycle accounting.
        self.counters.active_port_cycles += self.enabled_ports;
        self.counters.gated_port_cycles += self.total_ports - self.enabled_ports;
        self.counters.cycles += 1;
        self.cycle += 1;
    }

    /// Run `cycles` cycles, pulling packets from `traffic` each cycle.
    pub fn run_with(&mut self, traffic: &mut dyn TrafficSource, cycles: u64) {
        for _ in 0..cycles {
            for p in traffic.generate(self.cycle) {
                self.offer(p);
            }
            self.step();
        }
    }

    /// `true` when no packet is queued, buffered, or in flight anywhere.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.bank.total_buffered() == 0
            && self.flight.scheduled_arrivals == 0
            && self.nics.iter().all(Nic::is_drained)
    }

    /// Step until quiescent, up to `max_cycles`. Returns `true` if the
    /// network drained (the precondition for reconfiguration, Section V).
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.is_quiescent() {
                return true;
            }
            self.step();
        }
        self.is_quiescent()
    }

    /// Injection backlog across all NICs.
    #[must_use]
    pub fn total_backlog(&self) -> usize {
        self.nics.iter().map(Nic::backlog).sum()
    }
}

/// Launch `flit` onto `leg`, with ST (and the whole link traversal)
/// occurring during `st_cycle`. A free function over the engine's
/// in-flight state so the caller can keep borrowing the route tables
/// the `leg` reference lives in.
fn launch(
    leg: &Segment,
    flit: Flit,
    st_cycle: u64,
    flight: &mut Flight,
    counters: &mut ActivityCounters,
    tracer: &mut Option<Tracer>,
) {
    // Single-cycle link exclusivity (the preset invariant). The guard
    // array stores `st_cycle + 1` so the zero initial state means
    // "never used".
    for link in &leg.links {
        let li = link.from.0 as usize * PORTS + link.dir.index();
        let stamp = st_cycle + 1;
        assert!(
            flight.link_guard[li] != stamp,
            "two flits on {link} in cycle {st_cycle}: preset violation"
        );
        flight.link_guard[li] = stamp;
        flight.link_flits[li] += 1;
    }
    counters.xbar_flit_traversals += u64::from(leg.crossbars());
    counters.link_flit_mm += leg.link_mm();
    if leg.cycles == 2 {
        counters.pipeline_reg_writes += 1;
    }
    if let Some(t) = tracer.as_mut() {
        let from = match leg.sender {
            Sender::Nic(n) | Sender::RouterOutput(n, _) => n,
        };
        t.record(TraceRecord {
            cycle: st_cycle,
            flow: flit.flow,
            packet: flit.packet,
            kind: TraceKind::Launch {
                from,
                links: leg.links.len() as u8,
                crossbars: leg.crossbars() as u8,
                mm: leg.link_mm(),
            },
        });
    }
    let arrival = st_cycle + u64::from(leg.cycles) - 1;
    let slot = ((arrival + 1) % RING as u64) as usize;
    flight.arrivals[slot].push((leg.end, flit));
    flight.scheduled_arrivals += 1;
}

/// Schedule the credit for a freed VC back along `path` to its sender,
/// usable at `apply_cycle`.
fn emit_credit(
    path: CreditPath,
    vc: VcId,
    apply_cycle: u64,
    flight: &mut Flight,
    counters: &mut ActivityCounters,
    tracer: &mut Option<Tracer>,
) {
    counters.xbar_credit_traversals += u64::from(path.crossbars);
    counters.link_credit_mm += path.mm;
    if let Some(t) = tracer.as_mut() {
        t.record(TraceRecord {
            cycle: apply_cycle.saturating_sub(2),
            flow: crate::flit::FlowId(u32::MAX),
            packet: crate::flit::PacketId(u64::MAX),
            kind: TraceKind::Credit {
                crossbars: path.crossbars as u8,
                mm: path.mm,
            },
        });
    }
    let slot = (apply_cycle % RING as u64) as usize;
    flight.credit_ring[slot].push((path.sender, vc));
}
