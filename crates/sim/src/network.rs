//! The synchronous network engine: one cycle loop, run over row bands.
//!
//! The fabric is held as one or more `Band`s — contiguous row ranges,
//! each with its own routers, NICs, packet arena, event rings and
//! accounting. Every band is driven through the same deterministic
//! per-cycle schedule:
//!
//! 1. apply credit returns scheduled for this cycle;
//! 2. apply flit arrivals (buffer writes / NIC deliveries);
//! 3. NIC injection (one flit per NIC per cycle), at the NICs with a
//!    backlog;
//! 4. switch allocation at the routers holding flits; granted flits
//!    traverse their leg (`ST+LT`) and are scheduled to arrive at its
//!    end;
//! 5. accounting (clock gating, cycle counters).
//!
//! Stages 1–2 drain event rings and stages 3–4 walk an active set
//! each, so a cycle costs what it moves: a router or NIC
//! that holds nothing is not looked at, and a stage whose ring slot or
//! set is empty is skipped whole. An idle cycle is stage 5 alone.
//!
//! A [`Network`] built by [`Network::new`] is the 1-band case: the band
//! owns every node, is stepped inline on the caller's thread, and its
//! `Seam` (`Solo`) answers "nothing is foreign" as a constant, so
//! the compiler removes the hand-over paths. [`Network::banded`] runs
//! the same loop on several bands at once; what they exchange, and why
//! the result is bit-identical, is the `shard` module's subject.
//!
//! The engine enforces the SMART preset invariant at runtime: **no two
//! flits may cross the same link in the same cycle** — if a preset
//! compiler produced plans that violate single-cycle exclusivity, the
//! engine panics rather than silently time-multiplexing the wire.

use crate::active::ActiveSet;
use crate::counters::ActivityCounters;
use crate::flit::{Flit, Packet, PacketArena, PacketId, PacketMeta, PacketSlot, VcId};
use crate::forward::{link_of, Endpoint, FlowTable, Sender};
use crate::nic::{Nic, RxEvent};
use crate::router::{CreditRelease, RouterBank, RouterDeparture, MAX_VCS_PER_PORT, MAX_VC_DEPTH};
use crate::shard::Exchange;
use crate::stats::SimStats;
use crate::telemetry::{
    CycleView, MetricsCollector, NoProbe, Probe, TelemetryConfig, TelemetrySeries,
};
use crate::topology::{LinkId, NodeId, Topology, PORTS};
use crate::trace::{TraceKind, TraceRecord, Tracer};
use crate::traffic::TrafficSource;
use std::borrow::Cow;
use std::collections::HashMap;

/// Sizing parameters shared by all designs (Table II defaults via
/// [`SimConfig::paper_4x4`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Fabric shape (mesh or torus) and dimensions.
    pub topology: Topology,
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
            topology: Topology::paper_4x4(),
            vcs_per_port: 2,
            vc_depth: 10,
            flits_per_packet: 8,
        }
    }

    /// Validate invariants: every limit the engine's packed state relies
    /// on, stated here so a bad configuration is refused by name before
    /// any construction starts.
    ///
    /// # Panics
    ///
    /// Panics if `vcs_per_port` is outside `1..=`[`MAX_VCS_PER_PORT`],
    /// `vc_depth` exceeds [`MAX_VC_DEPTH`], or `flits_per_packet` is
    /// outside `1..=vc_depth` (virtual cut-through needs a whole packet
    /// to fit in one VC).
    pub fn validate(&self) {
        assert!(
            (1..=MAX_VCS_PER_PORT).contains(&self.vcs_per_port),
            "SimConfig.vcs_per_port = {}: must be in 1..={MAX_VCS_PER_PORT}",
            self.vcs_per_port
        );
        assert!(
            self.vc_depth <= MAX_VC_DEPTH,
            "SimConfig.vc_depth = {}: must be at most {MAX_VC_DEPTH}",
            self.vc_depth
        );
        assert!(
            (1..=self.vc_depth).contains(&usize::from(self.flits_per_packet)),
            "SimConfig.flits_per_packet = {}: must be in 1..=vc_depth ({}): \
             virtual cut-through buffers a whole packet in one VC",
            self.flits_per_packet,
            self.vc_depth
        );
    }
}

/// Ring-buffer depth for scheduled events (max lookahead is 4 cycles).
pub(crate) const RING: usize = 16;

/// Most bands a fabric is split into: owner tables store band ids as
/// `u8`.
const MAX_BANDS: usize = u8::MAX as usize;

/// The precomputed reverse path of a credit: which sender's free-VC
/// queue gets the freed VC back, and the leg cost charged to the credit
/// network.
#[derive(Debug, Clone, Copy)]
struct CreditPath {
    sender: Sender,
    crossbars: u32,
    mm: f64,
}

/// An event whose target lies in another band, handed over at the
/// per-cycle exchange.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BoundaryEvent {
    /// A flit arriving at an endpoint owned by the receiving band.
    /// `meta` is the full packet metadata from the sending band's
    /// arena, re-interned (head) or matched (body/tail) on receipt;
    /// `arrival` is the cycle the flit lands at the endpoint, `leg`
    /// the leg it travelled.
    Arrival {
        end: Endpoint,
        flit: Flit,
        leg: u32,
        meta: PacketMeta,
        arrival: u64,
    },
    /// A freed VC travelling back to a sender owned by the receiving
    /// band, usable at `apply`.
    Credit {
        sender: Sender,
        vc: VcId,
        apply: u64,
    },
}

/// The one place the two execution modes differ: how a band claims a
/// link for a cycle and what happens to an event for a node it may not
/// own. Monomorphized like [`Probe`], so [`Solo`]'s constant answer
/// folds the hand-over paths out of the 1-band step.
pub(crate) trait Seam {
    /// Claim link `li` for `st_cycle`; `false` means a second flit tried
    /// to cross the same link in the same cycle.
    fn try_mark(&mut self, li: usize, st_cycle: u64) -> bool;
    /// If another band owns `node`, hand it `ev()` at the next exchange
    /// and return `true`; otherwise leave the event to the caller.
    fn export(&mut self, node: NodeId, ev: impl FnOnce() -> BoundaryEvent) -> bool;
}

/// The 1-band seam. The band owns every node, so nothing is ever handed
/// over, and the single-cycle link-exclusivity guard is one stamp per
/// link (indexed `node * 5 + dir`): the last `ST` cycle it carried a
/// flit.
///
/// One stamp sees every duplicate because a link's marks never go back
/// in time. The marks for `ST` cycle *s* come from stage 4 of the step
/// of *s − 1* (router departures) and stage 3 of the step of *s* (NIC
/// injections), and the first mark for *s + 1* comes from stage 4 of
/// the step of *s*, after both. So a second flit on a link in cycle *s*
/// finds the link's stamp still at *s*.
#[derive(Debug)]
struct Solo {
    /// Per link, the last `ST` cycle marked (`u64::MAX` = none).
    last: Vec<u64>,
}

impl Solo {
    fn new(n_links: usize) -> Self {
        Solo {
            last: vec![u64::MAX; n_links],
        }
    }
}

impl Seam for Solo {
    #[inline]
    fn try_mark(&mut self, li: usize, st_cycle: u64) -> bool {
        let last = &mut self.last[li];
        if *last == st_cycle {
            return false;
        }
        *last = st_cycle;
        true
    }

    #[inline]
    fn export(&mut self, _node: NodeId, _ev: impl FnOnce() -> BoundaryEvent) -> bool {
        false
    }
}

/// What a run advances until.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Goal {
    /// Exactly this many cycles.
    Fixed(u64),
    /// Until quiescent, at most this many cycles.
    Drain(u64),
}

/// One row band: the routers, NICs and in-flight events of a contiguous
/// node range, plus its own accounting. A band is stepped by exactly
/// one thread; whatever leaves it goes through the [`Seam`].
#[derive(Debug)]
pub(crate) struct Band {
    /// First node of the band (rows are contiguous in node numbering).
    pub(crate) start: u16,
    bank: RouterBank,
    nics: Vec<Nic>,
    /// Metadata of every live packet; flits carry an arena slot instead
    /// of the per-packet fields.
    arena: PacketArena,
    /// Packets currently traversing this band whose metadata arrived
    /// with a head flit from another band: stable id → local slot.
    xfer: HashMap<PacketId, PacketSlot>,
    /// Credit reverse paths for stop endpoints, indexed
    /// `local_router * 5 + in_dir`.
    stop_credit: Vec<Option<CreditPath>>,
    /// Credit reverse paths for NIC endpoints, by local node index.
    nic_credit: Vec<Option<CreditPath>>,
    /// Flits in flight by arrival slot: where each lands, and the leg
    /// it travelled — at a stop router a head's next leg is the one
    /// after it.
    arrivals: Vec<Vec<(Endpoint, Flit, u32)>>,
    credit_ring: Vec<Vec<(Sender, VcId)>>,
    /// Arrivals scheduled but not yet applied (quiescence check).
    scheduled_arrivals: usize,
    /// Flits carried per link since the last counter reset, indexed
    /// `node * 5 + dir` over the *full* fabric: a SMART leg launched
    /// here may cross links in any band.
    pub(crate) link_flits: Vec<u64>,
    pub(crate) counters: ActivityCounters,
    pub(crate) stats: SimStats,
    stats_from: u64,
    enabled_ports: u64,
    total_ports: u64,
    tracer: Option<Tracer>,
    /// Windowed metrics collector, sized for the full fabric (probe
    /// events carry global indices); `None` selects the [`NoProbe`]
    /// step, whose hooks the optimizer deletes (telemetry off is free).
    telemetry: Option<Box<MetricsCollector>>,
    /// NICs with a nonzero injection backlog, by local node index — the
    /// only NICs the per-cycle injection scan visits.
    backlogged: ActiveSet,
    /// Packets mid-reception at this band's NICs (head delivered, tail
    /// not yet).
    rx_open: usize,
    /// Per-cycle scratch, reused so the steady state allocates nothing.
    arr_scratch: Vec<(Endpoint, Flit, u32)>,
    credit_scratch: Vec<(Sender, VcId)>,
    dep_scratch: Vec<RouterDeparture>,
    rel_scratch: Vec<CreditRelease>,
}

impl Band {
    fn new(cfg: SimConfig, start: usize, len: usize) -> Self {
        let mut bank = RouterBank::new(len, cfg.vcs_per_port, cfg.vc_depth);
        bank.set_base_node(NodeId(start as u16));
        Band {
            start: start as u16,
            bank,
            nics: (start..start + len)
                .map(|i| Nic::new(NodeId(i as u16), cfg.vcs_per_port))
                .collect(),
            arena: PacketArena::new(),
            xfer: HashMap::new(),
            stop_credit: vec![None; len * PORTS],
            nic_credit: vec![None; len],
            arrivals: vec![Vec::new(); RING],
            credit_ring: vec![Vec::new(); RING],
            scheduled_arrivals: 0,
            link_flits: vec![0; cfg.topology.len() * PORTS],
            counters: ActivityCounters::new(),
            stats: SimStats::new(),
            stats_from: 0,
            enabled_ports: 0,
            total_ports: (len * 10) as u64, // 5 in + 5 out per router
            tracer: None,
            telemetry: None,
            backlogged: ActiveSet::new(len),
            rx_open: 0,
            arr_scratch: Vec::new(),
            credit_scratch: Vec::new(),
            dep_scratch: Vec::new(),
            rel_scratch: Vec::new(),
        }
    }

    fn local(&self, n: NodeId) -> usize {
        debug_assert!(n.0 >= self.start, "{n} is not in this band");
        usize::from(n.0 - self.start)
    }

    /// This band's view of the fabric at the end of `cycle`.
    fn view(&self, cycle: u64) -> CycleView<'_> {
        CycleView {
            cycle,
            injected: self.counters.packets_injected,
            delivered: self.counters.packets_delivered,
            buffered: self.bank.total_buffered(),
            link_flits: &self.link_flits,
        }
    }

    /// Queue a generated packet at its source NIC `src`, the node its
    /// flow's plan starts at, interning its metadata into the packet
    /// arena.
    pub(crate) fn offer(&mut self, packet: Packet, src: NodeId) {
        let l = self.local(src);
        let slot = self.arena.intern(&packet);
        self.nics[l].offer(slot, self.arena.get(slot));
        self.backlogged.insert(l);
    }

    /// Advance this band through cycle `c`.
    pub(crate) fn step<S: Seam>(&mut self, c: u64, flows: &FlowTable, seam: &mut S) {
        // Monomorphized probe dispatch: the collector is moved out for
        // the duration of the step (a pointer move), selecting the
        // telemetry instantiation; without one the `NoProbe` step runs —
        // the exact pre-telemetry hot path after const folding.
        if let Some(mut t) = self.telemetry.take() {
            self.step_probed(c, flows, &mut *t, seam);
            self.telemetry = Some(t);
        } else {
            self.step_probed(c, flows, &mut NoProbe, seam);
        }
    }

    fn step_probed<P: Probe, S: Seam>(
        &mut self,
        c: u64,
        flows: &FlowTable,
        probe: &mut P,
        seam: &mut S,
    ) {
        let slot = (c % RING as u64) as usize;

        // 1. Credits landing this cycle (swapped out through the scratch
        // buffer so ring-slot capacity is reused, not reallocated).
        if !self.credit_ring[slot].is_empty() {
            let mut credits = std::mem::take(&mut self.credit_scratch);
            std::mem::swap(&mut credits, &mut self.credit_ring[slot]);
            for (sender, vc) in credits.drain(..) {
                let l = self.local(sender.node());
                match sender {
                    Sender::Nic(_) => self.nics[l].credit(vc),
                    Sender::RouterOutput(_, d) => self.bank.credit(l, d, vc),
                }
            }
            self.credit_scratch = credits;
        }

        // 2. Flit arrivals (scheduled for end of cycle c-1), all buffered
        // before stage 4 allocates: the order the router's `fresh` bit
        // relies on.
        if !self.arrivals[slot].is_empty() {
            let mut arrivals = std::mem::take(&mut self.arr_scratch);
            std::mem::swap(&mut arrivals, &mut self.arrivals[slot]);
            self.scheduled_arrivals -= arrivals.len();
            for (end, flit, leg) in arrivals.drain(..) {
                let l = self.local(end.node());
                match end {
                    Endpoint::Stop { router, in_dir } => {
                        if let Some(t) = self.tracer.as_mut() {
                            t.record(TraceRecord {
                                cycle: c.saturating_sub(1),
                                flow: flit.flow,
                                packet: self.arena.get(flit.pkt).id,
                                kind: TraceKind::BufferWrite { router, in_dir },
                            });
                        }
                        // The route is carried, not searched: a plan's legs
                        // are consecutive in the table and each ends where
                        // the next starts (`FlowTable::insert` asserts it),
                        // so the leg out of this stop is the one after the
                        // leg in.
                        let route = || {
                            let next = flows.rec(leg + 1);
                            debug_assert_eq!(next.sender.node(), router);
                            (next.out_dir, leg + 1)
                        };
                        self.bank
                            .receive(l, in_dir, flit, route, &mut self.counters);
                    }
                    Endpoint::Nic { node } => {
                        let arrival_cycle = c - 1;
                        let meta = *self.arena.get(flit.pkt);
                        if let Some(t) = self.tracer.as_mut() {
                            t.record(TraceRecord {
                                cycle: arrival_cycle,
                                flow: flit.flow,
                                packet: meta.id,
                                kind: TraceKind::Deliver {
                                    node,
                                    head: flit.is_head(),
                                    tail: flit.is_tail(),
                                },
                            });
                        }
                        let events =
                            self.nics[l].receive(flit, &meta, arrival_cycle, &mut self.counters);
                        self.rx_open += usize::from(flit.is_head());
                        self.rx_open -= usize::from(flit.is_tail());
                        if let Some(RxEvent::Head(flow, lat, srcq)) = events.head {
                            if meta.gen_cycle >= self.stats_from {
                                self.stats.record_head(flow, lat, srcq);
                            }
                        }
                        if let Some(RxEvent::Tail(flow, lat, vc)) = events.tail {
                            if meta.gen_cycle >= self.stats_from {
                                self.stats.record_tail(flow, lat);
                            }
                            // Credit for the freed NIC reception VC.
                            let path = self.nic_credit[l]
                                .unwrap_or_else(|| panic!("no sender tracks endpoint {end:?}"));
                            self.emit_credit(path, vc, c + 1, seam);
                            // Whole packet delivered: its metadata slot can
                            // be recycled.
                            self.arena.release(flit.pkt);
                        }
                    }
                }
            }
            self.arr_scratch = arrivals;
        }

        // 3. NIC injection at the NICs with a backlog, ascending. An
        // idle NIC would have returned `None` without touching any
        // state, so the event stream is bit-identical to a full sweep. A
        // NIC whose backlog empties leaves the set as it is visited.
        if !self.backlogged.is_empty() {
            for w in 0..self.backlogged.num_words() {
                for l in self.backlogged.word(w) {
                    if let Some(flit) =
                        self.nics[l].try_inject(&mut self.arena, c, &mut self.counters)
                    {
                        let leg = flows.first_leg(flit.flow);
                        debug_assert!(matches!(
                            flows.rec(leg).sender,
                            Sender::Nic(n) if usize::from(n.0 - self.start) == l
                        ));
                        self.launch(flows, leg, flit, c, probe, seam);
                    }
                    if self.nics[l].backlog() == 0 {
                        self.backlogged.remove(l);
                    }
                }
            }
        } else {
            debug_assert!(self.nics.iter().all(|n| n.backlog() == 0));
        }

        // 4. Switch allocation at the routers holding flits, ascending;
        // ST happens during c + 1. An empty router requests nothing and
        // its arbiters do not rotate, so not visiting it is
        // behavior-identical. Allocation touches only bank state;
        // departures and credit releases batch across routers into
        // reused scratch vectors and replay afterwards in the same
        // ascending-router order, so each ring receives an identical
        // push sequence. An empty set leaves no `fresh` bit to clear:
        // `allocate` clears them before a router leaves the set.
        if !self.bank.active().is_empty() {
            let mut deps = std::mem::take(&mut self.dep_scratch);
            let mut rels = std::mem::take(&mut self.rel_scratch);
            deps.clear();
            rels.clear();
            for w in 0..self.bank.active().num_words() {
                for r in self.bank.active().word(w) {
                    self.bank
                        .allocate(r, &mut self.counters, &mut deps, &mut rels, probe);
                }
            }
            for dep in deps.drain(..) {
                assert_eq!(
                    flows.rec(dep.leg).out_dir,
                    dep.out_dir,
                    "plan/grant mismatch on leg {}",
                    dep.leg
                );
                self.launch(flows, dep.leg, dep.flit, c + 1, probe, seam);
            }
            for rel in rels.drain(..) {
                // Tail departs the buffer during c+1; the credit crosses
                // the reverse mesh during c+2 and is usable at c+3.
                let r = usize::from(rel.router);
                let path = self.stop_credit[r * PORTS + rel.in_dir.index()].unwrap_or_else(|| {
                    panic!(
                        "no sender tracks endpoint {}/{}",
                        NodeId(self.start + rel.router),
                        rel.in_dir
                    )
                });
                self.emit_credit(path, rel.vc, c + 3, seam);
            }
            self.dep_scratch = deps;
            self.rel_scratch = rels;
        } else {
            debug_assert_eq!(self.bank.total_buffered(), 0);
        }

        // 5. Gating + cycle accounting (band-local port counts).
        self.counters.active_port_cycles += self.enabled_ports;
        self.counters.gated_port_cycles += self.total_ports - self.enabled_ports;
        self.counters.cycles += 1;
        if P::ENABLED {
            // Bands advance in lockstep, so every band's windows close
            // at the same cycles — the merge precondition.
            probe.on_cycle_end(&self.view(c + 1));
        }
    }

    /// Launch `flit` onto `leg`, with ST (and the whole link traversal)
    /// occurring during `st_cycle`.
    fn launch<P: Probe, S: Seam>(
        &mut self,
        flows: &FlowTable,
        leg: u32,
        flit: Flit,
        st_cycle: u64,
        probe: &mut P,
        seam: &mut S,
    ) {
        let rec = *flows.rec(leg);
        // Single-cycle link exclusivity (the preset invariant), enforced
        // through the seam's guard over precomputed dense link indices.
        for &li in flows.rec_links(&rec) {
            let li = li as usize;
            assert!(
                seam.try_mark(li, st_cycle),
                "two flits on {} in cycle {st_cycle}: preset violation",
                link_of(li)
            );
            self.link_flits[li] += 1;
        }
        self.counters.xbar_flit_traversals += u64::from(rec.crossbars);
        self.counters.link_flit_mm += rec.mm;
        if rec.cycles == 2 {
            self.counters.pipeline_reg_writes += 1;
        }
        if P::ENABLED {
            // Achieved bypass length: links this leg crosses in one cycle.
            probe.on_launch(rec.n_links);
        }
        if let Some(t) = self.tracer.as_mut() {
            t.record(TraceRecord {
                cycle: st_cycle,
                flow: flit.flow,
                packet: self.arena.get(flit.pkt).id,
                kind: TraceKind::Launch {
                    from: rec.sender.node(),
                    links: rec.n_links,
                    crossbars: rec.crossbars,
                    mm: rec.mm,
                },
            });
        }
        let arrival = st_cycle + u64::from(rec.cycles) - 1;
        let arena = &self.arena;
        let exported = seam.export(rec.end.node(), || BoundaryEvent::Arrival {
            end: rec.end,
            flit,
            leg,
            meta: *arena.get(flit.pkt),
            arrival,
        });
        if !exported {
            self.schedule_arrival(rec.end, flit, leg, arrival);
        } else if flit.is_tail() {
            // Last local reference: flits traverse in order, so every
            // earlier flit of this packet has already left.
            self.arena.release(flit.pkt);
        }
    }

    fn schedule_arrival(&mut self, end: Endpoint, flit: Flit, leg: u32, arrival: u64) {
        let slot = ((arrival + 1) % RING as u64) as usize;
        self.arrivals[slot].push((end, flit, leg));
        self.scheduled_arrivals += 1;
    }

    /// Schedule the credit for a freed VC back along `path` to its
    /// sender, usable at `apply`.
    fn emit_credit<S: Seam>(&mut self, path: CreditPath, vc: VcId, apply: u64, seam: &mut S) {
        self.counters.xbar_credit_traversals += u64::from(path.crossbars);
        self.counters.link_credit_mm += path.mm;
        if let Some(t) = self.tracer.as_mut() {
            t.record(TraceRecord {
                cycle: apply.saturating_sub(2),
                flow: crate::flit::FlowId(u32::MAX),
                packet: PacketId(u64::MAX),
                kind: TraceKind::Credit {
                    crossbars: path.crossbars as u8,
                    mm: path.mm,
                },
            });
        }
        let (sender, ring) = (path.sender, &mut self.credit_ring);
        if !seam.export(sender.node(), || BoundaryEvent::Credit {
            sender,
            vc,
            apply,
        }) {
            ring[(apply % RING as u64) as usize].push((sender, vc));
        }
    }

    /// Schedule the events another band sent here. Heads re-intern
    /// their metadata (preserving the injection timestamp); bodies and
    /// tails resolve the local slot through the transfer map.
    pub(crate) fn transfer_in(&mut self, events: &mut Vec<BoundaryEvent>) {
        for ev in events.drain(..) {
            match ev {
                BoundaryEvent::Credit { sender, vc, apply } => {
                    self.credit_ring[(apply % RING as u64) as usize].push((sender, vc));
                }
                BoundaryEvent::Arrival {
                    end,
                    mut flit,
                    leg,
                    meta,
                    arrival,
                } => {
                    flit.pkt = if flit.is_head() {
                        let slot = self.arena.intern_meta(meta);
                        if !flit.is_tail() {
                            let prev = self.xfer.insert(meta.id, slot);
                            debug_assert!(
                                prev.is_none(),
                                "packet {:?} re-entered a band mid-flight",
                                meta.id
                            );
                        }
                        slot
                    } else if flit.is_tail() {
                        self.xfer.remove(&meta.id).unwrap_or_else(|| {
                            panic!("tail of {:?} crossed a band without its head", meta.id)
                        })
                    } else {
                        *self.xfer.get(&meta.id).unwrap_or_else(|| {
                            panic!("body of {:?} crossed a band without its head", meta.id)
                        })
                    };
                    self.schedule_arrival(end, flit, leg, arrival);
                }
            }
        }
    }

    /// `true` when nothing is buffered, in flight, queued at a NIC or
    /// half-received — four counters, no walk. Credits still in flight
    /// carry no packet and do not count.
    pub(crate) fn is_quiescent(&self) -> bool {
        // The definition the two NIC counters summarize — every NIC
        // drained — walked in debug builds only.
        debug_assert_eq!(
            self.backlogged.is_empty() && self.rx_open == 0,
            self.nics.iter().all(Nic::is_drained),
            "backlogged/rx_open bookkeeping diverged from the NICs"
        );
        self.bank.total_buffered() == 0
            && self.scheduled_arrivals == 0
            && self.backlogged.is_empty()
            && self.rx_open == 0
    }
}

/// Check the pairing Section IV's free-VC queues rely on: every sender
/// feeds one endpoint, and every endpoint is fed by one sender. Both
/// sides index one dense slot per router port (`node * PORTS + dir`),
/// then one per NIC after the ports.
fn check_pairing(topo: Topology, flows: &FlowTable) {
    let nics = topo.len() * PORTS;
    let sender_slot = |s: Sender| match s {
        Sender::RouterOutput(r, d) => usize::from(r.0) * PORTS + d.index(),
        Sender::Nic(n) => nics + usize::from(n.0),
    };
    let endpoint_slot = |e: Endpoint| match e {
        Endpoint::Stop { router, in_dir } => usize::from(router.0) * PORTS + in_dir.index(),
        Endpoint::Nic { node } => nics + usize::from(node.0),
    };
    let mut by_sender: Vec<Option<Endpoint>> = vec![None; nics + topo.len()];
    let mut by_endpoint: Vec<Option<Sender>> = vec![None; nics + topo.len()];
    for leg in flows.iter().flat_map(|p| p.legs) {
        if let Some(prev) = by_sender[sender_slot(leg.sender)].replace(leg.end) {
            assert_eq!(
                prev, leg.end,
                "sender {:?} would track two endpoints",
                leg.sender
            );
        }
        if let Some(prev) = by_endpoint[endpoint_slot(leg.end)].replace(leg.sender) {
            assert_eq!(
                prev, leg.sender,
                "endpoint {:?} would be fed by two senders",
                leg.end
            );
        }
    }
}

/// How the bands of a [`Network`] are coupled.
#[derive(Debug)]
enum Coupling {
    /// One band stepped inline on the caller's thread.
    Solo(Solo),
    /// Two or more bands on scoped threads, coupled by a per-cycle
    /// boundary exchange.
    Banded(Box<Exchange>),
}

/// The simulated network: row bands of routers + NICs + in-flight
/// events, stepped by one cycle loop. [`Network::new`] builds the
/// single-band engine; [`Network::banded`] splits the same simulation
/// across threads with bit-identical results (the `shard` module).
#[derive(Debug)]
pub struct Network {
    cfg: SimConfig,
    flows: FlowTable,
    /// Ascending, contiguous, covering every node.
    bands: Vec<Band>,
    coupling: Coupling,
    cycle: u64,
}

impl Network {
    /// Build a single-band network for `flows` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration or the flow plans are inconsistent
    /// (see [`Network::banded`]).
    #[must_use]
    pub fn new(cfg: SimConfig, flows: FlowTable) -> Self {
        Network::banded(cfg, flows, 1)
    }

    /// Build a network split into `bands` horizontal row bands, each
    /// stepped by its own thread (band `s` of `k` owns rows
    /// `[s·h/k, (s+1)·h/k)`). Mesh and torus are handled uniformly: a
    /// torus wrap link is just another link whose endpoint owner is
    /// looked up per node. `bands` is clamped to `1..=min(height, 255)`
    /// — every band owns at least one row — so `0` and `1` both mean the
    /// single-band engine. Purely an execution strategy: results are
    /// bit-identical at every band count.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, or if the flow plans
    /// break the output-port free-VC-queue design of Section IV: one
    /// sender feeding two different endpoints, or two different senders
    /// feeding one endpoint.
    #[must_use]
    pub fn banded(cfg: SimConfig, flows: FlowTable, bands: usize) -> Self {
        cfg.validate();
        let topo = cfg.topology;
        let (w, h) = (topo.width() as usize, topo.height() as usize);
        let k = bands.clamp(1, h.min(MAX_BANDS));
        // Rows are contiguous node ranges, so band s is the node range
        // [row_lo * w, row_hi * w).
        let band_start = |s: usize| s * h / k * w;
        let mut bands: Vec<Band> = (0..k)
            .map(|s| Band::new(cfg, band_start(s), band_start(s + 1) - band_start(s)))
            .collect();

        // Preset-driven port enables + credit reverse-path tables, each
        // dispatched to the band owning the touched node. The
        // sender/endpoint pairing invariant is checked up front.
        check_pairing(topo, &flows);
        let owning = |bands: &mut [Band], n: NodeId| {
            let b = bands.partition_point(|b| b.start <= n.0) - 1;
            (b, bands[b].local(n))
        };
        for plan in flows.iter() {
            for leg in plan.legs {
                if let Sender::RouterOutput(r, d) = leg.sender {
                    let (b, l) = owning(&mut bands, r);
                    bands[b].bank.enable_output(l, d);
                }
                for link in plan.links(leg) {
                    let (b, l) = owning(&mut bands, link.from);
                    bands[b].bank.enable_output(l, link.dir);
                    let to = topo
                        .neighbor(link.from, link.dir)
                        .unwrap_or_else(|| panic!("{link} leaves the fabric"));
                    let (b, l) = owning(&mut bands, to);
                    bands[b].bank.enable_input(l, link.dir.opposite());
                }
                let path = Some(CreditPath {
                    sender: leg.sender,
                    crossbars: u32::from(leg.crossbars),
                    mm: leg.mm,
                });
                let (b, l) = owning(&mut bands, leg.end.node());
                match leg.end {
                    Endpoint::Stop { in_dir, .. } => {
                        bands[b].bank.enable_input(l, in_dir);
                        bands[b].stop_credit[l * PORTS + in_dir.index()] = path;
                    }
                    Endpoint::Nic { .. } => bands[b].nic_credit[l] = path,
                }
            }
        }
        for band in &mut bands {
            band.enabled_ports = (0..band.bank.len())
                .map(|r| band.bank.enabled_ports(r) as u64)
                .sum();
        }

        let coupling = if k == 1 {
            Coupling::Solo(Solo::new(topo.len() * PORTS))
        } else {
            Coupling::Banded(Box::new(Exchange::new(&bands, topo.len())))
        };
        Network {
            cfg,
            flows,
            bands,
            coupling,
            cycle: 0,
        }
    }

    /// Number of row bands (1 = stepped inline, no threads).
    #[must_use]
    pub fn bands(&self) -> usize {
        self.bands.len()
    }

    /// The boundary exchange, when there is more than one band.
    fn exchange(&self) -> Option<&Exchange> {
        match &self.coupling {
            Coupling::Solo(_) => None,
            Coupling::Banded(x) => Some(x),
        }
    }

    /// Record micro-architectural events for journey logs, VCD dumps and
    /// counter cross-validation. Every band records its own events, so
    /// `capacity` applies per band.
    pub fn enable_tracing(&mut self, capacity: usize) {
        for band in &mut self.bands {
            band.tracer = Some(Tracer::with_capacity(capacity));
        }
    }

    /// The trace, if tracing is enabled. A single band's tracer is
    /// borrowed as recorded; several bands' tracers are merged on read
    /// (see [`Tracer::merge`]), so [`Tracer::dropped`] sums over bands.
    #[must_use]
    pub fn tracer(&self) -> Option<Cow<'_, Tracer>> {
        let first = self.bands[0].tracer.as_ref()?;
        Some(if self.bands.len() == 1 {
            Cow::Borrowed(first)
        } else {
            let parts = self.bands.iter().filter_map(|b| b.tracer.as_ref());
            Cow::Owned(Tracer::merge(parts))
        })
    }

    /// Start collecting windowed telemetry (see [`crate::telemetry`]):
    /// one full-fabric-sized collector per band, all windowed from the
    /// current cycle, with per-link deltas measured from the current
    /// cumulative counts. Probe events carry global indices and each
    /// fires in exactly one band, so the merged series is the same at
    /// every band count. Replaces any collector already attached.
    pub fn set_telemetry(&mut self, cfg: TelemetryConfig) {
        let n = self.cfg.topology.len();
        for band in &mut self.bands {
            let mut collector = Box::new(MetricsCollector::attach(cfg, n, n * PORTS, self.cycle));
            collector.seed_links(&band.link_flits);
            band.telemetry = Some(collector);
        }
    }

    /// Detach the telemetry collector(s), flushing the trailing partial
    /// window. `None` if telemetry was never enabled.
    pub fn take_telemetry(&mut self) -> Option<TelemetrySeries> {
        let cycle = self.cycle;
        let mut series: Vec<TelemetrySeries> = self
            .bands
            .iter_mut()
            .filter_map(|band| Some(band.telemetry.take()?.finish(&band.view(cycle))))
            .collect();
        match series.len() {
            0 => None,
            1 => series.pop(),
            _ => Some(TelemetrySeries::merge(&series)),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        self.cfg
    }

    /// The topology being simulated.
    #[must_use]
    pub fn topology(&self) -> Topology {
        self.cfg.topology
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
        self.exchange()
            .map_or(&self.bands[0].counters, |x| &x.counters)
    }

    /// Latency statistics.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        self.exchange().map_or(&self.bands[0].stats, |x| &x.stats)
    }

    /// Only packets *generated* at or after `cycle` contribute to
    /// latency statistics (warm-up exclusion).
    pub fn set_stats_from(&mut self, cycle: u64) {
        for band in &mut self.bands {
            band.stats_from = cycle;
        }
    }

    /// Zero the activity counters (e.g. at the end of warm-up).
    pub fn reset_counters(&mut self) {
        for band in &mut self.bands {
            band.counters = ActivityCounters::new();
            band.link_flits.fill(0);
            if let Some(t) = band.telemetry.as_mut() {
                t.seed_links(&band.link_flits);
            }
        }
        if let Coupling::Banded(x) = &mut self.coupling {
            x.refresh_merged(&self.bands);
        }
    }

    /// Flits carried per link since the last counter reset — the
    /// utilization heatmap's raw data. A borrowing iterator over the
    /// engine's dense per-link array (no per-call allocation); links
    /// that carried nothing are skipped.
    pub fn link_flit_counts(&self) -> impl Iterator<Item = (LinkId, u64)> + '_ {
        self.exchange()
            .map_or(&self.bands[0].link_flits, |x| &x.link_flits)
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| (link_of(i), *n))
    }

    /// Queue a generated packet at the source NIC of its flow's plan.
    ///
    /// # Panics
    ///
    /// Panics if the packet's flow is unknown.
    pub fn offer(&mut self, packet: Packet) {
        let src = self.flows.source(packet.flow);
        let b = self.exchange().map_or(0, |x| x.owner(src));
        self.bands[b].offer(packet, src);
    }

    /// Advance one cycle. With several bands this is a one-cycle
    /// threaded session; prefer [`Network::run_with`] or
    /// [`Network::drain`], which amortize the thread spawn over many
    /// cycles.
    pub fn step(&mut self) {
        self.run(None, Goal::Fixed(1));
    }

    /// Run `cycles` cycles, pulling packets from `traffic` each cycle.
    /// Traffic generation stays on the calling thread, so one RNG
    /// stream is consumed in the same order at every band count.
    pub fn run_with(&mut self, traffic: &mut dyn TrafficSource, cycles: u64) {
        self.run(Some(traffic), Goal::Fixed(cycles));
    }

    /// `true` when no packet is queued, buffered, or in flight anywhere.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.bands.iter().all(Band::is_quiescent)
    }

    /// Step until quiescent, up to `max_cycles`. Returns `true` if the
    /// network drained (the precondition for reconfiguration, Section V).
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        self.run(None, Goal::Drain(max_cycles));
        self.is_quiescent()
    }

    /// Injection backlog across all NICs.
    #[must_use]
    pub fn total_backlog(&self) -> usize {
        self.bands
            .iter()
            .flat_map(|band| &band.nics)
            .map(Nic::backlog)
            .sum()
    }

    /// The one driver behind `step`/`run_with`/`drain`: a solo band is
    /// stepped inline; several bands run as a threaded session.
    fn run(&mut self, mut traffic: Option<&mut dyn TrafficSource>, goal: Goal) {
        let seam = match &mut self.coupling {
            Coupling::Solo(seam) => seam,
            Coupling::Banded(x) => {
                let (bands, cycle) = (&mut self.bands[..], &mut self.cycle);
                return x.run_session(bands, &self.flows, cycle, traffic, goal);
            }
        };
        let band = &mut self.bands[0];
        let mut ran = 0;
        loop {
            let done = match goal {
                Goal::Fixed(n) => ran == n,
                Goal::Drain(max) => ran == max || band.is_quiescent(),
            };
            if done {
                return;
            }
            if let Some(t) = traffic.as_deref_mut() {
                for p in t.generate(self.cycle) {
                    let src = self.flows.source(p.flow);
                    band.offer(p, src);
                }
            }
            band.step(self.cycle, &self.flows, seam);
            self.cycle += 1;
            ran += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlowId, PacketId};
    use crate::forward::{FlowPlan, Segment};
    use crate::route::SourceRoute;
    use crate::traffic::ScriptedTraffic;

    fn one_flow_net(src: u16, dst: u16) -> (Network, FlowId) {
        let cfg = SimConfig::paper_4x4();
        let flow = FlowId(0);
        let route = SourceRoute::xy(cfg.topology, NodeId(src), NodeId(dst)).unwrap();
        let table = FlowTable::mesh_baseline(cfg.topology, &[(flow, route)]);
        (Network::new(cfg, table), flow)
    }

    fn packet(flow: FlowId, gen: u64, n: u8) -> Packet {
        Packet {
            id: PacketId(gen),
            flow,
            gen_cycle: gen,
            num_flits: n,
        }
    }

    // Each packed-state limit is refused by `validate` itself (nothing
    // else is called), by field name and limit.
    #[test]
    #[should_panic(expected = "SimConfig.vcs_per_port = 13: must be in 1..=12")]
    fn validate_refuses_13_vcs() {
        SimConfig {
            vcs_per_port: 13,
            ..SimConfig::paper_4x4()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "SimConfig.vc_depth = 256: must be at most 255")]
    fn validate_refuses_depth_256() {
        SimConfig {
            vc_depth: 256,
            ..SimConfig::paper_4x4()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "SimConfig.flits_per_packet = 11: must be in 1..=vc_depth (10)")]
    fn validate_refuses_a_packet_longer_than_a_vc() {
        SimConfig {
            flits_per_packet: 11,
            ..SimConfig::paper_4x4()
        }
        .validate();
    }

    #[test]
    fn validate_accepts_the_limits_themselves() {
        SimConfig {
            vcs_per_port: 12,
            vc_depth: 255,
            flits_per_packet: 255,
            ..SimConfig::paper_4x4()
        }
        .validate();
    }

    /// `Network::banded` reaches `validate` before it builds anything.
    #[test]
    #[should_panic(expected = "SimConfig.vcs_per_port = 13")]
    fn construction_refuses_an_oversized_config_at_the_front_door() {
        let cfg = SimConfig {
            vcs_per_port: 13,
            ..SimConfig::paper_4x4()
        };
        let _ = Network::new(cfg, FlowTable::mesh_baseline(cfg.topology, &[]));
    }

    /// Flows whose one leg flies NIC to NIC along the router `paths`.
    fn nic_to_nic(paths: &[&[u16]]) -> Network {
        let cfg = SimConfig::paper_4x4();
        let mut table = FlowTable::new();
        for (f, path) in paths.iter().enumerate() {
            let nodes: Vec<NodeId> = path.iter().map(|&n| NodeId(n)).collect();
            let route = SourceRoute::from_router_path(cfg.topology, &nodes);
            let leg = Segment {
                sender: Sender::Nic(nodes[0]),
                out_dir: route.outputs()[0],
                links: route.links(cfg.topology),
                end: Endpoint::Nic {
                    node: nodes[nodes.len() - 1],
                },
                cycles: 1,
            };
            let flow = FlowId(f as u32);
            let plan = FlowPlan {
                flow,
                route,
                legs: vec![leg],
            };
            table.insert(cfg.topology, plan);
        }
        Network::new(cfg, table)
    }

    #[test]
    #[should_panic(expected = "sender Nic(NodeId(0)) would track two endpoints")]
    fn construction_refuses_a_sender_feeding_two_endpoints() {
        let _ = nic_to_nic(&[&[0, 1], &[0, 4]]);
    }

    #[test]
    #[should_panic(expected = "endpoint Nic { node: NodeId(2) } would be fed by two senders")]
    fn construction_refuses_an_endpoint_fed_by_two_senders() {
        let _ = nic_to_nic(&[&[0, 1, 2], &[1, 2]]);
    }

    #[test]
    fn mesh_zero_load_latency_matches_formula() {
        // 1 hop: 8 cycles; 2 hops: 12; 6 hops: 28 (= 4H + 4).
        for (src, dst, hops) in [(9u16, 10u16, 1u64), (0, 2, 2), (0, 15, 6)] {
            let (mut net, flow) = one_flow_net(src, dst);
            net.offer(packet(flow, 0, 8));
            for _ in 0..200 {
                net.step();
            }
            let s = net.stats().flow(flow).expect("packet delivered");
            assert_eq!(s.packets, 1);
            assert_eq!(s.avg_head_latency(), (4 * hops + 4) as f64, "{src}->{dst}");
            // Tail trails the head by 7 flit cycles at zero load.
            assert_eq!(s.avg_packet_latency(), (4 * hops + 4 + 7) as f64);
            assert!(net.is_quiescent());
        }
    }

    #[test]
    fn zero_load_matches_plan_prediction() {
        let (net, flow) = one_flow_net(3, 12);
        let plan = net.flows().plan(flow);
        let (mut net2, _) = one_flow_net(3, 12);
        net2.offer(packet(flow, 0, 8));
        for _ in 0..200 {
            net2.step();
        }
        assert_eq!(
            net2.stats()
                .flow(flow)
                .expect("delivered")
                .avg_head_latency(),
            plan.zero_load_latency() as f64
        );
    }

    #[test]
    fn back_to_back_packets_share_the_network() {
        let (mut net, flow) = one_flow_net(0, 3);
        let mut traffic = ScriptedTraffic::new(vec![(0, flow), (1, flow), (2, flow)], 8);
        net.run_with(&mut traffic, 300);
        assert_eq!(net.counters().packets_delivered, 3);
        assert_eq!(net.counters().packets_injected, 3);
        assert!(net.is_quiescent());
        // Later packets waited (VC reuse + switch hold) but all arrived.
        let s = net.stats().flow(flow).expect("delivered");
        assert_eq!(s.packets, 3);
        assert!(s.head_latency_max >= s.head_latency_min);
    }

    #[test]
    fn flit_conservation_under_load() {
        let (mut net, flow) = one_flow_net(0, 5);
        for i in 0..20 {
            net.offer(packet(flow, i, 8));
        }
        for _ in 0..2000 {
            net.step();
        }
        assert_eq!(net.counters().packets_injected, 20);
        assert_eq!(net.counters().packets_delivered, 20);
        assert_eq!(net.counters().flits_delivered, 160);
        assert!(net.is_quiescent());
        assert_eq!(net.counters().packets_in_flight(), 0);
    }

    #[test]
    fn drain_detects_quiescence() {
        let (mut net, flow) = one_flow_net(1, 14);
        assert!(net.is_quiescent());
        net.offer(packet(flow, 0, 8));
        assert!(!net.is_quiescent());
        assert!(net.drain(500));
        assert!(net.is_quiescent());
    }

    #[test]
    fn counters_track_buffer_and_crossbar_activity() {
        let (mut net, flow) = one_flow_net(0, 2); // 2 hops
        net.offer(packet(flow, 0, 8));
        net.drain(500);
        let c = net.counters();
        // 8 flits × 3 stops (routers 0, 1, 2) buffered once each.
        assert_eq!(c.buffer_writes, 24);
        assert_eq!(c.buffer_reads, 24);
        // Crossbars: 2 link legs (1 each) + ejection (1) per flit.
        assert_eq!(c.xbar_flit_traversals, 24);
        // Pipeline registers: one per flit per separate-LT leg.
        assert_eq!(c.pipeline_reg_writes, 16);
        // Link mm: 2 mm per flit.
        assert!((c.link_flit_mm - 16.0).abs() < 1e-9);
        // Credits: 3 VC frees (2 router stops + NIC), each crossing back.
        assert!(c.xbar_credit_traversals > 0);
    }

    #[test]
    fn stats_window_excludes_warmup_packets() {
        let (mut net, flow) = one_flow_net(0, 1);
        net.set_stats_from(100);
        net.offer(packet(flow, 0, 8)); // warm-up packet
        net.drain(200);
        assert_eq!(net.stats().packets(), 0);
        // Advance past the measurement boundary before the late packet.
        while net.cycle() < 100 {
            net.step();
        }
        let late = packet(flow, net.cycle(), 8);
        net.offer(late);
        net.drain(200);
        assert_eq!(net.stats().packets(), 1);
    }
}
