//! The reference engine: the paper's router pipeline written to be read,
//! not to be fast.
//!
//! [`RefNetwork`] simulates exactly what `smart_sim::Network` simulates —
//! the same flow plans, the same cycle, bit for bit the same statistics,
//! counters and per-link counts — with none of the engine's machinery:
//! no packet arena, no dense leg table, no active sets, no bands, no
//! packed router headers, no tracer. Everything is a whole value in a plain
//! collection, so each rule of the paper is one short passage below.
//!
//! # What a flow plan says
//!
//! A flow travels a list of *legs* ([`Segment`]s). Each leg starts at a
//! *sender* — the source NIC, or an output port of a stop router — and
//! crosses zero or more links in one `ST(+LT)` traversal, landing in an
//! input VC of the next stop router or in the destination NIC. The Mesh
//! baseline stops at every router and takes a second cycle for the link;
//! a SMART leg crosses up to `HPC_max` links, bypassed routers' preset
//! crossbars included, in one cycle. The reference never looks at the
//! route itself: a flit follows its plan leg by leg, so XY, torus wrap
//! legs or any other route set are all the same to it.
//!
//! # The per-cycle schedule
//!
//! In cycle `c`:
//!
//! 1. **Credits.** A freed VC whose credit was due at `c` rejoins its
//!    sender's free-VC queue.
//! 2. **BW.** Flits that arrived at the end of `c − 1` are written into
//!    their input VC (stamped `c − 1`), or delivered to the NIC.
//! 3. **Injection.** Each NIC sends one flit: it continues the packet in
//!    progress, or starts the next queued one if its sender has a free VC
//!    at the injection leg's endpoint. The flit crosses leg 0 during `c`.
//! 4. **SA.** At every router, each VC whose front flit was written at
//!    least two cycles ago asks for the output of the leg it leaves on.
//!    An output held by a packet streams that packet's next flit; a free
//!    output with a free VC at its endpoint grants one head round-robin.
//!    An input port sends at most one flit, held streams first. Granted
//!    flits cross their leg (**ST**, and for SMART the whole multi-hop
//!    link stretch) during `c + 1`. A granted head is also SMART's
//!    setup request (**SSR**): the bypassed routers' crossbars are preset
//!    per application, so the grant alone claims the whole stretch, and
//!    a head that loses stops prematurely in its buffer.
//! 5. **Accounting.** Clock-gated and active port-cycles, the cycle count.
//!
//! # Flow control (Section IV)
//!
//! The sender of a leg owns the free-VC queue of the leg's endpoint —
//! for a SMART leg, an input port several hops away. A head takes a free
//! VC when it is granted (or, at a NIC, when its packet starts); every
//! flit of the packet lands in that VC. When a tail leaves a VC, the VC's
//! credit travels back along the leg it arrived on and is usable by that
//! leg's sender at `c + 3` (a router; the tail departs during `c + 1`,
//! the credit crosses during `c + 2`) or `c + 1` (a NIC, freed on
//! delivery). No two flits may cross one link in one cycle: the
//! reference panics, like the engine, if a plan set breaks that.

use smart_sim::arbiter::RoundRobin;
use smart_sim::forward::{Endpoint, FlowTable, Plan, Segment, Sender};
use smart_sim::topology::{Direction, LinkId, NodeId, PORTS};
use smart_sim::{ActivityCounters, FlowId, Packet, SimConfig, SimStats, TrafficSource};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// A stored plan's legs decoded back into [`Segment`]s, from each leg
/// record's sender, direction, links, endpoint and cycles. The record's
/// cached crossbar and millimetre charges are not read: the reference
/// recomputes them through [`Segment::crossbars`] and
/// [`Segment::link_mm`].
#[must_use]
pub fn segments(plan: Plan<'_>) -> Vec<Segment> {
    (plan.legs.iter())
        .map(|l| Segment {
            sender: l.sender,
            out_dir: l.out_dir,
            links: plan.links(l).collect(),
            end: l.end,
            cycles: l.cycles,
        })
        .collect()
}

/// One flit, whole: its packet, its place in it, the VC it occupies at
/// the end of its leg and which leg that is.
#[derive(Debug, Clone)]
struct Flit {
    packet: Packet,
    /// Cycle the packet's head left its NIC.
    inject: u64,
    /// Position in the packet (0 = head).
    seq: u8,
    /// VC at the endpoint of `leg`.
    vc: usize,
    /// The leg of its flow's plan the flit is crossing, or — while
    /// buffered at a stop — the leg it arrived on.
    leg: usize,
}

impl Flit {
    fn is_head(&self) -> bool {
        self.seq == 0
    }

    fn is_tail(&self) -> bool {
        self.seq + 1 == self.packet.num_flits
    }
}

/// A NIC or a router output port: the free-VC queue of its leg's
/// endpoint, the arbiter over the input VCs that may request it, and the
/// packet holding it until its tail passes.
#[derive(Debug)]
struct SenderState {
    free: VecDeque<usize>,
    arb: RoundRobin,
    /// `(input VC index within the router, endpoint VC)`.
    held: Option<(usize, usize)>,
}

/// A network interface: packets waiting to be sent, and the next flit of
/// the one being sent.
#[derive(Debug, Default)]
struct Interface {
    queue: VecDeque<Packet>,
    sending: Option<Flit>,
}

/// The reference network. Built, driven and read like
/// `smart_sim::Network` (`offer` / `step` / `run_with` / `drain`, then
/// `stats` / `counters` / `link_flit_counts`), so the two can be run
/// side by side on one traffic stream.
#[derive(Debug)]
pub struct RefNetwork {
    cfg: SimConfig,
    /// Every flow's legs, decoded once from the table.
    flows: HashMap<FlowId, Vec<Segment>>,
    cycle: u64,
    /// Input VCs, `(router * 5 + port) * vcs + vc`: buffered flits with
    /// the cycle each was written, front first.
    vcs: Vec<VecDeque<(Flit, u64)>>,
    senders: HashMap<Sender, SenderState>,
    nics: Vec<Interface>,
    /// Reception VCs holding a packet whose tail has not arrived.
    rx_open: BTreeSet<(NodeId, usize)>,
    /// Flits in flight, keyed by the cycle whose step applies them.
    arrivals: BTreeMap<u64, Vec<(Endpoint, Flit)>>,
    /// Credits in flight, keyed by the cycle they become usable.
    credits: BTreeMap<u64, Vec<(Sender, usize)>>,
    /// Links claimed for an `ST` cycle: the single-cycle exclusivity set.
    claimed: HashSet<(LinkId, u64)>,
    link_flits: BTreeMap<LinkId, u64>,
    /// Clock-enabled router ports (inputs + outputs) under the presets.
    enabled_ports: u64,
    counters: ActivityCounters,
    stats: SimStats,
}

impl RefNetwork {
    /// A reference network for `flows` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid or a leg leaves the fabric.
    #[must_use]
    pub fn new(cfg: SimConfig, table: FlowTable) -> Self {
        cfg.validate();
        let flows: HashMap<FlowId, Vec<Segment>> =
            table.iter().map(|p| (p.flow, segments(p))).collect();
        let (topo, nv) = (cfg.topology, cfg.vcs_per_port);
        let mut senders = HashMap::new();
        // (router, is output, port) for every port some flow uses.
        let mut ports = BTreeSet::new();
        for leg in flows.values().flatten() {
            senders.entry(leg.sender).or_insert_with(|| SenderState {
                free: (0..nv).collect(),
                arb: RoundRobin::new(PORTS * nv),
                held: None,
            });
            if let Sender::RouterOutput(r, d) = leg.sender {
                ports.insert((r, true, d));
            }
            for link in &leg.links {
                let to = topo
                    .neighbor(link.from, link.dir)
                    .unwrap_or_else(|| panic!("{link} leaves the fabric"));
                ports.insert((link.from, true, link.dir));
                ports.insert((to, false, link.dir.opposite()));
            }
            if let Endpoint::Stop { router, in_dir } = leg.end {
                ports.insert((router, false, in_dir));
            }
        }
        let n = topo.len();
        RefNetwork {
            cfg,
            flows,
            cycle: 0,
            vcs: vec![VecDeque::new(); n * PORTS * nv],
            senders,
            nics: (0..n).map(|_| Interface::default()).collect(),
            rx_open: BTreeSet::new(),
            arrivals: BTreeMap::new(),
            credits: BTreeMap::new(),
            claimed: HashSet::new(),
            link_flits: BTreeMap::new(),
            enabled_ports: ports.len() as u64,
            counters: ActivityCounters::new(),
            stats: SimStats::new(),
        }
    }

    /// Cycles fully processed.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Activity counters since construction.
    #[must_use]
    pub fn counters(&self) -> &ActivityCounters {
        &self.counters
    }

    /// Latency statistics since construction.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Flits carried per link, links that carried none left out.
    pub fn link_flit_counts(&self) -> impl Iterator<Item = (LinkId, u64)> + '_ {
        self.link_flits.iter().map(|(l, n)| (*l, *n))
    }

    /// Queue a generated packet at its source NIC: the sender of its
    /// flow's first leg.
    pub fn offer(&mut self, packet: Packet) {
        let src = self.flows[&packet.flow][0].sender.node();
        self.nics[usize::from(src.0)].queue.push_back(packet);
    }

    /// Run `cycles` cycles, offering what `traffic` generates each cycle.
    pub fn run_with(&mut self, traffic: &mut dyn TrafficSource, cycles: u64) {
        for _ in 0..cycles {
            for p in traffic.generate(self.cycle) {
                self.offer(p);
            }
            self.step();
        }
    }

    /// Step until quiescent, at most `max_cycles`; `true` if drained.
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.is_quiescent() {
                break;
            }
            self.step();
        }
        self.is_quiescent()
    }

    /// `true` when no flit is buffered, in flight, queued at a NIC or
    /// half-received. Credits in flight carry no packet and do not count.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.vcs.iter().all(VecDeque::is_empty)
            && self.arrivals.is_empty()
            && self
                .nics
                .iter()
                .all(|nic| nic.queue.is_empty() && nic.sending.is_none())
            && self.rx_open.is_empty()
    }

    /// Advance one cycle.
    pub fn step(&mut self) {
        let c = self.cycle;
        self.claimed.retain(|&(_, st)| st >= c);

        // 1. Credits usable from this cycle on.
        for (sender, vc) in self.credits.remove(&c).unwrap_or_default() {
            self.sender(sender).free.push_back(vc);
        }

        // 2. Flits that arrived at the end of c - 1.
        for (end, flit) in self.arrivals.remove(&c).unwrap_or_default() {
            match end {
                Endpoint::Stop { router, in_dir } => {
                    let qi = self.vc_index(router, in_dir, flit.vc);
                    let q = &mut self.vcs[qi];
                    assert!(
                        q.len() < self.cfg.vc_depth,
                        "{router}: overflow at {in_dir}"
                    );
                    q.push_back((flit, c - 1));
                    self.counters.buffer_writes += 1;
                }
                Endpoint::Nic { node } => self.deliver(node, flit, c - 1),
            }
        }

        // 3. One flit per NIC, crossing the injection leg during c.
        for node in 0..self.nics.len() {
            let nic = &mut self.nics[node];
            if nic.sending.is_none() && !nic.queue.is_empty() {
                let sender = self.senders.get_mut(&Sender::Nic(NodeId(node as u16)));
                let Some(vc) = sender.and_then(|s| s.free.pop_front()) else {
                    continue; // the endpoint has no free VC yet
                };
                let packet = nic.queue.pop_front().expect("checked non-empty");
                self.counters.packets_injected += 1;
                nic.sending = Some(Flit {
                    packet,
                    inject: c,
                    seq: 0,
                    vc,
                    leg: 0,
                });
            }
            let Some(flit) = nic.sending.take() else {
                continue;
            };
            if !flit.is_tail() {
                nic.sending = Some(Flit {
                    seq: flit.seq + 1,
                    ..flit.clone()
                });
            }
            self.launch(flit, c);
        }

        // 4. Switch allocation at every router; ST during c + 1.
        for r in 0..self.nics.len() {
            self.allocate(NodeId(r as u16), c);
        }

        // 5. Accounting.
        let total_ports = (self.nics.len() * 2 * PORTS) as u64;
        self.counters.active_port_cycles += self.enabled_ports;
        self.counters.gated_port_cycles += total_ports - self.enabled_ports;
        self.counters.cycles += 1;
        self.cycle += 1;
    }

    fn sender(&mut self, s: Sender) -> &mut SenderState {
        self.senders
            .get_mut(&s)
            .unwrap_or_else(|| panic!("{s:?} sends on no leg"))
    }

    fn vc_index(&self, router: NodeId, port: Direction, vc: usize) -> usize {
        (usize::from(router.0) * PORTS + port.index()) * self.cfg.vcs_per_port + vc
    }

    /// The leg `flit` leaves its stop router on.
    fn next_leg(&self, flit: &Flit) -> &Segment {
        &self.flows[&flit.packet.flow][flit.leg + 1]
    }

    /// SA for `router` at cycle `c`, and ST of the winners at `c + 1`.
    fn allocate(&mut self, router: NodeId, c: u64) {
        let nv = self.cfg.vcs_per_port;
        let base = self.vc_index(router, Direction::from_index(0), 0);
        let inputs = &self.vcs[base..base + PORTS * nv];
        if inputs.iter().all(VecDeque::is_empty) {
            return; // nothing buffered asks for anything
        }
        // Which input VCs ask for which output.
        let mut wants = vec![vec![false; PORTS * nv]; PORTS];
        for (pv, q) in inputs.iter().enumerate() {
            let Some((flit, written)) = q.front() else {
                continue;
            };
            if written + 2 > c {
                continue; // BW during written + 1, SA from written + 2
            }
            let out = self.next_leg(flit).out_dir;
            let holder = self.senders[&Sender::RouterOutput(router, out)].held;
            assert!(
                flit.is_head() || holder.is_some_and(|(h, _)| h == pv),
                "{router}: a body flit at the front of a VC holds no output"
            );
            wants[out.index()][pv] = true;
        }
        // Each output picks one input VC: its holder, or a head by
        // round robin if the endpoint has a free VC.
        let mut winners = Vec::new();
        for (o, want) in wants.iter().enumerate() {
            if !want.contains(&true) {
                continue;
            }
            let out = self.sender(Sender::RouterOutput(router, Direction::from_index(o)));
            match out.held {
                Some((pv, _)) if want[pv] => winners.push((o, pv, false)),
                Some(_) => {}
                None if out.free.is_empty() => {}
                None => {
                    let g = out.arb.grant(want).expect("someone asked");
                    winners.push((o, g, true));
                    self.counters.sa_requests += want.iter().filter(|w| **w).count() as u64;
                }
            }
        }
        // One flit per input port per cycle; held streams go first.
        let mut taken = [false; PORTS];
        let mut lost = Vec::new();
        for new_head in [false, true] {
            for &w in winners.iter().filter(|w| w.2 == new_head) {
                if std::mem::replace(&mut taken[w.1 / nv], true) {
                    lost.push(w);
                }
            }
        }
        winners.retain(|w| !lost.contains(w));
        for (o, pv, new_head) in winners {
            let (mut flit, _) = self.vcs[base + pv].pop_front().expect("winner has a flit");
            self.counters.buffer_reads += 1;
            self.counters.sa_grants += 1;
            let out = self.sender(Sender::RouterOutput(router, Direction::from_index(o)));
            if new_head {
                let vc = out.free.pop_front().expect("checked non-empty");
                out.held = Some((pv, vc));
            }
            let (_, vc) = out.held.expect("granted flits hold their output");
            if flit.is_tail() {
                out.held = None;
                // The freed input VC goes back along the leg that filled it.
                let leg = self.flows[&flit.packet.flow][flit.leg].clone();
                self.credit(&leg, pv % nv, c + 3);
            }
            flit.leg += 1;
            flit.vc = vc;
            self.launch(flit, c + 1);
        }
    }

    /// `flit` crosses its leg during `st`: claim and count every link,
    /// charge the crossbars, schedule the arrival at the leg's end.
    fn launch(&mut self, flit: Flit, st: u64) {
        let leg = &self.flows[&flit.packet.flow][flit.leg];
        for &link in &leg.links {
            assert!(
                self.claimed.insert((link, st)),
                "two flits on {link} in cycle {st}: preset violation"
            );
            *self.link_flits.entry(link).or_default() += 1;
        }
        self.counters.xbar_flit_traversals += u64::from(leg.crossbars());
        self.counters.link_flit_mm += leg.link_mm();
        if leg.cycles == 2 {
            self.counters.pipeline_reg_writes += 1;
        }
        // Arrives at the end of st + cycles - 1; applied the cycle after.
        let applied = st + u64::from(leg.cycles);
        let end = leg.end;
        self.arrivals.entry(applied).or_default().push((end, flit));
    }

    /// Send the credit for VC `vc` at `leg`'s endpoint back to the leg's
    /// sender, usable at `usable`.
    fn credit(&mut self, leg: &Segment, vc: usize, usable: u64) {
        self.counters.xbar_credit_traversals += u64::from(leg.crossbars());
        self.counters.link_credit_mm += leg.link_mm();
        self.credits
            .entry(usable)
            .or_default()
            .push((leg.sender, vc));
    }

    /// `flit` reaches its destination NIC at the end of cycle `at`.
    fn deliver(&mut self, node: NodeId, flit: Flit, at: u64) {
        self.counters.flits_delivered += 1;
        let flow = flit.packet.flow;
        if flit.is_head() {
            assert!(self.rx_open.insert((node, flit.vc)), "{node}: rx VC busy");
            let queued = flit.inject - flit.packet.gen_cycle;
            self.stats.record_head(flow, at - flit.inject + 1, queued);
        }
        if flit.is_tail() {
            assert!(self.rx_open.remove(&(node, flit.vc)), "{node}: rx VC idle");
            self.counters.packets_delivered += 1;
            self.stats.record_tail(flow, at - flit.inject + 1);
            let leg = self.flows[&flow][flit.leg].clone();
            self.credit(&leg, flit.vc, at + 2);
        }
    }
}
