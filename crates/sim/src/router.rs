//! The router: input-port VCs, switch allocation with
//! virtual-cut-through switch hold, and preset-aware output ports.
//!
//! The pipeline is the paper's 3-stage organization (Fig 6):
//!
//! * **BW** — a flit arriving at the end of cycle *a* is buffer-written
//!   during *a+1*;
//! * **SA** — it may arbitrate from cycle *a+2*;
//! * **ST(+LT)** — on a grant at cycle *g* it traverses the crossbar (and,
//!   for SMART, the entire multi-hop link segment) during *g+1*.
//!
//! Virtual cut-through: a head flit's grant captures the output port and
//! one free VC at the *endpoint of its leg* (which for SMART may be a
//! router several hops away); body flits stream behind it; the tail
//! releases the hold and triggers the credit that frees this router's
//! input VC back at the upstream sender.
//!
//! # A VC holds a packet, not its flits
//!
//! Under virtual cut-through a VC is occupied by exactly one packet from
//! the arrival of its head to the departure of its tail — which is why
//! Table II's body and tail flits carry a 4-bit header (type + VC) and
//! nothing else: everything more there is to know about a buffered flit
//! is a fact of the VC it sits in. The bank stores it that way. One
//! packed record per input VC holds the occupying packet's arena slot,
//! flow and length, the sequence number of the flit at the front, and
//! the packet's way out of this router — the output it requests and the
//! leg that output starts — all written **once**, when the head is
//! buffer-written. `receive` of a body or tail writes no flit anywhere:
//! it checks that the flit is the next one of the occupying packet and
//! bumps a count. `allocate` rebuilds a departing flit from the
//! record.
//!
//! The one per-flit fact is *when* each flit was buffer-written. A
//! packet's flits need not arrive on consecutive cycles (the upstream
//! stream loses input-port conflicts, or waits at its own stop), and
//! each flit may arbitrate only two cycles after its own arrival, so
//! when a flit departs the allocator must learn the readiness of the
//! one behind it. That is the bank's only per-slot storage: a `u32`
//! buffer-write stamp per flit of buffering, zero-initialised, in fixed
//! rings indexed by sequence number.
//!
//! # Everything else
//!
//! The state of *all* routers lives in one `RouterBank`: flat
//! structure-of-arrays storage indexed by `(router, port, vc)`, so the
//! engine's per-cycle walk reads dense arrays instead of chasing
//! per-router collections, and switch allocation reuses scratch buffers
//! instead of allocating per call. Per-router occupancy is mirrored in a
//! u64 bitset (one bit per `(port, vc)`), so allocation touches only the
//! occupied VCs, and each output's free-VC queue is a nibble-packed u64
//! FIFO, bit-exact with the `VecDeque` it replaced. The bank also owns
//! the active set of routers with at least one buffered flit —
//! `receive` adds a router, the `allocate` that pops its last flit
//! removes it — which is what the engine walks instead of the whole
//! bank.

use crate::active::ActiveSet;
use crate::counters::ActivityCounters;
use crate::flit::{Flit, FlowId, PacketSlot, VcId};
use crate::telemetry::{Probe, StallCause};
use crate::topology::{Direction, NodeId, PORTS};

/// Most VCs per port: a router's occupancy bitset packs `5 * vcs` input
/// VCs into a `u64`, free-VC queues pack VC ids into nibbles, and a
/// NIC's reception mask is a `u16`.
pub const MAX_VCS_PER_PORT: usize = 12;

/// Most flits of buffering per VC: a VC's flit count is a `u8`.
pub const MAX_VC_DEPTH: usize = 255;

/// A free-VC queue packed into one u64, one nibble per entry.
///
/// Semantically identical to the `VecDeque<VcId>` it replaced — pops
/// come from the low nibble, pushes append after the last — so credit
/// return order (and therefore VC allocation order and every downstream
/// arbitration decision) is preserved exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct VcFifo {
    bits: u64,
    len: u8,
}

impl VcFifo {
    /// FIFO seeded with VCs `0..n` in ascending order.
    pub(crate) fn seed(n: usize) -> Self {
        let mut f = VcFifo::default();
        for v in 0..n as u8 {
            f.push(VcId(v));
        }
        f
    }

    pub(crate) fn len(self) -> usize {
        usize::from(self.len)
    }

    fn is_empty(self) -> bool {
        self.len == 0
    }

    #[cfg(test)]
    fn clear(&mut self) {
        self.bits = 0;
        self.len = 0;
    }

    pub(crate) fn push(&mut self, vc: VcId) {
        debug_assert!(vc.0 < 16, "VC id exceeds nibble packing");
        debug_assert!(self.len < 16, "VcFifo overflow");
        self.bits |= u64::from(vc.0) << (4 * self.len);
        self.len += 1;
    }

    pub(crate) fn pop(&mut self) -> Option<VcId> {
        if self.len == 0 {
            return None;
        }
        let v = (self.bits & 0xF) as u8;
        self.bits >>= 4;
        self.len -= 1;
        Some(VcId(v))
    }

    pub(crate) fn contains(self, vc: VcId) -> bool {
        let mut bits = self.bits;
        for _ in 0..self.len {
            if (bits & 0xF) as u8 == vc.0 {
                return true;
            }
            bits >>= 4;
        }
        false
    }
}

/// A flit leaving this router, with the context the engine needs to
/// schedule its arrival.
#[derive(Debug, Clone)]
pub(crate) struct RouterDeparture {
    /// The flit (its `vc` field already set to the endpoint VC).
    pub flit: Flit,
    /// Output direction granted.
    pub out_dir: Direction,
    /// Opaque route token handed to [`RouterBank::receive`] with the
    /// packet's head. The engine passes leg indices through here so the
    /// launch path never re-resolves the route.
    pub leg: u32,
}

/// A credit released by a departing tail: the upstream sender of
/// `in_dir` gets VC `vc` back.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CreditRelease {
    /// Bank index of the router whose input VC was freed (releases from
    /// several routers may share one batch).
    pub router: u16,
    /// Input port whose VC was freed.
    pub in_dir: Direction,
    /// The freed VC.
    pub vc: VcId,
}

/// The hot state of every router in the mesh, stored as flat
/// structure-of-arrays buffers.
///
/// Input-side arrays are indexed by `(router * 5 + port) * num_vcs + vc`,
/// output-side arrays by `router * 5 + port`. The per-cycle sweep walks
/// the bank's [`active set`](RouterBank::active) to find routers holding
/// flits, then the set bits of the per-router [`occupancy
/// bitset`](RouterBank::receive) to find SA-eligible VCs without touching
/// idle ports, and
/// [`RouterBank::allocate`] appends into caller-owned scratch vectors so
/// steady-state simulation performs no heap allocation.
#[derive(Debug, Clone)]
pub(crate) struct RouterBank {
    n: usize,
    num_vcs: usize,
    depth: usize,
    /// Node id of bank slot 0, so protocol panics name the right router:
    /// a band's bank holds the routers from its first row on.
    base_node: u16,
    /// Buffer-write cycle of every buffered flit: one fixed ring of
    /// `depth` stamps per input VC (`buf[qi * depth ..]`), flit `seq`
    /// of the occupying packet at slot `seq % depth`. Read only when a
    /// flit departs, to learn when the one behind it may arbitrate;
    /// zero-initialised, so an idle fabric's slab is never touched.
    /// Stamps are `u32`; `receive` checks the range.
    buf: Vec<u32>,
    /// The packet occupying each input VC, one packed record per
    /// `(router, port, vc)` — a busy router's allocation touches a
    /// couple of cache lines here, plus one stamp per departing flit.
    vcs: Vec<VcState>,
    /// Per-router occupancy bitset: bit `port * num_vcs + vc` is set
    /// while that input VC buffers at least one flit.
    nonempty: Vec<u64>,
    /// Flits buffered per router.
    buffered: Vec<u32>,
    /// Routers with `buffered > 0` — the only ones allocation can do
    /// anything at.
    active: ActiveSet,
    /// Flits buffered across the whole bank.
    total_buffered: u64,
    /// Hot per-output state, one packed record per `(router, port)`.
    outs: Vec<OutState>,
    /// Preset clock gating: whether any flow uses each input port.
    in_enabled: Vec<bool>,
}

/// One input VC: the packet occupying it and how much of it is here.
/// Everything but `len`, `seq` and `front_ready` is written once, when
/// the head is buffer-written, and is stale once the tail has left.
#[derive(Debug, Clone, Copy)]
struct VcState {
    /// Buffered flits: sequence numbers `seq .. seq + len`.
    len: u8,
    /// Sequence number of the front flit — with nothing buffered, of
    /// the flit that must arrive next. Reaches `num_flits` when the
    /// tail departs, which is what frees the VC.
    seq: u8,
    /// Flits in the occupying packet (0 before the first).
    num_flits: u8,
    /// Output index the packet requests, then holds until its tail
    /// passes.
    out: u8,
    /// Arena slot of the occupying packet.
    pkt: PacketSlot,
    /// Its flow.
    flow: FlowId,
    /// Route token handed in with the head; carried on every departure.
    leg: u32,
    /// Cycle at which the front flit becomes SA-eligible (its arrival
    /// + 2 pipeline cycles); `u32::MAX` when the queue is empty.
    front_ready: u32,
}

impl VcState {
    const IDLE: VcState = VcState {
        len: 0,
        seq: 0,
        num_flits: 0,
        out: 0,
        pkt: PacketSlot(0),
        flow: FlowId(0),
        leg: 0,
        front_ready: u32::MAX,
    };

    /// `true` while a packet occupies the VC (head arrived, tail not
    /// yet departed).
    fn occupied(&self) -> bool {
        self.seq < self.num_flits
    }
}

/// Hot state of one output port, packed into a single record.
#[derive(Debug, Clone, Copy)]
struct OutState {
    /// Free VCs at the output's leg endpoint.
    free_vcs: VcFifo,
    /// `(input port, input vc, endpoint vc)` holding the switch until
    /// the tail passes.
    held: Option<(u8, u8, VcId)>,
    /// Round-robin pointer of the output's arbiter over `ports × vcs`
    /// requesters: the index with highest priority next grant.
    arb_next: u8,
    /// Preset clock gating: whether any flow uses the port.
    enabled: bool,
}

impl OutState {
    const IDLE: OutState = OutState {
        free_vcs: VcFifo { bits: 0, len: 0 },
        held: None,
        arb_next: 0,
        enabled: false,
    };
}

impl RouterBank {
    /// A bank of `n` 5-port routers with `num_vcs` VCs of `depth` flits
    /// per input port.
    ///
    /// # Panics
    ///
    /// Panics if `num_vcs` or `depth` is zero, or exceeds
    /// [`MAX_VCS_PER_PORT`] / [`MAX_VC_DEPTH`].
    #[must_use]
    pub fn new(n: usize, num_vcs: usize, depth: usize) -> Self {
        assert!(num_vcs > 0, "need at least one VC");
        assert!(
            num_vcs <= MAX_VCS_PER_PORT,
            "bitset router state supports at most {MAX_VCS_PER_PORT} VCs per port"
        );
        assert!(depth > 0, "need at least one buffer slot");
        assert!(depth <= MAX_VC_DEPTH, "a VC's flit count is a u8");
        let nq = n * PORTS * num_vcs;
        let np = n * PORTS;
        RouterBank {
            n,
            num_vcs,
            depth,
            base_node: 0,
            buf: vec![0; nq * depth],
            vcs: vec![VcState::IDLE; nq],
            nonempty: vec![0; n],
            buffered: vec![0; n],
            active: ActiveSet::new(n),
            total_buffered: 0,
            outs: vec![OutState::IDLE; np],
            in_enabled: vec![false; np],
        }
    }

    /// Node id of bank slot `r`, for diagnostics.
    fn node_of(&self, r: usize) -> NodeId {
        NodeId(self.base_node + r as u16)
    }

    /// Set the node id of bank slot 0, so diagnostics from a bank that
    /// covers nodes `[base, base + n)` (a shard's region) name the real
    /// router instead of a region-relative index.
    pub fn set_base_node(&mut self, base: NodeId) {
        self.base_node = base.0;
    }

    /// Index in `buf` of the stamp of flit `seq` in input VC `qi`.
    #[inline]
    fn stamp_slot(&self, qi: usize, seq: u8) -> usize {
        qi * self.depth + usize::from(seq) % self.depth
    }

    /// Number of routers in the bank.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Flits buffered across all routers — `0` means every router is
    /// drained (the engine's quiescence check reads this instead of
    /// walking every queue).
    #[must_use]
    pub fn total_buffered(&self) -> u64 {
        self.total_buffered
    }

    /// The routers holding at least one buffered flit, i.e. exactly
    /// those [`RouterBank::allocate`] does not return from at once.
    /// Visiting them in ascending order is the same walk as `0..len()`
    /// with the drained ones skipped.
    #[must_use]
    pub fn active(&self) -> &ActiveSet {
        &self.active
    }

    /// Mark input port `dir` of router `r` as used by some flow
    /// (ungated), per presets.
    pub fn enable_input(&mut self, r: usize, dir: Direction) {
        self.in_enabled[r * PORTS + dir.index()] = true;
    }

    /// Mark output port `dir` of router `r` as used and seed its
    /// free-VC queue with the endpoint's `num_vcs` VCs.
    pub fn enable_output(&mut self, r: usize, dir: Direction) {
        let oi = r * PORTS + dir.index();
        self.outs[oi].enabled = true;
        self.outs[oi].free_vcs = VcFifo::seed(self.num_vcs);
    }

    /// Number of clock-enabled ports (inputs + outputs) of router `r`
    /// for gating accounting.
    #[must_use]
    pub fn enabled_ports(&self, r: usize) -> usize {
        let range = r * PORTS..(r + 1) * PORTS;
        self.in_enabled[range.clone()]
            .iter()
            .filter(|e| **e)
            .count()
            + self.outs[range].iter().filter(|o| o.enabled).count()
    }

    /// Return a credit (freed endpoint VC) to output `dir` of router
    /// `r`.
    ///
    /// # Panics
    ///
    /// Panics if the VC is already in the free queue (double-free).
    pub fn credit(&mut self, r: usize, dir: Direction, vc: VcId) {
        let q = &mut self.outs[r * PORTS + dir.index()].free_vcs;
        assert!(
            !q.contains(vc),
            "{}: double credit for {vc} at output {dir}",
            self.node_of(r)
        );
        q.push(vc);
        assert!(
            q.len() <= self.num_vcs,
            "{}: more credits than VCs at output {dir}",
            self.node_of(r)
        );
    }

    /// Buffer-write a flit arriving at router `r` (end-of-cycle `cycle`
    /// arrival) into input `in_dir`, VC `flit.vc`.
    ///
    /// A head claims the VC for its packet and fixes the packet's way
    /// out of this router: `route` is called for heads only and returns
    /// the output direction the packet requests here plus an opaque
    /// route token carried on its departures (the engine passes the
    /// index of the leg that leaves this router). A body or tail stores
    /// nothing but its buffer-write stamp.
    ///
    /// # Panics
    ///
    /// Panics on protocol violations: missing VC allocation, overflow,
    /// a head arriving into an occupied VC, a body arriving into an
    /// idle one, or a body that is not the next flit of the packet
    /// occupying the VC.
    pub fn receive(
        &mut self,
        r: usize,
        in_dir: Direction,
        flit: Flit,
        cycle: u64,
        route: impl FnOnce() -> (Direction, u32),
        counters: &mut ActivityCounters,
    ) {
        let node = self.node_of(r);
        let vc = flit
            .vc
            .unwrap_or_else(|| panic!("{node}: flit arrived without a VC"));
        let pv = in_dir.index() * self.num_vcs + vc.0 as usize;
        let qi = r * PORTS * self.num_vcs + pv;
        let st = &mut self.vcs[qi];
        if flit.is_head() {
            assert!(
                !st.occupied() && st.len == 0,
                "{node}: head of {:?} arrived into occupied {vc} at input {in_dir}",
                flit.pkt
            );
            let (out, leg) = route();
            *st = VcState {
                len: 0,
                seq: 0,
                num_flits: flit.num_flits,
                out: out.index() as u8,
                pkt: flit.pkt,
                flow: flit.flow,
                leg,
                front_ready: u32::MAX,
            };
        } else {
            assert!(
                st.occupied(),
                "{node}: body/tail arrived into idle {vc} at input {in_dir}"
            );
            assert!(
                flit.pkt == st.pkt && u16::from(flit.seq) == u16::from(st.seq) + u16::from(st.len),
                "{node}: flit {} of {:?} arrived out of order into {vc} at input {in_dir}, \
                 which holds {:?} and expects flit {}",
                flit.seq,
                flit.pkt,
                st.pkt,
                u16::from(st.seq) + u16::from(st.len)
            );
            debug_assert_eq!((flit.flow, flit.num_flits), (st.flow, st.num_flits));
        }
        assert!(
            usize::from(st.len) < self.depth,
            "{node}: buffer overflow at input {in_dir} {vc}"
        );
        // Ready stamps are u32 so a slot is 4 bytes; a run would need
        // ~4 billion cycles to reach this.
        assert!(
            cycle < u64::from(u32::MAX) - 2,
            "cycle count exceeds the u32 buffer-stamp range"
        );
        if st.len == 0 {
            st.front_ready = cycle as u32 + 2;
        }
        st.len += 1;
        let slot = self.stamp_slot(qi, flit.seq);
        self.buf[slot] = cycle as u32;
        self.nonempty[r] |= 1 << pv;
        self.buffered[r] += 1;
        self.active.insert(r);
        self.total_buffered += 1;
        counters.buffer_writes += 1;
    }

    /// Run switch allocation for router `r` at `cycle`, appending
    /// departures (flits entering ST in cycle `cycle + 1`) and credits
    /// released by departing tails into the caller's scratch vectors.
    ///
    /// Nothing is resolved here: every VC record already names the
    /// output its packet wants (see [`RouterBank::receive`]), and a
    /// departing flit is rebuilt from that record.
    ///
    /// The probe observes SSR traffic (Section III): every head flit
    /// presenting a request is a *setup*; a setup that wins its output,
    /// keeps a free endpoint VC, and survives input-port conflict
    /// resolution becomes a *grant* (a new multi-hop hold); every other
    /// setup is a *deny* with a [`StallCause`] — a premature stop.
    /// Streaming body/tail flits ride an established hold and are not
    /// SSR traffic. Per window, `setups == grants + stalls` exactly.
    pub fn allocate<P: Probe>(
        &mut self,
        r: usize,
        cycle: u64,
        counters: &mut ActivityCounters,
        departures: &mut Vec<RouterDeparture>,
        credits: &mut Vec<CreditRelease>,
        probe: &mut P,
    ) {
        // An empty router requests nothing and streams nothing, and a
        // granted-nothing arbiter does not rotate: skipping is
        // behavior-identical and makes idle routers ~free.
        if self.buffered[r] == 0 {
            return;
        }
        let nv = self.num_vcs;
        let base_q = r * PORTS * nv;
        let base_p = r * PORTS;

        // Which (input, vc) is SA-eligible this cycle, and toward which
        // output does its front flit point? Walking the set bits of the
        // occupancy word visits exactly the non-empty VCs in the same
        // ascending (port, vc) order as a full scan; `front_ready`
        // answers the eligibility question without touching the queue.
        // Eligible wanters land directly in their output's request mask.
        let mut out_req: [u64; PORTS] = [0; PORTS];
        let mut out_mask: u8 = 0;
        let mut occ = self.nonempty[r];
        while occ != 0 {
            let pv = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            let st = &self.vcs[base_q + pv];
            if u64::from(st.front_ready) > cycle {
                continue; // still in BW or just arrived
            }
            // A head requests its packet's output; body and tail follow
            // the hold the head captured on that same output.
            let out = st.out;
            debug_assert!(
                st.seq == 0
                    || self.outs[base_p + usize::from(out)]
                        .held
                        .is_some_and(|(p, v, _)| usize::from(p) * nv + usize::from(v) == pv),
                "{}: a body flit is at the front of a VC that holds no output",
                self.node_of(r)
            );
            out_req[usize::from(out)] |= 1 << pv;
            out_mask |= 1 << out;
        }
        if out_mask == 0 {
            return;
        }

        // Output-major allocation: held outputs stream their holder; free
        // outputs arbitrate among eligible heads (needing a free VC).
        // Only outputs somebody wants are visited — an unwanted output
        // can have no winner and its granted-nothing arbiter would not
        // rotate, so skipping it is behavior-identical.
        // winners[o] = (input, vc, is_new_head), valid where `win_mask`
        // has bit `o`.
        let mut winners: [(u8, u8, bool); PORTS] = [(0, 0, false); PORTS];
        let mut win_mask: u8 = 0;
        let mut outs = out_mask;
        while outs != 0 {
            let o = outs.trailing_zeros() as usize;
            outs &= outs - 1;
            let oi = base_p + o;
            let ost = self.outs[oi];
            if !ost.enabled {
                continue;
            }
            if let Some((hp, hv, _)) = ost.held {
                let pvh = hp as usize * nv + hv as usize;
                if out_req[o] & (1 << pvh) != 0 {
                    winners[o] = (hp, hv, false);
                    win_mask |= 1 << o;
                }
                if P::ENABLED {
                    // Heads wanting a held output presented setups that
                    // are denied outright (the holder itself streams —
                    // not SSR traffic).
                    let denied = (out_req[o] & !(1u64 << pvh)).count_ones();
                    if denied > 0 {
                        let gr = u32::from(self.base_node) + r as u32;
                        probe.on_ssr_setups(denied);
                        probe.on_stall(gr, StallCause::HeldOutput, denied);
                    }
                }
                continue;
            }
            if ost.free_vcs.is_empty() {
                if P::ENABLED {
                    let denied = out_req[o].count_ones();
                    let gr = u32::from(self.base_node) + r as u32;
                    probe.on_ssr_setups(denied);
                    probe.on_stall(gr, StallCause::NoFreeVc, denied);
                }
                continue; // heads need a free endpoint VC to request
            }
            // Only heads can want a non-held output (bodies follow
            // their hold), so every requester here is a head, and each
            // presented request is charged to the allocator.
            let req = out_req[o];
            counters.sa_requests += u64::from(req.count_ones());
            if P::ENABLED {
                // Every requester is a head presenting an SSR setup;
                // round-robin losers stop prematurely in their buffers.
                let n = req.count_ones();
                probe.on_ssr_setups(n);
                if n > 1 {
                    let gr = u32::from(self.base_node) + r as u32;
                    probe.on_stall(gr, StallCause::OutputArb, n - 1);
                }
            }
            // Round-robin grant, bit-compatible with
            // [`RoundRobin::grant_mask`]: first requester at or after
            // the rotating pointer wins and becomes lowest priority (a
            // granted-nothing arbiter does not rotate).
            let next = usize::from(ost.arb_next);
            let above = req >> next;
            let g = if above != 0 {
                next + above.trailing_zeros() as usize
            } else {
                req.trailing_zeros() as usize
            };
            self.outs[oi].arb_next = ((g + 1) % (PORTS * nv)) as u8;
            winners[o] = ((g / nv) as u8, (g % nv) as u8, true);
            win_mask |= 1 << o;
        }

        // Input-port conflict resolution: one flit per input port per
        // cycle. Held streams take precedence over new heads; ties break
        // by output index. A single winner cannot conflict, so the two
        // passes run only when at least two outputs granted.
        if win_mask & win_mask.wrapping_sub(1) != 0 {
            let mut port_taken: u8 = 0;
            for new_head in [false, true] {
                let mut m = win_mask;
                while m != 0 {
                    let ob = m & m.wrapping_neg();
                    let o = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let (p, _, is_new) = winners[o];
                    if is_new == new_head {
                        if port_taken & (1 << p) != 0 {
                            win_mask &= !ob;
                            if P::ENABLED && is_new {
                                // A setup that won arbitration but lost
                                // the input port (a streaming loser is
                                // not SSR traffic and stays uncounted).
                                let gr = u32::from(self.base_node) + r as u32;
                                probe.on_stall(gr, StallCause::PortConflict, 1);
                            }
                        } else {
                            port_taken |= 1 << p;
                        }
                    }
                }
            }
        }

        // Execute grants.
        let mut m = win_mask;
        while m != 0 {
            let o = m.trailing_zeros() as usize;
            m &= m - 1;
            let (p, v, is_new) = winners[o];
            let oi = base_p + o;
            let pv = p as usize * nv + v as usize;
            let qi = base_q + pv;
            let endpoint_vc = if is_new {
                if P::ENABLED {
                    probe.on_ssr_grant();
                }
                let vc = self.outs[oi]
                    .free_vcs
                    .pop()
                    .expect("head grant requires a free VC");
                self.outs[oi].held = Some((p, v, vc));
                vc
            } else {
                self.outs[oi].held.expect("streaming under a hold").2
            };
            // The departing flit is the VC record plus its position.
            let st = &mut self.vcs[qi];
            let flit = Flit {
                pkt: st.pkt,
                flow: st.flow,
                seq: st.seq,
                num_flits: st.num_flits,
                vc: Some(endpoint_vc),
            };
            let leg = st.leg;
            st.seq += 1;
            st.len -= 1;
            let (behind, emptied) = (st.seq, st.len == 0);
            self.vcs[qi].front_ready = if emptied {
                self.nonempty[r] &= !(1 << pv);
                u32::MAX
            } else {
                self.buf[self.stamp_slot(qi, behind)] + 2
            };
            if flit.is_tail() {
                assert!(
                    self.vcs[qi].len == 0,
                    "{}: tail departed but flits remain behind it",
                    self.node_of(r)
                );
                self.outs[oi].held = None;
                credits.push(CreditRelease {
                    router: r as u16,
                    in_dir: Direction::from_index(p as usize),
                    vc: VcId(v),
                });
            }
            self.buffered[r] -= 1;
            if self.buffered[r] == 0 {
                self.active.remove(r);
            }
            self.total_buffered -= 1;
            counters.buffer_reads += 1;
            counters.sa_grants += 1;
            departures.push(RouterDeparture {
                flit,
                out_dir: Direction::from_index(o),
                leg,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlowId, PacketSlot};
    use crate::forward::{FlowTable, Sender};
    use crate::route::SourceRoute;
    use crate::telemetry::NoProbe;
    use crate::topology::Topology;

    /// A standalone router: a 1-router [`RouterBank`] with the bank index
    /// pinned, so the protocol tests below drive the engine's own code.
    struct Router {
        bank: RouterBank,
    }

    impl Router {
        fn new(node: NodeId, num_vcs: usize, depth: usize) -> Self {
            let mut bank = RouterBank::new(1, num_vcs, depth);
            bank.base_node = node.0;
            Router { bank }
        }

        /// [`RouterBank::receive`], with a head's output read off the
        /// leg of its flow's plan that leaves this router.
        fn receive(
            &mut self,
            in_dir: Direction,
            flit: Flit,
            cycle: u64,
            flows: &FlowTable,
            counters: &mut ActivityCounters,
        ) {
            let node = self.bank.node_of(0);
            let route = || {
                let legs = &flows.plan(flit.flow).legs;
                let out = legs.iter().find_map(|leg| match leg.sender {
                    Sender::RouterOutput(r, d) if r == node => Some(d),
                    _ => None,
                });
                (out.expect("the flow stops here"), 0)
            };
            self.bank.receive(0, in_dir, flit, cycle, route, counters);
        }

        /// [`RouterBank::allocate`] into fresh vectors: departures and
        /// the credits released by departing tails.
        fn allocate(
            &mut self,
            cycle: u64,
            counters: &mut ActivityCounters,
        ) -> (Vec<RouterDeparture>, Vec<CreditRelease>) {
            let mut departures = Vec::new();
            let mut credits = Vec::new();
            self.bank.allocate(
                0,
                cycle,
                counters,
                &mut departures,
                &mut credits,
                &mut NoProbe,
            );
            (departures, credits)
        }
    }

    fn mesh() -> Topology {
        Topology::paper_4x4()
    }

    /// A flow table with a single 2-hop flow 0 -> 2 (baseline plan).
    fn table() -> FlowTable {
        let route = SourceRoute::xy(mesh(), NodeId(0), NodeId(2)).unwrap();
        FlowTable::mesh_baseline(mesh(), &[(FlowId(0), route)])
    }

    fn packet_flits(slot: u32, flow: FlowId, n: u8) -> Vec<Flit> {
        (0..n)
            .map(|s| Flit::new(PacketSlot(slot), flow, s, n))
            .collect()
    }

    fn prepared_router() -> Router {
        let mut r = Router::new(NodeId(0), 2, 10);
        r.bank.enable_input(0, Direction::Core);
        r.bank.enable_output(0, Direction::East);
        r
    }

    #[test]
    fn vc_fifo_matches_deque_semantics() {
        let mut f = VcFifo::seed(3);
        assert_eq!(f.len(), 3);
        assert_eq!(f.pop(), Some(VcId(0)));
        assert_eq!(f.pop(), Some(VcId(1)));
        // Credits returning out of order come back in *return* order.
        f.push(VcId(1));
        f.push(VcId(0));
        assert!(f.contains(VcId(2)) && f.contains(VcId(1)) && f.contains(VcId(0)));
        assert_eq!(f.pop(), Some(VcId(2)));
        assert_eq!(f.pop(), Some(VcId(1)));
        assert_eq!(f.pop(), Some(VcId(0)));
        assert_eq!(f.pop(), None);
        assert!(f.is_empty());
    }

    #[test]
    fn a_vc_record_is_twenty_bytes() {
        // What the 64x64 cell pays per input VC instead of 160 bytes of
        // flit slots (plus a 4-byte stamp per slot).
        assert_eq!(std::mem::size_of::<VcState>(), 20);
    }

    #[test]
    fn head_waits_two_cycles_before_sa() {
        let mut r = prepared_router();
        let flows = table();
        let mut c = ActivityCounters::new();
        let mut head = packet_flits(1, FlowId(0), 2).remove(0);
        head.vc = Some(VcId(0));
        r.receive(Direction::Core, head, 5, &flows, &mut c);
        // SA at cycle 6 is too early (BW happens during 6).
        let (d, _) = r.allocate(6, &mut c);
        assert!(d.is_empty());
        // SA at cycle 7 grants.
        let (d, _) = r.allocate(7, &mut c);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].out_dir, Direction::East);
        assert_eq!(c.sa_grants, 1);
        assert_eq!(c.buffer_writes, 1);
        assert_eq!(c.buffer_reads, 1);
    }

    #[test]
    fn packet_streams_one_flit_per_cycle_and_tail_releases() {
        let mut r = prepared_router();
        let flows = table();
        let mut c = ActivityCounters::new();
        // 4-flit packet arrives on consecutive cycles.
        for (i, mut f) in packet_flits(1, FlowId(0), 4).into_iter().enumerate() {
            f.vc = Some(VcId(0));
            r.receive(Direction::Core, f, 10 + i as u64, &flows, &mut c);
        }
        let mut sent = Vec::new();
        let mut credits = Vec::new();
        for cycle in 12..=15 {
            let (d, cr) = r.allocate(cycle, &mut c);
            sent.extend(d);
            credits.extend(cr);
        }
        assert_eq!(sent.len(), 4, "one flit per cycle");
        assert!(sent[0].flit.is_head());
        assert!(sent[3].flit.is_tail());
        // All flits carry the same endpoint VC.
        let vc = sent[0].flit.vc;
        assert!(sent.iter().all(|d| d.flit.vc == vc));
        // Tail released exactly one credit for Core/vc0.
        assert_eq!(credits.len(), 1);
        assert_eq!(credits[0].in_dir, Direction::Core);
        assert_eq!(credits[0].vc, VcId(0));
        assert_eq!(r.bank.buffered[0], 0);
        // Output free VCs: started 2, head took 1, none returned yet.
        assert_eq!(r.bank.outs[Direction::East.index()].free_vcs.len(), 1);
    }

    #[test]
    fn no_grant_without_free_vc() {
        let mut r = prepared_router();
        let flows = table();
        let mut c = ActivityCounters::new();
        // Exhaust both endpoint VCs.
        r.bank.outs[Direction::East.index()].free_vcs.clear();
        let mut head = packet_flits(1, FlowId(0), 1).remove(0);
        head.vc = Some(VcId(0));
        r.receive(Direction::Core, head, 0, &flows, &mut c);
        let (d, _) = r.allocate(10, &mut c);
        assert!(d.is_empty(), "head must wait for a credit");
        // A credit arrives; now it goes.
        r.bank.credit(0, Direction::East, VcId(1));
        let (d, _) = r.allocate(11, &mut c);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].flit.vc, Some(VcId(1)));
    }

    #[test]
    fn two_flows_share_output_without_interleaving() {
        // Two flows, both crossing East, on different VCs: packets must
        // not interleave on the East output.
        let mesh = mesh();
        let r0 = SourceRoute::xy(mesh, NodeId(0), NodeId(2)).unwrap();
        let r1 = SourceRoute::xy(mesh, NodeId(0), NodeId(3)).unwrap();
        let flows = FlowTable::mesh_baseline(mesh, &[(FlowId(0), r0), (FlowId(1), r1)]);
        let mut r = prepared_router();
        let mut c = ActivityCounters::new();
        // Packet A (flow 0) into vc0, packet B (flow 1) into vc1, same cycle.
        for (flow, vc, slot) in [(FlowId(0), VcId(0), 10), (FlowId(1), VcId(1), 11)] {
            for (i, mut f) in packet_flits(slot, flow, 3).into_iter().enumerate() {
                f.vc = Some(vc);
                r.receive(Direction::Core, f, i as u64, &flows, &mut c);
            }
        }
        let mut order = Vec::new();
        for cycle in 5..14 {
            let (d, _) = r.allocate(cycle, &mut c);
            for dep in d {
                order.push((dep.flit.pkt, dep.flit.is_tail()));
            }
        }
        assert_eq!(order.len(), 6);
        // First three flits belong to one packet, next three to the other.
        let first = order[0].0;
        assert!(order[..3].iter().all(|(p, _)| *p == first));
        assert!(order[3..].iter().all(|(p, _)| *p != first));
        assert!(order[2].1, "the third flit is the first packet's tail");
    }

    #[test]
    fn held_stream_beats_new_head_on_the_same_input_port() {
        // One input port feeds two outputs: vc0 streams a packet to East
        // (hold established), vc1's head wants North. The physical
        // crossbar input carries one flit per cycle, so while the stream
        // has flits ready the new head must wait; it proceeds once the
        // stream's tail has passed.
        let mesh = Topology::paper_4x4();
        // Flow 0: 0 -> 2 (East at router 0); flow 1: 0 -> 4 (North).
        let r0 = SourceRoute::xy(mesh, NodeId(0), NodeId(2)).unwrap();
        let r1 = SourceRoute::xy(mesh, NodeId(0), NodeId(4)).unwrap();
        let flows = FlowTable::mesh_baseline(mesh, &[(FlowId(0), r0), (FlowId(1), r1)]);
        let mut r = Router::new(NodeId(0), 2, 10);
        r.bank.enable_input(0, Direction::Core);
        r.bank.enable_output(0, Direction::East);
        r.bank.enable_output(0, Direction::North);
        let mut c = ActivityCounters::new();
        // Packet A (flow 0, 3 flits) into vc0 at cycles 0..2.
        for (i, mut f) in packet_flits(1, FlowId(0), 3).into_iter().enumerate() {
            f.vc = Some(VcId(0));
            r.receive(Direction::Core, f, i as u64, &flows, &mut c);
        }
        // Packet B (flow 1, 1 flit) into vc1 at cycle 0 as well.
        let mut head_b = packet_flits(2, FlowId(1), 1).remove(0);
        head_b.vc = Some(VcId(1));
        r.receive(Direction::Core, head_b, 0, &flows, &mut c);

        let mut order = Vec::new();
        for cycle in 2..10 {
            let (d, _) = r.allocate(cycle, &mut c);
            for dep in d {
                order.push((cycle, dep.out_dir, dep.flit.pkt));
            }
        }
        // One flit per cycle from the shared Core input.
        let cycles: Vec<u64> = order.iter().map(|(c, _, _)| *c).collect();
        let mut dedup = cycles.clone();
        dedup.dedup();
        assert_eq!(cycles, dedup, "one flit per input port per cycle");
        assert_eq!(order.len(), 4, "all four flits depart");
        // A's first grant happens at cycle 2 (round-robin may admit B's
        // head first or defer it, but once A's stream holds East it may
        // not be interleaved with B on the input port).
        let a_cycles: Vec<u64> = order
            .iter()
            .filter(|(_, _, p)| *p == PacketSlot(1))
            .map(|(c, _, _)| *c)
            .collect();
        assert_eq!(a_cycles.len(), 3);
        assert!(
            a_cycles[2] - a_cycles[0] >= 2,
            "stream keeps its cadence: {a_cycles:?}"
        );
        // B's single-flit packet eventually leaves via North.
        assert!(order
            .iter()
            .any(|(_, d, p)| *p == PacketSlot(2) && *d == Direction::North));
    }

    #[test]
    #[should_panic(expected = "double credit")]
    fn double_credit_panics() {
        let mut r = prepared_router();
        r.bank.credit(0, Direction::East, VcId(0));
        // VC 0 is already free (enable_output seeded it).
    }

    #[test]
    #[should_panic(expected = "buffer overflow")]
    fn overflow_panics() {
        let mut r = Router::new(NodeId(0), 1, 2);
        r.bank.enable_input(0, Direction::Core);
        let flows = table();
        let mut c = ActivityCounters::new();
        for (i, mut f) in packet_flits(1, FlowId(0), 3).into_iter().enumerate() {
            f.vc = Some(VcId(0));
            r.receive(Direction::Core, f, i as u64, &flows, &mut c);
        }
    }

    /// The refusals the packet-granular record adds: with no flit
    /// stored, `receive` itself must notice a body that is not the next
    /// flit of the packet occupying the VC. Each case feeds the same
    /// flits to a standalone [`Router`] (`bank == false`) or straight to
    /// a [`RouterBank`].
    fn receive_all(bank: bool, flits: &[Flit]) {
        let flows = table();
        let mut c = ActivityCounters::new();
        let mut router = prepared_router();
        let mut bare = RouterBank::new(1, 2, 10);
        for (i, f) in flits.iter().enumerate() {
            let flit = Flit {
                vc: Some(VcId(0)),
                ..*f
            };
            if bank {
                let route = || (Direction::East, 0);
                bare.receive(0, Direction::Core, flit, i as u64, route, &mut c);
            } else {
                router.receive(Direction::Core, flit, i as u64, &flows, &mut c);
            }
        }
    }

    /// Head and first body of packet 1, then flit `seq` of packet `pkt`.
    fn two_flits_then(pkt: u32, seq: u8) -> Vec<Flit> {
        let mut flits = packet_flits(1, FlowId(0), 4);
        flits.truncate(2);
        flits.push(Flit::new(PacketSlot(pkt), FlowId(0), seq, 4));
        flits
    }

    #[test]
    #[should_panic(expected = "flit 2 of PacketSlot(9) arrived out of order")]
    fn bank_refuses_a_body_of_another_packet() {
        receive_all(true, &two_flits_then(9, 2));
    }

    #[test]
    #[should_panic(expected = "flit 2 of PacketSlot(9) arrived out of order")]
    fn router_refuses_a_body_of_another_packet() {
        receive_all(false, &two_flits_then(9, 2));
    }

    #[test]
    #[should_panic(expected = "holds PacketSlot(1) and expects flit 2")]
    fn bank_refuses_a_skipped_seq() {
        receive_all(true, &two_flits_then(1, 3));
    }

    #[test]
    #[should_panic(expected = "holds PacketSlot(1) and expects flit 2")]
    fn router_refuses_a_skipped_seq() {
        receive_all(false, &two_flits_then(1, 3));
    }

    #[test]
    #[should_panic(expected = "holds PacketSlot(1) and expects flit 2")]
    fn bank_refuses_a_repeated_seq() {
        receive_all(true, &two_flits_then(1, 1));
    }

    #[test]
    #[should_panic(expected = "holds PacketSlot(1) and expects flit 2")]
    fn router_refuses_a_repeated_seq() {
        receive_all(false, &two_flits_then(1, 1));
    }

    /// A random but legal load for a bank with every port enabled: one
    /// stream of packets per input VC, each flit offered in order while
    /// its VC has room, a head only once the previous tail has left,
    /// and every endpoint VC a departing tail took handed back a few
    /// cycles later. Most traffic lands on a few routers either side of
    /// a 64-router set-word boundary, so the rest of the bank stays
    /// drained.
    struct Load {
        rng: u64,
        n: usize,
        nv: usize,
        depth: usize,
        /// Indexed like the bank's input VCs.
        streams: Vec<Stream>,
        /// Endpoint VCs taken by departed tails, to hand back later.
        owed: Vec<(usize, Direction, VcId)>,
    }

    #[derive(Clone, Copy, Default)]
    struct Stream {
        packets: u32,
        sent: u8,
        len: u8,
        buffered: usize,
        occupied: bool,
        flow: u32,
    }

    /// The route a load's head takes: output and token both follow from
    /// the flow id.
    fn load_route(flow: FlowId) -> (Direction, u32) {
        (Direction::from_index(flow.0 as usize % PORTS), flow.0)
    }

    impl Load {
        fn new(seed: u64, n: usize, nv: usize, depth: usize) -> Load {
            Load {
                rng: seed,
                n,
                nv,
                depth,
                streams: vec![Stream::default(); n * PORTS * nv],
                owed: Vec::new(),
            }
        }

        fn draw(&mut self, n: usize) -> usize {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            (self.rng % n as u64) as usize
        }

        fn bank(&self) -> RouterBank {
            let mut bank = RouterBank::new(self.n, self.nv, self.depth);
            for r in 0..self.n {
                for d in 0..PORTS {
                    bank.enable_input(r, Direction::from_index(d));
                    bank.enable_output(r, Direction::from_index(d));
                }
            }
            bank
        }

        /// The credits that come back this cycle.
        fn credits(&mut self) -> Vec<(usize, Direction, VcId)> {
            let owed = std::mem::take(&mut self.owed);
            let (back, kept) = owed.into_iter().partition(|_| self.draw(3) == 0);
            self.owed = kept;
            back
        }

        /// The flits that arrive this cycle: `(router, input, flit)`.
        fn arrivals(&mut self) -> Vec<(usize, Direction, Flit)> {
            let hot = [0, 1, 62, 63, 64, self.n - 1];
            let mut out = Vec::new();
            for _ in 0..6 {
                let r = if self.draw(8) == 0 {
                    self.draw(self.n)
                } else {
                    hot[self.draw(hot.len())]
                };
                let (port, vc) = (self.draw(PORTS), self.draw(self.nv));
                let si = (r * PORTS + port) * self.nv + vc;
                if self.streams[si].sent == self.streams[si].len {
                    if self.streams[si].occupied {
                        continue; // the previous packet's tail has not left
                    }
                    // Some packets are longer than the VC is deep.
                    let len = 1 + self.draw(self.depth.min(6) + 3) as u8;
                    let flow = self.draw(50) as u32;
                    let st = &mut self.streams[si];
                    *st = Stream {
                        packets: st.packets + 1,
                        sent: 0,
                        len,
                        flow,
                        occupied: true,
                        ..*st
                    };
                }
                let st = &mut self.streams[si];
                if st.buffered == self.depth {
                    continue;
                }
                // The slot names the stream (low bits) and the packet.
                let slot = PacketSlot(st.packets << 16 | si as u32);
                let mut flit = Flit::new(slot, FlowId(st.flow), st.sent, st.len);
                flit.vc = Some(VcId(vc as u8));
                st.sent += 1;
                st.buffered += 1;
                out.push((r, Direction::from_index(port), flit));
            }
            out
        }

        /// Account for one cycle's departures and credit releases.
        fn departed(&mut self, deps: &[RouterDeparture], rels: &[CreditRelease]) {
            for dep in deps {
                let si = (dep.flit.pkt.0 & 0xFFFF) as usize;
                self.streams[si].buffered -= 1;
                if dep.flit.is_tail() {
                    let r = si / (PORTS * self.nv);
                    self.owed
                        .push((r, dep.out_dir, dep.flit.vc.expect("granted a VC")));
                }
            }
            for rel in rels {
                let si = (usize::from(rel.router) * PORTS + rel.in_dir.index()) * self.nv;
                self.streams[si + usize::from(rel.vc.0)].occupied = false;
            }
        }
    }

    /// What the bank does, restated the slow way: every input VC a
    /// `VecDeque` of whole flits with their arrival cycles, the route
    /// resolved from the front flit when it arbitrates, one
    /// [`RoundRobin`](crate::arbiter::RoundRobin) per output.
    struct RefBank {
        nv: usize,
        vcs: Vec<RefVc>,
        outs: Vec<RefOut>,
    }

    #[derive(Clone, Default)]
    struct RefVc {
        q: std::collections::VecDeque<(Flit, u64)>,
        /// Output this VC's packet holds.
        hold: Option<usize>,
    }

    #[derive(Clone)]
    struct RefOut {
        free: std::collections::VecDeque<VcId>,
        /// `(input vc index within the router, endpoint vc, token)`.
        held: Option<(usize, VcId, u32)>,
        arb: crate::arbiter::RoundRobin,
    }

    impl RefBank {
        fn new(n: usize, nv: usize) -> RefBank {
            let out = RefOut {
                free: (0..nv as u8).map(VcId).collect(),
                held: None,
                arb: crate::arbiter::RoundRobin::new(PORTS * nv),
            };
            RefBank {
                nv,
                vcs: vec![RefVc::default(); n * PORTS * nv],
                outs: vec![out; n * PORTS],
            }
        }

        fn credit(&mut self, r: usize, dir: Direction, vc: VcId) {
            self.outs[r * PORTS + dir.index()].free.push_back(vc);
        }

        fn receive(
            &mut self,
            r: usize,
            in_dir: Direction,
            flit: Flit,
            cycle: u64,
            c: &mut ActivityCounters,
        ) {
            let vc = usize::from(flit.vc.expect("has a VC").0);
            let qi = (r * PORTS + in_dir.index()) * self.nv + vc;
            self.vcs[qi].q.push_back((flit, cycle));
            c.buffer_writes += 1;
        }

        fn allocate(
            &mut self,
            r: usize,
            cycle: u64,
            c: &mut ActivityCounters,
            deps: &mut Vec<RouterDeparture>,
            rels: &mut Vec<CreditRelease>,
        ) {
            let nv = self.nv;
            let vcs = &mut self.vcs[r * PORTS * nv..(r + 1) * PORTS * nv];
            let outs = &mut self.outs[r * PORTS..(r + 1) * PORTS];
            if vcs.iter().all(|vc| vc.q.is_empty()) {
                return;
            }
            // Who wants which output, and the token a new head brings.
            let mut want = vec![vec![false; PORTS * nv]; PORTS];
            let mut token = vec![0; PORTS * nv];
            for (pv, vc) in vcs.iter().enumerate() {
                let Some((front, arrived)) = vc.q.front() else {
                    continue;
                };
                if arrived + 2 > cycle {
                    continue;
                }
                let out = match vc.hold {
                    Some(o) => o,
                    None => {
                        assert!(front.is_head(), "a body at the front holds no output");
                        let (dir, tok) = load_route(front.flow);
                        token[pv] = tok;
                        dir.index()
                    }
                };
                want[out][pv] = true;
            }
            // (output, input vc, new head?) in ascending output order.
            let mut winners: Vec<(usize, usize, bool)> = Vec::new();
            for (o, out) in outs.iter_mut().enumerate() {
                if !want[o].contains(&true) {
                    continue;
                }
                if let Some((pv, _, _)) = out.held {
                    if want[o][pv] {
                        winners.push((o, pv, false));
                    }
                } else if !out.free.is_empty() {
                    c.sa_requests += want[o].iter().filter(|w| **w).count() as u64;
                    winners.push((o, out.arb.grant(&want[o]).expect("someone asked"), true));
                }
            }
            // One flit per input port; streams before new heads.
            let mut taken = [false; PORTS];
            let mut lost = Vec::new();
            for new_head in [false, true] {
                for &(o, pv, is_new) in winners.iter().filter(|w| w.2 == new_head) {
                    if std::mem::replace(&mut taken[pv / nv], true) {
                        lost.push((o, pv, is_new));
                    }
                }
            }
            winners.retain(|w| !lost.contains(w));
            for (o, pv, is_new) in winners {
                let (mut flit, _) = vcs[pv].q.pop_front().expect("winner has a front");
                c.buffer_reads += 1;
                c.sa_grants += 1;
                if is_new {
                    let vc = outs[o].free.pop_front().expect("checked non-empty");
                    outs[o].held = Some((pv, vc, token[pv]));
                    vcs[pv].hold = Some(o);
                }
                let (_, vc, leg) = outs[o].held.expect("held by the winner");
                flit.vc = Some(vc);
                if flit.is_tail() {
                    outs[o].held = None;
                    vcs[pv].hold = None;
                    rels.push(CreditRelease {
                        router: r as u16,
                        in_dir: Direction::from_index(pv / nv),
                        vc: VcId((pv % nv) as u8),
                    });
                }
                deps.push(RouterDeparture {
                    flit,
                    out_dir: Direction::from_index(o),
                    leg,
                });
            }
        }
    }

    proptest::proptest! {
        /// The packet-granular bank against [`RefBank`] over the same
        /// legal load: the same departures — every field of every
        /// rebuilt flit, its output and its route token — the same
        /// credit releases and the same counters after every cycle.
        #[test]
        fn bank_departs_what_a_whole_flit_model_departs(
            seed in 1u64..u64::MAX,
            nv in 1usize..=MAX_VCS_PER_PORT,
            depth in 1usize..=MAX_VC_DEPTH,
        ) {
            const N: usize = 70;
            let mut load = Load::new(seed, N, nv, depth);
            let mut bank = load.bank();
            let mut model = RefBank::new(N, nv);
            let (mut c, mut c_ref) = (ActivityCounters::new(), ActivityCounters::new());
            for cycle in 0..300u64 {
                for (r, dir, vc) in load.credits() {
                    bank.credit(r, dir, vc);
                    model.credit(r, dir, vc);
                }
                for (r, in_dir, flit) in load.arrivals() {
                    bank.receive(r, in_dir, flit, cycle, || load_route(flit.flow), &mut c);
                    model.receive(r, in_dir, flit, cycle, &mut c_ref);
                }
                let (mut deps, mut rels) = (Vec::new(), Vec::new());
                let (mut deps_ref, mut rels_ref) = (Vec::new(), Vec::new());
                for r in 0..N {
                    bank.allocate(r, cycle, &mut c, &mut deps, &mut rels, &mut NoProbe);
                    model.allocate(r, cycle, &mut c_ref, &mut deps_ref, &mut rels_ref);
                }
                proptest::prop_assert_eq!(format!("{deps:?}"), format!("{deps_ref:?}"));
                proptest::prop_assert_eq!(format!("{rels:?}"), format!("{rels_ref:?}"));
                proptest::prop_assert_eq!(c, c_ref, "cycle {}", cycle);
                load.departed(&deps, &rels);
            }
            proptest::prop_assert!(c.sa_grants > 100, "the script must move flits: {c:?}");
        }

        /// Drive two clones of a multi-router bank through the same legal
        /// load; allocate one over `0..n` (the `buffered == 0` early
        /// return skipping the drained routers) and the other over its
        /// active set. Both must produce the same departures and
        /// credits, and the set must be exactly the routers holding
        /// flits after every step.
        #[test]
        fn active_set_is_exactly_the_routers_holding_flits(seed in 1u64..u64::MAX) {
            const N: usize = 70; // two set words
            let mut load = Load::new(seed, N, 2, 4);
            let mut swept = load.bank();
            let mut walked = swept.clone();
            let mut c = ActivityCounters::new();
            for cycle in 0..300u64 {
                for (r, dir, vc) in load.credits() {
                    swept.credit(r, dir, vc);
                    walked.credit(r, dir, vc);
                }
                for (r, in_dir, flit) in load.arrivals() {
                    let route = || load_route(flit.flow);
                    swept.receive(r, in_dir, flit, cycle, route, &mut c);
                    walked.receive(r, in_dir, flit, cycle, route, &mut c);
                }
                let (mut deps, mut rels) = (Vec::new(), Vec::new());
                for r in 0..N {
                    swept.allocate(r, cycle, &mut c, &mut deps, &mut rels, &mut NoProbe);
                }
                let (mut deps_w, mut rels_w) = (Vec::new(), Vec::new());
                for w in 0..walked.active().num_words() {
                    for r in walked.active().word(w) {
                        walked.allocate(r, cycle, &mut c, &mut deps_w, &mut rels_w, &mut NoProbe);
                    }
                }
                proptest::prop_assert_eq!(format!("{deps:?}"), format!("{deps_w:?}"));
                proptest::prop_assert_eq!(format!("{rels:?}"), format!("{rels_w:?}"));
                for bank in [&swept, &walked] {
                    let holding = (0..N).filter(|&r| bank.buffered[r] > 0);
                    proptest::prop_assert!(bank.active().iter().eq(holding), "cycle {cycle}");
                }
                load.departed(&deps, &rels);
            }
            proptest::prop_assert!(c.sa_grants > 100, "the script must move flits: {c:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at most 12 VCs")]
    fn too_many_vcs_rejected() {
        let _ = RouterBank::new(1, 13, 4);
    }

    #[test]
    fn gating_counts_enabled_ports() {
        let mut r = Router::new(NodeId(3), 2, 10);
        assert_eq!(r.bank.enabled_ports(0), 0);
        r.bank.enable_input(0, Direction::West);
        r.bank.enable_output(0, Direction::Core);
        r.bank.enable_output(0, Direction::East);
        assert_eq!(r.bank.enabled_ports(0), 3);
    }
}
