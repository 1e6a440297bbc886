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
//! # One header per router, one record per VC
//!
//! The state of *all* routers lives in one `RouterBank`. Everything
//! switch allocation reads about a router sits in one 128-byte,
//! cache-line-aligned `RouterHdr`:
//!
//! * `nonempty` — the input VCs buffering at least one flit, one bit per
//!   `(port, vc)`;
//! * `fresh` — the VCs `receive` took from empty to non-empty in this
//!   step, whose front flit is still in BW;
//! * `want[o]` — the VCs whose packet requests or holds output *o*, set
//!   when the head is buffer-written and cleared when the tail departs;
//! * per output, the free-VC FIFO of its leg endpoint packed into one
//!   `u64`, the input VC holding it, the endpoint VC it holds and its
//!   round-robin pointer; and the clock-enable masks.
//!
//! An output's requesters are `want[o] & nonempty & !fresh` — three
//! words, no walk over VCs — and only a winner's VC record is read.
//!
//! That record is the packet, not its flits. Under virtual cut-through
//! a VC is occupied by exactly one packet from the arrival of its head
//! to the departure of its tail — which is why Table II's body and tail
//! flits carry a 4-bit header (type + VC) and nothing else. One 16-byte
//! `VcState` per input VC holds the occupying packet's arena slot, flow
//! and length, the sequence number of the flit at the front, the number
//! buffered, and the packet's way out of this router — the output it
//! requests and the leg that output starts — all written **once**, when
//! the head is buffer-written. `receive` of a body or tail checks that
//! the flit is the next one of the occupying packet and bumps a count;
//! `allocate` rebuilds a departing flit from the record.
//!
//! # Why no flit carries a buffer-write stamp
//!
//! Each flit may arbitrate only two cycles after its own arrival, and a
//! packet's flits need not arrive on consecutive cycles. Yet in the
//! engine's schedule that rule binds only for the first flit into an
//! empty VC. In the step of cycle *c*, every `receive` is of a flit
//! that arrived at the end of *a = c − 1*, and all of them run before
//! `allocate(c)`. So:
//!
//! * a flit landing in an **empty** VC is the front flit and must sit
//!   out `allocate(c)` — that is its `fresh` bit, which that same
//!   allocation clears — and is eligible from `allocate(c + 1)`, cycle
//!   *a + 2*;
//! * a flit landing **behind** a predecessor reaches the front when the
//!   predecessor departs, at some `allocate(g)` with *g ≥ c*. Its
//!   *a + 2 = c + 1* is at most *g + 1*, so it is eligible at the first
//!   allocation after its predecessor left, without looking.
//!
//! The link guard in `network.rs` rests on the same schedule: a link's
//! marks never go back in time, so one stamp per link is enough.
//!
//! # The active set
//!
//! The bank also owns the set of routers with at least one buffered
//! flit — `receive` adds a router, the `allocate` that empties its last
//! VC removes it — which is what the engine walks instead of the whole
//! bank.

use crate::active::ActiveSet;
use crate::counters::ActivityCounters;
use crate::flit::{Flit, FlowId, PacketSlot, VcId};
use crate::telemetry::{Probe, StallCause};
use crate::topology::{Direction, NodeId, PORTS};

/// Most VCs per port: a router's VC masks pack `5 * vcs` input VCs into
/// a `u64`, a free-VC queue packs its VC ids into 12 nibbles, and a
/// NIC's reception mask is a `u16`.
pub const MAX_VCS_PER_PORT: usize = 12;

/// Most flits of buffering per VC: a VC's flit count is a `u8`.
pub const MAX_VC_DEPTH: usize = 255;

/// A free-VC queue packed into one u64: up to [`MAX_VCS_PER_PORT`] VC
/// ids in the low nibbles, front first, and the length in the top byte.
///
/// Semantically identical to a `VecDeque<VcId>` — pops come from the
/// low nibble, pushes append after the last — so credit return order
/// (and therefore VC allocation order and every downstream arbitration
/// decision) is that of the queue it stands for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct VcFifo(u64);

impl VcFifo {
    /// Where the length byte starts.
    const LEN_SHIFT: u32 = 56;
    /// The nibbles that hold VC ids.
    const IDS: u64 = (1 << (4 * MAX_VCS_PER_PORT)) - 1;

    /// FIFO seeded with VCs `0..n` in ascending order.
    pub(crate) fn seed(n: usize) -> Self {
        let mut f = VcFifo::default();
        for v in 0..n as u8 {
            f.push(VcId(v));
        }
        f
    }

    pub(crate) fn len(self) -> usize {
        (self.0 >> Self::LEN_SHIFT) as usize
    }

    fn is_empty(self) -> bool {
        self.len() == 0
    }

    pub(crate) fn push(&mut self, vc: VcId) {
        debug_assert!(vc.0 < 16, "VC id exceeds nibble packing");
        let len = self.len();
        debug_assert!(len < MAX_VCS_PER_PORT, "VcFifo overflow");
        self.0 += (u64::from(vc.0) << (4 * len)) + (1 << Self::LEN_SHIFT);
    }

    pub(crate) fn pop(&mut self) -> Option<VcId> {
        if self.is_empty() {
            return None;
        }
        let v = (self.0 & 0xF) as u8;
        self.0 = (((self.0 & Self::IDS) >> 4) | (self.0 & !Self::IDS)) - (1 << Self::LEN_SHIFT);
        Some(VcId(v))
    }

    pub(crate) fn contains(self, vc: VcId) -> bool {
        (0..self.len()).any(|i| (self.0 >> (4 * i)) & 0xF == u64::from(vc.0))
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

/// The hot state of every router in the mesh: one [`RouterHdr`] per
/// router and one [`VcState`] per input VC, indexed
/// `(router * 5 + port) * num_vcs + vc`.
///
/// The engine walks the bank's [`active set`](RouterBank::active) to
/// find routers holding flits, and [`RouterBank::allocate`] appends into
/// caller-owned scratch vectors so steady-state simulation performs no
/// heap allocation.
#[derive(Debug, Clone)]
pub(crate) struct RouterBank {
    num_vcs: usize,
    depth: usize,
    /// Node id of bank slot 0, so protocol panics name the right router:
    /// a band's bank holds the routers from its first row on.
    base_node: u16,
    /// Everything allocation reads about each router.
    hdrs: Vec<RouterHdr>,
    /// The packet occupying each input VC.
    vcs: Vec<VcState>,
    /// Routers with a non-empty VC — the only ones allocation can do
    /// anything at.
    active: ActiveSet,
    /// Flits buffered across the whole bank.
    total_buffered: u64,
}

/// No input VC holds the output (see [`RouterHdr::holder`]).
const NO_HOLDER: u8 = u8::MAX;

/// Everything switch allocation reads about one router, on two cache
/// lines. VC masks have bit `port * num_vcs + vc`; per-output arrays are
/// indexed by output direction.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct RouterHdr {
    /// Input VCs buffering at least one flit.
    nonempty: u64,
    /// Input VCs `receive` took from empty to non-empty in this step;
    /// the same step's `allocate` of the router clears them.
    fresh: u64,
    /// Input VCs whose packet requests or holds each output.
    want: [u64; PORTS],
    /// Free VCs at each output's leg endpoint.
    free: [VcFifo; PORTS],
    /// The input VC holding each output until its tail passes, or
    /// [`NO_HOLDER`].
    holder: [u8; PORTS],
    /// The endpoint VC the holder was granted.
    evc: [u8; PORTS],
    /// Round-robin pointer of each output's arbiter over `ports × vcs`
    /// requesters: the index with highest priority next grant.
    arb_next: [u8; PORTS],
    /// Preset clock gating: bit `dir` set when some flow uses output
    /// `dir`.
    out_enabled: u8,
    /// The same for the inputs.
    in_enabled: u8,
}

impl RouterHdr {
    const IDLE: RouterHdr = RouterHdr {
        nonempty: 0,
        fresh: 0,
        want: [0; PORTS],
        free: [VcFifo(0); PORTS],
        holder: [NO_HOLDER; PORTS],
        evc: [0; PORTS],
        arb_next: [0; PORTS],
        out_enabled: 0,
        in_enabled: 0,
    };
}

/// One input VC: the packet occupying it and how much of it is here.
/// Everything but `len` and `seq` is written once, when the head is
/// buffer-written, and is stale once the tail has left.
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
    };

    /// `true` while a packet occupies the VC (head arrived, tail not
    /// yet departed).
    fn occupied(&self) -> bool {
        self.seq < self.num_flits
    }
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
        RouterBank {
            num_vcs,
            depth,
            base_node: 0,
            hdrs: vec![RouterHdr::IDLE; n],
            vcs: vec![VcState::IDLE; n * PORTS * num_vcs],
            active: ActiveSet::new(n),
            total_buffered: 0,
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

    /// Number of routers in the bank.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hdrs.len()
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
        self.hdrs[r].in_enabled |= 1 << dir.index();
    }

    /// Mark output port `dir` of router `r` as used and seed its
    /// free-VC queue with the endpoint's `num_vcs` VCs.
    pub fn enable_output(&mut self, r: usize, dir: Direction) {
        let h = &mut self.hdrs[r];
        h.out_enabled |= 1 << dir.index();
        h.free[dir.index()] = VcFifo::seed(self.num_vcs);
    }

    /// Number of clock-enabled ports (inputs + outputs) of router `r`
    /// for gating accounting.
    #[must_use]
    pub fn enabled_ports(&self, r: usize) -> usize {
        let h = &self.hdrs[r];
        (h.in_enabled.count_ones() + h.out_enabled.count_ones()) as usize
    }

    /// Return a credit (freed endpoint VC) to output `dir` of router
    /// `r`.
    ///
    /// # Panics
    ///
    /// Panics if the VC is already in the free queue (double-free).
    pub fn credit(&mut self, r: usize, dir: Direction, vc: VcId) {
        let node = self.node_of(r);
        let q = &mut self.hdrs[r].free[dir.index()];
        assert!(
            !q.contains(vc),
            "{node}: double credit for {vc} at output {dir}"
        );
        q.push(vc);
        assert!(
            q.len() <= self.num_vcs,
            "{node}: more credits than VCs at output {dir}"
        );
    }

    /// Buffer-write a flit arriving at router `r` into input `in_dir`,
    /// VC `flit.vc`. The flit arrived at the end of the previous cycle,
    /// and this step's [`RouterBank::allocate`] of `r` is still to come
    /// (see the module docs).
    ///
    /// A head claims the VC for its packet and fixes the packet's way
    /// out of this router: `route` is called for heads only and returns
    /// the output direction the packet requests here plus an opaque
    /// route token carried on its departures (the engine passes the
    /// index of the leg that leaves this router). A body or tail stores
    /// nothing: it is counted.
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
        route: impl FnOnce() -> (Direction, u32),
        counters: &mut ActivityCounters,
    ) {
        let node = self.node_of(r);
        let vc = flit
            .vc
            .unwrap_or_else(|| panic!("{node}: flit arrived without a VC"));
        let pv = in_dir.index() * self.num_vcs + usize::from(vc.0);
        let bit = 1u64 << pv;
        let h = &mut self.hdrs[r];
        let st = &mut self.vcs[r * PORTS * self.num_vcs + pv];
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
            };
            h.want[out.index()] |= bit;
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
        if st.len == 0 {
            // The front flit: in BW now, eligible from the next step.
            h.nonempty |= bit;
            h.fresh |= bit;
        }
        st.len += 1;
        self.active.insert(r);
        self.total_buffered += 1;
        counters.buffer_writes += 1;
    }

    /// Run switch allocation for router `r` in this step, appending
    /// departures (flits entering ST in the next cycle) and credits
    /// released by departing tails into the caller's scratch vectors.
    ///
    /// Nothing is resolved here: every VC's `want` bit already names the
    /// output its packet wants (see [`RouterBank::receive`]), and a
    /// departing flit is rebuilt from its VC record.
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
        counters: &mut ActivityCounters,
        departures: &mut Vec<RouterDeparture>,
        credits: &mut Vec<CreditRelease>,
        probe: &mut P,
    ) {
        if cfg!(debug_assertions) {
            self.check_header(r);
        }
        let nv = self.num_vcs;
        let node = self.node_of(r);
        let h = &mut self.hdrs[r];
        // A VC is SA-eligible when it has a front flit that is not
        // still in BW. An empty router requests nothing and a
        // granted-nothing arbiter does not rotate, so returning early
        // is behavior-identical.
        let ready = h.nonempty & !h.fresh;
        h.fresh = 0;
        if ready == 0 {
            return;
        }

        // Output-major allocation: held outputs stream their holder; free
        // outputs arbitrate among eligible heads (needing a free VC).
        // Only outputs somebody wants are visited — an unwanted output
        // can have no winner and its granted-nothing arbiter would not
        // rotate, so skipping it is behavior-identical.
        // winners[o] = (input vc, is_new_head), valid where `win_mask`
        // has bit `o`.
        let mut winners: [(u8, bool); PORTS] = [(0, false); PORTS];
        let mut win_mask: u8 = 0;
        for (o, winner) in winners.iter_mut().enumerate() {
            let req = h.want[o] & ready;
            if req == 0 || h.out_enabled & (1 << o) == 0 {
                continue;
            }
            let holder = h.holder[o];
            if holder != NO_HOLDER {
                let held = 1u64 << holder;
                if req & held != 0 {
                    *winner = (holder, false);
                    win_mask |= 1 << o;
                }
                if P::ENABLED {
                    // Heads wanting a held output presented setups that
                    // are denied outright (the holder itself streams —
                    // not SSR traffic).
                    let denied = (req & !held).count_ones();
                    if denied > 0 {
                        probe.on_ssr_setups(denied);
                        probe.on_stall(u32::from(node.0), StallCause::HeldOutput, denied);
                    }
                }
                continue;
            }
            if h.free[o].is_empty() {
                if P::ENABLED {
                    let denied = req.count_ones();
                    probe.on_ssr_setups(denied);
                    probe.on_stall(u32::from(node.0), StallCause::NoFreeVc, denied);
                }
                continue; // heads need a free endpoint VC to request
            }
            // Only heads can want a non-held output (bodies follow
            // their hold), so every requester here is a head, and each
            // presented request is charged to the allocator.
            counters.sa_requests += u64::from(req.count_ones());
            if P::ENABLED {
                // Every requester is a head presenting an SSR setup;
                // round-robin losers stop prematurely in their buffers.
                let n = req.count_ones();
                probe.on_ssr_setups(n);
                if n > 1 {
                    probe.on_stall(u32::from(node.0), StallCause::OutputArb, n - 1);
                }
            }
            // Round-robin grant, bit-compatible with
            // [`RoundRobin::grant_mask`]: first requester at or after
            // the rotating pointer wins and becomes lowest priority (a
            // granted-nothing arbiter does not rotate).
            let next = usize::from(h.arb_next[o]);
            let above = req >> next;
            let g = if above != 0 {
                next + above.trailing_zeros() as usize
            } else {
                req.trailing_zeros() as usize
            };
            h.arb_next[o] = ((g + 1) % (PORTS * nv)) as u8;
            *winner = (g as u8, true);
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
                    let (pv, is_new) = winners[o];
                    if is_new == new_head {
                        let port = 1 << (usize::from(pv) / nv);
                        if port_taken & port != 0 {
                            win_mask &= !ob;
                            if P::ENABLED && is_new {
                                // A setup that won arbitration but lost
                                // the input port (a streaming loser is
                                // not SSR traffic and stays uncounted).
                                probe.on_stall(u32::from(node.0), StallCause::PortConflict, 1);
                            }
                        } else {
                            port_taken |= port;
                        }
                    }
                }
            }
        }

        // Execute grants.
        let recs = &mut self.vcs[r * PORTS * nv..][..PORTS * nv];
        let mut m = win_mask;
        while m != 0 {
            let o = m.trailing_zeros() as usize;
            m &= m - 1;
            let (pv, is_new) = winners[o];
            let endpoint_vc = if is_new {
                if P::ENABLED {
                    probe.on_ssr_grant();
                }
                let vc = h.free[o].pop().expect("head grant requires a free VC");
                (h.holder[o], h.evc[o]) = (pv, vc.0);
                vc
            } else {
                VcId(h.evc[o])
            };
            // The departing flit is the VC record plus its position.
            let pv = usize::from(pv);
            let st = &mut recs[pv];
            let flit = Flit {
                pkt: st.pkt,
                flow: st.flow,
                seq: st.seq,
                num_flits: st.num_flits,
                vc: Some(endpoint_vc),
            };
            st.seq += 1;
            st.len -= 1;
            if st.len == 0 {
                h.nonempty &= !(1 << pv);
            }
            if flit.is_tail() {
                assert!(
                    st.len == 0,
                    "{node}: tail departed but flits remain behind it"
                );
                h.holder[o] = NO_HOLDER;
                h.want[o] &= !(1 << pv);
                credits.push(CreditRelease {
                    router: r as u16,
                    in_dir: Direction::from_index(pv / nv),
                    vc: VcId((pv % nv) as u8),
                });
            }
            counters.buffer_reads += 1;
            counters.sa_grants += 1;
            departures.push(RouterDeparture {
                flit,
                out_dir: Direction::from_index(o),
                leg: st.leg,
            });
        }
        self.total_buffered -= u64::from(win_mask.count_ones());
        if h.nonempty == 0 {
            self.active.remove(r);
        }
    }

    /// The debug-build cross-check of router `r`'s header against its VC
    /// records: `want[o]` is exactly the occupied VCs whose packet names
    /// output `o`, and a VC with a body flit at its front holds that
    /// output.
    fn check_header(&self, r: usize) {
        let nv = self.num_vcs;
        let h = &self.hdrs[r];
        let mut named = [0u64; PORTS];
        for (pv, st) in self.vcs[r * PORTS * nv..][..PORTS * nv].iter().enumerate() {
            if st.occupied() {
                named[usize::from(st.out)] |= 1 << pv;
            }
            if h.nonempty & (1 << pv) != 0 && st.seq != 0 {
                assert_eq!(
                    usize::from(h.holder[usize::from(st.out)]),
                    pv,
                    "{}: a body flit is at the front of a VC that holds no output",
                    self.node_of(r)
                );
            }
        }
        assert_eq!(
            h.want,
            named,
            "{}: want[o] disagrees with the VC records",
            self.node_of(r)
        );
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
    use std::collections::VecDeque;

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
            self.bank.receive(0, in_dir, flit, route, counters);
        }

        /// [`RouterBank::allocate`] into fresh vectors: departures and
        /// the credits released by departing tails.
        fn allocate(
            &mut self,
            counters: &mut ActivityCounters,
        ) -> (Vec<RouterDeparture>, Vec<CreditRelease>) {
            let mut departures = Vec::new();
            let mut credits = Vec::new();
            self.bank
                .allocate(0, counters, &mut departures, &mut credits, &mut NoProbe);
            (departures, credits)
        }

        /// One engine step: buffer `arrivals` (each on its input, with
        /// its VC set), then allocate.
        fn step(
            &mut self,
            arrivals: &[(Direction, Flit)],
            flows: &FlowTable,
            counters: &mut ActivityCounters,
        ) -> Vec<RouterDeparture> {
            for &(in_dir, flit) in arrivals {
                self.receive(in_dir, flit, flows, counters);
            }
            self.allocate(counters).0
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

    /// The flits of a packet, all on VC `vc`.
    fn packet_flits(slot: u32, flow: FlowId, n: u8, vc: u8) -> Vec<Flit> {
        (0..n)
            .map(|s| Flit {
                vc: Some(VcId(vc)),
                ..Flit::new(PacketSlot(slot), flow, s, n)
            })
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
    fn packed_records_have_their_sizes() {
        // A router visit touches the header's two cache lines and, for
        // each winner, one VC record.
        assert_eq!(std::mem::size_of::<RouterHdr>(), 128);
        assert_eq!(std::mem::align_of::<RouterHdr>(), 64);
        assert_eq!(std::mem::size_of::<VcState>(), 16);
        assert_eq!(std::mem::size_of::<VcFifo>(), 8);
    }

    #[test]
    fn a_head_sits_out_the_allocation_of_its_own_step() {
        let mut r = prepared_router();
        let flows = table();
        let mut c = ActivityCounters::new();
        let head = packet_flits(1, FlowId(0), 2, 0)[0];
        // Arrived at the end of a; buffer-written in a + 1, whose
        // allocation it sits out.
        let d = r.step(&[(Direction::Core, head)], &flows, &mut c);
        assert!(d.is_empty());
        // SA in a + 2 grants.
        let d = r.step(&[], &flows, &mut c);
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
        // 4-flit packet arriving on consecutive cycles.
        let flits = packet_flits(1, FlowId(0), 4, 0);
        let mut sent = Vec::new();
        let mut credits = Vec::new();
        for step in 0..6 {
            if let Some(&f) = flits.get(step) {
                r.receive(Direction::Core, f, &flows, &mut c);
            }
            let (d, cr) = r.allocate(&mut c);
            if step == 0 {
                assert!(d.is_empty(), "the head is still in BW");
            }
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
        assert_eq!(r.bank.hdrs[0].nonempty, 0);
        assert_eq!(r.bank.hdrs[0].want, [0; PORTS]);
        assert_eq!(r.bank.hdrs[0].holder, [NO_HOLDER; PORTS]);
        // Output free VCs: started 2, head took 1, none returned yet.
        assert_eq!(r.bank.hdrs[0].free[Direction::East.index()].len(), 1);
    }

    #[test]
    fn no_grant_without_free_vc() {
        let mut r = prepared_router();
        let flows = table();
        let mut c = ActivityCounters::new();
        // Exhaust both endpoint VCs.
        r.bank.hdrs[0].free[Direction::East.index()] = VcFifo::default();
        let head = packet_flits(1, FlowId(0), 1, 0)[0];
        r.step(&[(Direction::Core, head)], &flows, &mut c);
        let d = r.step(&[], &flows, &mut c);
        assert!(d.is_empty(), "head must wait for a credit");
        // A credit arrives; now it goes.
        r.bank.credit(0, Direction::East, VcId(1));
        let d = r.step(&[], &flows, &mut c);
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
        // Packet A (flow 0) into vc0, packet B (flow 1) into vc1, their
        // flits arriving side by side.
        let a = packet_flits(10, FlowId(0), 3, 0);
        let b = packet_flits(11, FlowId(1), 3, 1);
        let mut order = Vec::new();
        for step in 0..12 {
            let arrivals: Vec<_> = [a.get(step), b.get(step)]
                .into_iter()
                .flatten()
                .map(|f| (Direction::Core, *f))
                .collect();
            for dep in r.step(&arrivals, &flows, &mut c) {
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
        // Packet A (flow 0, 3 flits) into vc0, one flit a cycle; packet
        // B (flow 1, 1 flit) into vc1 beside A's head.
        let a = packet_flits(1, FlowId(0), 3, 0);
        let b = packet_flits(2, FlowId(1), 1, 1);
        let mut order = Vec::new();
        for step in 0..10u64 {
            let i = step as usize;
            let arrivals: Vec<_> = [a.get(i), b.get(i)]
                .into_iter()
                .flatten()
                .map(|f| (Direction::Core, *f))
                .collect();
            for dep in r.step(&arrivals, &flows, &mut c) {
                order.push((step, dep.out_dir, dep.flit.pkt));
            }
        }
        // One flit per cycle from the shared Core input.
        let cycles: Vec<u64> = order.iter().map(|(c, _, _)| *c).collect();
        let mut dedup = cycles.clone();
        dedup.dedup();
        assert_eq!(cycles, dedup, "one flit per input port per cycle");
        assert_eq!(order.len(), 4, "all four flits depart");
        // Round-robin may admit B's head first or defer it, but once A's
        // stream holds East it may not be interleaved with B on the
        // input port.
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
        for f in packet_flits(1, FlowId(0), 3, 0) {
            r.receive(Direction::Core, f, &flows, &mut c);
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
        for f in flits {
            let flit = Flit {
                vc: Some(VcId(0)),
                ..*f
            };
            if bank {
                let route = || (Direction::East, 0);
                bare.receive(0, Direction::Core, flit, route, &mut c);
            } else {
                router.receive(Direction::Core, flit, &flows, &mut c);
            }
        }
    }

    /// Head and first body of packet 1, then flit `seq` of packet `pkt`.
    fn two_flits_then(pkt: u32, seq: u8) -> Vec<Flit> {
        let mut flits = packet_flits(1, FlowId(0), 4, 0);
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
        q: VecDeque<(Flit, u64)>,
        /// Output this VC's packet holds.
        hold: Option<usize>,
    }

    #[derive(Clone)]
    struct RefOut {
        free: VecDeque<VcId>,
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
        /// legal load, in the engine's schedule — the flits that arrived
        /// at the end of cycle `c - 1` are buffered before `allocate(c)`:
        /// the same departures — every field of every rebuilt flit, its
        /// output and its route token — the same credit releases and the
        /// same counters after every cycle.
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
            for cycle in 1..=300u64 {
                for (r, dir, vc) in load.credits() {
                    bank.credit(r, dir, vc);
                    model.credit(r, dir, vc);
                }
                for (r, in_dir, flit) in load.arrivals() {
                    bank.receive(r, in_dir, flit, || load_route(flit.flow), &mut c);
                    model.receive(r, in_dir, flit, cycle - 1, &mut c_ref);
                }
                let (mut deps, mut rels) = (Vec::new(), Vec::new());
                let (mut deps_ref, mut rels_ref) = (Vec::new(), Vec::new());
                for r in 0..N {
                    bank.allocate(r, &mut c, &mut deps, &mut rels, &mut NoProbe);
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
        /// load; allocate one over `0..n` (the early return skipping the
        /// drained routers) and the other over its active set. Both must
        /// produce the same departures and credits, and the set must be
        /// exactly the routers holding flits after every step.
        #[test]
        fn active_set_is_exactly_the_routers_holding_flits(seed in 1u64..u64::MAX) {
            const N: usize = 70; // two set words
            let mut load = Load::new(seed, N, 2, 4);
            let mut swept = load.bank();
            let mut walked = swept.clone();
            let mut c = ActivityCounters::new();
            for _ in 0..300 {
                for (r, dir, vc) in load.credits() {
                    swept.credit(r, dir, vc);
                    walked.credit(r, dir, vc);
                }
                for (r, in_dir, flit) in load.arrivals() {
                    let route = || load_route(flit.flow);
                    swept.receive(r, in_dir, flit, route, &mut c);
                    walked.receive(r, in_dir, flit, route, &mut c);
                }
                let (mut deps, mut rels) = (Vec::new(), Vec::new());
                for r in 0..N {
                    swept.allocate(r, &mut c, &mut deps, &mut rels, &mut NoProbe);
                }
                let (mut deps_w, mut rels_w) = (Vec::new(), Vec::new());
                for w in 0..walked.active().num_words() {
                    for r in walked.active().word(w) {
                        walked.allocate(r, &mut c, &mut deps_w, &mut rels_w, &mut NoProbe);
                    }
                }
                proptest::prop_assert_eq!(format!("{deps:?}"), format!("{deps_w:?}"));
                proptest::prop_assert_eq!(format!("{rels:?}"), format!("{rels_w:?}"));
                for bank in [&swept, &walked] {
                    let holding = (0..N).filter(|&r| bank.hdrs[r].nonempty != 0);
                    proptest::prop_assert!(bank.active().iter().eq(holding));
                    let total: u64 = bank.vcs.iter().map(|st| u64::from(st.len)).sum();
                    proptest::prop_assert_eq!(bank.total_buffered(), total);
                }
                load.departed(&deps, &rels);
            }
            proptest::prop_assert!(c.sa_grants > 100, "the script must move flits: {c:?}");
        }

        /// The one-`u64` FIFO against the `VecDeque` it stands for, over
        /// 1..=12 VCs: start full, then pop to empty and push back to
        /// full with credits returning in a random order, interleaved at
        /// random; `len`, `pop` and `contains` agree at every step.
        #[test]
        fn vc_fifo_is_a_deque(seed in 1u64..u64::MAX, nv in 1usize..=MAX_VCS_PER_PORT) {
            let mut rng = seed;
            let mut draw = |n: usize| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng % n as u64) as usize
            };
            let mut fifo = VcFifo::seed(nv);
            let mut deque: VecDeque<VcId> = (0..nv as u8).map(VcId).collect();
            let mut out: Vec<VcId> = Vec::new();
            for step in 0..400 {
                // Drain to empty and refill to full once each, then mix.
                let pop = match step {
                    0..=11 => true,
                    12..=23 => false,
                    _ => draw(2) == 0,
                };
                if pop {
                    let got = fifo.pop();
                    proptest::prop_assert_eq!(got, deque.pop_front());
                    out.extend(got);
                } else if !out.is_empty() {
                    let vc = out.swap_remove(draw(out.len()));
                    fifo.push(vc);
                    deque.push_back(vc);
                }
                proptest::prop_assert_eq!(fifo.len(), deque.len());
                proptest::prop_assert_eq!(fifo.is_empty(), deque.is_empty());
                for v in 0..16 {
                    let vc = VcId(v);
                    proptest::prop_assert_eq!(fifo.contains(vc), deque.contains(&vc));
                }
            }
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
