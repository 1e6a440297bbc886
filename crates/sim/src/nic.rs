//! Network interfaces: packet injection queues, serialization into
//! flits, and reception.
//!
//! A NIC owns the free-VC queue for the endpoint of its injection leg —
//! in SMART this can be the destination NIC itself (pure single-cycle
//! flow) or the input port of the first stop router. On the receive
//! side the NIC has `num_vcs` reception VCs; a tail arrival frees its VC
//! and returns a credit to whichever sender tracks this NIC.
//!
//! Serialization is incremental: the NIC holds the packet's arena slot
//! and a sequence counter and mints each flit the cycle it launches,
//! so the injection hot path performs no allocation (the PR-4
//! zero-steady-state-allocation invariant).
//!
//! A NIC is plain inline state — the free-VC queue is the routers'
//! nibble-packed `VcFifo`, reception occupancy a `u16` mask — so
//! building one allocates nothing; only a NIC that is actually offered a
//! packet grows an injection queue. A fabric's idle nodes cost their
//! `size_of::<Nic>()` and no more.

use crate::counters::ActivityCounters;
use crate::flit::{Flit, FlowId, PacketArena, PacketMeta, PacketSlot, VcId};
use crate::router::{VcFifo, MAX_VCS_PER_PORT};
use crate::topology::NodeId;
use std::collections::VecDeque;

/// A packet-latency sample produced when flits arrive at their
/// destination NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RxEvent {
    /// A head flit arrived: `(flow, head_latency, source_queue_delay)`.
    Head(FlowId, u64, u64),
    /// A tail arrived: `(flow, packet_latency, freed_vc)`.
    Tail(FlowId, u64, VcId),
}

/// The (at most two) latency events produced by one delivered flit — a
/// fixed-size return so reception allocates nothing per flit. A
/// single-flit packet yields both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct RxEvents {
    /// Set when the flit was a head.
    pub head: Option<RxEvent>,
    /// Set when the flit was a tail.
    pub tail: Option<RxEvent>,
}

/// A packet waiting in the injection queue.
#[derive(Debug, Clone, Copy)]
struct QueuedTx {
    slot: PacketSlot,
    flow: FlowId,
    num_flits: u8,
}

/// State of one in-progress packet transmission.
#[derive(Debug, Clone, Copy)]
struct CurrentTx {
    slot: PacketSlot,
    flow: FlowId,
    num_flits: u8,
    next_seq: u8,
    vc: VcId,
}

/// A network interface (one per node).
#[derive(Debug, Clone)]
pub struct Nic {
    node: NodeId,
    /// Packets waiting to enter the network, in generation order.
    inject_queue: VecDeque<QueuedTx>,
    current: Option<CurrentTx>,
    /// Free VCs at this NIC's injection-leg endpoint (only meaningful if
    /// the node sources at least one flow).
    free_vcs: VcFifo,
    /// Reception VCs: bit `v` is set while VC `v` is occupied by an
    /// in-flight packet (head received, tail not yet).
    rx_occupied: u16,
    num_vcs: u8,
}

impl Nic {
    /// A NIC with `num_vcs` injection-endpoint and reception VCs.
    ///
    /// # Panics
    ///
    /// Panics if `num_vcs` is zero or exceeds [`MAX_VCS_PER_PORT`].
    #[must_use]
    pub fn new(node: NodeId, num_vcs: usize) -> Self {
        assert!(num_vcs > 0, "need at least one VC");
        assert!(
            num_vcs <= MAX_VCS_PER_PORT,
            "a NIC supports at most {MAX_VCS_PER_PORT} VCs"
        );
        Nic {
            node,
            inject_queue: VecDeque::new(),
            current: None,
            free_vcs: VcFifo::seed(num_vcs),
            rx_occupied: 0,
            num_vcs: num_vcs as u8,
        }
    }

    /// This NIC's node.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Queue an interned packet for injection. The caller found this NIC
    /// from the packet's flow plan.
    pub(crate) fn offer(&mut self, slot: PacketSlot, meta: &PacketMeta) {
        self.inject_queue.push_back(QueuedTx {
            slot,
            flow: meta.flow,
            num_flits: meta.num_flits,
        });
    }

    /// Packets (whole or partially sent) still waiting at this NIC.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.inject_queue.len() + usize::from(self.current.is_some())
    }

    /// Return a credit for the injection-leg endpoint.
    ///
    /// # Panics
    ///
    /// Panics on double-free.
    pub fn credit(&mut self, vc: VcId) {
        assert!(
            !self.free_vcs.contains(vc),
            "{}: double credit for {vc} at NIC",
            self.node
        );
        self.free_vcs.push(vc);
        assert!(
            self.free_vcs.len() <= usize::from(self.num_vcs),
            "{}: more credits than VCs at NIC",
            self.node
        );
    }

    /// Try to send one flit during `cycle`. Returns the flit to launch
    /// onto the injection leg, if any.
    ///
    /// A new packet starts only when the endpoint has a free VC
    /// (virtual cut-through); once started, a packet streams one flit
    /// per cycle without stalling. The head's launch cycle is stamped
    /// into the arena as the packet's injection cycle.
    pub(crate) fn try_inject(
        &mut self,
        arena: &mut PacketArena,
        cycle: u64,
        counters: &mut ActivityCounters,
    ) -> Option<Flit> {
        if self.current.is_none() {
            let queued = *self.inject_queue.front()?;
            let vc = self.free_vcs.pop()?;
            self.inject_queue.pop_front();
            arena.mark_injected(queued.slot, cycle);
            counters.packets_injected += 1;
            self.current = Some(CurrentTx {
                slot: queued.slot,
                flow: queued.flow,
                num_flits: queued.num_flits,
                next_seq: 0,
                vc,
            });
        }
        let tx = self.current.as_mut().expect("set above");
        let mut flit = Flit::new(tx.slot, tx.flow, tx.next_seq, tx.num_flits);
        flit.vc = Some(tx.vc);
        tx.next_seq += 1;
        if tx.next_seq == tx.num_flits {
            self.current = None;
        }
        Some(flit)
    }

    /// Receive a flit arriving at the end of `cycle`; returns the
    /// latency events and (for tails) the freed reception VC. `meta`
    /// must be the arena entry for `flit.pkt`.
    ///
    /// # Panics
    ///
    /// Panics on reception-VC protocol violations.
    pub(crate) fn receive(
        &mut self,
        flit: Flit,
        meta: &PacketMeta,
        cycle: u64,
        counters: &mut ActivityCounters,
    ) -> RxEvents {
        let vc = flit
            .vc
            .unwrap_or_else(|| panic!("{}: flit without VC at NIC", self.node));
        assert!(
            vc.0 < self.num_vcs,
            "{}: {vc} is not a reception VC",
            self.node
        );
        let bit = 1u16 << vc.0;
        counters.flits_delivered += 1;
        let mut events = RxEvents::default();
        if flit.is_head() {
            assert!(
                self.rx_occupied & bit == 0,
                "{}: head arrived into occupied rx {vc}",
                self.node
            );
            self.rx_occupied |= bit;
            let head_latency = cycle - meta.inject_cycle + 1;
            let src_q = meta.inject_cycle - meta.gen_cycle;
            events.head = Some(RxEvent::Head(flit.flow, head_latency, src_q));
        }
        if flit.is_tail() {
            assert!(
                self.rx_occupied & bit != 0,
                "{}: tail arrived into idle rx {vc}",
                self.node
            );
            self.rx_occupied &= !bit;
            // A VC carries one packet from head to tail, so the tail's
            // metadata names the send cycle its head was stamped with.
            let packet_latency = cycle - meta.inject_cycle + 1;
            counters.packets_delivered += 1;
            events.tail = Some(RxEvent::Tail(flit.flow, packet_latency, vc));
        }
        events
    }

    /// `true` when nothing is queued, in flight, or half-received.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.inject_queue.is_empty() && self.current.is_none() && self.rx_occupied == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Packet, PacketId};

    fn packet(id: u64, n: u8) -> Packet {
        Packet {
            id: PacketId(id),
            flow: FlowId(0),
            gen_cycle: 10,
            num_flits: n,
        }
    }

    fn offer(nic: &mut Nic, arena: &mut PacketArena, p: &Packet) -> PacketSlot {
        let slot = arena.intern(p);
        nic.offer(slot, arena.get(slot));
        slot
    }

    #[test]
    fn injects_one_flit_per_cycle() {
        let mut nic = Nic::new(NodeId(1), 2);
        let mut arena = PacketArena::new();
        let mut c = ActivityCounters::new();
        let slot = offer(&mut nic, &mut arena, &packet(1, 3));
        let f0 = nic.try_inject(&mut arena, 110, &mut c).expect("head goes");
        assert!(f0.is_head());
        assert_eq!(arena.get(slot).inject_cycle, 110);
        assert_eq!(f0.vc, Some(VcId(0)));
        let f1 = nic.try_inject(&mut arena, 111, &mut c).expect("body");
        assert!(!f1.is_head() && !f1.is_tail());
        let f2 = nic.try_inject(&mut arena, 112, &mut c).expect("tail");
        assert!(f2.is_tail());
        assert!(nic.try_inject(&mut arena, 113, &mut c).is_none());
        assert_eq!(c.packets_injected, 1);
    }

    #[test]
    fn vc_exhaustion_blocks_new_packets() {
        let mut nic = Nic::new(NodeId(1), 1);
        let mut arena = PacketArena::new();
        let mut c = ActivityCounters::new();
        offer(&mut nic, &mut arena, &packet(1, 1));
        offer(&mut nic, &mut arena, &packet(2, 1));
        assert!(nic.try_inject(&mut arena, 0, &mut c).is_some());
        // Only one endpoint VC and no credit back yet.
        assert!(nic.try_inject(&mut arena, 1, &mut c).is_none());
        assert_eq!(nic.backlog(), 1);
        nic.credit(VcId(0));
        assert!(nic.try_inject(&mut arena, 2, &mut c).is_some());
    }

    #[test]
    fn reception_produces_latency_events() {
        let src_nic_cycle = 50;
        let mut tx = Nic::new(NodeId(1), 2);
        let mut rx = Nic::new(NodeId(2), 2);
        let mut arena = PacketArena::new();
        let mut c = ActivityCounters::new();
        let slot = offer(&mut tx, &mut arena, &packet(1, 2));
        let head = tx
            .try_inject(&mut arena, src_nic_cycle, &mut c)
            .expect("head");
        let tail = tx
            .try_inject(&mut arena, src_nic_cycle + 1, &mut c)
            .expect("tail");
        // Head arrives end of cycle 50 (single-cycle SMART path):
        // network latency 1 cycle, 40 cycles of source queueing
        // (generated at 10, injected at 50).
        let ev = rx.receive(head, arena.get(slot), 50, &mut c);
        assert_eq!(ev.head, Some(RxEvent::Head(FlowId(0), 1, 40)));
        assert_eq!(ev.tail, None);
        let ev = rx.receive(tail, arena.get(slot), 51, &mut c);
        assert_eq!(ev.tail, Some(RxEvent::Tail(FlowId(0), 2, VcId(0))));
        assert_eq!(c.packets_delivered, 1);
        assert_eq!(c.flits_delivered, 2);
        assert!(rx.is_drained());
    }

    #[test]
    fn single_flit_packet_yields_both_events() {
        let mut tx = Nic::new(NodeId(1), 2);
        let mut rx = Nic::new(NodeId(2), 2);
        let mut arena = PacketArena::new();
        let mut c = ActivityCounters::new();
        let slot = offer(&mut tx, &mut arena, &packet(1, 1));
        let flit = tx.try_inject(&mut arena, 20, &mut c).expect("single flit");
        let ev = rx.receive(flit, arena.get(slot), 20, &mut c);
        assert!(matches!(ev.head, Some(RxEvent::Head(..))));
        assert!(matches!(ev.tail, Some(RxEvent::Tail(..))));
        assert!(rx.is_drained());
    }

    #[test]
    #[should_panic(expected = "double credit")]
    fn double_credit_panics() {
        let mut nic = Nic::new(NodeId(1), 2);
        nic.credit(VcId(0));
    }
}
