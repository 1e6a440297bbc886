//! Packets, flits, the packet-metadata arena, and header layout.
//!
//! Table II: 256-bit packets over 32-bit flits — an 8-flit packet whose
//! head flit carries a 20-bit header (route + VC + type) and whose body
//! and tail flits carry 4-bit headers (type + VC).
//!
//! The simulation mirrors the hardware's economy at both levels:
//!
//! * **Per packet.** The fields that never change (flow,
//!   generation/injection cycles, original [`PacketId`]) are interned
//!   **once** into a packet arena when the packet enters its source NIC
//!   and reached through an arena slot. A packet carries no source or
//!   destination: its flow's plan holds them, as the preset route does
//!   in hardware.
//! * **Per flit.** A flit is the small fixed-size `Copy` record that
//!   *moves* — out of a NIC, through the arrival rings, across a band
//!   boundary, into a NIC — and it names its packet, flow, position and
//!   VC so each of those places can check what it was handed. It is
//!   **not** what a router buffers. A body flit's 4-bit header is
//!   enough in hardware because under virtual cut-through the VC it
//!   sits in belongs to one packet from head to tail; the router bank
//!   keeps the same books: a VC records its packet when the head
//!   arrives, a body or tail arriving behind it is checked against that
//!   record and counted, and the flit that departs is rebuilt from the
//!   record.

use crate::route::SourceRoute;
use crate::topology::Topology;
use std::fmt;

/// Globally unique packet identifier (simulation-side bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PacketId(pub u64);

/// Identifies a communication flow (one task-graph edge mapped onto the
/// mesh). All packets of a flow share a static route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FlowId(pub u32);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Virtual channel index within an input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VcId(pub u8);

impl fmt::Display for VcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vc{}", self.0)
    }
}

/// Index of a live packet's metadata in the engine's [`PacketArena`].
///
/// Slots are recycled once the packet's tail reaches its destination
/// NIC, so the slot number is **not** a stable identity across the run —
/// the stable [`PacketId`] lives in the [`PacketMeta`] the slot points
/// at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub(crate) struct PacketSlot(pub(crate) u32);

/// One flit in flight: the small fixed-size record moved through NIC
/// queues, links and arrival rings every cycle. Per-packet fields live
/// in the [`PacketArena`], reached through `pkt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Flit {
    /// Arena slot of the packet this flit belongs to.
    pub pkt: PacketSlot,
    /// Flow this packet belongs to (kept inline: injection finds the
    /// first leg from it, traces and statistics are keyed by it).
    pub flow: FlowId,
    /// Index within the packet (0 = head).
    pub seq: u8,
    /// Total flits in the packet (a 1-flit packet's head is also its
    /// tail).
    pub num_flits: u8,
    /// VC currently allocated to this flit's packet at the router where
    /// the flit is buffered (`None` while unassigned).
    pub vc: Option<VcId>,
}

impl Flit {
    /// Flit `seq` of a packet interned at `pkt`, VC unassigned.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is outside the packet (`seq >= num_flits`) or
    /// the packet has zero flits.
    #[must_use]
    pub fn new(pkt: PacketSlot, flow: FlowId, seq: u8, num_flits: u8) -> Self {
        assert!(num_flits > 0, "a packet needs at least one flit");
        assert!(
            seq < num_flits,
            "flit {seq} outside a {num_flits}-flit packet"
        );
        Flit {
            pkt,
            flow,
            seq,
            num_flits,
            vc: None,
        }
    }

    /// `true` for the head flit.
    #[must_use]
    pub fn is_head(&self) -> bool {
        self.seq == 0
    }

    /// `true` for the last flit of its packet — which for a single-flit
    /// packet is the head itself (it still frees the VC and releases
    /// the switch hold).
    #[must_use]
    pub fn is_tail(&self) -> bool {
        self.seq + 1 == self.num_flits
    }
}

/// A whole packet, as produced by a traffic source before the NIC
/// serializes it into flits. Where it goes is its flow's business: the
/// flow's plan names the source and destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Unique id.
    pub id: PacketId,
    /// The flow it belongs to.
    pub flow: FlowId,
    /// Cycle it was generated.
    pub gen_cycle: u64,
    /// Number of flits (Table II: 8).
    pub num_flits: u8,
}

/// Interned per-packet metadata: everything the old inline flit carried
/// on every hop but that is constant for the packet's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PacketMeta {
    /// The packet's stable identity (traces, goldens, diagnostics).
    pub id: PacketId,
    /// The flow it belongs to.
    pub flow: FlowId,
    /// Cycle the packet was generated by the traffic source.
    pub gen_cycle: u64,
    /// Cycle the head entered the network (left the NIC queue); set by
    /// the NIC when transmission starts, `u64::MAX` until then.
    pub inject_cycle: u64,
    /// Total flits in the packet.
    pub num_flits: u8,
}

/// Slab of live packets' metadata with free-slot recycling.
///
/// [`Network::offer`](crate::network::Network::offer) interns each
/// generated [`Packet`] here; the slot is released when the tail flit is
/// delivered, so the arena's high-water mark tracks the number of
/// packets simultaneously in flight (queued included), not the total
/// injected — steady-state simulation performs no arena allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct PacketArena {
    slots: Vec<PacketMeta>,
    free: Vec<u32>,
}

impl PacketArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        PacketArena::default()
    }

    /// Intern `packet`, returning its slot.
    ///
    /// # Panics
    ///
    /// Panics if the packet has zero flits.
    pub fn intern(&mut self, packet: &Packet) -> PacketSlot {
        self.intern_meta(PacketMeta {
            id: packet.id,
            flow: packet.flow,
            gen_cycle: packet.gen_cycle,
            inject_cycle: u64::MAX,
            num_flits: packet.num_flits,
        })
    }

    /// Intern already-built metadata verbatim (including its
    /// `inject_cycle` stamp), returning its slot. This is how a packet
    /// crosses between row bands: the receiving band re-interns the
    /// sender's metadata so latency accounting survives the move.
    ///
    /// # Panics
    ///
    /// Panics if the metadata has zero flits.
    pub fn intern_meta(&mut self, meta: PacketMeta) -> PacketSlot {
        assert!(meta.num_flits > 0, "a packet needs at least one flit");
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = meta;
                PacketSlot(i)
            }
            None => {
                self.slots.push(meta);
                PacketSlot((self.slots.len() - 1) as u32)
            }
        }
    }

    /// The metadata at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never allocated.
    #[must_use]
    pub fn get(&self, slot: PacketSlot) -> &PacketMeta {
        &self.slots[slot.0 as usize]
    }

    /// Stamp the cycle the packet's head left its NIC queue.
    pub fn mark_injected(&mut self, slot: PacketSlot, cycle: u64) {
        self.slots[slot.0 as usize].inject_cycle = cycle;
    }

    /// Return `slot` to the free list (tail delivered).
    pub fn release(&mut self, slot: PacketSlot) {
        debug_assert!(!self.free.contains(&slot.0), "double release of {slot:?}");
        self.free.push(slot.0);
    }
}

/// Bit-level header layout for a given topology / VC configuration,
/// reproducing Table II's 20-bit head and 4-bit body/tail headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderLayout {
    /// Route field bits (2 per router on the longest minimal route).
    pub route_bits: usize,
    /// VC id bits.
    pub vc_bits: usize,
    /// Flit type bits (head/body/tail + valid).
    pub type_bits: usize,
}

impl HeaderLayout {
    /// Layout for `topo` with `vcs` virtual channels per port. The
    /// route field is sized by the fabric's longest minimal route, so a
    /// torus (whose wrap links halve the diameter) gets a *narrower*
    /// header than the mesh of the same dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `vcs` is zero.
    #[must_use]
    pub fn for_config(topo: Topology, vcs: usize) -> Self {
        assert!(vcs > 0, "need at least one virtual channel");
        let max_hops = topo.max_route_hops();
        HeaderLayout {
            route_bits: SourceRoute::header_bits(max_hops),
            vc_bits: bits_for(vcs),
            type_bits: 3, // 2-bit kind + valid
        }
    }

    /// Head-flit header width (route + VC + type).
    #[must_use]
    pub fn head_bits(&self) -> usize {
        self.route_bits + self.vc_bits + self.type_bits
    }

    /// Body/tail header width (VC + type).
    #[must_use]
    pub fn body_bits(&self) -> usize {
        self.vc_bits + self.type_bits
    }
}

/// Bits needed to represent `n` distinct values (at least 1).
#[must_use]
pub fn bits_for(n: usize) -> usize {
    let mut bits = 1;
    while (1usize << bits) < n {
        bits += 1;
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(id: u64, n: u8) -> Packet {
        Packet {
            id: PacketId(id),
            flow: FlowId(1),
            gen_cycle: 100,
            num_flits: n,
        }
    }

    #[test]
    fn flit_kinds_derive_from_sequence() {
        let flits: Vec<Flit> = (0..8)
            .map(|s| Flit::new(PacketSlot(7), FlowId(1), s, 8))
            .collect();
        assert!(flits[0].is_head());
        assert!(flits[7].is_tail());
        assert!(flits[1..7].iter().all(|f| !f.is_head() && !f.is_tail()));
        assert!(flits.iter().enumerate().all(|(i, f)| f.seq as usize == i));
    }

    #[test]
    fn single_flit_packet_is_head_and_tail() {
        // With num_flits == 1 the head doubles as tail in VCT semantics.
        let f = Flit::new(PacketSlot(0), FlowId(0), 0, 1);
        assert!(f.is_head());
        assert!(f.is_tail());
    }

    #[test]
    fn flit_is_small() {
        // The whole point of the arena: the record moved per hop stays
        // within a quarter of the old ~64-byte inline layout.
        assert!(std::mem::size_of::<Flit>() <= 16);
    }

    #[test]
    fn arena_interns_and_recycles() {
        let mut arena = PacketArena::new();
        let a = arena.intern(&packet(7, 8));
        let b = arena.intern(&packet(9, 4));
        assert_ne!(a, b);
        assert_eq!(arena.get(a).id, PacketId(7));
        assert_eq!(arena.get(a).inject_cycle, u64::MAX);
        arena.mark_injected(a, 110);
        assert_eq!(arena.get(a).inject_cycle, 110);
        assert_eq!(arena.get(b).num_flits, 4);

        // Releasing recycles the slot without growing the slab.
        arena.release(a);
        let c = arena.intern(&packet(11, 8));
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(arena.get(c).id, PacketId(11));
    }

    #[test]
    fn paper_header_widths() {
        // Table II: header width 20 bits (head), 4 bits (body, tail) for
        // a 4x4 mesh with 2 VCs.
        let l = HeaderLayout::for_config(Topology::paper_4x4(), 2);
        assert_eq!(l.route_bits, 14);
        assert_eq!(l.vc_bits, 1);
        assert_eq!(l.type_bits, 3);
        assert_eq!(l.head_bits(), 18, "within the paper's 20-bit budget");
        assert_eq!(l.body_bits(), 4);
    }

    #[test]
    fn bits_for_counts() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(16), 4);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_flit_packet_rejected() {
        let mut arena = PacketArena::new();
        let _ = arena.intern(&packet(0, 0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_seq_rejected() {
        let _ = Flit::new(PacketSlot(0), FlowId(0), 3, 3);
    }
}
