//! Event tracing and VCD emission.
//!
//! The paper estimated power by feeding VCD activity dumps from
//! post-layout simulation into Synopsys PrimePower. This module is the
//! reproduction's analogue: the engine can record micro-architectural
//! events (buffer writes, segment launches, deliveries, credits), which
//! can be re-aggregated into activity counters (validating the live
//! accounting), rendered as a flit-journey log, or dumped as a VCD
//! waveform of per-router activity for external viewers.

use crate::flit::{FlowId, PacketId};
use crate::topology::{Direction, NodeId, Topology};
use std::fmt::Write as _;

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceKind {
    /// A flit was written into input `in_dir` of `router`.
    BufferWrite {
        /// Stop router.
        router: NodeId,
        /// Input port.
        in_dir: Direction,
    },
    /// A flit launched onto a leg: it crosses `links` links and
    /// `crossbars` crossbars within one `ST(+LT)`.
    Launch {
        /// Router it departs from (or the source for NIC injections).
        from: NodeId,
        /// Links crossed this cycle.
        links: u8,
        /// Crossbars traversed.
        crossbars: u8,
        /// Millimetres of wire.
        mm: f64,
    },
    /// A flit reached its destination NIC.
    Deliver {
        /// Destination node.
        node: NodeId,
        /// Head flit?
        head: bool,
        /// Tail flit?
        tail: bool,
    },
    /// A credit returned to its sender across the reverse mesh.
    Credit {
        /// Crossbars the credit traversed.
        crossbars: u8,
        /// Millimetres of credit wire.
        mm: f64,
    },
}

/// A timestamped trace record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Cycle of the event (the `ST` cycle for launches).
    pub cycle: u64,
    /// Flow involved.
    pub flow: FlowId,
    /// Packet involved.
    pub packet: PacketId,
    /// What happened.
    pub kind: TraceKind,
}

/// A bounded in-memory event recorder.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    records: Vec<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    /// A tracer holding at most `capacity` records (older events are
    /// never evicted; overflow is counted instead, keeping the record
    /// stream contiguous from cycle zero).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            records: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Record one event.
    pub fn record(&mut self, rec: TraceRecord) {
        if self.records.len() < self.capacity {
            self.records.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Events that arrived after the buffer filled.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// One trace from the per-band tracers of a multi-band run:
    /// records concatenated in the order given (ascending band) and
    /// stable-sorted by cycle, capacities and drop counts summed.
    #[must_use]
    pub fn merge<'a>(bands: impl Iterator<Item = &'a Tracer>) -> Tracer {
        let mut out = Tracer::default();
        for t in bands {
            out.records.extend_from_slice(&t.records);
            out.capacity += t.capacity;
            out.dropped += t.dropped;
        }
        out.records.sort_by_key(|r| r.cycle);
        out
    }

    /// Re-aggregate activity counts from the trace (the event-driven
    /// subset: buffer writes, crossbar/link activity, deliveries).
    /// Used to cross-validate the engine's live counters.
    #[must_use]
    pub fn replay_counts(&self) -> ReplayCounts {
        let mut c = ReplayCounts::default();
        for r in &self.records {
            match r.kind {
                TraceKind::BufferWrite { .. } => c.buffer_writes += 1,
                TraceKind::Launch { crossbars, mm, .. } => {
                    c.xbar_flit_traversals += u64::from(crossbars);
                    c.link_flit_mm += mm;
                }
                TraceKind::Deliver { head, tail, .. } => {
                    c.flits_delivered += 1;
                    if head {
                        c.heads_delivered += 1;
                    }
                    if tail {
                        c.packets_delivered += 1;
                    }
                }
                TraceKind::Credit { crossbars, mm } => {
                    c.xbar_credit_traversals += u64::from(crossbars);
                    c.link_credit_mm += mm;
                }
            }
        }
        c
    }

    /// Human-readable journey of one packet, one line per event, in
    /// pipeline order: by cycle, then launches before buffer writes
    /// before deliveries, then by node. The order depends only on the
    /// set of records, not on the order they were appended in (engine
    /// phases interleave cycles; a multi-band run also interleaves
    /// bands), so every band count tells the same story.
    #[must_use]
    pub fn journey(&self, packet: PacketId) -> String {
        let mut lines: Vec<(u64, u8, u16, String)> = self
            .records
            .iter()
            .filter(|r| r.packet == packet)
            .map(|r| {
                let (rank, node, what) = match r.kind {
                    TraceKind::Launch {
                        from,
                        links,
                        crossbars,
                        ..
                    } => (
                        0,
                        from,
                        format!(
                            "ST from {from} — {links} links / {crossbars} crossbars in this cycle"
                        ),
                    ),
                    TraceKind::BufferWrite { router, in_dir } => {
                        (1, router, format!("buffered at {router} input {in_dir}"))
                    }
                    TraceKind::Deliver { node, head, tail } => (
                        2,
                        node,
                        format!(
                            "delivered at {node}{}{}",
                            if head { " [head]" } else { "" },
                            if tail { " [tail]" } else { "" }
                        ),
                    ),
                    TraceKind::Credit { .. } => {
                        (3, NodeId(0), "credit returned upstream".to_owned())
                    }
                };
                (r.cycle, rank, node.0, what)
            })
            .collect();
        lines.sort();
        lines
            .iter()
            .map(|(cycle, _, _, what)| format!("cycle {cycle:>4}: {what}\n"))
            .collect()
    }

    /// Dump per-router activity as a VCD waveform (one wire per router,
    /// high on cycles with any event there), with the cycle as the VCD
    /// timescale unit.
    #[must_use]
    pub fn to_vcd(&self, topo: Topology, module: &str) -> String {
        let n = topo.len();
        let mut s = String::new();
        writeln!(s, "$date smart-noc trace $end").expect("infallible");
        writeln!(s, "$timescale 500ps $end").expect("infallible");
        writeln!(s, "$scope module {module} $end").expect("infallible");
        for i in 0..n {
            writeln!(s, "$var wire 1 {} router_{}_active $end", ident(i), i).expect("infallible");
        }
        writeln!(s, "$upscope $end").expect("infallible");
        writeln!(s, "$enddefinitions $end").expect("infallible");

        // Per-cycle activity bitmap. Records are appended in engine-phase
        // order; VCD requires monotone timestamps.
        let mut sorted: Vec<&TraceRecord> = self.records.iter().collect();
        sorted.sort_by_key(|r| r.cycle);
        let mut active = vec![false; n];
        let mut last_cycle = None::<u64>;
        let mut pending = vec![false; n];
        let flush = |s: &mut String, cycle: u64, active: &mut Vec<bool>, pending: &Vec<bool>| {
            writeln!(s, "#{cycle}").expect("infallible");
            for i in 0..n {
                if active[i] != pending[i] {
                    writeln!(s, "{}{}", u8::from(pending[i]), ident(i)).expect("infallible");
                    active[i] = pending[i];
                }
            }
        };
        for r in sorted {
            if last_cycle != Some(r.cycle) {
                if let Some(c) = last_cycle {
                    flush(&mut s, c, &mut active, &pending);
                }
                pending = vec![false; n];
                last_cycle = Some(r.cycle);
            }
            let node = match r.kind {
                TraceKind::BufferWrite { router, .. } => Some(router),
                TraceKind::Launch { from, .. } => Some(from),
                TraceKind::Deliver { node, .. } => Some(node),
                TraceKind::Credit { .. } => None,
            };
            if let Some(nd) = node {
                pending[nd.0 as usize] = true;
            }
        }
        if let Some(c) = last_cycle {
            flush(&mut s, c, &mut active, &pending);
            // Return all wires low one cycle later.
            pending = vec![false; n];
            flush(&mut s, c + 1, &mut active, &pending);
        }
        s
    }
}

/// Counter subset reconstructable from a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayCounts {
    /// Buffer writes observed.
    pub buffer_writes: u64,
    /// Flit crossbar traversals.
    pub xbar_flit_traversals: u64,
    /// Credit crossbar traversals.
    pub xbar_credit_traversals: u64,
    /// Flit link mm.
    pub link_flit_mm: f64,
    /// Credit link mm.
    pub link_credit_mm: f64,
    /// Flits delivered.
    pub flits_delivered: u64,
    /// Head flits delivered.
    pub heads_delivered: u64,
    /// Packets (tails) delivered.
    pub packets_delivered: u64,
}

/// Compact printable VCD identifier for index `i`.
fn ident(i: usize) -> String {
    // Printable ASCII '!'..'~', multi-char for larger indices.
    let chars: Vec<u8> = (b'!'..=b'~').collect();
    let mut v = Vec::new();
    let mut x = i;
    loop {
        v.push(chars[x % chars.len()]);
        x /= chars.len();
        if x == 0 {
            break;
        }
    }
    String::from_utf8(v).expect("printable ascii")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cycle: u64, kind: TraceKind) -> TraceRecord {
        TraceRecord {
            cycle,
            flow: FlowId(0),
            packet: PacketId(1),
            kind,
        }
    }

    #[test]
    fn capacity_bounds_recording() {
        let mut t = Tracer::with_capacity(2);
        for i in 0..5 {
            t.record(rec(
                i,
                TraceKind::Deliver {
                    node: NodeId(0),
                    head: true,
                    tail: false,
                },
            ));
        }
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn replay_counts_aggregate() {
        let mut t = Tracer::with_capacity(100);
        t.record(rec(
            0,
            TraceKind::Launch {
                from: NodeId(0),
                links: 3,
                crossbars: 4,
                mm: 3.0,
            },
        ));
        t.record(rec(
            1,
            TraceKind::BufferWrite {
                router: NodeId(2),
                in_dir: Direction::West,
            },
        ));
        t.record(rec(
            2,
            TraceKind::Deliver {
                node: NodeId(3),
                head: true,
                tail: true,
            },
        ));
        t.record(rec(
            3,
            TraceKind::Credit {
                crossbars: 4,
                mm: 3.0,
            },
        ));
        let c = t.replay_counts();
        assert_eq!(c.buffer_writes, 1);
        assert_eq!(c.xbar_flit_traversals, 4);
        assert_eq!(c.xbar_credit_traversals, 4);
        assert!((c.link_flit_mm - 3.0).abs() < 1e-12);
        assert_eq!(c.flits_delivered, 1);
        assert_eq!(c.packets_delivered, 1);
    }

    #[test]
    fn journey_is_chronological_prose() {
        let mut t = Tracer::with_capacity(10);
        t.record(rec(
            5,
            TraceKind::Launch {
                from: NodeId(0),
                links: 2,
                crossbars: 2,
                mm: 2.0,
            },
        ));
        t.record(rec(
            5,
            TraceKind::BufferWrite {
                router: NodeId(2),
                in_dir: Direction::West,
            },
        ));
        let j = t.journey(PacketId(1));
        assert!(j.contains("cycle    5: ST from n0"));
        assert!(j.contains("buffered at n2 input W"));
        assert!(t.journey(PacketId(99)).is_empty());
    }

    #[test]
    fn vcd_structure() {
        let mesh = Topology::paper_4x4();
        let mut t = Tracer::with_capacity(10);
        t.record(rec(
            0,
            TraceKind::Launch {
                from: NodeId(5),
                links: 1,
                crossbars: 1,
                mm: 1.0,
            },
        ));
        t.record(rec(
            3,
            TraceKind::Deliver {
                node: NodeId(6),
                head: true,
                tail: false,
            },
        ));
        let vcd = t.to_vcd(mesh, "smart_mesh");
        assert_eq!(vcd.matches("$var wire 1").count(), 16);
        assert!(vcd.contains("$enddefinitions $end"));
        assert!(vcd.contains("#0"));
        assert!(vcd.contains("#3"));
        // Router 5's wire goes high at its event.
        let id5 = ident(5);
        assert!(vcd.contains(&format!("1{id5}")), "{vcd}");
    }

    #[test]
    fn idents_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..200 {
            let id = ident(i);
            assert!(id.bytes().all(|b| (b'!'..=b'~').contains(&b)));
            assert!(seen.insert(id));
        }
    }
}
