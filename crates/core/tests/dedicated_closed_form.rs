//! Dedicated against its closed form: the test draws its own packet
//! stream from a seeded LCG, computes what Section VI's definition says
//! each flow must see, and compares with what the model reports through
//! its public counters and statistics only.
//!
//! * A private destination is one 1-cycle wire: every head arrives in
//!   one cycle, every 8-flit packet in eight, and a wire carries one
//!   packet per eight cycles, so packet *k* of a flow leaves its source
//!   at `inject_k = max(gen_k, inject_{k-1} + 8)`.
//! * A shared destination serializes into the NIC one flit per cycle,
//!   behind a buffer-write, arbitration and switch-traversal stop.

use smart_core::config::NocConfig;
use smart_core::DedicatedNoc;
use smart_sim::{FlowId, NodeId, Packet, PacketId, SourceRoute};

const FLITS: u8 = 8;

/// Knuth's MMIX linear congruential generator, top 53 bits as a uniform
/// draw in [0, 1).
struct Lcg(u64);

impl Lcg {
    fn uniform(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn build(cfg: &NocConfig, pairs: &[(u16, u16)]) -> DedicatedNoc {
    let routes: Vec<(FlowId, SourceRoute)> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(s, d))| {
            let r = SourceRoute::xy(cfg.topology, NodeId(s), NodeId(d)).expect("route");
            (FlowId(i as u32), r)
        })
        .collect();
    DedicatedNoc::new(cfg, &routes)
}

fn packet(flow: usize, id: u64, gen_cycle: u64) -> Packet {
    Packet {
        id: PacketId(id),
        flow: FlowId(flow as u32),
        gen_cycle,
        num_flits: FLITS,
    }
}

#[test]
fn private_sinks_match_the_closed_form() {
    // Six flows on 8×8 with distinct destinations; flows 0 and 1 share
    // their source. Rates up to 0.2 packets/cycle exceed a wire's 1/8,
    // so source queues build.
    let pairs: [(u16, u16); 6] = [(0, 63), (0, 7), (9, 54), (20, 3), (45, 18), (62, 33)];
    let rates = [0.2, 0.05, 0.1, 0.15, 0.02, 0.2];
    let cfg = NocConfig::scaled(8);
    let mut noc = build(&cfg, &pairs);
    let mut rng = Lcg(0x5EED);
    let mut gens: Vec<Vec<u64>> = vec![Vec::new(); pairs.len()];
    for c in 0..1_500 {
        assert_eq!(noc.cycle(), c);
        for (f, rate) in rates.iter().enumerate() {
            if rng.uniform() < *rate {
                noc.offer(packet(f, c * 8 + f as u64, c));
                gens[f].push(c);
            }
        }
        noc.step();
    }
    assert!(noc.drain(20_000), "every queue drains");

    let mut hops_sum = 0u64;
    for (f, gen) in gens.iter().enumerate() {
        let n = gen.len() as u64;
        assert!(n > 0, "flow {f} offered nothing");
        let mut queued = 0u64;
        let mut prev: Option<u64> = None;
        for &g in gen {
            let inject = prev.map_or(g, |p| g.max(p + u64::from(FLITS)));
            queued += inject - g;
            prev = Some(inject);
        }
        let s = noc.stats().flow(FlowId(f as u32)).expect("delivered");
        assert_eq!(s.packets, n, "flow {f}: delivered = offered");
        assert_eq!((s.head_latency_min, s.head_latency_max), (1, 1), "flow {f}");
        assert_eq!(s.packet_latency_sum, u64::from(FLITS) * n, "flow {f}");
        assert_eq!(s.source_queue_sum, queued, "flow {f}");
        let (src, dst) = pairs[f];
        hops_sum += n * u64::from(cfg.topology.distance(NodeId(src), NodeId(dst)));
    }
    let offered: u64 = gens.iter().map(|g| g.len() as u64).sum();
    assert!(
        gens[0].len() as u64 * u64::from(FLITS) > 1_500,
        "flow 0 must outrun its wire"
    );
    let c = noc.counters();
    assert_eq!(c.packets_delivered, offered);
    assert_eq!(c.flits_delivered, offered * u64::from(FLITS));
    assert_eq!(c.link_flit_mm, (u64::from(FLITS) * hops_sum) as f64);
}

#[test]
fn a_shared_sink_ejects_at_most_one_flit_a_cycle() {
    // Three flows into node 5, each offered `P` packets at cycle 0: the
    // wires deliver three flits a cycle, the sink ejects one.
    const P: u64 = 6;
    let pairs = [(0, 5), (10, 5), (15, 5)];
    let cfg = NocConfig::paper_4x4();
    let mut noc = build(&cfg, &pairs);
    for f in 0..pairs.len() {
        for m in 0..P {
            noc.offer(packet(f, m * 3 + f as u64, 0));
        }
    }
    let mut delivered = 0;
    let mut busy = Vec::new();
    while noc.cycle() < 1_000 {
        let c = noc.cycle();
        noc.step();
        let now = noc.counters().flits_delivered;
        assert!(now - delivered <= 1, "two flits ejected in step {c}");
        if now > delivered {
            busy.push(c);
        }
        delivered = now;
    }
    // Saturated, the sink ejects in every step from the first grant
    // (step 2) on, until all 3·P·8 flits are out.
    let flits = 3 * P * u64::from(FLITS);
    assert_eq!(busy, (2..2 + flits).collect::<Vec<_>>());
    assert_eq!(noc.counters().packets_delivered, 3 * P);
    // Round-robin in route order, the switch held per packet: the n-th
    // packet through the sink (n = 3m + f) is flow f's m-th, injected at
    // 8m; its head wins at 2 + 8n and arrives a cycle later.
    for f in 0..3u64 {
        let s = noc.stats().flow(FlowId(f as u32)).expect("delivered");
        let expect: u64 = (0..P).map(|m| 4 + 16 * m + 8 * f).sum();
        assert_eq!(s.head_latency_sum, expect, "flow {f}");
    }
}

#[test]
fn a_lone_packet_at_a_shared_sink_pays_one_stop() {
    let pairs = [(0, 5), (10, 5), (15, 5)];
    let mut noc = build(&NocConfig::paper_4x4(), &pairs);
    noc.offer(packet(1, 0, 0));
    assert!(noc.drain(100));
    let s = noc.stats().flow(FlowId(1)).expect("delivered");
    assert_eq!((s.head_latency_min, s.head_latency_max), (4, 4));
    assert_eq!(s.packet_latency_sum, 4 + 7);
}

#[test]
fn packets_fifty_cycles_apart_each_see_the_lone_packet_latency() {
    // Flows 0 and 1 share node 5, flow 2 has node 12 to itself. One
    // packet every 50 cycles, flows in turn: each crosses an otherwise
    // empty model, which is quiescent for most of the run.
    const N: u64 = 30;
    const RUN: u64 = 50 * N + 50;
    let pairs = [(0, 5), (10, 5), (3, 12)];
    let mut noc = build(&NocConfig::paper_4x4(), &pairs);
    for c in 0..RUN {
        let k = c / 50;
        if c % 50 == 0 && k < N {
            noc.offer(packet((k % 3) as usize, k, c));
        }
        noc.step();
    }
    assert!(noc.is_quiescent());
    assert_eq!(noc.cycle(), RUN);
    assert_eq!(noc.counters().cycles, RUN);
    assert_eq!(noc.counters().packets_delivered, N);
    for f in 0..3u32 {
        // A shared sink's stop adds BW, SA and ST to the 1-cycle wire.
        let (head, packet) = if f < 2 { (4, 4 + 7) } else { (1, 8) };
        let s = noc.stats().flow(FlowId(f)).expect("delivered");
        assert_eq!(s.packets, N / 3, "flow {f}");
        assert_eq!(
            (s.head_latency_min, s.head_latency_max),
            (head, head),
            "flow {f}"
        );
        assert_eq!(s.packet_latency_sum, packet * N / 3, "flow {f}");
        assert_eq!(s.source_queue_sum, 0, "flow {f}");
    }
}
