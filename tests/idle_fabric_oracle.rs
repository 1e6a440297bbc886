//! An independent oracle for "idle fabric is invisible" (ROADMAP 4b).
//!
//! The engine visits only routers and NICs that hold work, and every
//! equivalence net in the repository compares the engine with itself —
//! if all copies were wrong about state they skip, those nets would
//! agree with each other. This test asks a question with a known answer
//! instead: the same flows at the same coordinates, once on an 8×8 mesh
//! and once in the south-west corner of a 32×32 mesh whose other 960
//! routers never see a flit. XY routes between corner nodes never leave
//! the corner, so the big fabric must behave exactly like the small one
//! — same latencies, same drain cycle, same activity, the same flits on
//! the same links — on one band and on two, for Mesh and SMART. Only the
//! count of gated-off port cycles may differ (there are more ports to
//! gate).

use smart_noc::arch::config::NocConfig;
use smart_noc::arch::noc::{Design, DesignKind};
use smart_noc::sim::{
    ActivityCounters, Coord, Direction, FlowId, ModulatedTraffic, SimStats, SourceRoute,
    TemporalModel, Topology,
};

/// What a run leaves behind, with link counts keyed by coordinates.
#[derive(Debug, PartialEq)]
struct Outcome {
    stats: SimStats,
    counters: ActivityCounters,
    drained_at: u64,
    links: Vec<((u16, u16), Direction, u64)>,
}

/// Run `pairs` (coordinates inside the 8×8 corner) on `topo`.
fn run(
    topo: Topology,
    kind: DesignKind,
    bands: usize,
    pairs: &[(Coord, Coord)],
    seed: u64,
) -> Outcome {
    let cfg = NocConfig::with_topology(topo).sharded(bands);
    let routes: Vec<(FlowId, SourceRoute)> = pairs
        .iter()
        .enumerate()
        .map(|(i, (s, d))| {
            let route = SourceRoute::xy(topo, topo.node_at(*s), topo.node_at(*d)).expect("s != d");
            (FlowId(i as u32), route)
        })
        .collect();
    let mut design = Design::build(kind, &cfg, &routes);
    let rates: Vec<(FlowId, f64)> = routes.iter().map(|(f, _)| (*f, 0.01)).collect();
    let mut traffic =
        ModulatedTraffic::new(TemporalModel::Steady, &rates, cfg.flits_per_packet(), seed);
    design.run_with(&mut traffic, 3_000);
    assert!(design.drain(20_000), "{topo:?} {kind:?} failed to drain");
    let net = design.network().expect("Mesh or SMART");
    let mut counters = *net.counters();
    counters.gated_port_cycles = 0; // the one field that counts the idle fabric
    Outcome {
        stats: net.stats().clone(),
        counters,
        drained_at: net.cycle(),
        links: net
            .link_flit_counts()
            .map(|(link, n)| {
                let at = topo.coord(link.from);
                ((at.x, at.y), link.dir, n)
            })
            .collect(),
    }
}

/// `n` distinct-endpoint pairs inside the 8×8 corner, from a seed.
fn corner_pairs(n: usize, mut seed: u64) -> Vec<(Coord, Coord)> {
    let mut draw = || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed % 8) as u16
    };
    let mut pairs = Vec::new();
    while pairs.len() < n {
        let (s, d) = (
            Coord {
                x: draw(),
                y: draw(),
            },
            Coord {
                x: draw(),
                y: draw(),
            },
        );
        if s != d {
            pairs.push((s, d));
        }
    }
    pairs
}

#[test]
fn a_corner_of_32x32_behaves_like_the_8x8_it_embeds() {
    let (small, big) = (Topology::mesh(8, 8), Topology::mesh(32, 32));
    for flow_seed in [0x5EED, 0xC0FFEE] {
        let pairs = corner_pairs(24, flow_seed);
        for kind in [DesignKind::Mesh, DesignKind::Smart] {
            let reference = run(small, kind, 1, &pairs, 7);
            assert!(
                reference.stats.packets() > 300 && !reference.links.is_empty(),
                "the oracle needs traffic to compare: {} packets",
                reference.stats.packets()
            );
            for bands in [1, 2] {
                for topo in [small, big] {
                    let got = run(topo, kind, bands, &pairs, 7);
                    assert_eq!(
                        got, reference,
                        "{kind:?} on {topo:?}, {bands} band(s), flows {flow_seed:#x}"
                    );
                }
            }
        }
    }
}
