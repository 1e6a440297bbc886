//! Engine == reference: `smart_sim::Network`, at one band and at two,
//! against [`RefNetwork`] on the same flow plans and the same traffic —
//! equal `SimStats`, every activity counter (the `f64` millimetre sums
//! exactly), per-link flit counts and drain cycle.
//!
//! * `golden/reference_4x4.txt` pins, one line per case, what the frozen
//!   legacy engine this reference replaced produced on 4×4 transpose
//!   Mesh plans (the deep-saturation anchor plus ten fixed `(rate, seed)`
//!   pairs); both engines must still produce every line.
//! * The grid and the proptest net run Mesh plans and SMART plans
//!   compiled at `HPC_max` 2 and 8 — multi-link single-cycle legs whose
//!   sender owns the free-VC queue of a router several hops away, and
//!   wrap legs across the torus seam — on a 4×4 mesh, an 8×8 mesh and a
//!   6×6 torus, under transpose, uniform and a mapped application, from
//!   light load to several times saturation.

use proptest::prelude::*;
use smart_core::compile::compile;
use smart_core::config::NocConfig;
use smart_harness::{RoutedWorkload, SpatialPattern, TemporalModel};
use smart_sim::{
    ActivityCounters, Coord, FlowId, FlowTable, LinkId, ModulatedTraffic, Network, Segment,
    SimConfig, SimStats, SourceRoute, Topology,
};
use smart_testkit::reference::segments;
use smart_testkit::RefNetwork;
use std::collections::BTreeMap;

/// Drain budget after the loaded run.
const DRAIN: u64 = 50_000;

/// The pinned cases, as `(rate in milli, seed, cycles)`, in file order.
const PINNED: [(u32, u64, u64); 11] = [
    (300, 0xD1E7, 4_000),
    (10, 11, 2_000),
    (20, 12, 2_000),
    (40, 13, 2_000),
    (60, 14, 2_000),
    (80, 15, 2_000),
    (100, 16, 2_000),
    (150, 17, 2_000),
    (200, 18, 2_000),
    (250, 19, 2_000),
    (300, 20, 2_000),
];

/// Everything a loaded run and its drain leave behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    drained_at: u64,
    stats: SimStats,
    counters: ActivityCounters,
    links: BTreeMap<LinkId, u64>,
}

impl Outcome {
    /// The `golden/reference_4x4.txt` line for this outcome.
    fn line(&self, (rate_milli, seed, cycles): (u32, u64, u64)) -> String {
        let links: Vec<String> = self.links.iter().map(|(l, n)| format!("{l}:{n}")).collect();
        format!(
            "rate={rate_milli}/1000 seed={seed} cycles={cycles} drained_at={} | stats {:?} | counters {:?} | links {}",
            self.drained_at,
            self.stats,
            self.counters,
            links.join(",")
        )
    }
}

/// One loaded run: `flows` under per-flow Bernoulli `rates` for `cycles`
/// cycles, then drained.
struct Case<'a> {
    cfg: SimConfig,
    flows: &'a FlowTable,
    rates: &'a [(FlowId, f64)],
    seed: u64,
    cycles: u64,
}

impl Case<'_> {
    fn traffic(&self) -> ModulatedTraffic {
        let (cfg, seed) = (self.cfg, self.seed);
        ModulatedTraffic::new(
            TemporalModel::Steady,
            self.rates,
            cfg.flits_per_packet,
            seed,
        )
    }

    fn engine(&self, bands: usize) -> Outcome {
        let mut net = Network::banded(self.cfg, self.flows.clone(), bands);
        net.run_with(&mut self.traffic(), self.cycles);
        assert!(net.drain(DRAIN), "engine ({bands} bands) failed to drain");
        Outcome {
            drained_at: net.cycle(),
            stats: net.stats().clone(),
            counters: *net.counters(),
            links: net.link_flit_counts().collect(),
        }
    }

    fn reference(&self) -> Outcome {
        let mut net = RefNetwork::new(self.cfg, self.flows.clone());
        net.run_with(&mut self.traffic(), self.cycles);
        assert!(net.drain(DRAIN), "reference failed to drain");
        Outcome {
            drained_at: net.cycle(),
            stats: net.stats().clone(),
            counters: *net.counters(),
            links: net.link_flit_counts().collect(),
        }
    }
}

/// The legacy replay's workload: `(x, y)` sends to `(y, x)` on the 4×4
/// paper mesh, flows numbered in source order, one rate for all.
fn transpose_4x4(rate: f64) -> (FlowTable, Vec<(FlowId, f64)>) {
    let mesh = Topology::paper_4x4();
    let routes: Vec<(FlowId, SourceRoute)> = mesh
        .nodes()
        .map(|s| (s, mesh.coord(s)))
        .map(|(s, c)| (s, mesh.node_at(Coord { x: c.y, y: c.x })))
        .filter(|(s, d)| s != d)
        .enumerate()
        .map(|(i, (s, d))| (FlowId(i as u32), SourceRoute::xy(mesh, s, d).unwrap()))
        .collect();
    let rates = routes.iter().map(|(f, _)| (*f, rate)).collect();
    (FlowTable::mesh_baseline(mesh, &routes), rates)
}

#[test]
fn both_engines_reproduce_the_pinned_legacy_replay() {
    let golden = include_str!("golden/reference_4x4.txt");
    assert_eq!(golden.lines().count(), PINNED.len());
    for (&case, expected) in PINNED.iter().zip(golden.lines()) {
        let (flows, rates) = transpose_4x4(f64::from(case.0) / 1_000.0);
        let run = Case {
            cfg: SimConfig::paper_4x4(),
            flows: &flows,
            rates: &rates,
            seed: case.1,
            cycles: case.2,
        };
        assert_eq!(run.reference().line(case), expected, "reference, {case:?}");
        for bands in [1, 2] {
            let got = run.engine(bands).line(case);
            assert_eq!(got, expected, "engine at {bands} bands, {case:?}");
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Fabric {
    Mesh4,
    Mesh8,
    Torus6,
}

#[derive(Debug, Clone, Copy)]
enum Load {
    Transpose,
    Uniform,
    /// VOPD, NMAP-placed and routed for the fabric.
    App,
}

#[derive(Debug, Clone, Copy)]
enum Design {
    Mesh,
    /// SMART plans compiled at this `HPC_max`.
    Smart(usize),
}

const FABRICS: [Fabric; 3] = [Fabric::Mesh4, Fabric::Mesh8, Fabric::Torus6];
const LOADS: [Load; 3] = [Load::Transpose, Load::Uniform, Load::App];
const DESIGNS: [Design; 3] = [Design::Mesh, Design::Smart(2), Design::Smart(8)];
/// Packets per cycle per flow, in milli: light load to past the NIC's
/// own one-flit-per-cycle limit (0.125 at 8 flits).
const RATES: [u32; 5] = [5, 20, 50, 100, 200];

/// One cell's design point, routes and flow plans.
fn cell(fabric: Fabric, load: Load, design: Design, seed: u64) -> (NocConfig, FlowTable) {
    let topology = match fabric {
        Fabric::Mesh4 => Topology::mesh(4, 4),
        Fabric::Mesh8 => Topology::mesh(8, 8),
        Fabric::Torus6 => Topology::torus(6, 6),
    };
    let noc = NocConfig::with_topology(topology);
    let steady = |pattern| RoutedWorkload::patterned(&noc, &pattern, TemporalModel::Steady, 0.0);
    let routes = match load {
        Load::Transpose => steady(SpatialPattern::Transpose),
        Load::Uniform => steady(SpatialPattern::Uniform { flows: 16, seed }),
        Load::App => RoutedWorkload::app(&noc, "VOPD"),
    }
    .routes;
    let flows = match design {
        Design::Mesh => FlowTable::mesh_baseline(topology, &routes),
        Design::Smart(hpc) => compile(topology, hpc, &routes).flows,
    };
    (noc, flows)
}

/// Run one cell on the reference and on the engine at `bands` bands.
fn assert_cell(
    fabric: Fabric,
    load: Load,
    design: Design,
    rate_milli: u32,
    seed: u64,
    bands: usize,
) {
    let (noc, flows) = cell(fabric, load, design, seed);
    let rate = f64::from(rate_milli) / 1_000.0;
    let mut rates: Vec<(FlowId, f64)> = flows.iter().map(|p| (p.flow, rate)).collect();
    rates.sort_by_key(|(f, _)| *f);
    let case = Case {
        cfg: noc.sim_config(),
        flows: &flows,
        rates: &rates,
        seed,
        cycles: 1_000,
    };
    assert_eq!(
        case.engine(bands),
        case.reference(),
        "{fabric:?} {load:?} {design:?} rate {rate} seed {seed} at {bands} bands"
    );
}

/// The nets below would prove little if the SMART plans never left a
/// router behind: on every fabric they cross multi-link legs of up to
/// `HPC_max` links, and on the torus some of those cross the wrap seam.
#[test]
fn smart_cells_cross_bypass_and_wrap_legs() {
    for fabric in FABRICS {
        for hpc in [2, 8] {
            let mut legs = Vec::new();
            for load in LOADS {
                let (noc, flows) = cell(fabric, load, Design::Smart(hpc), 0);
                let wraps = |leg: &Segment| leg.links.iter().any(|l| noc.topology.is_wrap_link(*l));
                legs.extend(
                    flows
                        .iter()
                        .flat_map(segments)
                        .map(|leg| (leg.links.len(), wraps(&leg))),
                );
            }
            let longest = legs.iter().map(|(n, _)| *n).max();
            assert!(
                longest > Some(1) && longest <= Some(hpc),
                "{fabric:?} {hpc}: {longest:?}"
            );
            let seam = legs.iter().any(|&(n, wrap)| n > 1 && wrap);
            assert_eq!(seam, matches!(fabric, Fabric::Torus6), "{fabric:?} {hpc}");
        }
    }
}

/// Every fabric × workload × design cell once, rates and band counts
/// rotating across the grid so each appears with each fabric.
#[test]
fn engine_equals_reference_on_every_fabric_workload_and_design() {
    let mut i = 0;
    for fabric in FABRICS {
        for load in LOADS {
            for design in DESIGNS {
                assert_cell(fabric, load, design, RATES[i % 5], i as u64, 1 + i % 2);
                i += 1;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engine_equals_reference_from_light_load_to_saturation(
        fabric in prop::sample::select(FABRICS.to_vec()),
        load in prop::sample::select(LOADS.to_vec()),
        design in prop::sample::select(DESIGNS.to_vec()),
        rate_milli in prop::sample::select(RATES.to_vec()),
        seed in 0u64..1_000_000,
        bands in 1usize..=2,
    ) {
        assert_cell(fabric, load, design, rate_milli, seed, bands);
    }
}
