//! The five workloads and how their inputs are made from the seed. The
//! program under test receives only what this module generates.

use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use smart_harness::Experiment;
use smart_server::{PlanSpec, Request, TopologySpec, WorkloadSpec};

/// `--seed` when none is given; the seed the pinned digests under
/// `expected/` belong to.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// One simulation cell in the protocol's own vocabulary, so the same
/// value yields both the wire request and the direct [`Experiment`] the
/// served result is checked against.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    pub mesh: u16,
    pub shards: usize,
    pub design: DesignKind,
    pub workload: WorkloadSpec,
    pub plan: PlanSpec,
}

impl CellSpec {
    pub fn config(&self) -> NocConfig {
        TopologySpec::Mesh.config(self.mesh).sharded(self.shards)
    }

    pub fn experiment(&self) -> Experiment {
        let workload = self
            .workload
            .to_workload()
            .expect("generated workload specs are valid");
        Experiment::new(self.config())
            .design(self.design)
            .workload(workload)
            .plan(self.plan.to_plan())
    }

    pub fn request(&self, id: &str) -> Request {
        Request::Experiment {
            id: id.to_owned(),
            mesh: self.mesh,
            topology: TopologySpec::Mesh,
            shards: self.shards,
            design: self.design,
            workload: self.workload.clone(),
            plan: self.plan,
        }
    }

    /// Simulated cycles the cell is driven for before draining.
    pub fn driven_cycles(&self) -> u64 {
        self.plan.warmup + self.plan.measure
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One cell; an operation is one full `Experiment::run()`.
    Engine,
    /// An in-process server driven closed-loop over one connection; an
    /// operation is one `experiment` request.
    Server,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

pub const ALL: &[WorkloadDef] = &[
    WorkloadDef {
        name: "mesh8_loaded",
        why: "8x8 baseline mesh, 64 loaded flows: every router stops every flit, so the BW/SA/ST pipeline is the cost; an only-touch-what-changed worklist predicts no change here",
        kind: Kind::Engine,
    },
    WorkloadDef {
        name: "smart16_bypass",
        why: "16x16 SMART, 96 flows: multi-hop single-cycle legs, SSR setup and preset compile; the launch/arrival path a mesh-only gain must not tax",
        kind: Kind::Engine,
    },
    WorkloadDef {
        name: "mesh64_sparse",
        why: "64x64 mesh, 256 flows, serial: 4096 routers, mostly idle, so time goes to sweeping empty fabric and instantiating banks; pipeline micro-optimisations predict no change",
        kind: Kind::Engine,
    },
    WorkloadDef {
        name: "server_warm",
        why: "closed loop, 1 connection, 8 apps x 3 designs at 16x16, all cached: a 2000-cycle light run plus parse, job table, cache hit, thread fan-out, serialize, socket; compile-path changes predict no change",
        kind: Kind::Server,
    },
    WorkloadDef {
        name: "server_churn",
        why: "closed loop, 1 connection, a fresh uniform workload per request so every lookup misses: materialize, preset compile, flow table, cold run; hit-path changes predict no change",
        kind: Kind::Server,
    },
];

pub fn by_name(name: &str) -> Option<&'static WorkloadDef> {
    ALL.iter().find(|w| w.name == name)
}

/// Flow-pair seeds of the engine cells. They are part of the workload's
/// shape, not drawn from `--seed`: a random 64-flow set often offers
/// some link or NIC more than one flit per cycle, which either never
/// drains (a failed operation) or moves host time by ~10% from seed to
/// seed. These are the first seeds at or after 0x5EED whose busiest
/// link or NIC is offered at most 0.75 flits per cycle (a self-test
/// holds them to that); `--seed` drives the injection process through
/// the plan seed.
const MESH8_FLOWS: u64 = 0x5EED + 47;
const SMART16_FLOWS: u64 = 0x5EED;
const MESH64_FLOWS: u64 = 0x5EED + 2;

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub def: &'static WorkloadDef,
    seed: u64,
    smoke: bool,
}

impl Inputs {
    /// `smoke` shrinks cycle and request counts so a pass takes
    /// milliseconds (the self-test's scale); shapes stay the same.
    pub fn new(def: &'static WorkloadDef, seed: u64, smoke: bool) -> Inputs {
        Inputs { def, seed, smoke }
    }

    fn plan(&self, measure: u64, smoke_measure: u64, drain: u64) -> PlanSpec {
        PlanSpec {
            warmup: 0,
            measure: if self.smoke { smoke_measure } else { measure },
            drain,
            seed: self.seed,
        }
    }

    fn uniform(flows: u64, rate: f64, seed: u64) -> WorkloadSpec {
        WorkloadSpec::Uniform { flows, rate, seed }
    }

    /// Requests one pass sends (engine workloads: the one cell).
    pub fn ops_per_pass(&self) -> usize {
        match (self.def.name, self.smoke) {
            ("server_warm", false) => 1_000,
            ("server_warm", true) => 48,
            ("server_churn", false) => 60,
            ("server_churn", true) => 4,
            _ => 1,
        }
    }

    /// Whether every pass brings cells no earlier pass had (so nothing
    /// the server cached can serve them) or all passes share one set.
    pub fn fresh_cells_every_pass(&self) -> bool {
        self.def.name == "server_churn"
    }

    /// The distinct cells pass `pass` works through; operation `i` of
    /// the pass runs cell `i % len`.
    pub fn cells(&self, pass: usize) -> Vec<CellSpec> {
        let engine = |mesh, shards, design, workload, plan| {
            vec![CellSpec {
                mesh,
                shards,
                design,
                workload,
                plan,
            }]
        };
        match self.def.name {
            "mesh8_loaded" => engine(
                8,
                1,
                DesignKind::Mesh,
                Self::uniform(64, 0.02, MESH8_FLOWS),
                self.plan(100_000, 2_000, 10_000),
            ),
            "smart16_bypass" => engine(
                16,
                1,
                DesignKind::Smart,
                Self::uniform(96, 0.01, SMART16_FLOWS),
                self.plan(120_000, 2_000, 10_000),
            ),
            "mesh64_sparse" => engine(
                64,
                1,
                DesignKind::Mesh,
                Self::uniform(256, 0.02, MESH64_FLOWS),
                self.plan(3_000, 60, 10_000),
            ),
            "server_warm" => smart_taskgraph::apps::all()
                .iter()
                .flat_map(|app| {
                    DesignKind::ALL.into_iter().map(|design| CellSpec {
                        mesh: 16,
                        shards: 1,
                        design,
                        workload: WorkloadSpec::App(app.name().to_owned()),
                        plan: self.plan(2_000, 200, 2_000),
                    })
                })
                .collect(),
            "server_churn" => (0..self.ops_per_pass())
                .map(|i| CellSpec {
                    mesh: 16,
                    shards: 1,
                    design: DesignKind::Smart,
                    workload: Self::uniform(128, 0.005, self.fresh_seed(pass, i)),
                    plan: self.plan(2_000, 200, 2_000),
                })
                .collect(),
            other => unreachable!("{other} is not in workloads::ALL"),
        }
    }

    /// A flow-pair seed no earlier request of this run used, so the
    /// server's cache cannot have seen it.
    fn fresh_seed(&self, pass: usize, i: usize) -> u64 {
        // SplitMix64's increment spreads neighbouring run seeds apart;
        // within a run the counter keeps every request distinct.
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((pass * self.ops_per_pass() + i) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Busiest-resource cap, in flits per cycle, the engine flow seeds
    /// obey.
    const PEAK_LOAD_CAP: f64 = 0.75;

    /// Flits per cycle offered to the busiest link, source NIC or
    /// destination NIC of `cell`.
    fn peak_offered_load(cell: &CellSpec) -> f64 {
        let cfg = cell.config();
        let routed = cell
            .workload
            .to_workload()
            .expect("valid")
            .materialize(&cfg);
        let flits = f64::from(cfg.flits_per_packet());
        let mut links = HashMap::new();
        let mut sources = HashMap::new();
        let mut sinks = HashMap::new();
        for ((_, route), (_, rate)) in routed.routes.iter().zip(&routed.rates) {
            let load = rate * flits;
            for link in route.links(cfg.topology) {
                *links.entry(link).or_insert(0.0) += load;
            }
            *sources.entry(route.source()).or_insert(0.0) += load;
            *sinks.entry(route.destination(cfg.topology)).or_insert(0.0) += load;
        }
        links
            .values()
            .chain(sources.values())
            .chain(sinks.values())
            .fold(0.0, |peak: f64, load| peak.max(*load))
    }

    #[test]
    fn engine_flow_sets_are_loaded_but_never_saturated() {
        for def in ALL.iter().filter(|d| d.kind == Kind::Engine) {
            let cell = &Inputs::new(def, DEFAULT_SEED, false).cells(0)[0];
            let peak = peak_offered_load(cell);
            assert!(
                peak <= PEAK_LOAD_CAP,
                "{}: busiest resource is offered {peak} flits/cycle",
                def.name
            );
            // The constants are the *first* such seeds from 0x5EED on.
            let WorkloadSpec::Uniform { flows, rate, seed } = cell.workload else {
                panic!("engine cells are uniform");
            };
            for earlier in DEFAULT_SEED..seed {
                let mut probe = cell.clone();
                probe.workload = Inputs::uniform(flows, rate, earlier);
                assert!(peak_offered_load(&probe) > PEAK_LOAD_CAP, "{earlier:#x}");
            }
        }
    }

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        for def in ALL {
            let a = Inputs::new(def, 7, false);
            assert_eq!(
                a.cells(3),
                Inputs::new(def, 7, false).cells(3),
                "{}",
                def.name
            );
            assert_ne!(
                a.cells(3),
                Inputs::new(def, 8, false).cells(3),
                "{}",
                def.name
            );
        }
    }

    #[test]
    fn churn_never_repeats_a_flow_seed_and_warm_cycles_24_cells() {
        let churn = Inputs::new(by_name("server_churn").expect("listed"), 11, false);
        let mut seen = std::collections::HashSet::new();
        for pass in 0..50 {
            for cell in churn.cells(pass) {
                assert!(seen.insert(format!("{:?}", cell.workload)));
            }
        }
        let warm = Inputs::new(by_name("server_warm").expect("listed"), 11, false);
        assert_eq!(warm.cells(0).len(), 24);
        assert_eq!(warm.cells(0), warm.cells(9));
    }
}
