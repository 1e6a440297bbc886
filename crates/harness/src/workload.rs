//! The workload axis: every traffic family the paper evaluates, behind
//! one enum, plus the routed form every design can consume.

use smart_core::config::NocConfig;
use smart_core::scenarios::fig7_flows;
use smart_mapping::MappedApp;
use smart_sim::{FlowId, SourceRoute};
use smart_taskgraph::{apps, TaskGraph};
use smart_traffic::{SpatialPattern, TemporalModel};

/// Injection rate per Fig 7 flow: gentle, so bypass behaviour dominates.
const FIG7_RATE: f64 = 0.02;

/// A workload before routing: what to offer the network, independent of
/// any particular mesh. [`Workload::materialize`] turns it into a
/// [`RoutedWorkload`] for a concrete [`NocConfig`].
#[derive(Debug, Clone)]
pub enum Workload {
    /// The Fig 7 "SMART NoC in action" four-flow walk-through.
    Fig7,
    /// One of the paper's eight SoC applications by name (`"VOPD"`,
    /// `"H264"`, …), NMAP-placed and contention-aware routed.
    App(String),
    /// An arbitrary task graph, NMAP-placed and routed.
    Graph(TaskGraph),
    /// `flows` uniform-random (src, dst) pairs routed XY, each injected
    /// at `rate` packets/cycle; pair choice is a pure function of `seed`.
    Uniform {
        /// Number of random flows.
        flows: usize,
        /// Packets-per-cycle injection rate per flow.
        rate: f64,
        /// RNG seed for the pair choice.
        seed: u64,
    },
    /// A synthetic [`SpatialPattern`] routed XY and injected at
    /// `rate × weight` packets/cycle per flow through `temporal` — the
    /// classic pattern battery (transpose, tornado, hotspot, …) with
    /// optional burstiness.
    Patterned {
        /// The spatial structure of the flow set.
        pattern: SpatialPattern,
        /// The injection process layered on the rates.
        temporal: TemporalModel,
        /// Nominal packets-per-cycle rate per unit-weight flow.
        rate: f64,
    },
    /// Pre-routed flows with explicit rates (e.g. a custom placement or
    /// a hand-built `TrafficSource` scenario).
    Routed(RoutedWorkload),
}

impl Workload {
    /// The Fig 7 walk-through.
    #[must_use]
    pub fn fig7() -> Self {
        Workload::Fig7
    }

    /// One of the eight applications by name.
    #[must_use]
    pub fn app(name: &str) -> Self {
        Workload::App(name.to_owned())
    }

    /// Uniform-random Bernoulli load.
    #[must_use]
    pub fn uniform(flows: usize, rate: f64, seed: u64) -> Self {
        Workload::Uniform { flows, rate, seed }
    }

    /// A steady synthetic pattern at `rate` packets/cycle per flow.
    #[must_use]
    pub fn patterned(pattern: SpatialPattern, rate: f64) -> Self {
        Workload::Patterned {
            pattern,
            temporal: TemporalModel::Steady,
            rate,
        }
    }

    /// A synthetic pattern driven through a temporal model (bursty or
    /// ramped injection).
    #[must_use]
    pub fn patterned_with(pattern: SpatialPattern, temporal: TemporalModel, rate: f64) -> Self {
        Workload::Patterned {
            pattern,
            temporal,
            rate,
        }
    }

    /// The paper's preset battery: Fig 7, the eight applications (in
    /// [`apps::all`] order, the single source of truth for the suite),
    /// and two uniform-random Bernoulli loads (light and moderate).
    #[must_use]
    pub fn presets() -> Vec<Workload> {
        let mut v = vec![Workload::Fig7];
        v.extend(apps::all().into_iter().map(Workload::Graph));
        v.push(Workload::uniform(6, 0.01, 0x5EED));
        v.push(Workload::uniform(10, 0.03, 0xFEED));
        v
    }

    /// Route this workload onto `cfg`'s mesh.
    ///
    /// # Panics
    ///
    /// Panics if an [`Workload::App`] name is unknown or a
    /// [`Workload::Uniform`] has zero flows.
    #[must_use]
    pub fn materialize(&self, cfg: &NocConfig) -> RoutedWorkload {
        match self {
            Workload::Fig7 => RoutedWorkload::fig7(cfg),
            Workload::App(name) => RoutedWorkload::app(cfg, name),
            Workload::Graph(graph) => {
                RoutedWorkload::from_mapped(&MappedApp::from_graph(cfg, graph))
            }
            Workload::Uniform { flows, rate, seed } => {
                RoutedWorkload::uniform(cfg, *flows, *rate, *seed)
            }
            Workload::Patterned {
                pattern,
                temporal,
                rate,
            } => RoutedWorkload::patterned(cfg, pattern, *temporal, *rate),
            Workload::Routed(routed) => routed.clone(),
        }
    }
}

impl From<RoutedWorkload> for Workload {
    fn from(routed: RoutedWorkload) -> Self {
        Workload::Routed(routed)
    }
}

impl From<&MappedApp> for Workload {
    fn from(mapped: &MappedApp) -> Self {
        Workload::Routed(RoutedWorkload::from_mapped(mapped))
    }
}

/// A workload routed onto a concrete mesh: named flows plus per-flow
/// injection rates and the temporal model spreading them over time,
/// ready to drive any design.
#[derive(Debug, Clone)]
pub struct RoutedWorkload {
    /// Preset name (`fig7`, an application name, `uniform<n>@<rate>`).
    pub name: String,
    /// Routed flows.
    pub routes: Vec<(FlowId, SourceRoute)>,
    /// Packets-per-cycle injection rate per flow.
    pub rates: Vec<(FlowId, f64)>,
    /// Injection process layered on the rates by rate-driven drives
    /// ([`TemporalModel::Steady`] is plain per-flow Bernoulli).
    pub temporal: TemporalModel,
}

impl RoutedWorkload {
    /// The Fig 7 "SMART NoC in action" four-flow walk-through, injected
    /// gently so bypass behaviour dominates.
    #[must_use]
    pub fn fig7(cfg: &NocConfig) -> Self {
        let routes: Vec<(FlowId, SourceRoute)> = fig7_flows(cfg.topology)
            .into_iter()
            .map(|(f, r, _)| (f, r))
            .collect();
        let rates = routes.iter().map(|(f, _)| (*f, FIG7_RATE)).collect();
        RoutedWorkload {
            name: "fig7".to_owned(),
            routes,
            rates,
            temporal: TemporalModel::Steady,
        }
    }

    /// One of the paper's eight SoC applications, NMAP-placed and
    /// routed with the paper's bandwidth-derived injection rates.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of the eight applications.
    #[must_use]
    pub fn app(cfg: &NocConfig, name: &str) -> Self {
        let graph = apps::by_name(name).unwrap_or_else(|| panic!("unknown application {name:?}"));
        RoutedWorkload::from_mapped(&MappedApp::from_graph(cfg, &graph))
    }

    /// `flows` uniform-random (src, dst) pairs routed XY, each injected
    /// at `rate` packets/cycle. Pair choice is a pure function of
    /// `seed`, so the workload is reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is zero.
    #[must_use]
    pub fn uniform(cfg: &NocConfig, flows: usize, rate: f64, seed: u64) -> Self {
        assert!(flows > 0, "need at least one flow");
        let pattern = SpatialPattern::Uniform { flows, seed };
        RoutedWorkload::patterned(cfg, &pattern, TemporalModel::Steady, rate)
    }

    /// A synthetic [`SpatialPattern`] routed XY at `rate × weight`
    /// packets/cycle per flow, driven through `temporal`.
    ///
    /// # Panics
    ///
    /// Panics if the pattern induces no flows on the mesh or one of its
    /// structural requirements fails (square mesh, power-of-two nodes).
    #[must_use]
    pub fn patterned(
        cfg: &NocConfig,
        pattern: &SpatialPattern,
        temporal: TemporalModel,
        rate: f64,
    ) -> Self {
        let (routes, rates) = pattern.routed(cfg.topology, rate);
        RoutedWorkload {
            name: format!("{}@{rate}{}", pattern.label(), temporal.suffix()),
            routes,
            rates,
            temporal,
        }
    }

    /// Adopt a mapped application's name, routes and rates.
    #[must_use]
    pub fn from_mapped(mapped: &MappedApp) -> Self {
        RoutedWorkload {
            name: mapped.name.clone(),
            routes: mapped.routes.clone(),
            rates: mapped.rates.clone(),
            temporal: TemporalModel::Steady,
        }
    }

    /// The full preset battery routed onto `cfg`: Fig 7, the eight
    /// applications, and two uniform-random Bernoulli loads.
    #[must_use]
    pub fn presets(cfg: &NocConfig) -> Vec<RoutedWorkload> {
        Workload::presets()
            .iter()
            .map(|w| w.materialize(cfg))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_battery_covers_the_paper() {
        let cfg = NocConfig::paper_4x4();
        let all = RoutedWorkload::presets(&cfg);
        assert_eq!(all.len(), 11, "fig7 + 8 apps + 2 uniform");
        assert!(all.iter().all(|s| !s.routes.is_empty()));
        assert!(all.iter().all(|s| s.routes.len() == s.rates.len()));
    }

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let cfg = NocConfig::paper_4x4();
        let a = RoutedWorkload::uniform(&cfg, 8, 0.02, 42);
        let b = Workload::uniform(8, 0.02, 42).materialize(&cfg);
        let c = RoutedWorkload::uniform(&cfg, 8, 0.02, 43);
        assert_eq!(a.routes, b.routes);
        assert_ne!(a.routes, c.routes);
    }

    #[test]
    fn uniform_never_self_loops() {
        let cfg = NocConfig::paper_4x4();
        for seed in 0..20 {
            let s = RoutedWorkload::uniform(&cfg, 12, 0.01, seed);
            for (_, r) in &s.routes {
                assert_ne!(r.source(), r.destination(cfg.topology));
            }
        }
    }

    #[test]
    fn graph_and_app_variants_agree() {
        let cfg = NocConfig::paper_4x4();
        let by_name = Workload::app("VOPD").materialize(&cfg);
        let by_graph = Workload::Graph(apps::vopd()).materialize(&cfg);
        assert_eq!(by_name.name, by_graph.name);
        assert_eq!(by_name.routes, by_graph.routes);
    }
}
