//! Compiled-design artifacts behind one reusable handle.
//!
//! Every [`Experiment`] run pays two construction costs before the first
//! simulated cycle: the workload is **materialized** (NMAP placement +
//! contention-aware routing), and its flow plans are built — the
//! baseline [`FlowTable`] for Mesh and Dedicated, the preset compiler's
//! output for SMART. Both are pure functions of `(config, design,
//! workload)`, so a [`CompiledDesign`] freezes them once. It is the only
//! bring-up path: a cold [`Experiment::run`] compiles a handle and runs
//! it, the `smart-server` cache keys handles by their
//! [`design_point`] and serves repeat requests without recompiling, and the two are
//! bit-identical because they are the same code.
//!
//! [`Experiment`]: crate::Experiment
//! [`Experiment::run`]: crate::Experiment::run

use crate::workload::{RoutedWorkload, Workload};
use smart_core::compile::{compile, CompiledApp};
use smart_core::config::NocConfig;
use smart_core::noc::{Design, DesignKind, MeshNoc, SmartNoc};
use smart_sim::FlowTable;
use std::sync::Arc;

/// Everything an experiment constructs before simulating, frozen for
/// reuse: the routed workload (shared, not copied, across the design
/// axis) and the one artifact its design simulates. Instantiating a
/// network from a handle is bit-identical to building it from scratch —
/// the cache trades memory for compilation, never accuracy.
#[derive(Debug, Clone)]
pub struct CompiledDesign {
    cfg: NocConfig,
    kind: DesignKind,
    routed: Arc<RoutedWorkload>,
    artifact: Artifact,
}

/// What one design kind needs built before it simulates.
#[derive(Debug, Clone)]
enum Artifact {
    /// Mesh and Dedicated: the baseline flow table.
    Baseline(FlowTable),
    /// SMART: stops, presets and flow plans, shared with every network
    /// instantiated from the handle.
    Smart(Arc<CompiledApp>),
}

impl CompiledDesign {
    /// Materialize `workload` onto `cfg`'s mesh and compile it for
    /// `kind` — the full cold-start cost, paid once.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Workload::materialize`].
    #[must_use]
    pub fn compile(cfg: &NocConfig, kind: DesignKind, workload: &Workload) -> Self {
        CompiledDesign::from_routed(cfg, kind, Arc::new(workload.materialize(cfg)))
    }

    /// Compile an already-routed workload for `kind` (lets callers that
    /// share one routed form across designs skip re-materialization).
    #[must_use]
    pub fn from_routed(cfg: &NocConfig, kind: DesignKind, routed: Arc<RoutedWorkload>) -> Self {
        let (topo, routes) = (cfg.topology, &routed.routes);
        let artifact = match kind {
            DesignKind::Smart => Artifact::Smart(Arc::new(compile(topo, cfg.hpc_max, routes))),
            DesignKind::Mesh | DesignKind::Dedicated => {
                Artifact::Baseline(FlowTable::mesh_baseline(topo, routes))
            }
        };
        CompiledDesign {
            cfg: cfg.clone(),
            kind,
            routed,
            artifact,
        }
    }

    /// Bring up a fresh network from the cached artifacts — no routing,
    /// no preset compilation, no flow-table construction — with the
    /// cycle engine split across `shards` row bands. The result is
    /// indistinguishable from [`Design::build`] on the same inputs. The
    /// compiled artifact is shard-agnostic (serial and sharded runs
    /// share cache entries), so the shard count of the *requesting* run
    /// — not of whichever run compiled the handle first — picks the
    /// engine.
    #[must_use]
    pub fn instantiate_sharded(&self, shards: usize) -> Design {
        let mut cfg = self.cfg.clone();
        cfg.shards = shards;
        match &self.artifact {
            Artifact::Smart(app) => Design::Smart(SmartNoc::from_compiled(&cfg, Arc::clone(app))),
            Artifact::Baseline(table) if self.kind == DesignKind::Mesh => {
                Design::Mesh(MeshNoc::from_table(&cfg, table.clone()))
            }
            // Dedicated wires endpoints directly: its table only
            // resolves traffic endpoints.
            Artifact::Baseline(_) => Design::build(self.kind, &cfg, &self.routed.routes),
        }
    }

    /// The design point this handle was compiled at.
    #[must_use]
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Which design the artifact serves.
    #[must_use]
    pub fn kind(&self) -> DesignKind {
        self.kind
    }

    /// The routed workload (rates, routes, temporal model).
    #[must_use]
    pub fn routed(&self) -> &RoutedWorkload {
        &self.routed
    }

    /// The flow table traffic sources resolve endpoints against: the
    /// compiled plans for SMART, the baseline table otherwise. Sources
    /// read only each plan's source and destination, which are the same
    /// either way.
    #[must_use]
    pub fn flow_table(&self) -> &FlowTable {
        match &self.artifact {
            Artifact::Baseline(table) => table,
            Artifact::Smart(app) => &app.flows,
        }
    }

    /// The compiled SMART application, for designs that have one: the
    /// same allocation every instantiated [`SmartNoc`] reads.
    #[must_use]
    pub fn compiled_app(&self) -> Option<&CompiledApp> {
        match &self.artifact {
            Artifact::Smart(app) => Some(app),
            Artifact::Baseline(_) => None,
        }
    }
}

/// What a design point is, as a cache key: every [`NocConfig`] field
/// (the derived `Debug` prints them all, floats in shortest-round-trip
/// form) and the full workload spec. `shards` is normalized to 1:
/// sharding is an execution strategy with bit-identical results, so
/// serial and sharded runs of one design point share a cache entry.
/// Two inputs encode equal iff every design-relevant field is equal.
#[must_use]
pub fn design_point(cfg: &NocConfig, workload: &Workload) -> String {
    let cfg = cfg.clone().sharded(1);
    format!("{cfg:?}|{workload:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentReport, RunPlan};

    #[test]
    fn compiled_run_matches_cold_run_bit_exactly() {
        let cfg = NocConfig::paper_4x4();
        for kind in DesignKind::ALL {
            for workload in [
                Workload::fig7(),
                Workload::app("VOPD"),
                Workload::uniform(6, 0.02, 9),
            ] {
                let exp = Experiment::new(cfg.clone())
                    .design(kind)
                    .workload(workload.clone())
                    .plan(RunPlan::smoke());
                let cold = exp.run();
                let handle = exp.compile_design();
                let warm = exp.run_compiled(&handle);
                let again = exp.run_compiled(&handle);
                assert_eq!(cold.snapshot_line(), warm.snapshot_line(), "{kind:?}");
                assert_eq!(cold.flow_latencies, warm.flow_latencies, "{kind:?}");
                assert_eq!(warm.snapshot_line(), again.snapshot_line(), "reusable");
            }
        }
    }

    #[test]
    fn compiled_smart_exposes_the_app() {
        let cfg = NocConfig::paper_4x4();
        let smart = CompiledDesign::compile(&cfg, DesignKind::Smart, &Workload::fig7());
        let app = smart.compiled_app().expect("SMART compiles an app");
        // No baseline table beside it: traffic resolves against the plans.
        assert!(std::ptr::eq(smart.flow_table(), &app.flows));
        assert_eq!(smart.kind(), DesignKind::Smart);
        assert_eq!(smart.routed().name, "fig7");
        let mesh = CompiledDesign::compile(&cfg, DesignKind::Mesh, &Workload::fig7());
        assert!(mesh.compiled_app().is_none());
    }

    #[test]
    fn instantiating_shares_the_smart_app() {
        let handle = CompiledDesign::compile(
            &NocConfig::paper_4x4(),
            DesignKind::Smart,
            &Workload::fig7(),
        );
        let app = handle.compiled_app().expect("SMART compiles an app");
        for shards in [1, 2] {
            let Design::Smart(noc) = handle.instantiate_sharded(shards) else {
                panic!("a SMART handle instantiates SMART");
            };
            assert!(std::ptr::eq(noc.compiled(), app), "{shards} bands");
        }
    }

    /// The cache's key of a compiled design.
    fn key(cfg: &NocConfig, kind: DesignKind, w: &Workload) -> (DesignKind, String) {
        (kind, design_point(cfg, w))
    }

    #[test]
    fn equal_triples_key_equal() {
        let cfg = NocConfig::paper_4x4();
        let w = Workload::uniform(8, 0.02, 42);
        assert_eq!(
            key(&cfg, DesignKind::Smart, &w),
            key(
                &NocConfig::paper_4x4(),
                DesignKind::Smart,
                &Workload::uniform(8, 0.02, 42)
            ),
        );
    }

    #[test]
    fn perturbations_change_the_key() {
        let cfg = NocConfig::paper_4x4();
        let w = Workload::uniform(8, 0.02, 42);
        let base = key(&cfg, DesignKind::Smart, &w);
        let mut hpc = cfg.clone();
        hpc.hpc_max = 4;
        assert_ne!(base, key(&hpc, DesignKind::Smart, &w));
        assert_ne!(base, key(&cfg, DesignKind::Mesh, &w));
        assert_ne!(
            base,
            key(&cfg, DesignKind::Smart, &Workload::uniform(8, 0.02, 43))
        );
        assert_ne!(base, key(&NocConfig::scaled(8), DesignKind::Smart, &w));
        // Same dimensions, different topology: a 4x4 torus must never
        // share a cache entry with the 4x4 mesh.
        let torus = NocConfig::scaled_torus(4);
        let mesh = NocConfig::scaled(4);
        assert_ne!(
            key(&torus, DesignKind::Smart, &w),
            key(&mesh, DesignKind::Smart, &w)
        );
    }

    #[test]
    fn report_fields_survive_the_compiled_path() {
        // Not just the snapshot line: compile metrics and power agree too.
        let cfg = NocConfig::paper_4x4();
        let exp = Experiment::new(cfg)
            .workload(Workload::app("PIP"))
            .plan(RunPlan::smoke())
            .measure_power();
        let cold = exp.run();
        let warm = exp.run_compiled(&exp.compile_design());
        let stops = |r: &ExperimentReport| r.compile.as_ref().map(|c| c.stops.clone());
        assert_eq!(stops(&cold), stops(&warm));
        assert_eq!(cold.power, warm.power);
    }
}
