//! # smart-noc — facade crate
//!
//! Reproduction of *SMART: A Single-Cycle Reconfigurable NoC for SoC
//! Applications* (DATE 2013). This crate re-exports the whole workspace
//! behind one dependency; see the individual crates for details:
//!
//! * [`link`] — VLR / full-swing link circuit models (Section III).
//! * [`sim`] — cycle-accurate NoC simulation substrate.
//! * [`arch`] — the SMART architecture: bypass, presets, credit mesh
//!   (Section IV).
//! * [`taskgraph`] — the eight SoC application task graphs (Section VI).
//! * [`mapping`] — NMAP-style mapping, routing and preset compilation.
//! * [`power`] — per-event energy model and the Fig 10b breakdown.
//! * [`rtlgen`] — the Section V tool flow (RTL, macro blocks, floorplan).
//! * [`traffic`] — pluggable traffic generation: spatial patterns
//!   (transpose, tornado, hotspot, …), temporal burst models, and
//!   JSONL trace record/replay.
//! * [`harness`] — the one-experiment API: [`harness::Experiment`]
//!   composes all of the above into configure → map → build → drive →
//!   measure, [`harness::ExperimentMatrix`] fans out over designs ×
//!   workloads on scoped threads, and [`harness::MultiAppExperiment`]
//!   drives multi-application schedules (Fig 1) with per-transition
//!   reconfiguration costs.

pub use smart_core as arch;
pub use smart_harness as harness;
pub use smart_link as link;
pub use smart_mapping as mapping;
pub use smart_power as power;
pub use smart_rtlgen as rtlgen;
pub use smart_sim as sim;
pub use smart_taskgraph as taskgraph;
pub use smart_traffic as traffic;

/// One-stop imports for the common workflow: one
/// [`Experiment`](smart_harness::Experiment) per (design, workload)
/// cell, or an [`ExperimentMatrix`](smart_harness::ExperimentMatrix)
/// for the full fan-out.
///
/// ```
/// use smart_noc::prelude::*;
///
/// let report = Experiment::new(NocConfig::paper_4x4())
///     .design(DesignKind::Smart)
///     .workload(Workload::app("PIP"))
///     .plan(RunPlan::smoke())
///     .run();
/// assert!(report.drained);
/// assert_eq!(report.packets_delivered, report.packets_injected);
/// ```
pub mod prelude {
    pub use smart_core::config::NocConfig;
    pub use smart_core::noc::{Design, DesignKind, MeshNoc, SmartNoc};
    pub use smart_harness::{
        AppPhase, AppSchedule, Drive, Experiment, ExperimentMatrix, ExperimentReport,
        MatrixOutcome, MultiAppExperiment, PhaseTransition, ReconfigError, RoutedWorkload, RunPlan,
        ScheduleDesign, ScheduleError, ScheduleMatrix, ScheduleOutcome, ScheduleReport,
        TrafficContext, Workload,
    };
    pub use smart_mapping::MappedApp;
    pub use smart_power::{breakdown, EnergyModel, GatingPolicy};
    pub use smart_sim::{
        FlowId, FlowTable, NodeId, Packet, PacketId, ScriptedTraffic, SourceRoute, TelemetryConfig,
        TelemetrySeries, Topology,
    };
    pub use smart_taskgraph::apps;
    pub use smart_traffic::{
        ModulatedTraffic, SpatialPattern, TemporalModel, TraceFile, TraceRecorder,
    };
}
