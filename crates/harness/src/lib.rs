//! # smart-harness — the one-experiment API
//!
//! The paper's whole evaluation (Sections IV–VI) is one repeated shape:
//! **configure** a design point, **map** an application or synthetic
//! load onto the mesh, **build** one of the evaluated designs, **drive**
//! it with traffic for a warm-up/measure/drain schedule, and **measure**
//! latency, throughput and energy. This crate makes that shape a
//! first-class value instead of per-binary glue:
//!
//! * [`Workload`] — every traffic family behind one enum: the Fig 7
//!   walk-through, the eight Section VI task-graph applications,
//!   uniform-random Bernoulli loads, `smart-traffic` synthetic
//!   patterns with temporal burst models, and pre-routed custom flow
//!   sets.
//! * [`Drive`] — how the flows are offered: Bernoulli (honoring the
//!   workload's [`TemporalModel`]), scripted events, an explicit
//!   temporal model, or [`TraceFile`] replay.
//! * [`RunPlan`] — the warm-up / measure / drain schedule plus the
//!   traffic seed (deterministic by construction).
//! * [`Experiment`] — one (config, design, workload, plan) cell;
//!   [`Experiment::run`] returns an [`ExperimentReport`] bundling sim
//!   stats, activity counters, compile metrics and an optional power
//!   breakdown.
//! * [`ExperimentMatrix`] — fan-out over designs × workloads with a
//!   scoped-thread runner: cells execute in parallel, results come back
//!   in deterministic matrix order.
//! * [`AppSchedule`] / [`MultiAppExperiment`] — the Fig 1 / Section V
//!   multi-application regime: ordered phases run back-to-back on one
//!   NoC, paying the drain + preset-store reconfiguration cost at every
//!   transition; each phase carries its own [`Drive`]
//!   ([`AppSchedule::then_driven`]); [`ScheduleMatrix`] fans one
//!   schedule out across the four [`ScheduleDesign`]s on the same
//!   deterministic cell runner.
//!
//! ```
//! use smart_core::config::NocConfig;
//! use smart_core::noc::DesignKind;
//! use smart_harness::{Experiment, RunPlan, Workload};
//!
//! let report = Experiment::new(NocConfig::paper_4x4())
//!     .design(DesignKind::Smart)
//!     .workload(Workload::fig7())
//!     .plan(RunPlan::smoke())
//!     .run();
//! assert_eq!(report.packets_delivered, report.packets_injected);
//! assert!(report.drained);
//! ```
#![warn(missing_docs)]

pub mod compiled;
pub mod experiment;
pub mod matrix;
pub mod runner;
pub mod schedule;
pub mod workload;

pub use compiled::{design_point, CompiledDesign};
pub use experiment::{
    check_trace, snapshot_line, CompileMetrics, Drive, Experiment, ExperimentReport, RunPlan,
    TrafficContext,
};
pub use matrix::{ExperimentMatrix, MatrixOutcome};
pub use runner::{run_cells, run_cells_observed};
pub use schedule::{
    AppPhase, AppSchedule, MultiAppExperiment, PhaseTransition, ReconfigError, ScheduleDesign,
    ScheduleError, ScheduleMatrix, ScheduleOutcome, ScheduleReport,
};
pub use workload::{RoutedWorkload, Workload};

// The telemetry types threaded through [`Experiment::with_telemetry`],
// re-exported so downstream users (bench, server, examples) need no
// direct smart-sim dependency to configure or consume a series.
pub use smart_sim::{TelemetryConfig, TelemetrySeries};

// The traffic subsystem the drives are built from, re-exported so
// downstream users (bench, examples) need no extra dependency.
pub use smart_traffic::{
    FlowDelta, ModulatedTraffic, PhaseOutcome, SpatialPattern, TemporalModel, TraceDiffReport,
    TraceFile, TraceRecorder,
};
