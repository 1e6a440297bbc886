//! Fig 1 at suite scale: the eight applications run back-to-back on
//! all four schedule designs, with per-transition drain cycles and
//! store-instruction costs (Section V) next to each phase's measured
//! latency.
//!
//! `repro reconfig_schedule [--quick]`

use super::{suite_plan, Sink};
use crate::{AppSchedule, ScheduleMatrix};
use smart_core::config::NocConfig;

pub(super) fn run(quick: bool, _args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let plan = suite_plan(quick);
    let cfg = NocConfig::paper_4x4();
    let outcome = ScheduleMatrix::new(cfg.clone(), AppSchedule::apps(plan)).run_instrumented();

    writeln!(
        out,
        "Multi-application schedules (Fig 1 / Section V), {} worker threads:",
        outcome.worker_threads
    )?;
    for result in outcome.reports {
        let report = result.expect("every transition drains within the budget");
        writeln!(out, "\n{report}")?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "Only the SMART designs pay the Section V reconfiguration cost — one\n\
         store per router ({} on this mesh) per application switch. The live\n\
         Reconfigurable design must drain in-flight traffic before each\n\
         switch, but every phase here ends with its plan's own drain window,\n\
         so each of its drains reads 0; `reconfig_cost` ends its phases with\n\
         no drain window, so its switches find traffic in flight, and\n\
         measures the drains.",
        cfg.topology.len()
    )?;
    Ok(())
}
