//! Dynamic-behavior report from the telemetry layer: drive a saturated
//! uniform-random load on the 8×8 SMART mesh with metrics collection
//! enabled and render the achieved-bypass-length histogram and the
//! link-utilization heatmap over time.
//!
//! `repro telemetry_report [--quick]`
//!
//! The histogram is the paper's central dynamic claim made visible: how
//! far short of `HPC_max` real traffic stops once contention bites. The
//! heatmap shows *where* and *when* that contention concentrates. The
//! artifact self-checks the invariants the series must satisfy — no
//! achieved bypass exceeds `HPC_max`, and a saturated fabric records
//! premature stops — and fails if either does not hold.

use super::Sink;
use crate::{Experiment, RunPlan, Workload};
use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use smart_core::viz;
use smart_sim::TelemetryConfig;

pub(super) fn run(quick: bool, _args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let cfg = NocConfig::scaled(8);
    // Well past uniform-random saturation on an 8×8 mesh: enough offered
    // load that SSR denials (premature stops) are guaranteed.
    let workload = Workload::uniform(128, 0.02, 0xBEEF);
    let (measure, window) = if quick {
        (20_000, 2_000)
    } else {
        (120_000, 8_000)
    };
    let plan = RunPlan::measure_all(measure, 10_000, 0xC0FFEE);

    writeln!(out,
        "telemetry report — uniform@saturation, 8x8 SMART, {measure} cycles, {window}-cycle windows"
    )?;
    let report = Experiment::new(cfg.clone())
        .design(DesignKind::Smart)
        .workload(workload)
        .plan(plan)
        .with_telemetry(TelemetryConfig::windowed(window))
        .run();
    let series = report.telemetry.as_ref().expect("telemetry enabled");

    writeln!(out, "\n{}", viz::bypass_histogram(series, cfg.hpc_max))?;
    writeln!(out, "{}", viz::link_heatmap_over_time(series, cfg.topology))?;
    writeln!(out, "{}", report.snapshot_line())?;

    // Self-check: the series must respect the physical ceiling, and a
    // saturated fabric must record contention.
    let max = series.max_bypass().unwrap_or(0);
    if max > cfg.hpc_max {
        return Err(format!(
            "FAIL: achieved bypass {max} exceeds HPC_max {}",
            cfg.hpc_max
        ));
    }
    if series.premature_stops() == 0 {
        return Err("FAIL: saturated run recorded no premature stops".into());
    }
    writeln!(
        out,
        "ok: max achieved bypass {max} <= HPC_max {}, {} premature stops",
        cfg.hpc_max,
        series.premature_stops()
    )?;
    Ok(())
}
