//! The paper's artifacts, one function each, behind one table.
//!
//! Every artifact has the same shape — `run(quick, args, out)` writes
//! its report to `out` and returns `Err` with a one-line reason when a
//! self-check fails or an argument is unusable — and is registered
//! once in [`ARTIFACTS`]. The `repro` binary is the table's command
//! line; `tests/repro_all.rs` runs the whole table under `cargo test`.

use crate::{Experiment, ExperimentReport, RunPlan, Workload};
use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use smart_mapping::MappedApp;
use smart_taskgraph::TaskGraph;
use std::fmt;
use std::io::Write;

/// What an artifact prints to. `writeln!` needs only a `write_fmt`
/// method on its target, and this one returns the artifact's own error
/// type — so a closed pipe ends the artifact through `?` like any
/// other failure, and the call sites read as plain `writeln!(out, …)?`.
struct Sink<'a>(&'a mut dyn Write);

impl Sink<'_> {
    fn write_fmt(&mut self, args: fmt::Arguments<'_>) -> Result<(), String> {
        self.0.write_fmt(args).map_err(|e| e.to_string())
    }
}

mod ablation_hpc;
mod ablation_load;
mod ablation_nonminimal;
mod ablation_split;
mod ablation_vcs;
mod chip_measurements;
mod export_taskgraphs;
mod fig10a_latency;
mod fig10b_power;
mod fig1_topologies;
mod fig3_waveforms;
mod fig8_tx_block;
mod fig9_layout;
mod flow_report;
mod link_heatmap;
mod reconfig_cost;
mod reconfig_schedule;
mod scorecard;
mod table1;
mod table2;
mod telemetry_report;
mod torus_bypass;

/// One [`ARTIFACTS`] row from an artifact's module: the row is named
/// after the module, and `run` is adapted from the [`Sink`] the
/// artifacts print to onto the plain writer the table promises.
macro_rules! artifact {
    ($name:ident, $what:literal) => {
        (stringify!($name), $what, |quick, args, out| {
            $name::run(quick, args, &mut Sink(out))
        })
    };
}

/// Every artifact `repro` can regenerate, in the paper's order:
/// `(name, one-line description, run)`. `run(quick, args, out)` takes
/// the shared `--quick` flag (ignored by artifacts with one size), the
/// remaining positional arguments, and the writer its report goes to.
#[allow(clippy::type_complexity)]
pub const ARTIFACTS: &[(
    &str,
    &str,
    fn(bool, &[String], &mut dyn Write) -> Result<(), String>,
)] = &[
    artifact!(table1, "Table I: link hops per cycle, energy (checked)"),
    artifact!(table2, "Table II: the 4x4 NoC configuration"),
    artifact!(chip_measurements, "Section III: chip, model vs silicon"),
    artifact!(fig1_topologies, "Fig 1: three apps as virtual topologies"),
    artifact!(fig3_waveforms, "Fig 3: link waveforms at 6.8 Gb/s"),
    artifact!(fig8_tx_block, "Fig 8: 32-bit Tx block, .lib/.lef views"),
    artifact!(fig9_layout, "Fig 9: 4x4 layout report, RTL inventory"),
    artifact!(fig10a_latency, "Fig 10a: latency, 8 apps x 3 designs"),
    artifact!(fig10b_power, "Fig 10b: power breakdown, 8 apps"),
    artifact!(scorecard, "the headline claims, checked"),
    artifact!(reconfig_cost, "Section V: stores and drains over the suite"),
    artifact!(reconfig_schedule, "8 apps in turn on 4 designs"),
    artifact!(flow_report, "an app's zero-load latencies, hot links"),
    artifact!(link_heatmap, "an app's link utilization on SMART"),
    artifact!(export_taskgraphs, "the suite as Graphviz DOT files"),
    artifact!(telemetry_report, "bypass reach at saturation, checked"),
    artifact!(torus_bypass, "tornado traffic on mesh vs torus"),
    artifact!(ablation_hpc, "SMART latency vs HPC_max"),
    artifact!(ablation_load, "latency vs offered load"),
    artifact!(ablation_nonminimal, "Section VI: non-minimal routes"),
    artifact!(ablation_split, "Section VI: 1x32b vs 2x16b at 4 GHz"),
    artifact!(ablation_vcs, "latency vs VC count and buffer depth"),
];

/// The plan the `--quick` flag selects for the artifacts that simulate
/// the whole suite.
fn suite_plan(quick: bool) -> RunPlan {
    if quick {
        RunPlan::quick()
    } else {
        RunPlan::default()
    }
}

/// One run of a mapped application on `kind`.
fn run_mapped(
    cfg: &NocConfig,
    mapped: &MappedApp,
    kind: DesignKind,
    plan: RunPlan,
) -> ExperimentReport {
    Experiment::new(cfg.clone())
        .design(kind)
        .workload(Workload::from(mapped))
        .plan(plan)
        .run()
}

/// The application named by the first positional argument (default
/// VOPD).
fn app_arg(args: &[String]) -> Result<TaskGraph, String> {
    let want = args.first().map_or("VOPD", String::as_str);
    smart_taskgraph::apps::by_name(want).ok_or_else(|| format!("unknown app {want}"))
}
