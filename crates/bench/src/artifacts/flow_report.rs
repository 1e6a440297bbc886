//! Static per-flow report for one application: zero-load latencies,
//! per-flow SMART-vs-Mesh speedups and the hottest links — what the
//! tool flow would print before committing presets.
//!
//! `repro flow_report [APP]`
//!
//! `APP` is one of H264, MMS_DEC, MMS_ENC, MMS_MP3, MWD, VOPD, WLAN,
//! PIP (default VOPD).

use super::{app_arg, Sink};
use smart_core::analysis::analyze;
use smart_core::compile::compile;
use smart_core::config::NocConfig;
use smart_mapping::MappedApp;

pub(super) fn run(_quick: bool, args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let graph = app_arg(args)?;
    let cfg = NocConfig::paper_4x4();
    let mapped = MappedApp::from_graph(&cfg, &graph);
    let app = compile(cfg.topology, cfg.hpc_max, &mapped.routes);
    let report = analyze(&app, &mapped.rates, cfg.flits_per_packet());

    writeln!(
        out,
        "{} on the {}x{} SMART mesh (HPC_max {}):\n",
        graph.name(),
        cfg.topology.width(),
        cfg.topology.height(),
        cfg.hpc_max
    )?;
    for (i, f) in graph.flows().iter().enumerate() {
        writeln!(
            out,
            "  f{i}: {} -> {} ({} MB/s)",
            graph.task_name(f.src),
            graph.task_name(f.dst),
            f.bandwidth_mbs
        )?;
    }
    writeln!(out)?;
    write!(out, "{report}")?;
    writeln!(out)?;
    writeln!(
        out,
        "zero-load averages: SMART {:.2} cycles; bypass fraction {:.0}%",
        report.avg_zero_load_latency(),
        app.bypass_fraction(cfg.topology) * 100.0
    )?;
    if report.oversubscribed().is_empty() {
        writeln!(
            out,
            "bandwidth check: all links under 1 flit/cycle — feasible."
        )?;
    } else {
        writeln!(
            out,
            "bandwidth check: {} oversubscribed links!",
            report.oversubscribed().len()
        )?;
    }
    Ok(())
}
