//! Reconfiguration cost study (Section V / Fig 1): store-instruction
//! counts and drain times when the live SMART design is retargeted
//! across the eight applications back-to-back.
//!
//! Each phase runs at [`LOAD`]× its application's rates and ends with no
//! drain window, so a switch finds the previous application's traffic
//! still in flight and must empty the network before it stores the next
//! presets. A Bernoulli load cannot promise that at every switch: a
//! light application's last packet may already be delivered when its
//! phase ends, and that switch drains 0 cycles.
//!
//! `repro reconfig_cost`

use super::Sink;
use crate::{AppSchedule, MultiAppExperiment, RoutedWorkload, RunPlan, Workload};
use smart_core::config::NocConfig;
use smart_mapping::MappedApp;

/// Rate multiplier over each application's own rates: at 1× almost
/// nothing is in flight when a phase ends.
const LOAD: f64 = 20.0;

pub(super) fn run(_quick: bool, _args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let cfg = NocConfig::paper_4x4();
    // 3 000 loaded cycles per phase and no drain window.
    let plan = RunPlan::measure_all(3_000, 0, 7);
    let schedule = smart_taskgraph::apps::all()
        .iter()
        .fold(AppSchedule::new(), |s, graph| {
            let mut w = RoutedWorkload::from_mapped(&MappedApp::from_graph(&cfg, graph));
            for (_, rate) in &mut w.rates {
                *rate *= LOAD;
            }
            s.then(Workload::Routed(w), plan)
        });
    let report = MultiAppExperiment::new(cfg.clone(), schedule)
        .run()
        .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "Reconfiguration across the application suite (Section V), {LOAD}x rates:"
    )?;
    writeln!(
        out,
        "{:<10} {:>8} {:>12} {:>12} {:>10}",
        "app", "stores", "drain (cyc)", "avg stops", "bypass %"
    )?;
    for (t, phase) in report.transitions.iter().zip(&report.phases) {
        let c = phase.compile.as_ref().ok_or("no compile metrics")?;
        writeln!(
            out,
            "{:<10} {:>8} {:>12} {:>12.2} {:>10.1}",
            t.to,
            t.store_count,
            t.drain_cycles,
            c.avg_stops,
            c.bypass_fraction * 100.0
        )?;
    }
    let switches = &report.transitions[1..];
    let drained = switches.iter().filter(|t| t.drain_cycles > 0).count();
    if drained == 0 {
        return Err("no switch found traffic in flight".to_owned());
    }
    writeln!(out)?;
    writeln!(
        out,
        "Every reconfiguration costs exactly {} store instructions (one\n\
         double-word register per router), matching the paper's \"16 registers\n\
         ... correspond to 16 instructions\" for the 16-node mesh. The network\n\
         is drained before each register write, as the paper requires: {} of\n\
         the {} switches found traffic in flight, and a drain is the cycles\n\
         that traffic took to empty.",
        cfg.topology.len(),
        drained,
        switches.len()
    )?;
    Ok(())
}
