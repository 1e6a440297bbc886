//! Latency–throughput characterization: sweep the injection rate of a
//! synthetic pattern and trace each design's latency curve up to
//! saturation — the classic interconnection-network figure (Dally &
//! Towles reference \[11\]) complementing the paper's task-graph evaluation.
//!
//! `repro ablation_load [pattern]`
//!
//! `pattern` is any structured `SpatialPattern` label (transpose,
//! bit-complement, bit-reverse, shuffle, tornado, neighbor) or
//! `hotspot` (every node sends to node 5); default transpose.

use super::Sink;
use crate::{Experiment, RoutedWorkload, RunPlan};
use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use smart_harness::{SpatialPattern, TemporalModel};
use smart_sim::NodeId;

pub(super) fn run(_quick: bool, args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let pattern = match args.first().map_or("transpose", String::as_str) {
        "hotspot" => SpatialPattern::hotspot(vec![NodeId(5)], 1.0),
        label => SpatialPattern::by_label(label).map_err(|message| {
            format!("{message}; `hotspot` is accepted too, `mirror` no longer is")
        })?,
    };
    let cfg = NocConfig::paper_4x4();
    let flows = pattern.flows(cfg.topology).len();

    writeln!(
        out,
        "latency vs offered load — pattern {} ({} flows)",
        pattern.label(),
        flows
    )?;
    writeln!(
        out,
        "{:>22} {:>10} {:>10} {:>12}",
        "flits/node/cycle", "Mesh", "SMART", "Dedicated"
    )?;

    // Sweep per-node injection in flits/cycle.
    for load_pct in [1usize, 2, 4, 6, 8, 12, 16, 20, 28, 36] {
        let per_node_flits = load_pct as f64 / 100.0;
        // Rate per flow: nodes inject on all their outgoing flows evenly.
        let flows_per_node = flows as f64 / f64::from(cfg.topology.len() as u32);
        let rate = per_node_flits / f64::from(cfg.flits_per_packet()) / flows_per_node;
        let workload = RoutedWorkload::patterned(&cfg, &pattern, TemporalModel::Steady, rate);

        write!(out, "{per_node_flits:>22.2}")?;
        for kind in DesignKind::ALL {
            let r = Experiment::new(cfg.clone())
                .design(kind)
                .workload(workload.clone())
                .plan(RunPlan {
                    warmup: 2_000,
                    measure: 20_000,
                    drain: 3_000,
                    seed: 11,
                })
                .run();
            if r.avg_source_queue > 500.0 {
                write!(out, "{:>10}", "sat")?;
            } else {
                write!(out, "{:>10.2}", r.avg_network_latency)?;
            }
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "\nExpected shape: SMART tracks Dedicated at low load (bypass), both\n\
         far below Mesh; as load rises SMART's shared links saturate first\n\
         toward Mesh-like behaviour (\"in the worst case, if all flows\n\
         contend, SMART and Mesh will have the same network latency\")."
    )?;
    Ok(())
}
