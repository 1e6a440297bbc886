//! Ablation: how does the single-cycle reach `HPC_max` affect SMART's
//! latency? (The paper's Table I sets HPC_max = 8 at 2 GHz; this sweep
//! shows the design-choice sensitivity on the 4×4 evaluation mesh and
//! on a larger 8×8 mesh where longer routes exercise the limit.)
//!
//! `repro ablation_hpc`

use super::{run_mapped, Sink};
use crate::{geomean, RunPlan};
use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use smart_mapping::{place_random, MappedApp};

/// How tasks land on cores for a sweep scenario.
#[derive(Clone, Copy)]
enum PlacementMode {
    /// The paper's modified NMAP (locality-chasing).
    Nmap,
    /// Seeded random placement — the paper's heterogeneous-SoC remark:
    /// "certain tasks are tied to specific cores. This will result in
    /// longer paths, magnifying the benefits of SMART."
    Random(u64),
}

pub(super) fn run(_quick: bool, _args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let plan = RunPlan::quick();

    for (k, mode, label) in [
        (4u16, PlacementMode::Nmap, "4x4 mesh, NMAP placement"),
        (8, PlacementMode::Nmap, "8x8 mesh, NMAP placement"),
        (
            8,
            PlacementMode::Random(42),
            "8x8 mesh, fixed random placement (heterogeneous SoC)",
        ),
    ] {
        let base = NocConfig::scaled(k);
        writeln!(out, "--- {label} ---")?;
        writeln!(
            out,
            "{:>7} {:>12} {:>12} {:>12}",
            "HPC", "avg stops", "latency", "vs HPC=8"
        )?;
        let mut rows = Vec::new();
        for hpc in [1usize, 2, 3, 4, 6, 8] {
            let cfg = NocConfig {
                hpc_max: hpc,
                ..base.clone()
            };
            let mut lats = Vec::new();
            let mut stops = Vec::new();
            for graph in smart_taskgraph::apps::all() {
                let mapped = match mode {
                    PlacementMode::Nmap => MappedApp::from_graph(&cfg, &graph),
                    PlacementMode::Random(seed) => MappedApp::with_placement(
                        &cfg,
                        &graph,
                        place_random(cfg.topology, &graph, seed),
                    ),
                };
                let r = run_mapped(&cfg, &mapped, DesignKind::Smart, plan);
                stops.push(r.compile.expect("SMART compile metrics").avg_stops);
                lats.push(r.avg_network_latency);
            }
            let lat = geomean(&lats);
            let st = stops.iter().sum::<f64>() / stops.len() as f64;
            rows.push((hpc, st, lat));
        }
        let lat8 = rows
            .iter()
            .find(|(h, _, _)| *h == 8)
            .map(|(_, _, l)| *l)
            .expect("HPC=8 is in the sweep");
        for (hpc, st, lat) in rows {
            writeln!(out, "{hpc:>7} {st:>12.2} {lat:>12.2} {:>11.2}x", lat / lat8)?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "Expected shape: latency falls as HPC_max grows and saturates once\n\
         HPC_max covers the longest contention-free segment (~diameter).\n\
         On the 4x4 mesh the knee is early; the 8x8 mesh keeps benefiting\n\
         further — the paper's motivation for the 8 mm single-cycle reach."
    )?;
    Ok(())
}
