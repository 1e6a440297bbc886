//! SMART bypass on wrap links: run the same workload on a `k × k`
//! mesh and the `k × k` torus and compare average route hop count and
//! packet latency per design. Tornado traffic (each node sends half
//! the ring width East) is the canonical wrap workload: on the mesh
//! every route marches across the middle, on the torus the same pairs
//! ride the seam — so the delta isolates what the wraparound links
//! (and SMART's ability to bypass through them) buy.
//!
//! `repro torus_bypass [edge] [rate]`
//!
//! Defaults: edge 8, rate 0.005 packets/cycle/flow (below tornado
//! saturation on both fabrics, so the latency columns compare like
//! with like). The README's
//! torus-vs-mesh results table is this artifact's output at the defaults.

use super::Sink;
use crate::{Experiment, RunPlan, Workload};
use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use smart_harness::SpatialPattern;

pub(super) fn run(_quick: bool, args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let edge: u16 = args.first().map_or(Ok(8), |e| {
        e.parse().map_err(|err| format!("edge {e:?}: {err}"))
    })?;
    let rate: f64 = args.get(1).map_or(Ok(0.005), |r| {
        r.parse().map_err(|err| format!("rate {r:?}: {err}"))
    })?;

    let workload = Workload::patterned(SpatialPattern::Tornado, rate);
    let plan = RunPlan::measure_all(40_000, 10_000, 0xC0FFEE);

    writeln!(
        out,
        "SMART bypass on wrap links — tornado@{rate}, {edge}x{edge}, 40k cycles"
    )?;
    writeln!(
        out,
        "{:>6} {:>10} {:>9} {:>10} {:>10} {:>12}",
        "fabric", "design", "avg_hops", "delivered", "latency", "wrap_links"
    )?;
    for cfg in [NocConfig::scaled(edge), NocConfig::scaled_torus(edge)] {
        let routed = workload.materialize(&cfg);
        let hops: usize = routed.routes.iter().map(|(_, r)| r.num_hops()).sum();
        let avg_hops = hops as f64 / routed.routes.len() as f64;
        let wraps = routed
            .routes
            .iter()
            .flat_map(|(_, r)| r.links(cfg.topology))
            .filter(|l| cfg.topology.is_wrap_link(*l))
            .count();
        for design in [DesignKind::Mesh, DesignKind::Smart] {
            let r = Experiment::new(cfg.clone())
                .design(design)
                .workload(workload.clone())
                .plan(plan)
                .run();
            writeln!(
                out,
                "{:>6} {:>10} {:>9.3} {:>10} {:>10.3} {:>12}",
                cfg.topology.label(),
                design.label(),
                avg_hops,
                r.packets_delivered,
                r.avg_network_latency,
                wraps
            )?;
        }
    }
    Ok(())
}
