//! Regenerates **Fig 10b**: post-layout dynamic power breakdown (Buffer
//! / Allocator / Xbar(flit+credit)+Pipeline / Link) for the eight
//! applications on Mesh, SMART and Dedicated.
//!
//! `repro fig10b_power [--quick]`

use super::{suite_plan, Sink};
use crate::{by_app, run_suite, ExperimentReport};
use smart_core::config::NocConfig;

pub(super) fn run(quick: bool, _args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let plan = suite_plan(quick);
    let cfg = NocConfig::paper_4x4();
    let results = run_suite(&cfg, &plan);

    writeln!(out, "Fig 10b: power breakdown (W)")?;
    writeln!(
        out,
        "{:<10} {:>10} {:>10} {:>10} {:>12} {:>10} {:>10}",
        "app", "design", "Buffer", "Allocator", "Xbar+Pipe", "Link", "Total"
    )?;
    let power = |r: &ExperimentReport| r.power.expect("run_suite attaches the power model");
    for r in &results {
        let p = power(r);
        writeln!(
            out,
            "{:<10} {:>10} {:>10.2e} {:>10.2e} {:>12.2e} {:>10.2e} {:>10.2e}",
            r.workload,
            r.design.label(),
            p.buffer_w,
            p.allocator_w,
            p.xbar_pipeline_w,
            p.link_w,
            p.total_w()
        )?;
    }

    // Headline ratios.
    let mut ratios = Vec::new();
    let mut link_dev = Vec::new();
    for cell in by_app(&results).values() {
        let (mesh, smart, ded) = (power(&cell[0]), power(&cell[1]), power(&cell[2]));
        ratios.push(mesh.total_w() / smart.total_w());
        link_dev.push((mesh.link_w - ded.link_w).abs() / mesh.link_w);
    }
    let mean_ratio: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let max_link_dev = link_dev.iter().cloned().fold(0.0f64, f64::max);
    writeln!(out, "\nHeadline comparisons (paper in parentheses):")?;
    writeln!(
        out,
        "  Mesh / SMART power ratio (mean) : {mean_ratio:.2}x  (2.2x)"
    )?;
    writeln!(
        out,
        "  Link power across designs        : within {:.1}% per app  (\"similar link power\")",
        max_link_dev * 100.0
    )?;
    writeln!(
        out,
        "  Dedicated                        : link power only, as plotted in the paper"
    )?;
    Ok(())
}
