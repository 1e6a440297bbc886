//! Regenerates **Fig 10a**: average network latency of the eight SoC
//! applications on Mesh, SMART and Dedicated.
//!
//! `repro fig10a_latency [--quick]`

use super::{suite_plan, Sink};
use crate::{by_app, run_suite};
use smart_core::config::NocConfig;

pub(super) fn run(quick: bool, _args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let plan = suite_plan(quick);
    let cfg = NocConfig::paper_4x4();
    let results = run_suite(&cfg, &plan);

    // Mesh, SMART, Dedicated latency per application.
    let table: Vec<(&str, [f64; 3])> = by_app(&results)
        .into_iter()
        .map(|(app, cell)| (app, [0, 1, 2].map(|i| cell[i].avg_network_latency)))
        .collect();

    writeln!(out, "Fig 10a: average network latency (cycles)")?;
    writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>10}",
        "app", "Mesh", "SMART", "Dedicated"
    )?;
    let mut sums = [0.0f64; 3];
    for (app, lat) in &table {
        writeln!(
            out,
            "{app:<10} {:>8.2} {:>8.2} {:>10.2}",
            lat[0], lat[1], lat[2]
        )?;
        for i in 0..3 {
            sums[i] += lat[i];
        }
    }
    let n = table.len() as f64;
    let (mesh, smart, ded) = (sums[0] / n, sums[1] / n, sums[2] / n);
    writeln!(
        out,
        "{:<10} {mesh:>8.2} {smart:>8.2} {ded:>10.2}",
        "average"
    )?;
    writeln!(out, "\nHeadline comparisons (paper in parentheses):")?;
    writeln!(
        out,
        "  SMART latency reduction vs Mesh : {:.1}%  (60.1%)",
        (1.0 - smart / mesh) * 100.0
    )?;
    writeln!(
        out,
        "  SMART average latency           : {smart:.2} cycles  (3.8)"
    )?;
    writeln!(
        out,
        "  SMART above Dedicated           : {:.2} cycles  (1.5)",
        smart - ded
    )?;
    writeln!(
        out,
        "\nPer-app SMART-vs-Dedicated gaps (paper: PIP/VOPD/WLAN almost\n\
         identical; H264 & MMS_MP3 2-4 cycles apart from hub contention):"
    )?;
    for (app, lat) in &table {
        writeln!(out, "  {app:<10} {:+.2} cycles", lat[1] - lat[2])?;
    }
    Ok(())
}
