//! Per-link utilization heatmap for one application on the SMART mesh:
//! which physical wires the virtual topology actually exercises, as a
//! mesh-shaped ASCII figure plus a ranked table.
//!
//! `repro link_heatmap [APP]`

use super::{app_arg, Sink};
use smart_core::config::NocConfig;
use smart_core::noc::SmartNoc;
use smart_mapping::MappedApp;
use smart_sim::{Coord, Direction, LinkId, ModulatedTraffic, TemporalModel};

/// Intensity glyph for a utilization in [0, 1] of the hottest link.
fn glyph(frac: f64) -> char {
    match frac {
        f if f <= 0.0 => '.',
        f if f < 0.25 => '░',
        f if f < 0.5 => '▒',
        f if f < 0.75 => '▓',
        _ => '█',
    }
}

pub(super) fn run(_quick: bool, args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let graph = app_arg(args)?;
    let cfg = NocConfig::paper_4x4();
    let mapped = MappedApp::from_graph(&cfg, &graph);
    let mut noc = SmartNoc::new(&cfg, &mapped.routes);
    let mut traffic = ModulatedTraffic::new(
        TemporalModel::Steady,
        &mapped.rates,
        cfg.flits_per_packet(),
        31,
    );
    let cycles = 60_000;
    noc.network_mut().run_with(&mut traffic, cycles);
    noc.network_mut().drain(5_000);

    // The engine exposes counts as a borrowing iterator (no per-sample
    // allocation); collect once here for random access.
    let counts: std::collections::HashMap<LinkId, u64> = noc.network().link_flit_counts().collect();
    let max = counts.values().copied().max().unwrap_or(1) as f64;
    let mesh = cfg.topology;
    let get = |from: Coord, dir: Direction| -> f64 {
        let n = mesh.node_at(from);
        let fwd = counts.get(&LinkId { from: n, dir }).copied().unwrap_or(0);
        let back = mesh
            .neighbor(n, dir)
            .and_then(|m| {
                counts
                    .get(&LinkId {
                        from: m,
                        dir: dir.opposite(),
                    })
                    .copied()
            })
            .unwrap_or(0);
        (fwd + back) as f64 / max
    };

    writeln!(
        out,
        "{} on SMART: link heatmap over {cycles} cycles (█ = hottest)",
        graph.name()
    )?;
    for y in (0..mesh.height()).rev() {
        for x in 0..mesh.width() {
            write!(out, "({x},{y})")?;
            if x + 1 < mesh.width() {
                let f = get(Coord { x, y }, Direction::East);
                write!(out, "─{}{}{}─", glyph(f), glyph(f), glyph(f))?;
            }
        }
        writeln!(out)?;
        if y > 0 {
            for x in 0..mesh.width() {
                let f = get(Coord { x, y }, Direction::South);
                write!(out, "  {}   ", glyph(f))?;
                if x + 1 < mesh.width() {
                    write!(out, "   ")?;
                }
            }
            writeln!(out)?;
        }
    }

    let mut ranked: Vec<(LinkId, u64)> = counts.into_iter().collect();
    ranked.sort_by_key(|(l, c)| (std::cmp::Reverse(*c), *l));
    writeln!(out, "\nhottest directed links (flits / {cycles} cycles):")?;
    for (link, c) in ranked.iter().take(8) {
        writeln!(
            out,
            "  {:<8} {:>8}  ({:.4} flits/cycle)",
            link.to_string(),
            c,
            *c as f64 / cycles as f64
        )?;
    }
    Ok(())
}
