//! Regenerates **Fig 9**: the generated 4×4 NoC layout report (tiled
//! routers at 1 mm pitch, black regions reserved for cores) and the
//! generated RTL module inventory.
//!
//! `repro fig9_layout`

use super::Sink;
use smart_rtlgen::{generate_all, Floorplan, GenParams};

pub(super) fn run(_quick: bool, _args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let p = GenParams::paper_4x4();
    let plan = Floorplan::generate(&p);
    writeln!(out, "{}", plan.report())?;

    writeln!(out, "Generated RTL modules:")?;
    for m in generate_all(&p) {
        writeln!(
            out,
            "  {:<22} {:>5} lines, {} always blocks",
            m.name,
            m.source.lines().count(),
            m.always_blocks()
        )?;
    }
    Ok(())
}
