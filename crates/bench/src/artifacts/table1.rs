//! Regenerates **Table I**: simulation results of max number of hops per
//! cycle (and energy efficiency) for full-swing and low-swing links.
//!
//! `repro table1`

use super::Sink;
use smart_link::table1::{paper_reference, table1};

pub(super) fn run(_quick: bool, _args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let ours = table1();
    writeln!(out, "{ours}")?;
    writeln!(out, "\nPaper reference:")?;
    writeln!(out, "{}", paper_reference())?;

    // Cell-by-cell comparison.
    let paper = paper_reference();
    let mut mismatches = 0;
    for (a, b) in ours.rows.iter().zip(paper.rows.iter()) {
        for (ca, cb) in a.cells.iter().zip(b.cells.iter()) {
            if ca.hops != cb.hops || (ca.energy_fj_per_bit_mm - cb.energy_fj_per_bit_mm).abs() > 0.5
            {
                mismatches += 1;
                writeln!(
                    out,
                    "MISMATCH {:?} {:?} @ {}: {} ({:.0}) vs paper {} ({:.0})",
                    a.style,
                    a.variant,
                    ca.rate,
                    ca.hops,
                    ca.energy_fj_per_bit_mm,
                    cb.hops,
                    cb.energy_fj_per_bit_mm
                )?;
            }
        }
    }
    writeln!(out)?;
    if mismatches == 0 {
        writeln!(
            out,
            "All 12 cells match the paper (hops exact, energy within 0.5 fJ/b/mm)."
        )?;
        Ok(())
    } else {
        writeln!(out, "{mismatches} cells mismatch the paper.")?;
        Err(format!("{mismatches} Table I cells mismatch the paper"))
    }
}
