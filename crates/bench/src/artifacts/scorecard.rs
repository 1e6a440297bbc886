//! The reproduction scorecard: every headline claim of the paper
//! ([`crate::claims`]), printed with pass/fail against its tolerance
//! band.
//!
//! `repro scorecard [--quick]`

use super::{suite_plan, Sink};
use crate::claims::claims;

pub(super) fn run(quick: bool, _args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let rows = claims(&suite_plan(quick));
    writeln!(out)?;
    writeln!(
        out,
        "{:<46} {:>14} {:>14} {:>6}",
        "claim", "reproduction", "paper", "check"
    )?;
    for c in &rows {
        writeln!(
            out,
            "{:<46} {:>14} {:>14} {:>6}",
            c.name,
            c.ours,
            c.paper,
            if c.ok { "✓" } else { "✗" }
        )?;
    }
    writeln!(out)?;
    match rows.iter().filter(|c| !c.ok).count() {
        0 => writeln!(
            out,
            "ALL CHECKS PASS — the reproduction holds every headline claim."
        ),
        failed => {
            let verdict = "SOME CHECKS FAILED — see the README's Scorecard section on tolerances.";
            writeln!(out, "{verdict}")?;
            Err(format!("{failed} of {} claims failed", rows.len()))
        }
    }
}
