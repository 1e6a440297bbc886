//! Regeneration of **Table I**: simulation results of max number of hops
//! per cycle, with energy efficiency, for both link styles and both
//! circuit variants.

use crate::analytic::{CalibratedLinkModel, CircuitVariant, LinkStyle, WireSpacing};
use crate::units::Gbps;
use std::fmt;

/// One cell of Table I: at `rate`, the link makes `hops` hops per cycle
/// at `energy_fj_per_bit_mm`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Cell {
    /// Data rate of the column.
    pub rate: Gbps,
    /// Maximum hops per cycle.
    pub hops: u32,
    /// Energy efficiency, fJ/b/mm.
    pub energy_fj_per_bit_mm: f64,
}

/// One row of Table I (a link style within a circuit variant).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Swing style of this row.
    pub style: LinkStyle,
    /// Circuit variant (`∗` = resized for 2 GHz, `∗∗` = fabricated).
    pub variant: CircuitVariant,
    /// The three cells of the row.
    pub cells: Vec<Table1Cell>,
}

/// The full table: four rows across six data rates.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Rows in paper order: FS∗, LS∗, FS∗∗, LS∗∗.
    pub rows: Vec<Table1Row>,
}

/// Data rates of the `∗` (resized, 2 GHz-optimized) half of the table.
pub const RESIZED_RATES: [f64; 3] = [1.0, 2.0, 3.0];
/// Data rates of the `∗∗` (fabricated) half of the table.
pub const FABRICATED_RATES: [f64; 3] = [4.0, 5.0, 5.5];

/// Compute Table I from the calibrated link models (all at 2× wire
/// spacing, per the table's footnotes).
#[must_use]
pub fn table1() -> Table1 {
    let mut rows = Vec::new();
    for (variant, rates) in [
        (CircuitVariant::Resized2GHz, RESIZED_RATES),
        (CircuitVariant::Fabricated, FABRICATED_RATES),
    ] {
        for style in [LinkStyle::FullSwing, LinkStyle::LowSwing] {
            let model = CalibratedLinkModel::new(style, variant, WireSpacing::Double);
            let cells = rates
                .iter()
                .map(|&r| Table1Cell {
                    rate: Gbps(r),
                    hops: model.max_hops_per_cycle(Gbps(r)),
                    energy_fj_per_bit_mm: model.energy_fj_per_bit_mm(Gbps(r)),
                })
                .collect();
            rows.push(Table1Row {
                style,
                variant,
                cells,
            });
        }
    }
    Table1 { rows }
}

/// The values printed in the paper, for comparison in tests and in the
/// scorecard (the README's "Scorecard" section).
#[must_use]
pub fn paper_reference() -> Table1 {
    let cell = |rate: f64, hops: u32, e: f64| Table1Cell {
        rate: Gbps(rate),
        hops,
        energy_fj_per_bit_mm: e,
    };
    Table1 {
        rows: vec![
            Table1Row {
                style: LinkStyle::FullSwing,
                variant: CircuitVariant::Resized2GHz,
                cells: vec![cell(1.0, 13, 103.0), cell(2.0, 6, 95.0), cell(3.0, 4, 84.0)],
            },
            Table1Row {
                style: LinkStyle::LowSwing,
                variant: CircuitVariant::Resized2GHz,
                cells: vec![
                    cell(1.0, 16, 128.0),
                    cell(2.0, 8, 104.0),
                    cell(3.0, 6, 87.0),
                ],
            },
            Table1Row {
                style: LinkStyle::FullSwing,
                variant: CircuitVariant::Fabricated,
                cells: vec![cell(4.0, 4, 98.0), cell(5.0, 3, 89.0), cell(5.5, 3, 85.0)],
            },
            Table1Row {
                style: LinkStyle::LowSwing,
                variant: CircuitVariant::Fabricated,
                cells: vec![cell(4.0, 7, 132.0), cell(5.0, 6, 107.0), cell(5.5, 5, 96.0)],
            },
        ],
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TABLE I: Simulation results of max number of hops per cycle"
        )?;
        for (variant, marker) in [
            (CircuitVariant::Resized2GHz, "*"),
            (CircuitVariant::Fabricated, "**"),
        ] {
            let rows: Vec<&Table1Row> = self.rows.iter().filter(|r| r.variant == variant).collect();
            if rows.is_empty() {
                continue;
            }
            write!(f, "{:<14}", "Data Rate")?;
            for c in &rows[0].cells {
                write!(f, " {:>20}", format!("{} Gb/s", c.rate.0))?;
            }
            writeln!(f)?;
            for row in rows {
                write!(f, "{:<14}", format!("{}{}", row.style.label(), marker))?;
                for c in &row.cells {
                    write!(
                        f,
                        " {:>20}",
                        format!("{} ({:.0} fJ/b/mm)", c.hops, c.energy_fj_per_bit_mm)
                    )?;
                }
                writeln!(f)?;
            }
        }
        writeln!(
            f,
            "*  resized and optimized for low-frequency (2 GHz), 2x wire spacing"
        )?;
        write!(f, "** same circuit as the fabricated chip, 2x wire spacing")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regenerated_table_matches_paper_exactly() {
        let ours = table1();
        let paper = paper_reference();
        assert_eq!(ours.rows.len(), paper.rows.len());
        for (a, b) in ours.rows.iter().zip(paper.rows.iter()) {
            assert_eq!(a.style, b.style);
            assert_eq!(a.variant, b.variant);
            for (ca, cb) in a.cells.iter().zip(b.cells.iter()) {
                assert_eq!(ca.rate, cb.rate);
                assert_eq!(
                    ca.hops, cb.hops,
                    "{:?} {:?} @ {}: hops",
                    a.style, a.variant, ca.rate
                );
                assert!(
                    (ca.energy_fj_per_bit_mm - cb.energy_fj_per_bit_mm).abs() < 0.5,
                    "{:?} {:?} @ {}: energy {} vs {}",
                    a.style,
                    a.variant,
                    ca.rate,
                    ca.energy_fj_per_bit_mm,
                    cb.energy_fj_per_bit_mm
                );
            }
        }
    }

    #[test]
    fn display_renders_all_rows() {
        let s = table1().to_string();
        assert!(s.contains("TABLE I"));
        assert!(s.contains("Full-swing*"));
        assert!(s.contains("Low-swing**"));
        assert!(s.contains("8 (104 fJ/b/mm)"), "headline cell missing:\n{s}");
    }

    #[test]
    fn row_ordering_matches_paper() {
        let t = table1();
        assert_eq!(t.rows[0].style, LinkStyle::FullSwing);
        assert_eq!(t.rows[0].variant, CircuitVariant::Resized2GHz);
        assert_eq!(t.rows[3].style, LinkStyle::LowSwing);
        assert_eq!(t.rows[3].variant, CircuitVariant::Fabricated);
    }
}
