//! Regenerates **Fig 8**: the 32-bit Tx block layout assembled from
//! 1-bit VLR cells, plus its `.lib`/`.lef` views.
//!
//! `repro fig8_tx_block`

use super::Sink;
use smart_link::units::Gbps;
use smart_link::{CalibratedLinkModel, CircuitVariant, LinkStyle, WireSpacing};
use smart_rtlgen::{lef, liberty, MacroBlock};

pub(super) fn run(_quick: bool, _args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let block = MacroBlock::fig8_tx32();
    writeln!(out, "Fig 8: 32-bit Tx block layout")?;
    writeln!(out, "{block}")?;
    writeln!(
        out,
        "pitch {} um; bit 0 pin at x = {:.2} um, bit 31 at x = {:.2} um",
        block.pitch_um,
        block.pin_x_um(0),
        block.pin_x_um(31)
    )?;

    let link = CalibratedLinkModel::new(
        LinkStyle::LowSwing,
        CircuitVariant::Resized2GHz,
        WireSpacing::Double,
    );
    writeln!(out, "\n--- .lib view (first 25 lines) ---")?;
    for line in liberty(&block, &link, Gbps(2.0)).lines().take(25) {
        writeln!(out, "{line}")?;
    }
    writeln!(out, "  ...")?;
    writeln!(out, "\n--- .lef view (first 20 lines) ---")?;
    for line in lef(&block).lines().take(20) {
        writeln!(out, "{line}")?;
    }
    writeln!(out, "  ...")?;
    Ok(())
}
