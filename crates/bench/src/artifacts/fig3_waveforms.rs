//! Regenerates **Fig 3**: simulated waveforms at 6.8 Gb/s for (a) the
//! full-swing repeated link and (b) the low-swing voltage-locked link.
//!
//! `repro fig3_waveforms`

use super::Sink;
use smart_link::device::{FullSwingParams, Repeater, VlrParams};
use smart_link::transient::{simulate, ChainSpec, TransientConfig};
use smart_link::units::Gbps;
use smart_link::wire::{Spacing, WireRc};

pub(super) fn run(_quick: bool, _args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let rate = Gbps(6.8);
    writeln!(
        out,
        "Fig 3: simulated waveforms at {rate} (probe: end of hop 2 of 4)"
    )?;
    for (label, repeater) in [
        (
            "(a) full-swing",
            Repeater::FullSwing(FullSwingParams::default_45nm()),
        ),
        (
            "(b) low-swing (VLR)",
            Repeater::VoltageLocked(VlrParams::default_45nm()),
        ),
    ] {
        let spec = ChainSpec {
            repeater,
            wire: WireRc::for_45nm(Spacing::MinPitch),
            hops: 4,
            sections_per_mm: 5,
        };
        let sim = simulate(&spec, &TransientConfig::waveform(rate));
        let wave = &sim.waveforms[1];
        writeln!(out, "\n{label}:")?;
        write!(out, "{}", wave.ascii_plot(12, 76))?;
        let (lo, hi) = sim.far_swing;
        writeln!(
            out,
            "swing at far end: {lo:.3} .. {hi:.3}  |  delay {:.0} ps/mm  |  {:.0} fJ/b/mm",
            sim.delay_ps_per_mm, sim.energy_fj_per_bit_mm
        )?;
    }
    writeln!(
        out,
        "\nPaper shape: (a) swings rail-to-rail with slow edges; (b) is locked\n\
         near the inverter threshold with transient overshoots and faster\n\
         effective propagation (60 vs 100 ps/mm measured on the chip)."
    )?;
    Ok(())
}
