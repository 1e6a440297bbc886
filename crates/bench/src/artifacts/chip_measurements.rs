//! Regenerates the **Section III chip measurements**: maximum data
//! rates, power/energy at those rates, and per-mm delays of the 10 mm
//! test vehicle — model vs published silicon.
//!
//! `repro chip_measurements`

use super::Sink;
use smart_link::units::Gbps;
use smart_link::{LinkStyle, TestChip};

pub(super) fn run(_quick: bool, _args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let chip = TestChip::new();
    writeln!(
        out,
        "45nm SOI test chip: {} link, VLR every mm (Section III)",
        chip.length()
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "{:<34} {:>12} {:>12} {:>10}",
        "quantity", "model", "published", "Δ%"
    )?;
    let mut rows: Vec<(String, f64, f64)> = Vec::new();

    for style in [LinkStyle::LowSwing, LinkStyle::FullSwing] {
        let pubd = TestChip::published(style);
        let max = chip.max_data_rate(style);
        rows.push((
            format!("{} max data rate (Gb/s)", style.label()),
            max.0,
            pubd.max_rate.0,
        ));
        rows.push((
            format!("{} power @ max (mW)", style.label()),
            chip.power_mw(style, pubd.max_rate),
            pubd.power_at_max_mw,
        ));
        rows.push((
            format!("{} energy @ max (fJ/b)", style.label()),
            chip.energy_fj_per_bit(style, pubd.max_rate),
            pubd.energy_at_max_fj,
        ));
        rows.push((
            format!("{} delay (ps/mm)", style.label()),
            chip.delay_per_mm(style, pubd.max_rate).0,
            pubd.delay_per_mm.0,
        ));
    }
    // The like-for-like comparison at 5.5 Gb/s.
    let (p_mw, e_fj) = TestChip::published_vlr_at_5p5();
    rows.push((
        "Low-swing power @ 5.5 Gb/s (mW)".into(),
        chip.power_mw(LinkStyle::LowSwing, Gbps(5.5)),
        p_mw,
    ));
    rows.push((
        "Low-swing energy @ 5.5 Gb/s (fJ/b)".into(),
        chip.energy_fj_per_bit(LinkStyle::LowSwing, Gbps(5.5)),
        e_fj,
    ));

    for (name, model, published) in &rows {
        let delta = (model - published) / published * 100.0;
        writeln!(
            out,
            "{name:<34} {model:>12.2} {published:>12.2} {delta:>9.1}%"
        )?;
    }

    writeln!(out, "\nBER at the published maximum rates (target < 1e-9):")?;
    for style in [LinkStyle::LowSwing, LinkStyle::FullSwing] {
        let max = TestChip::published(style).max_rate;
        let at_max = chip.model(style).ber(max);
        let above = chip.model(style).ber(Gbps(max.0 * 1.1));
        writeln!(
            out,
            "  {:<12} BER({max}) = {at_max:.2e}   BER({:.2} Gb/s) = {above:.2e}",
            style.label(),
            max.0 * 1.1
        )?;
    }
    Ok(())
}
