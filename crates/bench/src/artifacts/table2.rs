//! Prints **Table II**: the 4×4 NoC configuration.
//!
//! `repro table2`

use super::Sink;
use smart_core::config::NocConfig;

pub(super) fn run(_quick: bool, _args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let c = NocConfig::paper_4x4();
    let h = c.header_layout();
    writeln!(out, "TABLE II: 4x4 NoC Configuration")?;
    writeln!(out, "{:<16} 45nm", "Technology")?;
    writeln!(out, "{:<16} {} V, {} GHz", "Vdd, Freq", c.vdd, c.clock_ghz)?;
    writeln!(
        out,
        "{:<16} {}x{} mesh",
        "Topology",
        c.topology.width(),
        c.topology.height()
    )?;
    writeln!(out, "{:<16} {} bits", "Channel width", c.channel_bits)?;
    writeln!(out, "{:<16} {} bits", "Credit width", c.credit_bits)?;
    writeln!(out, "{:<16} {}", "Router ports", c.router_ports)?;
    writeln!(
        out,
        "{:<16} {}, {}-flit deep",
        "VCs per port", c.vcs_per_port, c.vc_depth
    )?;
    writeln!(out, "{:<16} {} bits", "Packet size", c.packet_bits)?;
    writeln!(out, "{:<16} {} bits", "Flit size", c.flit_bits)?;
    writeln!(
        out,
        "{:<16} {} bits (Head), {} bits (Body, Tail)",
        "Header width",
        h.head_bits(),
        h.body_bits()
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "Derived: {} flits/packet, HPC_max = {} hops/cycle ({} mm at {} GHz)",
        c.flits_per_packet(),
        c.hpc_max,
        c.hpc_max,
        c.clock_ghz
    )?;
    Ok(())
}
