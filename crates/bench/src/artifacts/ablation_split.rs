//! Ablation from the paper's future-work discussion (Section VI):
//! splitting the 32-bit SMART channel into two 16-bit channels clocked
//! at twice the rate — "leveraging the high frequency of SMART links to
//! mitigate conflicts" on the sink/source-hub applications (H264,
//! MMS_MP3) where Dedicated beats SMART.
//!
//! Model: each 16-bit sub-channel runs at 4 GHz (the low-swing link
//! sustains 4 Gb/s with HPC_max = 7, Table I); packets are 16 sub-flits
//! and each flow's traffic splits evenly across the two channels.
//! Latencies are reported in 2 GHz cycles (sub-channel cycles ÷ 2).
//!
//! `repro ablation_split`

use super::{run_mapped, Sink};
use crate::RunPlan;
use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use smart_link::{CalibratedLinkModel, CircuitVariant, Gbps, LinkStyle, WireSpacing};
use smart_mapping::MappedApp;

pub(super) fn run(_quick: bool, _args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let plan = RunPlan::quick();
    let cfg32 = NocConfig::paper_4x4();

    // The split design point: 16-bit flits at 4 GHz. HPC_max drops per
    // Table I (7 hops at 4 Gb/s on the fabricated sizing).
    let link = CalibratedLinkModel::new(
        LinkStyle::LowSwing,
        CircuitVariant::Fabricated,
        WireSpacing::Double,
    );
    let cfg16 = NocConfig {
        channel_bits: 16,
        flit_bits: 16,
        clock_ghz: 4.0,
        hpc_max: link.max_hops_per_cycle(Gbps(4.0)) as usize,
        // Same buffer storage per VC: 10 x 32 b = 20 x 16 b.
        vc_depth: 20,
        ..cfg32
    };
    writeln!(
        out,
        "split design: 2 x {}b channels at {} GHz, HPC_max = {}",
        cfg16.channel_bits, cfg16.clock_ghz, cfg16.hpc_max
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "{:<10} {:>12} {:>14} {:>12} {:>16}",
        "app", "SMART 32b", "SMART 2x16b", "Dedicated", "gap closed"
    )?;

    for graph in smart_taskgraph::apps::all() {
        let mapped32 = MappedApp::from_graph(&cfg32, &graph);
        let latency = |cfg, mapped, kind| run_mapped(cfg, mapped, kind, plan).avg_network_latency;
        let base = latency(&cfg32, &mapped32, DesignKind::Smart);
        let ded = latency(&cfg32, &mapped32, DesignKind::Dedicated);

        // Each channel sees half of each flow's packet rate; rates are
        // recomputed at the 4 GHz clock, 32-byte packets.
        let mapped16 = MappedApp::from_graph(&cfg16, &graph);
        let mut half = mapped16.clone();
        for (_, r) in &mut half.rates {
            *r /= 2.0;
        }
        let sub = latency(&cfg16, &half, DesignKind::Smart);
        // Convert 4 GHz sub-channel cycles into 2 GHz cycles.
        let split_lat = sub / 2.0;

        let gap = base - ded;
        let closed = if gap > 1e-9 {
            (base - split_lat) / gap * 100.0
        } else {
            0.0
        };
        writeln!(
            out,
            "{:<10} {:>12.2} {:>14.2} {:>12.2} {:>15.0}%",
            graph.name(),
            base,
            split_lat,
            ded,
            closed
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "Expected shape: the split channels halve the SMART-vs-Dedicated\n\
         gap most on the hub-contention applications (H264, MMS_MP3) by\n\
         multiplexing sink traffic across two physical channels."
    )?;
    Ok(())
}
