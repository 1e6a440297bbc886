//! The SMART NoC implementation tool flow (DATE 2013, Section V).
//!
//! Takes network configuration as input and generates:
//!
//! * [`verilog`] — parameterized RTL of the SMART router and mesh
//!   (clock-gated ports, bypass muxes, preset config registers);
//! * [`macroblock`] — regular placement of 1-bit Tx/Rx cells into
//!   W-bit transceiver blocks (Fig 8);
//! * [`views`] — `.lib` timing and `.lef` physical views for those
//!   blocks, with delays/energies from the calibrated `smart-link`
//!   model;
//! * [`floorplan`] — the tiled mesh layout with area and wirelength
//!   accounting (Fig 9).
//!
//! ```
//! use smart_rtlgen::{GenParams, verilog};
//!
//! let rtl = verilog::generate_all(&GenParams::paper_4x4());
//! assert!(rtl.iter().any(|m| m.name == "smart_router"));
//! ```

pub mod floorplan;
pub mod macroblock;
pub mod sdc;
pub mod testbench;
pub mod verilog;
pub mod views;

pub use floorplan::{Floorplan, RouterArea};
pub use macroblock::{CellGeometry, MacroBlock, PlacedCell};
pub use sdc::sdc;
pub use testbench::{router_tb, Testbench};
pub use verilog::{generate_all, Module};
pub use views::{lef, liberty};

use smart_core::config::NocConfig;
use smart_sim::HOP_MM;

/// Generation parameters (the tool's command line in the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct GenParams {
    /// Mesh width.
    pub mesh_width: u16,
    /// Mesh height.
    pub mesh_height: u16,
    /// Flit/channel width in bits.
    pub flit_bits: u32,
    /// Credit channel width in bits.
    pub credit_bits: u32,
    /// Virtual channels per port.
    pub num_vcs: usize,
    /// Buffer depth per VC, flits.
    pub vc_depth: usize,
    /// Single-cycle reach, hops.
    pub hpc_max: usize,
    /// Hop pitch, mm.
    pub hop_mm: f64,
}

impl GenParams {
    /// The Table II configuration.
    #[must_use]
    pub fn paper_4x4() -> Self {
        GenParams::from_config(&NocConfig::paper_4x4())
    }

    /// Derive generation parameters from a [`NocConfig`].
    #[must_use]
    pub fn from_config(cfg: &NocConfig) -> Self {
        GenParams {
            mesh_width: cfg.topology.width(),
            mesh_height: cfg.topology.height(),
            flit_bits: cfg.channel_bits,
            credit_bits: cfg.credit_bits,
            num_vcs: cfg.vcs_per_port,
            vc_depth: cfg.vc_depth,
            hpc_max: cfg.hpc_max,
            hop_mm: HOP_MM,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_follow_table2() {
        let p = GenParams::paper_4x4();
        assert_eq!(p.mesh_width, 4);
        assert_eq!(p.flit_bits, 32);
        assert_eq!(p.credit_bits, 2);
        assert_eq!(p.num_vcs, 2);
        assert_eq!(p.vc_depth, 10);
        assert_eq!(p.hpc_max, 8);
    }

    #[test]
    fn whole_flow_runs() {
        let p = GenParams::paper_4x4();
        let rtl = verilog::generate_all(&p);
        assert_eq!(rtl.len(), 9);
        let block = MacroBlock::fig8_tx32();
        let lef = views::lef(&block);
        assert!(lef.contains("MACRO vlr_tx32"));
        let plan = Floorplan::generate(&p);
        assert!(plan.report().contains("SMART NoC layout"));
    }
}
