//! # smart-core — the SMART NoC architecture (DATE 2013)
//!
//! The paper's primary contribution: a mesh NoC whose crossbars embed
//! clockless repeated links (`smart-link`) and whose bypass muxes,
//! crossbar selects and credit crossbars are **preset per application**
//! so flits traverse multiple hops — potentially source NIC to
//! destination NIC — in a single clock cycle.
//!
//! * [`config::NocConfig`] — the Table II design point (4×4, 2 GHz,
//!   32-bit flits, 2 VCs × 10, `HPC_max = 8`).
//! * [`compile::compile`] — the preset compiler: routed flows → stop
//!   sets → single-cycle segments + router presets.
//! * [`preset`] — preset state and the double-word configuration
//!   registers (Section V).
//! * [`noc::Design`] — the three evaluated designs (Mesh / SMART /
//!   Dedicated) behind one interface.
//!
//! ```
//! use smart_core::config::NocConfig;
//! use smart_core::noc::SmartNoc;
//! use smart_sim::{FlowId, NodeId, Packet, PacketId, SourceRoute};
//!
//! let cfg = NocConfig::paper_4x4();
//! let route = SourceRoute::xy(cfg.topology, NodeId(0), NodeId(3)).unwrap();
//! let mut noc = SmartNoc::new(&cfg, &[(FlowId(0), route)]);
//! noc.network_mut().offer(Packet {
//!     id: PacketId(0),
//!     flow: FlowId(0),
//!     gen_cycle: 0,
//!     num_flits: 8,
//! });
//! noc.network_mut().drain(100);
//! // Three hops, zero conflicts: the head flit arrives in ONE cycle.
//! assert_eq!(noc.network().stats().avg_network_latency(), 1.0);
//! ```

pub mod analysis;
pub mod compile;
pub mod config;
pub mod dedicated;
pub mod noc;
pub mod preset;
pub mod scenarios;
pub mod viz;

pub use analysis::{analyze, AnalysisReport, FlowFigures, LinkUtilization};
pub use compile::{compile, CompiledApp};
pub use config::NocConfig;
pub use dedicated::DedicatedNoc;
pub use noc::{Design, DesignKind, MeshNoc, SmartNoc};
pub use preset::{InputMux, MeshPresets, RouterPreset, StoreOp, XbarSelect};
pub use viz::{render_topology, topology_summary};
