//! Cycle-accurate network-on-chip simulation substrate for the SMART
//! reproduction (DATE 2013).
//!
//! This crate provides the generic machinery — the [`topology`] layer
//! (one grid type, [`Topology`]; a torus is the grid with `wrap` set),
//! flits and source [`route`]s, VC buffers and the 3-stage [`router`] pipeline,
//! virtual-cut-through credits, [`nic`]s, [`traffic`] generators, the
//! synchronous [`network`] engine, and activity [`counters`] — on which
//! `smart-core` builds the SMART architecture, the baseline mesh, and
//! the dedicated-topology yardstick.
//!
//! There is one cycle engine, [`Network`], with one step loop. It runs
//! on any number of row bands: [`Network::new`] is the 1-band case,
//! stepped inline; [`Network::banded`] steps each band on its own
//! thread with a per-cycle boundary exchange and produces bit-identical
//! results. Windowed [`telemetry`] and event [`trace`]s work at every
//! band count — per-band recordings merge on read. A cycle visits only
//! the routers holding flits and the NICs with a backlog (one bitset of
//! each per band), so idle fabric costs nothing.
//!
//! [`jsonl`] is the flat-JSON line codec (field readers, line writer,
//! escaping, header-plus-declared-lines framing) that the telemetry
//! series here, `smart-traffic`'s trace files and `smart-server`'s
//! request/response protocol are all written and read with.
//!
//! The central abstraction is the flow plan ([`forward::FlowPlan`]):
//! a flow's journey decomposed into single-cycle *segments* between
//! *stop routers*. The baseline mesh is the plan where every router
//! stops; SMART plans bypass entire multi-hop stretches in one cycle.
//! A [`FlowTable`] stores each plan once, as the dense leg records the
//! engine steps. A [`Packet`] names its flow and no endpoint: the plan
//! is where its source and destination are kept.
//!
//! ```
//! use smart_sim::flit::{FlowId, Packet, PacketId};
//! use smart_sim::forward::FlowTable;
//! use smart_sim::network::{Network, SimConfig};
//! use smart_sim::route::SourceRoute;
//! use smart_sim::topology::NodeId;
//!
//! // One flow across the 4x4 mesh on the baseline 3-cycle router.
//! let cfg = SimConfig::paper_4x4();
//! let route = SourceRoute::xy(cfg.topology, NodeId(0), NodeId(3)).unwrap();
//! let flows = FlowTable::mesh_baseline(cfg.topology, &[(FlowId(0), route)]);
//! let mut net = Network::new(cfg, flows);
//! net.offer(Packet {
//!     id: PacketId(0),
//!     flow: FlowId(0),
//!     gen_cycle: 0,
//!     num_flits: 8,
//! });
//! net.drain(100);
//! // 3 hops on the baseline: 4·3 + 4 = 16 cycles.
//! assert_eq!(net.stats().avg_network_latency(), 16.0);
//! ```
#![warn(missing_docs)]

mod active;
pub mod arbiter;
pub mod counters;
pub mod flit;
pub mod forward;
pub mod jsonl;
pub mod network;
pub mod nic;
pub mod route;
pub mod router;
mod shard;
pub mod stats;
pub mod telemetry;
pub mod topology;
pub mod trace;
pub mod traffic;

pub use counters::ActivityCounters;
pub use flit::{FlowId, Packet, PacketId, VcId};
pub use forward::{Endpoint, FlowPlan, FlowTable, LegRec, Segment, Sender};
pub use network::{Network, SimConfig};
pub use route::{RouteError, SourceRoute};
pub use stats::SimStats;
pub use telemetry::{
    CycleView, MetricsCollector, MetricsParseError, MetricsWindow, NoProbe, Probe, StallCause,
    TelemetryConfig, TelemetrySeries,
};
pub use topology::{Coord, Direction, LinkId, NodeId, Topology, Turn, HOP_MM};
pub use trace::{ReplayCounts, TraceKind, TraceRecord, Tracer};
pub use traffic::{
    mbps_to_packet_rate, ModulatedTraffic, ScriptedTraffic, TemporalModel, TrafficSource,
};
