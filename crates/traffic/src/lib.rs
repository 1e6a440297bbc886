//! # smart-traffic — pluggable traffic generation
//!
//! The paper evaluates SMART under task-graph loads with uniform-random
//! (Bernoulli) injection; reconfigurable-NoC wins, however, depend on
//! the *spatial structure* of the traffic (long straight flows bypass,
//! convergecast flows stop) and on its *temporal shape* (bursts stress
//! the preset buffers). This crate factors traffic generation into
//! three orthogonal, composable layers:
//!
//! * **Spatial** — [`SpatialPattern`]: flow sets over any mesh
//!   (uniform, transpose, bit-complement, bit-reverse, shuffle,
//!   tornado, neighbor, hotspot), each emitting the
//!   `(FlowId, SourceRoute)` routes and per-flow rates the Experiment
//!   API consumes.
//! * **Temporal** — [`TemporalModel`] + [`ModulatedTraffic`]: steady
//!   Bernoulli, on/off Markov bursts, and deterministic rate ramps,
//!   behind the engine's `TrafficSource` trait. Both types live in
//!   `smart_sim::traffic`, beside the trait and `ScriptedTraffic` (the
//!   engine's own tests drive them), and are re-exported here.
//! * **Record/replay** — [`TraceFile`] (versioned JSONL) and
//!   [`TraceRecorder`] (capture `(cycle, flow)` injections from any
//!   live source); a trace replays as a `ScriptedTraffic` over its
//!   events and packet size, so any stochastic scenario can be frozen
//!   into a reproducible artifact — and [`TraceDiffReport`] compares
//!   one frozen schedule replayed on two designs (delivered-packet and
//!   per-flow latency deltas isolate the design change).
//!
//! A generated packet names only its flow: the flow's plan holds its
//! source and destination, so no source here is built from a flow
//! table.
//!
//! ```
//! use smart_sim::{Topology, TrafficSource};
//! use smart_traffic::{ModulatedTraffic, SpatialPattern, TemporalModel};
//!
//! // Transpose pattern, bursty injection, on the paper's 4x4 mesh.
//! let mesh = Topology::paper_4x4();
//! let (routes, rates) = SpatialPattern::Transpose.routed(mesh, 0.02);
//! let mut source = ModulatedTraffic::new(TemporalModel::on_off(0.01, 0.01), &rates, 8, 0xC0FFEE);
//! let packets: usize = (0..1_000).map(|c| source.generate(c).len()).sum();
//! assert!(packets > 0);
//! ```
#![warn(missing_docs)]

pub mod spatial;
pub mod tracediff;
pub mod tracefile;

pub use smart_sim::traffic::{ModulatedTraffic, TemporalModel};
pub use spatial::{PatternFlow, SpatialPattern};
pub use tracediff::{FlowDelta, PhaseOutcome, TraceDiffReport};
pub use tracefile::{TraceFile, TraceParseError, TraceRecorder, TRACE_SCHEMA};
