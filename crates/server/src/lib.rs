//! # smart-server — the long-running experiment service
//!
//! The workspace's batch tools (`smart-bench` bins, examples) pay the
//! full construction cost — placement, routing, preset compilation —
//! on every invocation. This crate keeps a process warm instead: a
//! daemon accepts experiment, matrix, schedule, search and trace-diff
//! requests as JSONL over TCP, fans their cells out across cores, and
//! streams per-cell results back as they finish — with all compiled
//! artifacts held in a keyed cache so repeated design points cost only
//! the simulation itself.
//!
//! The layers, transport-independent first:
//!
//! * [`protocol`] — the versioned request/response codec
//!   (`smart-server/req-v1` / `smart-server/resp-v1`): flat JSON lines
//!   written and read with `smart_sim::jsonl`, each line kind's fields
//!   declared once, typed errors, never panics on arbitrary input.
//! * [`cache`] — [`DesignCache`]: `CompiledDesign` handles keyed by the
//!   design point itself (`smart_harness::design_point`), routed
//!   workloads shared across the design axis, FIFO-bounded.
//! * [`search`] — design-space search over mapping × design ×
//!   segmentation, scored `-(log10(energy) + log10(area) +
//!   log10(cycles))`, exhaustive or greedy.
//! * [`service`] — [`Service::handle`]: executes one request against
//!   the worker pool + cache + job table, streaming [`ResponseEvent`]s
//!   into any [`EventSink`]; per-job cancellation via `cancel`
//!   requests.
//! * [`server`] — the TCP front end ([`Server`], one pooled thread per
//!   connection, no async runtime) and the blocking [`Client`].
//!
//! Determinism contract: cell results are bit-identical to direct
//! [`smart_harness::ExperimentMatrix`] runs — same cell order, same
//! snapshot lines — whether compiled cold or served from cache; events
//! stream in completion order but carry indices, so sorting recovers
//! the canonical order exactly (locked by `tests/e2e.rs`).
//!
//! ```no_run
//! use smart_server::{Client, Request, Server, ServiceConfig};
//!
//! let server = Server::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
//! let handle = server.spawn().expect("spawn");
//! let mut client = Client::connect(handle.addr()).expect("connect");
//! let request = Request::parse(concat!(
//!     "{\"schema\":\"smart-server/req-v1\",\"id\":\"m1\",\"kind\":\"matrix\",\"lines\":1}\n",
//!     "{\"mesh\":4,\"designs\":\"mesh smart\",\"workloads\":\"fig7 app:VOPD\",",
//!     "\"warmup\":0,\"measure\":2000,\"drain\":2000,\"seed\":12648430}\n",
//! ))
//! .expect("valid request");
//! for event in client.submit(&request).expect("submit") {
//!     println!("{}", event.to_line());
//! }
//! handle.shutdown().expect("shutdown");
//! ```
#![warn(missing_docs)]

pub mod cache;
pub mod protocol;
pub mod search;
pub mod server;
pub mod service;

pub use cache::DesignCache;
pub use protocol::{
    parse_design, PlanSpec, ProtocolError, Request, RequestHeader, ResponseEvent, SearchStrategy,
    TopologySpec, WorkloadSpec, REQUEST_SCHEMA, RESPONSE_SCHEMA,
};
pub use search::{CandidateScore, SearchOutcome, SearchSpace};
pub use server::{Client, Server, ServerHandle};
pub use service::{EventSink, Service, ServiceConfig};
