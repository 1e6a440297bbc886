//! # smart-testkit — cross-design conformance harness
//!
//! Turns the seed's ad-hoc integration checks into a reusable
//! differential battery: every [`ScheduleDesign`] (the paper's three
//! evaluated designs plus the live-reconfigured SMART, which on a
//! one-application case is the SMART network it reconfigures) is driven
//! through `smart_harness::Experiment` on every [`Scenario`] preset (the
//! Fig 7 walk-through, the eight Section VI task-graph applications, and
//! uniform-random Bernoulli traffic) under a **fixed RNG seed**, and
//! three invariant families are asserted on each combination (a fourth
//! holds the engine itself to an independent reference):
//!
//! 1. **Delivery** — every injected packet (and every flit of it) is
//!    delivered once the network drains; the network *does* drain.
//! 2. **Link exclusivity** — flows that share a link must stop at the
//!    routers where the preset hardware cannot disambiguate them
//!    (divergence at the link's sink, convergence at its source), per
//!    the Section IV stop rules. The cycle-accurate engine additionally
//!    asserts per-cycle link exclusivity internally, so any dynamic
//!    violation fails the run itself.
//! 3. **Zero-load latency** — a lone packet's measured latency equals
//!    the analytical prediction: `1 + 3·stops` on SMART, `4·hops + 4`
//!    on the baseline mesh, `1` on the dedicated yardstick.
//! 4. **Engine == reference** — [`RefNetwork`] restates the paper's
//!    BW/SA/ST pipeline and Section IV flow control with whole flits in
//!    plain queues; on the same flow plans and traffic, `smart_sim`'s
//!    `Network` (any band count) must produce the same statistics,
//!    counters, per-link counts and drain cycle
//!    (`tests/reference_equivalence.rs`, `tests/reference_exhaustive.rs`,
//!    and `tests/golden/reference_4x4.txt`, pinned from the engine copy it
//!    replaced).
//!
//! [`reference_compile()`] does for the preset compiler what `RefNetwork`
//! does for the engine: it states Section IV's stop rules over sets and
//! maps, and `tests/compile_reference.rs` holds the dense product
//! compiler equal to it. [`reference_place()`] and
//! [`reference_select_routes()`] keep NMAP placement and route selection
//! as first written, over route objects and a hashed link load;
//! `tests/place_reference.rs` holds the dense placer and selector equal
//! to them.
//!
//! Runs are deterministic: the same [`Conformance`] settings produce
//! byte-identical [`CaseReport`]s, which future scale/perf PRs can diff
//! against a golden matrix through [`golden::check`].
//!
//! ```
//! use smart_testkit::{Conformance, Scenario, ScheduleDesign};
//!
//! let conf = Conformance::quick();
//! let scenario = Scenario::fig7(&conf.cfg);
//! let report = conf.run_case(ScheduleDesign::Smart, &scenario);
//! assert_eq!(report.packets_delivered, report.packets_injected);
//! ```

pub mod golden;
pub mod harness;
pub mod reference;
pub mod reference_compile;
pub mod reference_place;
pub mod scenario;

pub use harness::{CaseReport, Conformance};
pub use reference::RefNetwork;
pub use reference_compile::reference_compile;
pub use reference_place::{reference_candidates, reference_place, reference_select_routes};
pub use scenario::Scenario;

// The conformance matrix's design axis is the multi-app schedule
// layer's [`ScheduleDesign`]; re-export that layer so conformance
// consumers need only this crate.
pub use smart_harness::{
    AppSchedule, MultiAppExperiment, ScheduleDesign, ScheduleError, ScheduleMatrix, ScheduleReport,
};
