//! Sharded-engine axis of the conformance matrix: the full invariant
//! battery (delivery, structural link exclusivity, zero-load latency)
//! on a 32×32 mesh, run once on the serial
//! engine and once with the cycle engine sharded across 4 row bands.
//! The serial cells are locked by their own golden snapshot
//! (`golden/sharded_32x32.txt`) and the sharded cells must reproduce
//! them *byte-identically* — sharding is an execution strategy, never
//! an observable one.
//!
//! The hotspot scenario converges traffic from every band onto two
//! targets in different bands, so cross-shard handoff sits on the
//! critical path of the delivery invariant.

use smart_core::config::NocConfig;
use smart_harness::{SpatialPattern, Workload};
use smart_sim::NodeId;
use smart_testkit::{golden, CaseReport, Conformance, Scenario, ScheduleDesign};
use std::sync::OnceLock;

/// Row-band shards in the sharded battery (32 rows ⇒ 8-row bands).
const SHARDS: usize = 4;

fn conformance(shards: usize) -> Conformance {
    Conformance {
        cfg: NocConfig::scaled(32).sharded(shards),
        run_cycles: 600,
        drain_budget: 10_000,
        zero_load_flow_cap: 2,
        ..Conformance::default()
    }
}

/// Uniform random pairs plus a sampled-background hotspot whose two
/// targets sit in different row bands (rows 8 and 24): every source
/// spends half its budget converging across band boundaries. The
/// hotspot rate is low because 1023 sources share two 8-flit sinks.
fn scenarios(cfg: &NocConfig) -> Vec<Scenario> {
    let hotspot = SpatialPattern::hotspot_sampled(
        vec![NodeId(32 * 8 + 16), NodeId(32 * 24 + 16)],
        0.5,
        3,
        0xC0DE,
    );
    vec![
        Scenario::uniform(cfg, 40, 0.02, 0xD1CE),
        Workload::patterned(hotspot, 0.0004).materialize(cfg),
    ]
}

fn battery(shards: usize) -> Vec<CaseReport> {
    let conf = conformance(shards);
    let scenarios = scenarios(&conf.cfg);
    conf.run_matrix(&ScheduleDesign::ALL, &scenarios)
}

fn serial_battery() -> &'static Vec<CaseReport> {
    static MATRIX: OnceLock<Vec<CaseReport>> = OnceLock::new();
    MATRIX.get_or_init(|| battery(1))
}

fn golden_lines(reports: &[CaseReport]) -> String {
    golden::lines(reports.iter().map(CaseReport::golden_line))
}

#[test]
fn sharded_32x32_cells_pass_all_designs() {
    let reports = serial_battery();
    // 4 designs × 2 scenarios, every cell loaded and checked
    // (`run_case` already asserts delivery and zero-load latency).
    assert_eq!(reports.len(), 8);
    for r in reports.iter() {
        assert!(
            r.packets_injected > 0,
            "{}/{} generated no packets",
            r.design,
            r.scenario
        );
        assert_eq!(
            r.packets_delivered, r.packets_injected,
            "{}/{} dropped packets",
            r.design, r.scenario
        );
    }
}

#[test]
fn sharded_battery_is_byte_identical_to_serial() {
    // The entire battery — Bernoulli load, drain, zero-load probes —
    // rerun on the 4-shard engine must
    // reproduce the serial snapshot lines byte-for-byte.
    let serial = golden_lines(serial_battery());
    let sharded = golden_lines(&battery(SHARDS));
    assert_eq!(
        serial, sharded,
        "the 4-band run diverged from the 1-band run on the 32x32 battery"
    );
}

#[test]
fn sharded_32x32_matrix_matches_golden_snapshot() {
    let got = golden_lines(serial_battery());
    golden::check("sharded_32x32.txt", &got, "32x32 conformance cells");
}

#[test]
fn hotspot_routes_cross_band_boundaries() {
    // Guard against the scenario degenerating into intra-band traffic:
    // with 8-row bands, a route crosses a boundary iff its endpoints'
    // rows land in different bands.
    let cfg = conformance(SHARDS).cfg;
    let band = |n: NodeId| cfg.topology.coord(n).y / 8;
    let scenario = &scenarios(&cfg)[1];
    let crossing = scenario
        .routes
        .iter()
        .filter(|(_, r)| band(r.source()) != band(r.destination(cfg.topology)))
        .count();
    assert!(
        crossing > scenario.routes.len() / 2,
        "only {crossing} of {} hotspot routes cross a band boundary",
        scenario.routes.len()
    );
}
