//! Torus axis of the conformance matrix: the same invariant battery
//! the mesh matrix runs (delivery, structural link exclusivity,
//! zero-load latency), on an 8×8 torus whose
//! routes cross wrap links. Cell values are locked by their own golden
//! snapshot (`golden/torus_8x8.txt`) so wrap-link behavior cannot
//! drift silently; the mesh matrix golden stays byte-identical.

use smart_core::config::NocConfig;
use smart_harness::{SpatialPattern, Workload};
use smart_testkit::{golden, CaseReport, Conformance, Scenario, ScheduleDesign};
use std::sync::OnceLock;

fn torus_conformance() -> Conformance {
    Conformance {
        cfg: NocConfig::scaled_torus(8),
        ..Conformance::quick()
    }
}

/// Tornado traffic is the wrap-link workout: every mesh route is long
/// and every torus route crosses a seam. Uniform adds irregular pairs.
fn scenarios(cfg: &NocConfig) -> Vec<Scenario> {
    vec![
        Workload::patterned(SpatialPattern::Tornado, 0.005).materialize(cfg),
        Scenario::uniform(cfg, 8, 0.01, 0xD1CE),
    ]
}

fn battery() -> &'static Vec<CaseReport> {
    static MATRIX: OnceLock<Vec<CaseReport>> = OnceLock::new();
    MATRIX.get_or_init(|| {
        let conf = torus_conformance();
        let scenarios = scenarios(&conf.cfg);
        conf.run_matrix(&ScheduleDesign::ALL, &scenarios)
    })
}

#[test]
fn torus_8x8_cell_passes_all_designs() {
    let reports = battery();
    // 4 designs × 2 scenarios, every cell loaded and checked.
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
        assert!(r.zero_load_flows_checked > 0, "{}/{}", r.design, r.scenario);
    }
    // SMART's bypass must not lose to Mesh on wrap links either.
    for scenario in ["tornado@0.005", "uniform8@0.01"] {
        let latency_of = |design: ScheduleDesign| {
            reports
                .iter()
                .find(|r| r.scenario == scenario && r.design == design.label())
                .map(|r| r.avg_network_latency)
                .unwrap_or_else(|| panic!("missing cell {}/{scenario}", design.label()))
        };
        let mesh = latency_of(ScheduleDesign::Mesh);
        let smart = latency_of(ScheduleDesign::Smart);
        assert!(
            smart <= mesh + 1e-9,
            "{scenario}: SMART {smart} vs Mesh {mesh}"
        );
    }
}

#[test]
fn torus_matrix_matches_golden_snapshot() {
    let got = golden::lines(battery().iter().map(CaseReport::golden_line));
    golden::check("torus_8x8.txt", &got, "torus conformance cells");
}

#[test]
fn torus_routes_actually_cross_wrap_links() {
    // Guard against the scenario silently degenerating into mesh-only
    // routes: tornado on an 8×8 torus must use wraparound hops.
    let cfg = NocConfig::scaled_torus(8);
    let scenario = &scenarios(&cfg)[0];
    let wraps = scenario
        .routes
        .iter()
        .flat_map(|(_, r)| r.links(cfg.topology))
        .filter(|l| cfg.topology.is_wrap_link(*l))
        .count();
    assert!(wraps > 0, "no wrap link used by {}", scenario.name);
}
