//! The full conformance matrix: every design under test × every
//! scenario preset, under one fixed seed. This is the differential
//! safety net future scale/perf PRs run against — any change to the
//! engine, compiler or mapping that breaks delivery, link exclusivity
//! or zero-load latency fails here with the (design, scenario) cell
//! named in the panic, and the exact cell values are locked by the
//! checked-in golden snapshot (`golden/conformance_matrix.txt`).

use smart_core::config::NocConfig;
use smart_testkit::{golden, CaseReport, Conformance, Scenario, ScheduleDesign};
use std::sync::OnceLock;

/// The 44-cell matrix is expensive; run it once and share it between
/// the invariant, ordering and golden-snapshot tests.
fn battery() -> &'static (Conformance, Vec<Scenario>, Vec<CaseReport>) {
    static MATRIX: OnceLock<(Conformance, Vec<Scenario>, Vec<CaseReport>)> = OnceLock::new();
    MATRIX.get_or_init(|| {
        let conf = Conformance::default();
        let scenarios = Scenario::presets(&conf.cfg);
        let reports = conf.run_matrix(&ScheduleDesign::ALL, &scenarios);
        (conf, scenarios, reports)
    })
}

#[test]
fn full_matrix_holds_all_invariants() {
    let (_, scenarios, reports) = battery();
    // 4 designs × 11 scenarios — well past the 12-combination floor.
    assert_eq!(reports.len(), 44);
    // Every loaded run actually carried traffic.
    for r in reports {
        assert!(
            r.packets_injected > 0,
            "{}/{} generated no packets",
            r.design,
            r.scenario
        );
        assert!(r.zero_load_flows_checked > 0, "{}/{}", r.design, r.scenario);
    }
    // The paper's headline ordering, differentially on the same matrix
    // (same seed, same traffic): SMART never loses to Mesh.
    for s in scenarios {
        let latency_of = |design: ScheduleDesign| {
            reports
                .iter()
                .find(|r| r.scenario == s.name && r.design == design.label())
                .map(|r| r.avg_network_latency)
                .unwrap_or_else(|| panic!("missing cell {}/{}", design.label(), s.name))
        };
        let mesh = latency_of(ScheduleDesign::Mesh);
        let smart = latency_of(ScheduleDesign::Smart);
        assert!(
            smart <= mesh + 1e-9,
            "{}: SMART {smart} vs Mesh {mesh}",
            s.name
        );
    }
}

#[test]
fn matrix_matches_golden_snapshot() {
    // Bit-exact behavioral baseline: deliveries, flit counts and
    // full-precision latencies of all 44 cells. Perf PRs that change
    // any observable cell value must consciously regenerate the
    // fixture (SMART_UPDATE_GOLDEN=1 cargo test -p smart-testkit).
    let (_, _, reports) = battery();
    let got = golden::lines(reports.iter().map(CaseReport::golden_line));
    golden::check("conformance_matrix.txt", &got, "conformance matrix");
}

#[test]
fn matrix_is_deterministic_across_runs() {
    let (conf, scenarios, reports) = battery();
    let subset = [ScheduleDesign::Mesh, ScheduleDesign::Smart];
    let again: Vec<CaseReport> = conf.run_matrix(&subset, &scenarios[..3]);
    let first: Vec<&CaseReport> = reports
        .iter()
        .filter(|r| {
            scenarios[..3].iter().any(|s| s.name == r.scenario)
                && subset.iter().any(|d| d.label() == r.design)
        })
        .collect();
    assert_eq!(first.len(), again.len());
    for (a, b) in first.iter().zip(again.iter()) {
        assert_eq!(*a, b, "same seed must reproduce byte-identical reports");
    }
}

#[test]
fn scaled_mesh_also_conforms() {
    // The harness is not 4×4-specific: an 8×8 SMART instance passes the
    // same invariants on uniform traffic.
    let cfg = NocConfig::scaled(8);
    let conf = Conformance {
        cfg: cfg.clone(),
        ..Conformance::quick()
    };
    let s = Scenario::uniform(&cfg, 8, 0.01, 0xD1CE);
    for d in [ScheduleDesign::Mesh, ScheduleDesign::Smart] {
        let r = conf.run_case(d, &s);
        assert_eq!(r.packets_delivered, r.packets_injected);
    }
}
