//! Golden-locked saturation cell: 8×8 uniform random at 2.5× the rate
//! of the perf scorecard's `uniform_8x8` cell — deep past the baseline
//! mesh's saturation point, where the engine lives in the
//! full-buffers/credit-stall regime the flit-diet refactor reshaped
//! most. The exact deliveries, flit counts and full-precision latencies
//! of both the mesh and the SMART design are locked byte-for-byte; any
//! engine change that perturbs saturated event ordering fails here.
//!
//! Regenerate intentionally with
//! `SMART_UPDATE_GOLDEN=1 cargo test -p smart-testkit`.

use smart_core::config::NocConfig;
use smart_testkit::{CaseReport, Conformance, Scenario, ScheduleDesign};

#[test]
fn saturated_8x8_matches_golden_snapshot() {
    let cfg = NocConfig::scaled(8);
    let conf = Conformance {
        cfg: cfg.clone(),
        run_cycles: 2_000,
        // Saturated source queues take a long tail to empty; the drain
        // budget is sized for full delivery, which run_case asserts.
        drain_budget: 60_000,
        zero_load_flow_cap: 2,
        ..Conformance::default()
    };
    let scenario = Scenario::uniform(&cfg, 64, 0.05, 0x5EED);
    let got: String = [ScheduleDesign::Mesh, ScheduleDesign::Smart]
        .into_iter()
        .map(|d| conf.run_case(d, &scenario))
        .map(|r| CaseReport::golden_line(&r))
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    let expected = include_str!("golden/saturation_8x8.txt");
    if got != expected && std::env::var_os("SMART_UPDATE_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/saturation_8x8.txt"
        );
        std::fs::write(path, &got).expect("rewrite golden fixture");
        panic!("golden fixture updated at {path}; rerun without SMART_UPDATE_GOLDEN");
    }
    assert_eq!(
        got, expected,
        "saturated 8x8 cell drifted from the golden snapshot; if the \
         change is intentional, regenerate with SMART_UPDATE_GOLDEN=1"
    );
}
