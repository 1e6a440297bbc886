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
use smart_testkit::{golden, CaseReport, Conformance, Scenario, ScheduleDesign};

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
    let got = golden::lines(
        [ScheduleDesign::Mesh, ScheduleDesign::Smart]
            .into_iter()
            .map(|d| CaseReport::golden_line(&conf.run_case(d, &scenario))),
    );
    golden::check("saturation_8x8.txt", &got, "saturated 8x8 cell");
}
