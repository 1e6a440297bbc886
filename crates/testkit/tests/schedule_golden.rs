//! Schedule-level golden snapshot: the 8-application schedule fanned
//! across all four [`ScheduleDesign`]s, locked bit-exactly next to the
//! conformance matrix golden. Any engine/compiler change that shifts a
//! delivery count, latency, drain cycle or store count in the multi-app
//! regime fails here; conscious changes regenerate the fixture with
//! `SMART_UPDATE_GOLDEN=1 cargo test -p smart-testkit`.

use smart_core::config::NocConfig;
use smart_harness::RunPlan;
use smart_testkit::{golden, AppSchedule, ScheduleDesign, ScheduleMatrix, ScheduleReport};
use std::sync::OnceLock;

/// Run the 8-app × 4-design matrix once, shared between the golden and
/// determinism tests.
fn matrix() -> &'static Vec<ScheduleReport> {
    static MATRIX: OnceLock<Vec<ScheduleReport>> = OnceLock::new();
    MATRIX.get_or_init(|| {
        ScheduleMatrix::new(NocConfig::paper_4x4(), AppSchedule::apps(RunPlan::smoke()))
            .designs(&ScheduleDesign::ALL)
            .run()
            .expect("smoke phases drain within the default budget")
    })
}

#[test]
fn schedule_matrix_matches_golden_snapshot() {
    let got = golden::lines(matrix().iter().map(ScheduleReport::snapshot));
    golden::check("schedule_matrix.txt", &got, "schedule matrix");
}

#[test]
fn schedule_matrix_shape_is_8_apps_by_4_designs() {
    let reports = matrix();
    assert_eq!(reports.len(), 4, "one report per schedule design");
    for (r, d) in reports.iter().zip(ScheduleDesign::ALL) {
        assert_eq!(r.design, d);
        assert_eq!(r.phases.len(), 8, "{}: eight applications", d.label());
        assert_eq!(r.transitions.len(), 8);
        assert!(r.packets_delivered() > 0, "{}", d.label());
    }
}

#[test]
fn schedule_matrix_is_deterministic_across_runs() {
    let first = matrix();
    let again = ScheduleMatrix::new(NocConfig::paper_4x4(), AppSchedule::apps(RunPlan::smoke()))
        .designs(&[ScheduleDesign::Reconfigurable])
        .run()
        .expect("drains");
    assert_eq!(first[3].snapshot(), again[0].snapshot());
}
