//! Multi-app schedule suite: the eight-application rotation across all
//! four schedule designs is deterministic (serial == parallel ==
//! repeated run, bit-exact), every SMART transition costs one store per
//! router (16 at 4×4, 64 at 8×8), reconfiguration drains are measured,
//! and an exhausted drain budget surfaces as `Err`, not a panic.

use smart_noc::prelude::*;

fn apps_schedule() -> AppSchedule {
    AppSchedule::apps(RunPlan::smoke())
}

/// A phase plan that deliberately leaves traffic in flight: no drain
/// window, so the *next* transition has to pay for emptying the
/// network, exactly the Fig 1 regime.
fn hot_plan(seed: u64) -> RunPlan {
    RunPlan {
        warmup: 0,
        measure: 1_000,
        drain: 0,
        seed,
    }
}

/// Two uniform phases under [`hot_plan`], so the switch between them
/// has in-flight traffic to drain within `drain_budget` cycles.
fn hot_schedule(drain_budget: u64) -> AppSchedule {
    AppSchedule::new()
        .then(Workload::uniform(8, 0.2, 11), hot_plan(7))
        .then(Workload::uniform(8, 0.25, 12), hot_plan(8))
        .drain_budget(drain_budget)
}

#[test]
fn eight_apps_by_four_designs_is_deterministic() {
    let m = ScheduleMatrix::new(NocConfig::paper_4x4(), apps_schedule()).threads(4);
    let parallel = m.run().expect("all designs drain");
    assert_eq!(parallel.len(), 4, "one report per schedule design");
    assert!(parallel.iter().all(|r| r.phases.len() == 8));

    let snaps = |rs: &[ScheduleReport]| rs.iter().map(ScheduleReport::snapshot).collect::<Vec<_>>();
    let serial = m.clone().threads(1).run().expect("all designs drain");
    assert_eq!(
        snaps(&parallel),
        snaps(&serial),
        "parallel cells must be bit-identical to a serial run"
    );
    let repeated = m.run().expect("all designs drain");
    assert_eq!(
        snaps(&parallel),
        snaps(&repeated),
        "repeated runs must be bit-identical"
    );
}

#[test]
fn transitions_chain_apps_and_report_section_v_costs() {
    let reports = ScheduleMatrix::new(NocConfig::paper_4x4(), apps_schedule())
        .threads(2)
        .run()
        .expect("all designs drain");
    for r in &reports {
        assert_eq!(r.transitions.len(), r.phases.len());
        assert!(r.transitions[0].from.is_none(), "first phase boots cold");
        for w in r.transitions.windows(2) {
            assert_eq!(
                w[1].from.as_deref(),
                Some(w[0].to.as_str()),
                "{}: transitions must chain",
                r.design.label()
            );
        }
        let expected_stores = match r.design {
            ScheduleDesign::Mesh | ScheduleDesign::Dedicated => 0,
            ScheduleDesign::Smart | ScheduleDesign::Reconfigurable => 16,
        };
        assert!(
            r.transitions
                .iter()
                .all(|t| t.store_count == expected_stores),
            "{}: every 4x4 switch costs {expected_stores} stores",
            r.design.label()
        );
        assert!(r.packets_delivered() > 0);
        assert!(r.avg_network_latency().is_finite());
    }
}

#[test]
fn one_store_per_router_at_4x4_and_8x8() {
    for (cfg, expected) in [(NocConfig::paper_4x4(), 16), (NocConfig::scaled(8), 64)] {
        let schedule = AppSchedule::new()
            .then(Workload::app("WLAN"), RunPlan::smoke())
            .then(Workload::app("H264"), RunPlan::smoke())
            .then(Workload::app("VOPD"), RunPlan::smoke());
        let report = MultiAppExperiment::new(cfg, schedule)
            .run()
            .expect("smoke phases drain");
        assert!(
            report.transitions.iter().all(|t| t.store_count == expected),
            "{expected} routers = {expected} instructions"
        );
        assert_eq!(report.total_store_instructions(), 3 * expected);
        assert!(report.amortized_instruction_overhead() > 0.0);
    }
}

#[test]
fn in_flight_traffic_forces_a_transition_drain() {
    let report = MultiAppExperiment::new(NocConfig::paper_4x4(), hot_schedule(20_000))
        .run()
        .expect("generous budget drains");
    assert!(
        !report.phases[0].drained,
        "phase 0 must end with traffic in flight"
    );
    assert!(
        report.transitions[1].drain_cycles > 0,
        "the reconfiguration had to drain in-flight traffic"
    );
    assert_eq!(
        report.total_drain_cycles(),
        report.transitions[1].drain_cycles
    );
    // Packets delivered during the transition drain are credited to
    // the phase that injected them, so nothing goes missing from the
    // schedule-wide accounting.
    assert_eq!(
        report.phases[0].packets_delivered, report.phases[0].packets_injected,
        "drain deliveries belong to phase 0"
    );
}

#[test]
fn live_phase_telemetry_covers_the_transition_drain() {
    let report = MultiAppExperiment::new(NocConfig::paper_4x4(), hot_schedule(20_000))
        .with_telemetry(TelemetryConfig::windowed(250))
        .run()
        .expect("generous budget drains");
    assert!(report.transitions[1].drain_cycles > 0, "a drain to observe");
    let phase0 = &report.phases[0];
    let last = phase0
        .telemetry
        .as_ref()
        .and_then(|s| s.windows.last())
        .expect("requested");
    // The last window closes where the phase's report was taken: after
    // the transition drain, with every drained delivery counted.
    assert_eq!(last.delivered, phase0.packets_delivered);
    assert_eq!(last.end, phase0.total_cycles);
}

#[test]
fn drain_failure_surfaces_as_err_not_panic() {
    let err = MultiAppExperiment::new(NocConfig::paper_4x4(), hot_schedule(0))
        .run()
        .unwrap_err();
    assert_eq!(err.phase, 1, "the second load hits the live traffic");
    assert_eq!(err.source.current_app, "uniform8@0.2");
    assert_eq!(err.source.next_app, "uniform8@0.25");
    assert_eq!(err.source.max_drain_cycles, 0);
    assert!(err.to_string().contains("did not drain"));
    // Through the matrix the same failure stays per-cell: the rebuilt
    // designs still complete.
    let outcome = ScheduleMatrix::new(NocConfig::paper_4x4(), hot_schedule(0))
        .threads(2)
        .run_instrumented();
    assert_eq!(outcome.reports.len(), 4);
    for (design, result) in ScheduleDesign::ALL.iter().zip(&outcome.reports) {
        match design {
            ScheduleDesign::Reconfigurable => assert!(result.is_err(), "live design must fail"),
            _ => assert!(
                result.is_ok(),
                "{}: rebuilt designs cannot fail",
                design.label()
            ),
        }
    }
}
