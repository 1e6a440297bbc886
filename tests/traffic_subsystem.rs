//! End-to-end locks for the traffic subsystem: pattern × design
//! matrices are deterministic (serial == threaded), bursty and
//! trace-replay drives run through experiments *and* schedule phases,
//! and record→replay reproduces a live run bit-exactly.

use smart_noc::prelude::*;

/// Six structured spatial patterns valid on the paper's 4×4 mesh.
fn six_patterns() -> Vec<SpatialPattern> {
    vec![
        SpatialPattern::Transpose,
        SpatialPattern::BitComplement,
        SpatialPattern::BitReverse,
        SpatialPattern::Shuffle,
        SpatialPattern::Tornado,
        SpatialPattern::hotspot(vec![NodeId(5)], 0.8),
    ]
}

#[test]
fn pattern_matrix_is_deterministic_across_threads() {
    // 6 spatial patterns × all DesignKinds through ExperimentMatrix:
    // the parallel run must be bit-identical to the serial one.
    let workloads: Vec<Workload> = six_patterns()
        .into_iter()
        .map(|p| Workload::patterned(p, 0.02))
        .collect();
    let m = ExperimentMatrix::new(NocConfig::paper_4x4())
        .designs(&DesignKind::ALL)
        .workloads(workloads)
        .plan(RunPlan::smoke());
    assert_eq!(m.cells(), 18);
    let serial = m.clone().threads(1).run();
    let parallel = m.threads(8).run();
    let lines = |rs: &[ExperimentReport]| {
        rs.iter()
            .map(ExperimentReport::snapshot_line)
            .collect::<Vec<_>>()
    };
    assert_eq!(lines(&serial), lines(&parallel));
    for r in &serial {
        assert!(r.drained, "{}", r.workload);
        assert!(r.packets_delivered > 0, "{}", r.workload);
    }
}

#[test]
fn pattern_schedule_covers_four_designs_deterministically() {
    // The same six patterns as phases of one AppSchedule, fanned across
    // all four ScheduleDesigns (Mesh / SMART / Dedicated / live
    // Reconfigurable) — 6 patterns × 4 designs, serial == threaded.
    let schedule = six_patterns().into_iter().fold(AppSchedule::new(), |s, p| {
        s.then(Workload::patterned(p, 0.02), RunPlan::smoke())
    });
    let m = ScheduleMatrix::new(NocConfig::paper_4x4(), schedule);
    assert_eq!(m.cells(), 4);
    let serial = m.clone().threads(1).run().expect("all designs drain");
    let parallel = m.threads(4).run().expect("all designs drain");
    let snaps = |rs: &[ScheduleReport]| rs.iter().map(ScheduleReport::snapshot).collect::<Vec<_>>();
    assert_eq!(snaps(&serial), snaps(&parallel));
    for r in &serial {
        assert_eq!(r.phases.len(), 6, "{:?}", r.design);
        assert!(r.packets_delivered() > 0, "{:?}", r.design);
    }
}

#[test]
fn bursty_schedule_phase_runs_end_to_end() {
    // A non-Bernoulli (on/off bursty) phase inside a live reconfigurable
    // schedule: deterministic across repeats, and the bursty phase
    // matches the same drive run as a single experiment (the live
    // design's phases start from a fresh network with the same seed).
    let bursty = Drive::Temporal(TemporalModel::on_off(0.01, 0.01));
    let schedule = AppSchedule::new()
        .then(Workload::app("WLAN"), RunPlan::smoke())
        .then_driven(
            Workload::patterned(SpatialPattern::Transpose, 0.02),
            RunPlan::smoke(),
            bursty.clone(),
        );
    let exp = MultiAppExperiment::new(NocConfig::paper_4x4(), schedule);
    let a = exp.run().expect("drains");
    let b = exp.run().expect("drains");
    assert_eq!(a.snapshot(), b.snapshot(), "schedule must be deterministic");

    let phase = &a.phases[1];
    assert!(phase.packets_delivered > 0, "bursts must deliver traffic");
    let single = Experiment::new(NocConfig::paper_4x4())
        .workload(Workload::patterned(SpatialPattern::Transpose, 0.02))
        .drive(bursty)
        .plan(RunPlan::smoke())
        .run();
    assert_eq!(phase.snapshot_line(), single.snapshot_line());
}

#[test]
fn workload_temporal_model_reaches_schedule_phases() {
    // The Patterned workload's own temporal model (not a Drive
    // override) must survive materialization into schedule phases:
    // a bursty workload under the default Bernoulli drive differs from
    // its steady twin, deterministically.
    let bursty = Workload::patterned_with(
        SpatialPattern::Tornado,
        TemporalModel::on_off(0.01, 0.01),
        0.02,
    );
    let steady = Workload::patterned(SpatialPattern::Tornado, 0.02);
    let run = |w: Workload| {
        MultiAppExperiment::new(
            NocConfig::paper_4x4(),
            AppSchedule::new().then(w, RunPlan::smoke()),
        )
        .run()
        .expect("drains")
    };
    let a = run(bursty.clone());
    let b = run(bursty);
    let c = run(steady);
    assert_eq!(a.snapshot(), b.snapshot());
    assert_ne!(
        a.phases[0].packets_injected, c.phases[0].packets_injected,
        "bursty and steady streams must differ"
    );
}

#[test]
fn recorded_trace_replays_bit_exactly_through_experiment_and_schedule() {
    // Freeze a bursty run into a TraceFile (through the JSONL text
    // form), then re-drive it (a) as a single experiment and (b) as a
    // schedule phase — both must reproduce the live run bit-exactly.
    let exp = Experiment::new(NocConfig::paper_4x4())
        .workload(Workload::patterned_with(
            SpatialPattern::BitReverse,
            TemporalModel::on_off(0.02, 0.02),
            0.03,
        ))
        .plan(RunPlan::smoke());
    let (live, trace) = exp.run_recorded();
    assert!(!trace.events.is_empty());

    let frozen = TraceFile::parse(&trace.to_jsonl()).expect("JSONL round trip");
    assert_eq!(frozen, trace);

    let replay = exp.drive(Drive::Trace(frozen.clone())).run();
    assert_eq!(live.snapshot_line(), replay.snapshot_line());
    assert_eq!(live.flow_latencies, replay.flow_latencies);

    let schedule = AppSchedule::new().then_driven(
        Workload::patterned(SpatialPattern::BitReverse, 0.03),
        RunPlan::smoke(),
        Drive::Trace(frozen),
    );
    let sched = MultiAppExperiment::new(NocConfig::paper_4x4(), schedule)
        .run()
        .expect("drains");
    // The schedule phase runs the same seed/plan on a fresh network, so
    // its measurements equal the live run's (modulo the workload label,
    // which carries the recording's temporal suffix).
    assert_eq!(
        live.snapshot_line()
            .split_once(' ')
            .expect("label + rest")
            .1,
        sched.phases[0]
            .snapshot_line()
            .split_once(' ')
            .expect("label + rest")
            .1
    );
}
