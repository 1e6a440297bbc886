//! The one-experiment API, exercised through the facade:
//!
//! * every [`Workload`] variant produces **identical stats** to the
//!   legacy hand-rolled glue it replaced (determinism lock under a
//!   fixed seed);
//! * [`ExperimentMatrix`] runs its cells on multiple threads with
//!   per-cell results bit-identical to a serial run;
//! * the design point scales past the paper's 4×4 evaluation mesh —
//!   12×12 through the matrix, 16×16 through a single experiment.

use smart_noc::prelude::*;

/// The glue every bench bin and example used to hand-roll: build the
/// design, wire steady Bernoulli traffic to it, warm up, measure,
/// drain.
fn legacy_run(
    cfg: &NocConfig,
    kind: DesignKind,
    routes: &[(FlowId, SourceRoute)],
    rates: &[(FlowId, f64)],
    plan: RunPlan,
) -> (u64, u64, f64, f64) {
    let mut design = Design::build(kind, cfg, routes);
    let mut traffic = ModulatedTraffic::new(
        TemporalModel::Steady,
        rates,
        cfg.flits_per_packet(),
        plan.seed,
    );
    design.set_stats_from(plan.warmup);
    design.run_with(&mut traffic, plan.warmup);
    design.reset_counters();
    design.run_with(&mut traffic, plan.measure);
    design.drain(plan.drain);
    (
        design.counters().packets_injected,
        design.counters().packets_delivered,
        design.stats().avg_network_latency(),
        design.stats().avg_packet_latency(),
    )
}

fn assert_matches_legacy(cfg: &NocConfig, workload: &Workload, plan: RunPlan) {
    let routed = workload.materialize(cfg);
    for kind in DesignKind::ALL {
        let report = Experiment::new(cfg.clone())
            .design(kind)
            .workload(workload.clone())
            .plan(plan)
            .run();
        let (injected, delivered, net, packet) =
            legacy_run(cfg, kind, &routed.routes, &routed.rates, plan);
        let ctx = format!("{}/{}", kind.label(), routed.name);
        assert_eq!(report.packets_injected, injected, "{ctx}");
        assert_eq!(report.packets_delivered, delivered, "{ctx}");
        assert_eq!(report.avg_network_latency, net, "{ctx}: network latency");
        assert_eq!(report.avg_packet_latency, packet, "{ctx}: packet latency");
    }
}

#[test]
fn fig7_workload_matches_legacy_glue() {
    let cfg = NocConfig::paper_4x4();
    assert_matches_legacy(&cfg, &Workload::fig7(), RunPlan::smoke());
}

#[test]
fn every_app_workload_matches_legacy_glue() {
    let cfg = NocConfig::paper_4x4();
    let plan = RunPlan {
        warmup: 500,
        measure: 4_000,
        drain: 3_000,
        seed: 0xAB1E,
    };
    for graph in apps::all() {
        assert_matches_legacy(&cfg, &Workload::app(graph.name()), plan);
    }
}

#[test]
fn bernoulli_uniform_workload_matches_legacy_glue() {
    let cfg = NocConfig::paper_4x4();
    assert_matches_legacy(
        &cfg,
        &Workload::uniform(8, 0.02, 0x5EED),
        RunPlan::measure_all(4_000, 4_000, 0x5AA7_C0DE),
    );
}

#[test]
fn matrix_runs_12x12_on_multiple_threads_deterministically() {
    // Past the paper's 4×4 point: a 12×12 mesh (144 routers), six
    // cells, fanned out over scoped threads.
    let cfg = NocConfig::scaled(12);
    assert_eq!(cfg.topology.len(), 144);
    let matrix = ExperimentMatrix::new(cfg)
        .designs(&[DesignKind::Mesh, DesignKind::Smart])
        .workloads(vec![
            Workload::uniform(12, 0.005, 0xD1CE),
            Workload::uniform(20, 0.01, 0xFACE),
            Workload::app("VOPD"),
        ])
        .plan(RunPlan {
            warmup: 0,
            measure: 3_000,
            drain: 4_000,
            seed: 12,
        });

    let parallel = matrix.clone().threads(3).run_instrumented();
    assert_eq!(parallel.reports.len(), 6);
    assert_eq!(
        parallel.worker_threads, 3,
        "6 simulation cells across 3 workers start all 3"
    );
    for r in &parallel.reports {
        assert!(r.drained, "{}/{}", r.design.label(), r.workload);
        assert_eq!(
            r.packets_delivered,
            r.packets_injected,
            "{}/{}",
            r.design.label(),
            r.workload
        );
        assert!(r.packets_injected > 0, "{}", r.workload);
    }

    // Same cells serially: every report is bit-identical.
    let serial = matrix.threads(1).run();
    assert_eq!(serial.len(), parallel.reports.len());
    for (s, p) in serial.iter().zip(parallel.reports.iter()) {
        assert_eq!(s.snapshot_line(), p.snapshot_line());
        assert_eq!(s.flow_latencies, p.flow_latencies);
        assert_eq!(s.counters, p.counters);
    }
}

#[test]
fn single_experiment_runs_16x16() {
    let cfg = NocConfig::scaled(16);
    assert_eq!(cfg.topology.len(), 256);
    let report = Experiment::new(cfg)
        .design(DesignKind::Smart)
        .workload(Workload::uniform(16, 0.004, 0xB16))
        .plan(RunPlan::measure_all(2_000, 4_000, 16))
        .run();
    assert!(report.drained);
    assert_eq!(report.packets_delivered, report.packets_injected);
    assert!(report.packets_injected > 0);
    // Long XY routes on a 30-hop-diameter mesh still obey HPC_max
    // segmentation: zero-load latency stays 1 + 3·stops.
    let compile = report.compile.expect("SMART metrics");
    for ((flow, stops), (zf, zl)) in compile.stops.iter().zip(compile.zero_load_latency.iter()) {
        assert_eq!(flow, zf);
        assert_eq!(*zl, 1 + 3 * stops.len() as u64, "{flow}");
    }
}
