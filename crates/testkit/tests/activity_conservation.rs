//! Activity conservation: power is a function of the route set. After a
//! drained run, nine of the activity counters are exactly a sum over
//! flows — Σ_f n_f × (the counters of one packet of f alone on an empty
//! fabric), where n_f counts the packets the run offered on flow f. The
//! nine are buffer writes and reads, SA grants, flit and credit crossbar
//! traversals, pipeline-register writes, flit and credit link mm, and
//! flits delivered. Contention changes *when* a flit moves, never how
//! many buffers, crossbars and wires it touches, so an event charged on
//! a stalled or retried cycle breaks the sum without any reference
//! engine. `sa_requests` (one per candidate VC per cycle) grows with
//! load and is not conserved.
//!
//! The one-packet counters come from the engine itself (a scripted lone
//! packet per flow), so a wrong per-leg charge that is the same under
//! load and alone is not caught here.

use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use smart_harness::{Experiment, RoutedWorkload, RunPlan, TemporalModel, Workload};
use smart_sim::{ActivityCounters, FlowId};
use std::collections::BTreeMap;

/// Loaded cycles per run: long enough for queues to build at the
/// highest load, short enough for the debug profile (the test takes
/// about 8 s there on 2 vCPUs, 0.6 s in release).
const RUN_CYCLES: u64 = 10_000;
const DRAIN: u64 = 50_000;
const SEED: u64 = 99;

/// The nine conserved counters, in [`conserved`]'s order.
const NAMES: [&str; 9] = [
    "buffer_writes",
    "buffer_reads",
    "sa_grants",
    "xbar_flit_traversals",
    "xbar_credit_traversals",
    "pipeline_reg_writes",
    "link_flit_mm",
    "link_credit_mm",
    "flits_delivered",
];

/// The nine conserved counters as `f64` (the link counters are mm; the
/// rest are exact integers far below 2^53).
fn conserved(c: &ActivityCounters) -> [f64; 9] {
    [
        c.buffer_writes as f64,
        c.buffer_reads as f64,
        c.sa_grants as f64,
        c.xbar_flit_traversals as f64,
        c.xbar_credit_traversals as f64,
        c.pipeline_reg_writes as f64,
        c.link_flit_mm,
        c.link_credit_mm,
        c.flits_delivered as f64,
    ]
}

/// `base`'s flows at `scale` × their rates under `temporal`.
fn scaled(base: &RoutedWorkload, scale: f64, temporal: TemporalModel) -> Workload {
    let mut w = base.clone();
    for (_, rate) in &mut w.rates {
        *rate *= scale;
    }
    w.temporal = temporal;
    Workload::Routed(w)
}

/// The conserved counters of one packet of each flow of `routed`, alone
/// on an empty fabric.
fn lone_packet_counters(
    cfg: &NocConfig,
    kind: DesignKind,
    routed: &RoutedWorkload,
) -> BTreeMap<FlowId, [f64; 9]> {
    routed
        .routes
        .iter()
        .map(|(f, _)| {
            let report = Experiment::new(cfg.clone())
                .design(kind)
                .workload(Workload::Routed(routed.clone()))
                .scripted(vec![(0, *f)])
                .plan(RunPlan::measure_all(1, 1_000, SEED))
                .run();
            assert!(report.drained, "{kind:?}: lone packet of {f} stuck");
            (*f, conserved(&report.counters))
        })
        .collect()
}

/// Run `workload` loaded, then drained, and hold the nine counters to
/// the sum of the lone-packet counters over the packets offered.
fn check_cell(
    ctx: &str,
    cfg: &NocConfig,
    kind: DesignKind,
    workload: Workload,
    lone: &BTreeMap<FlowId, [f64; 9]>,
) {
    let (report, trace) = Experiment::new(cfg.clone())
        .design(kind)
        .workload(workload)
        .plan(RunPlan::measure_all(RUN_CYCLES, DRAIN, SEED))
        .run_recorded();
    assert!(report.drained, "{ctx}: run did not drain");
    assert!(!trace.events.is_empty(), "{ctx}: nothing offered");
    let mut offered: BTreeMap<FlowId, u64> = BTreeMap::new();
    for (_, f) in &trace.events {
        *offered.entry(*f).or_default() += 1;
    }
    let mut expected = [0.0; 9];
    for (f, n) in &offered {
        for (sum, one) in expected.iter_mut().zip(&lone[f]) {
            *sum += *n as f64 * one;
        }
    }
    let got = conserved(&report.counters);
    for ((name, got), want) in NAMES.iter().zip(got).zip(expected) {
        assert_eq!(
            got, want,
            "{ctx}: {name} = {got}, but the offered packets alone sum to {want}"
        );
    }
}

#[test]
fn nine_counters_are_a_sum_over_offered_packets() {
    let steady = TemporalModel::Steady;
    let on_off = TemporalModel::on_off(0.05, 0.05);
    // (flow set, rate scale, temporal model, bands); flow set 0 is
    // VOPD, 1 is 24 uniform-random pairs.
    let cells = [
        (0, 1.0, steady, 1),
        (0, 20.0, steady, 1),
        (0, 60.0, steady, 1),
        (0, 20.0, on_off, 1),
        (1, 1.0, steady, 1),
        (1, 5.0, steady, 1),
        (1, 10.0, steady, 1),
        (0, 20.0, steady, 2),
    ];
    for cfg in [NocConfig::paper_4x4(), NocConfig::scaled(8)] {
        let flow_sets = [
            RoutedWorkload::app(&cfg, "VOPD"),
            RoutedWorkload::uniform(&cfg, 24, 0.004, 7),
        ];
        for kind in [DesignKind::Mesh, DesignKind::Smart] {
            let lone: Vec<_> = flow_sets
                .iter()
                .map(|w| lone_packet_counters(&cfg, kind, w))
                .collect();
            for (set, scale, temporal, bands) in cells {
                let base = &flow_sets[set];
                let ctx = format!(
                    "{} {kind:?} {} {scale}x{} on {bands} band(s)",
                    cfg.topology.width(),
                    base.name,
                    temporal.suffix()
                );
                let cell_cfg = cfg.clone().sharded(bands);
                let workload = scaled(base, scale, temporal);
                check_cell(&ctx, &cell_cfg, kind, workload, &lone[set]);
            }
        }
    }
}
