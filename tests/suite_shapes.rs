//! Integration test: the Fig 10 evaluation reproduces the paper's
//! *shape* — who wins, by roughly what factor, and where the
//! crossovers fall. Absolute cycle counts may drift with mapping
//! details; the bands here are intentionally wider than the point
//! estimates recorded in the README's "Scorecard" section.
//!
//! The suite (8 apps × 3 designs) runs **once**, shared across all
//! three tests, and its cells fan out across cores via
//! `ExperimentMatrix` — this was the battery's slowest file before.

use smart_bench::{run_suite, ExperimentReport, RunPlan};
use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use std::collections::BTreeMap;
use std::sync::OnceLock;

fn suite() -> &'static (NocConfig, Vec<ExperimentReport>) {
    static SUITE: OnceLock<(NocConfig, Vec<ExperimentReport>)> = OnceLock::new();
    SUITE.get_or_init(|| {
        let cfg = NocConfig::paper_4x4();
        let results = run_suite(&cfg, &RunPlan::quick());
        (cfg, results)
    })
}

fn by_app(results: &[ExperimentReport], kind: DesignKind) -> BTreeMap<String, f64> {
    results
        .iter()
        .filter(|r| r.design == kind)
        .map(|r| (r.workload.clone(), r.avg_network_latency))
        .collect()
}

#[test]
fn latency_shape_matches_fig10a() {
    let (_, results) = suite();
    let mesh = by_app(results, DesignKind::Mesh);
    let smart = by_app(results, DesignKind::Smart);
    let ded = by_app(results, DesignKind::Dedicated);
    assert_eq!(mesh.len(), 8, "all eight applications ran");

    // Per-app ordering: Mesh > SMART >= Dedicated (within noise).
    for app in mesh.keys() {
        assert!(
            mesh[app] > smart[app],
            "{app}: Mesh {} must exceed SMART {}",
            mesh[app],
            smart[app]
        );
        assert!(
            smart[app] >= ded[app] - 0.05,
            "{app}: SMART {} cannot beat Dedicated {}",
            smart[app],
            ded[app]
        );
    }

    let avg = |m: &BTreeMap<String, f64>| m.values().sum::<f64>() / m.len() as f64;
    let (am, asm, ad) = (avg(&mesh), avg(&smart), avg(&ded));

    // Paper: 60.1% average latency reduction. Band: 50-75%.
    let reduction = (1.0 - asm / am) * 100.0;
    assert!(
        (50.0..=75.0).contains(&reduction),
        "SMART reduction vs Mesh {reduction:.1}% outside the paper band"
    );
    // Paper: SMART averages 3.8 cycles; ours lands lower because NMAP
    // packs tighter. Band: 2-5 cycles.
    assert!((2.0..=5.0).contains(&asm), "SMART average {asm:.2}");
    // Paper: 1.5 cycles above Dedicated. Band: 0.5-2.5.
    let gap = asm - ad;
    assert!((0.5..=2.5).contains(&gap), "SMART-Dedicated gap {gap:.2}");

    // Paper: WLAN/VOPD/PIP nearly identical to Dedicated; H264 and
    // MMS_MP3 2-4 cycles apart (hub contention). Check the contrast:
    // the worst hub app gap must clearly exceed the best pipeline app
    // gap.
    let gap_of = |app: &str| smart[app] - ded[app];
    let hub_gap = gap_of("H264").max(gap_of("MMS_MP3"));
    let pipe_gap = gap_of("WLAN").min(gap_of("VOPD"));
    assert!(
        hub_gap > pipe_gap + 1.0,
        "hub apps ({hub_gap:.2}) must suffer more than pipeline apps ({pipe_gap:.2})"
    );
    assert!(gap_of("WLAN") < 0.5, "WLAN ≈ Dedicated");
}

#[test]
fn power_shape_matches_fig10b() {
    let (_, results) = suite();
    let mut ratios = Vec::new();
    let mut mesh_link = BTreeMap::new();
    let mut ded_link = BTreeMap::new();
    let mut mesh_total = BTreeMap::new();
    let mut ded_total = BTreeMap::new();
    let mut smart_total = BTreeMap::new();
    for r in results {
        let p = r.power.expect("run_suite attaches the power model");
        match r.design {
            DesignKind::Mesh => {
                mesh_link.insert(r.workload.clone(), p.link_w);
                mesh_total.insert(r.workload.clone(), p.total_w());
            }
            DesignKind::Dedicated => {
                ded_link.insert(r.workload.clone(), p.link_w);
                ded_total.insert(r.workload.clone(), p.total_w());
                // Dedicated is link-only in the paper's plot.
                assert_eq!(p.buffer_w, 0.0, "{}", r.workload);
                assert_eq!(p.allocator_w, 0.0, "{}", r.workload);
                assert_eq!(p.xbar_pipeline_w, 0.0, "{}", r.workload);
            }
            DesignKind::Smart => {
                // SMART's policy is preset-driven clock gating.
                smart_total.insert(r.workload.clone(), p.total_w());
            }
        }
    }
    for (app, w) in &smart_total {
        ratios.push(mesh_total[app] / w);
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    // Paper: 2.2x average. Band: 1.6-3.2x.
    assert!(
        (1.6..=3.2).contains(&mean),
        "Mesh/SMART power ratio {mean:.2} outside the paper band"
    );

    // "All designs send the same traffic through the network, and hence
    // have similar link power": Mesh vs Dedicated link power within 15%.
    for (app, mw) in &mesh_link {
        let dw = ded_link[app];
        assert!(
            (mw - dw).abs() / mw < 0.15,
            "{app}: link power diverges ({mw:.2e} vs {dw:.2e})"
        );
    }

    // Magnitudes: Fig 10b's y-axis tops out at 8e-2 W.
    for (app, w) in &mesh_total {
        assert!(
            (1e-3..=8e-2).contains(w),
            "{app}: Mesh total {w:.2e} W out of the figure's range"
        );
    }
    // Dedicated is far below Mesh everywhere.
    for (app, w) in &ded_total {
        assert!(w < &(mesh_total[app] * 0.5), "{app}: Dedicated too hot");
    }
}

#[test]
fn source_queueing_is_reported_separately() {
    let (_, results) = suite();
    for r in results {
        assert!(
            r.avg_source_queue >= 0.0 && r.avg_source_queue.is_finite(),
            "{} {:?}",
            r.workload,
            r.design
        );
        assert!(
            r.avg_packet_latency >= r.avg_network_latency + 6.9,
            "{} {:?}: tail must trail head by ≥7 flit cycles",
            r.workload,
            r.design
        );
    }
}
