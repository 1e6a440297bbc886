//! Scale sanity: the whole stack (random placement → routing → preset
//! compilation → simulation → power) on an 8×8 mesh, where routes are
//! long enough to exercise HPC_max segmentation.

use smart_noc::arch::compile::compile;
use smart_noc::mapping::place_random;
use smart_noc::prelude::*;

#[test]
fn suite_runs_on_8x8_with_random_placement() {
    let cfg = NocConfig::scaled(8);
    for graph in [apps::h264(), apps::vopd(), apps::wlan()] {
        let placement = place_random(cfg.topology, &graph, 2026);
        let mapped = MappedApp::with_placement(&cfg, &graph, placement);
        let compiled = compile(cfg.topology, cfg.hpc_max, &mapped.routes);

        // Long routes must still fit single segments (mesh diameter 14
        // > HPC_max 8, so splits may appear) and every leg obeys the
        // reach.
        for plan in compiled.flows.iter() {
            for leg in plan.legs {
                assert!(
                    usize::from(leg.n_links) <= cfg.hpc_max,
                    "{}: leg of {} links exceeds HPC_max",
                    graph.name(),
                    leg.n_links
                );
            }
        }

        let reports = ExperimentMatrix::new(cfg.clone())
            .designs(&[DesignKind::Mesh, DesignKind::Smart])
            .workloads(vec![Workload::from(&mapped)])
            .plan(RunPlan {
                warmup: 0,
                measure: 8_000,
                drain: 8_000,
                seed: 64,
            })
            .measure_power()
            .run();
        for r in &reports {
            assert!(r.drained, "{}: drains", graph.name());
            assert_eq!(r.counters.packets_injected, r.counters.packets_delivered);
            let p = r.power.expect("power attached");
            assert!(p.total_w() > 0.0 && p.total_w() < 1.0);
        }
    }
}

#[test]
fn smart_still_wins_at_8x8_scale() {
    let cfg = NocConfig::scaled(8);
    let graph = apps::vopd();
    let placement = place_random(cfg.topology, &graph, 7);
    let mapped = MappedApp::with_placement(&cfg, &graph, placement);
    let lat: Vec<f64> = ExperimentMatrix::new(cfg)
        .designs(&[DesignKind::Mesh, DesignKind::Smart])
        .workloads(vec![Workload::from(&mapped)])
        .plan(RunPlan {
            warmup: 2_000,
            measure: 10_000,
            drain: 8_000,
            seed: 64,
        })
        .run()
        .iter()
        .map(|r| r.avg_network_latency)
        .collect();
    // With ~4-hop average routes the paper's remark applies: longer
    // paths magnify SMART's benefit (well above the 4x4's 60%).
    let reduction = 1.0 - lat[1] / lat[0];
    assert!(
        reduction > 0.5,
        "SMART reduction at 8x8 should stay large, got {:.2} (Mesh {:.1} vs SMART {:.1})",
        reduction,
        lat[0],
        lat[1]
    );
}
