//! The engine carries a head's route instead of searching for it: a
//! head that arrived on leg `i` of the dense `LegLut` leaves its stop
//! router on leg `i + 1`. That is only right if every plan's legs sit
//! consecutively in the lut, in travel order, each starting where the
//! one before ended. `LegLut::new` asserts the chain; this test holds
//! the whole layout to the plans that the real build paths produce —
//! baseline and preset-compiled SMART plans, on a mesh and across a
//! torus seam.

use smart_noc::arch::compile::compile;
use smart_noc::mapping::place_random;
use smart_noc::prelude::*;
use smart_noc::sim::{Endpoint, LegLut};

fn assert_lut_follows_plans(what: &str, table: &FlowTable) {
    let lut = LegLut::new(table);
    let mut stops = 0;
    for plan in table.iter() {
        let first = lut.first_leg_idx(plan.flow);
        for (j, leg) in plan.legs.iter().enumerate() {
            let rec = lut.rec(first + j as u32);
            assert_eq!(
                (rec.sender, rec.out_dir, rec.end, rec.cycles),
                (leg.sender, leg.out_dir, leg.end, leg.cycles),
                "{what}: {} leg {j}",
                plan.flow
            );
            assert_eq!(usize::from(rec.n_links), leg.links.len());
            if j > 0 {
                let prev = lut.rec(first + j as u32 - 1);
                assert!(matches!(prev.end, Endpoint::Stop { .. }));
                assert_eq!(prev.end.node(), rec.sender.node(), "{what}: {}", plan.flow);
                stops += 1;
            }
        }
    }
    assert!(stops > 0, "{what}: no plan stops anywhere");
}

fn assert_both_designs(what: &str, cfg: &NocConfig, routes: &[(FlowId, SourceRoute)]) {
    assert_lut_follows_plans(what, &FlowTable::mesh_baseline(cfg.topology, routes));
    let smart = compile(cfg.topology, cfg.hpc_max, routes);
    assert!(
        smart
            .flows
            .iter()
            .any(|p| p.legs.iter().any(|l| l.links.len() > 1)),
        "{what}: SMART compiled no multi-hop leg"
    );
    assert_lut_follows_plans(what, &smart.flows);
}

#[test]
fn every_plan_is_consecutive_in_the_lut_and_chains() {
    let cfg = NocConfig::scaled(8);
    let vopd = apps::vopd();
    let placement = place_random(cfg.topology, &vopd, 2026);
    let mapped = MappedApp::with_placement(&cfg, &vopd, placement);
    assert_both_designs("VOPD, random placement, 8x8", &cfg, &mapped.routes);

    let cfg = NocConfig::scaled(16);
    let uniform = RoutedWorkload::uniform(&cfg, 96, 0.01, 0x5EED);
    assert_both_designs("uniform 16x16", &cfg, &uniform.routes);

    let cfg = NocConfig::with_topology(Topology::torus(6, 6));
    let uniform = RoutedWorkload::uniform(&cfg, 48, 0.01, 7);
    let seam = uniform.routes.iter().any(|(_, r)| {
        let links = r.links(cfg.topology);
        links.iter().any(|l| cfg.topology.is_wrap_link(*l))
    });
    assert!(seam, "no route crosses the torus seam");
    assert_both_designs("uniform 6x6 torus", &cfg, &uniform.routes);
}
