//! The engine carries a head's route instead of searching for it: a
//! head that arrived on leg `i` of its flow's plan leaves its stop router
//! on leg `i + 1` of the flow table. That is only right if the table
//! stores every plan's legs consecutively, in travel order, each starting
//! where the one before ended. `FlowTable::insert` checks the chain;
//! this test holds the stored tables to what the real build paths were
//! given — baseline and preset-compiled SMART plans, on a mesh and
//! across a torus seam: every flow's legs chain from its source NIC to
//! its destination NIC over exactly its route's links, and the baseline
//! table holds, record for record, the plans `mesh_plan_for` states.

use smart_noc::arch::compile::compile;
use smart_noc::mapping::place_random;
use smart_noc::prelude::*;
use smart_noc::sim::forward::mesh_plan_for;
use smart_noc::sim::{Endpoint, LinkId, Sender};

fn assert_table_follows_routes(
    what: &str,
    topo: Topology,
    table: &FlowTable,
    routes: &[(FlowId, SourceRoute)],
) {
    assert_eq!(table.len(), routes.len(), "{what}");
    let mut stops = 0;
    for (flow, route) in routes {
        let plan = table.plan(*flow);
        assert_eq!(plan.flow, *flow);
        let src = route.source();
        assert_eq!(
            plan.endpoints(),
            (src, route.destination(topo)),
            "{what}: {flow}"
        );
        assert_eq!(plan.legs[0].sender, Sender::Nic(src), "{what}: {flow}");
        for w in plan.legs.windows(2) {
            assert!(matches!(w[0].end, Endpoint::Stop { .. }), "{what}: {flow}");
            assert_eq!(w[0].end.node(), w[1].sender.node(), "{what}: {flow}");
            stops += 1;
        }
        let links: Vec<LinkId> = plan.legs.iter().flat_map(|l| plan.links(l)).collect();
        assert_eq!(links, route.links(topo), "{what}: {flow}");
    }
    assert!(stops > 0, "{what}: no plan stops anywhere");
}

fn assert_both_designs(what: &str, cfg: &NocConfig, routes: &[(FlowId, SourceRoute)]) {
    let topo = cfg.topology;
    let mesh = FlowTable::mesh_baseline(topo, routes);
    assert_table_follows_routes(what, topo, &mesh, routes);
    for (flow, route) in routes {
        let given = mesh_plan_for(topo, *flow, route.clone());
        let stored = mesh.plan(*flow);
        assert_eq!(stored.legs.len(), given.legs.len(), "{what}: {flow}");
        for (j, (rec, leg)) in stored.legs.iter().zip(&given.legs).enumerate() {
            assert_eq!(
                (rec.sender, rec.out_dir, rec.end, rec.cycles),
                (leg.sender, leg.out_dir, leg.end, leg.cycles),
                "{what}: {flow} leg {j}"
            );
            assert_eq!(u32::from(rec.crossbars), leg.crossbars());
            assert!(stored.links(rec).eq(leg.links.iter().copied()));
        }
    }
    let smart = compile(topo, cfg.hpc_max, routes);
    assert!(
        smart
            .flows
            .iter()
            .any(|p| p.legs.iter().any(|l| l.n_links > 1)),
        "{what}: SMART compiled no multi-hop leg"
    );
    assert_table_follows_routes(what, topo, &smart.flows, routes);
}

#[test]
fn every_plan_is_consecutive_in_the_table_and_chains() {
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
