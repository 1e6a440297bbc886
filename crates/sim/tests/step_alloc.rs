//! A warm network's `offer` + `step` perform no heap allocation beyond
//! an occasional high-water growth: a loaded 8×8 mesh, 63 flows under
//! Bernoulli traffic, is run warm and then counted for 3 000 cycles.
//! Traffic generation builds its own `Vec` of packets and is not counted.

use smart_sim::flit::FlowId;
use smart_sim::forward::FlowTable;
use smart_sim::network::{Network, SimConfig};
use smart_sim::route::SourceRoute;
use smart_sim::topology::{NodeId, Topology};
use smart_sim::traffic::{ModulatedTraffic, TemporalModel, TrafficSource};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (the test harness's other threads
    /// do not disturb the count).
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a counter bump in a const-initialized, destructor-free thread local,
// which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_warm_step_does_not_allocate() {
    let cfg = SimConfig {
        topology: Topology::mesh(8, 8),
        ..SimConfig::paper_4x4()
    };
    // Node i sends to node 63 - i: every route crosses the fabric's
    // centre, so every router carries traffic.
    let routes: Vec<_> = (0..63u16)
        .map(|i| {
            let route = SourceRoute::xy(cfg.topology, NodeId(i), NodeId(63 - i)).unwrap();
            (FlowId(u32::from(i)), route)
        })
        .collect();
    let rates: Vec<_> = routes.iter().map(|(f, _)| (*f, 0.02)).collect();
    let flows = FlowTable::mesh_baseline(cfg.topology, &routes);
    let mut traffic =
        ModulatedTraffic::new(TemporalModel::Steady, &rates, cfg.flits_per_packet, 0xA110C);
    let mut net = Network::new(cfg, flows);
    let mut counted = 0;
    for cycle in 0..12_000u64 {
        let packets = traffic.generate(cycle);
        let before = ALLOCS.with(Cell::get);
        for p in packets {
            net.offer(p);
        }
        net.step();
        if cycle >= 9_000 {
            counted += ALLOCS.with(Cell::get) - before;
        }
    }
    assert!(
        net.counters().packets_delivered > 5_000,
        "the load must move packets: {:?}",
        net.counters()
    );
    assert!(
        counted <= 8,
        "{counted} allocations in 3 000 warm offer + step cycles"
    );
}
