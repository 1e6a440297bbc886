//! The cold path allocates little: `compile` and
//! `FlowTable::mesh_baseline` on a 16×16 mesh with 96 uniform random
//! XY flows, counted under a counting allocator. A route is walked
//! without allocating, the stop rules run over dense port masks, and a
//! plan is checked without a hash set or a copy of its links. `compile`
//! states each plan as a leg list and a link list per leg, which the
//! table flattens and drops; `mesh_baseline` writes its legs straight
//! into a table sized up front, so it allocates less than once per flow.

use smart_core::compile::compile;
use smart_sim::{FlowId, FlowTable, NodeId, SourceRoute, Topology};
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

fn topo() -> Topology {
    Topology::mesh(16, 16)
}

/// 96 flows between uniform random node pairs (a seeded LCG), XY-routed.
fn uniform_routes() -> Vec<(FlowId, SourceRoute)> {
    let mut state = 0x5EED_u64;
    let mut node = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        NodeId(((state >> 33) % 256) as u16)
    };
    let mut routes = Vec::new();
    while routes.len() < 96 {
        let (src, dst) = (node(), node());
        if let Ok(route) = SourceRoute::xy(topo(), src, dst) {
            routes.push((FlowId(routes.len() as u32), route));
        }
    }
    routes
}

/// Allocations made by `f`, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn legs(table: &FlowTable) -> usize {
    table.iter().map(|p| p.legs.len()).sum()
}

#[test]
fn compile_allocates_at_most_five_times_per_smart_leg() {
    let routes = uniform_routes();
    let (allocs, app) = counted(|| compile(topo(), 8, &routes));
    let legs = legs(&app.flows);
    assert!(legs > routes.len(), "the flows must stop somewhere: {legs}");
    assert!(
        allocs <= 5 * legs,
        "{allocs} allocations for {legs} legs ({:.1} a leg)",
        allocs as f64 / legs as f64
    );
}

#[test]
fn mesh_baseline_allocates_less_than_once_per_flow() {
    let routes = uniform_routes();
    let (allocs, table) = counted(|| FlowTable::mesh_baseline(topo(), &routes));
    assert_eq!(table.len(), routes.len());
    assert!(legs(&table) > 4 * routes.len(), "{} legs", legs(&table));
    assert!(
        allocs < routes.len(),
        "{allocs} allocations for {} flows",
        routes.len()
    );
}
