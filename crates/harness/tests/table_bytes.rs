//! What a cached design holds, counted by a live-bytes allocator on the
//! experiment server's churn cell shape — 128 uniform random flows on a
//! 16×16 mesh — for three seeds: the compiled SMART application and the
//! Mesh baseline table each store a plan once, as the dense leg records
//! the engine steps, and bringing a `Network` up from a table builds no
//! second copy of it.

use smart_core::compile::compile;
use smart_core::config::NocConfig;
use smart_harness::Workload;
use smart_sim::{FlowTable, Network};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread holds (the test harness's other threads do not
    /// disturb the count).
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

fn count(delta: isize) {
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a counter update in a const-initialized, destructor-free thread
// local, which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes `f`'s result still holds once `f` has returned, and the result.
fn held<T>(f: impl FnOnce() -> T) -> (isize, T) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (LIVE.with(Cell::get) - before, out)
}

#[test]
fn a_cached_design_stores_each_plan_once() {
    let cfg = NocConfig::scaled(16);
    for seed in 1..=3 {
        let routes = Workload::uniform(128, 0.005, seed).materialize(&cfg).routes;
        let (smart, app) = held(|| compile(cfg.topology, cfg.hpc_max, &routes));
        let (mesh, table) = held(|| FlowTable::mesh_baseline(cfg.topology, &routes));
        let (empty, idle) = held(|| Network::new(cfg.sim_config(), FlowTable::new()));
        let (full, net) = held(|| Network::new(cfg.sim_config(), table.clone()));
        println!(
            "seed {seed}: SMART app {smart} B, Mesh table {mesh} B, \
             network {empty} B empty / {full} B with the Mesh table"
        );
        assert!(smart <= 48 * 1024, "seed {seed}: SMART app holds {smart} B");
        assert!(mesh <= 75 * 1024, "seed {seed}: Mesh table holds {mesh} B");
        // The network keeps the clone it is handed and nothing beside it.
        assert!(
            full - empty <= mesh,
            "seed {seed}: a network over the table holds {} B more than an empty one, \
             the table {mesh} B",
            full - empty
        );
        drop((app, idle, net));
    }
}
