//! NMAP placement allocates a few times per application, not per
//! candidate: each of the eight applications placed on a 16×16 mesh,
//! counted under a counting allocator, makes at most three allocations
//! per task. Candidates are scored by walking their ports over one dense
//! link load, so what is left is the bookkeeping (a core per task, a
//! free flag per core, the load, each task's flow list, the pending
//! flows) and the returned placement.

use smart_mapping::place;
use smart_sim::Topology;
use smart_taskgraph::apps;
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
fn placement_allocates_at_most_three_times_per_task() {
    let topo = Topology::mesh(16, 16);
    for graph in apps::all() {
        let before = ALLOCS.with(Cell::get);
        let placement = place(topo, &graph);
        let allocs = ALLOCS.with(Cell::get) - before;
        let tasks = graph.num_tasks();
        assert_eq!(placement.len(), tasks);
        assert!(
            allocs <= 3 * tasks,
            "{}: {allocs} allocations for {tasks} tasks ({:.1} a task)",
            graph.name(),
            allocs as f64 / tasks as f64
        );
    }
}
