//! `Nic::new` performs no heap allocation: a fabric's idle nodes cost
//! their inline size and nothing else, so instantiating a 64×64 design
//! does not pay thousands of mallocs for NICs that never see a packet.

use smart_sim::nic::Nic;
use smart_sim::NodeId;
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
fn building_4096_nics_allocates_nothing() {
    let mut nics: Vec<Nic> = Vec::with_capacity(4096);
    let before = ALLOCS.with(Cell::get);
    for i in 0..4096u16 {
        nics.push(Nic::new(NodeId(i), 12));
    }
    let after = ALLOCS.with(Cell::get);
    assert_eq!(after - before, 0, "Nic::new touched the heap");
    assert!(nics.iter().all(Nic::is_drained));
    // The counter does count: the vector above was one allocation.
    let probe = ALLOCS.with(Cell::get);
    let v = std::hint::black_box(vec![0u8; 64]);
    assert_eq!(ALLOCS.with(Cell::get) - probe, 1);
    drop(v);
}
