//! `DedicatedNoc::step` performs no heap allocation once warm: wire
//! queues, sink lanes and sink eligibility all reuse their capacity, so
//! the third design of every served matrix pays for flits, not for
//! malloc.
//! (The allocator is the one `crates/sim/tests/nic_alloc.rs` counts
//! with.)

use smart_core::config::NocConfig;
use smart_core::DedicatedNoc;
use smart_sim::{FlowId, NodeId, Packet, PacketId, SourceRoute};
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

/// Two private wires and a sink shared by three flows, every flow
/// offered one 8-flit packet each `PERIOD` cycles (the shared sink runs
/// at 3/4 of its one-flit-per-cycle capacity).
const PAIRS: [(u16, u16); 5] = [(0, 15), (3, 12), (1, 5), (10, 5), (14, 5)];
const PERIOD: u64 = 32;

fn drive(noc: &mut DedicatedNoc, cycles: u64) {
    for _ in 0..cycles {
        let c = noc.cycle();
        if c.is_multiple_of(PERIOD) {
            for i in 0..PAIRS.len() {
                noc.offer(Packet {
                    id: PacketId(c * 8 + i as u64),
                    flow: FlowId(i as u32),
                    gen_cycle: c,
                    num_flits: 8,
                });
            }
        }
        noc.step();
    }
}

#[test]
fn a_warm_step_allocates_nothing() {
    let cfg = NocConfig::paper_4x4();
    let routes: Vec<(FlowId, SourceRoute)> = PAIRS
        .iter()
        .enumerate()
        .map(|(i, (src, dst))| {
            let r = SourceRoute::xy(cfg.topology, NodeId(*src), NodeId(*dst)).expect("route");
            (FlowId(i as u32), r)
        })
        .collect();
    let mut noc = DedicatedNoc::new(&cfg, &routes);
    // Warm-up: every queue, lane and statistics bucket reaches the
    // size this periodic load needs.
    drive(&mut noc, 64 * PERIOD);
    let before = ALLOCS.with(Cell::get);
    drive(&mut noc, 64 * PERIOD);
    let after = ALLOCS.with(Cell::get);
    assert_eq!(after - before, 0, "DedicatedNoc::step touched the heap");
    assert_eq!(noc.counters().packets_injected, 128 * 5);
    assert!(noc.drain(1_000));
    assert_eq!(noc.counters().packets_delivered, 128 * 5);
    // The counter does count.
    let probe = ALLOCS.with(Cell::get);
    let v = std::hint::black_box(vec![0u8; 64]);
    assert_eq!(ALLOCS.with(Cell::get) - probe, 1);
    drop(v);
}
