//! Fig 1: runtime reconfiguration — one physical mesh, three virtual
//! topologies. WLAN → H.264 → VOPD run on one live reconfigurable SMART
//! NoC through the `MultiAppExperiment` API: drain the network, execute
//! one memory-mapped store per router (16 instructions), run. The
//! example prints each application's first register stores, the
//! per-transition drain + store costs, per-phase latency, and the
//! Section V amortized instruction overhead.
//!
//! ```text
//! cargo run --example multi_app
//! ```

use smart_noc::arch::compile::compile;
use smart_noc::prelude::*;

/// Where the preset registers sit in the memory map (arbitrary).
const PRESET_BASE_ADDR: u64 = 0x4000_0000;

fn main() {
    let cfg = NocConfig::paper_4x4();
    let schedule = AppSchedule::new()
        .then(Workload::app("WLAN"), RunPlan::quick())
        .then(Workload::app("H264"), RunPlan::quick())
        .then(Workload::app("VOPD"), RunPlan::quick())
        .drain_budget(50_000);

    // Each application's presets, as the memory map sees them.
    for app in schedule.materialize(&cfg) {
        let compiled = compile(cfg.topology, cfg.hpc_max, &app.routes);
        println!(
            "== {} == bypass fraction {:.0}%, enabled ports {}/160",
            app.name,
            compiled.bypass_fraction(cfg.topology) * 100.0,
            compiled.presets.enabled_ports()
        );
        for store in compiled
            .presets
            .store_sequence(PRESET_BASE_ADDR)
            .iter()
            .take(3)
        {
            println!("   store [{:#010x}] = {:#018x}", store.addr, store.value);
        }
    }
    println!();

    let report = MultiAppExperiment::new(cfg.clone(), schedule.clone())
        .run()
        .expect("every transition drains within the budget");
    println!("{report}");
    println!();

    // The same schedule across all four designs: only SMART pays the
    // reconfiguration cost, and only the live design ever drains.
    println!("The same schedule across the design space:");
    for result in ScheduleMatrix::new(cfg, schedule)
        .run()
        .expect("every design completes")
    {
        println!(
            "  {:<14} {:>8.2} cyc avg, {:>3} store instructions, {:>6} drain cycles",
            result.design.label(),
            result.avg_network_latency(),
            result.total_store_instructions(),
            result.total_drain_cycles()
        );
    }
}
