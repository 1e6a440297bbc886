//! Run the cross-design conformance battery and print the matrix.
//!
//! ```sh
//! cargo run --release --example conformance_matrix
//! ```
//!
//! Every cell that prints has already passed the delivery,
//! link-exclusivity and zero-load-latency invariants — a panic names
//! the failing (design, scenario) pair instead.

use smart_testkit::{Conformance, Scenario, ScheduleDesign};

fn main() {
    let conf = Conformance::default();
    // `Scenario` is the experiment API's `RoutedWorkload`; the battery
    // is `Workload::presets()` routed onto the conformance design point.
    let scenarios = Scenario::presets(&conf.cfg);
    println!(
        "{:<14} {:<14} {:>8} {:>10} {:>8} {:>7}",
        "scenario", "design", "packets", "latency", "0-load✓", "shared"
    );
    for report in conf.run_matrix(&ScheduleDesign::ALL, &scenarios) {
        println!(
            "{:<14} {:<14} {:>8} {:>10.2} {:>8} {:>7}",
            report.scenario,
            report.design,
            report.packets_delivered,
            report.avg_network_latency,
            report.zero_load_flows_checked,
            report.shared_links
        );
    }
}
