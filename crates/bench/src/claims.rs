//! Every headline claim of the paper, checked in one pass against the
//! tolerance bands the README's "Scorecard" section records and
//! explains. `repro scorecard` prints the list; `tests/repro_all.rs`
//! asserts it row by row.

use crate::{by_app, run_suite, Experiment, ExperimentReport, RunPlan, Workload};
use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use smart_core::scenarios::fig7_flows;
use smart_link::table1::{paper_reference, table1};
use smart_link::units::Gbps;
use smart_link::{LinkStyle, TestChip};
use std::collections::BTreeMap;

/// One headline claim: what the reproduction measured, what the paper
/// reports, and whether the first is within tolerance of the second.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Which claim (artifact and quantity).
    pub name: &'static str,
    /// The reproduction's value, formatted as the scorecard prints it.
    pub ours: String,
    /// The paper's value.
    pub paper: &'static str,
    /// The band `ours` must fall in for the claim to hold.
    pub tolerance: &'static str,
    /// Whether it does.
    pub ok: bool,
}

/// Check every headline claim, simulating the application suite under
/// `plan` for the Fig 10 rows.
///
/// # Panics
///
/// Panics if the SMART design reports no compile metrics or the suite
/// run no power breakdown — both are bugs in the harness, not failed
/// claims.
#[must_use]
pub fn claims(plan: &RunPlan) -> Vec<Claim> {
    let cfg = NocConfig::paper_4x4();
    let mut rows = Vec::new();
    let mut check = |name, ours: String, paper, tolerance, ok| {
        rows.push(Claim {
            name,
            ours,
            paper,
            tolerance,
            ok,
        });
    };

    // --- Link level. ---
    let ours_t1 = table1();
    let paper_t1 = paper_reference();
    let t1_ok = ours_t1.rows.iter().zip(paper_t1.rows.iter()).all(|(a, b)| {
        a.cells.iter().zip(b.cells.iter()).all(|(x, y)| {
            x.hops == y.hops && (x.energy_fj_per_bit_mm - y.energy_fj_per_bit_mm).abs() < 0.5
        })
    });
    check(
        "Table I: all 12 (hops, energy) cells",
        "12/12 exact".into(),
        "exact",
        "hops exact, energy within 0.5 fJ/b/mm",
        t1_ok,
    );
    check(
        "8 hops in one cycle at 2 GHz",
        format!("{}", cfg.hpc_max),
        "8",
        "exact",
        cfg.hpc_max == 8,
    );
    let chip = TestChip::new();
    let vlr_rate = chip.max_data_rate(LinkStyle::LowSwing).0;
    let fs_rate = chip.max_data_rate(LinkStyle::FullSwing).0;
    check(
        "chip: VLR max data rate (Gb/s)",
        format!("{vlr_rate:.2}"),
        "6.8",
        "within 0.1",
        (vlr_rate - 6.8).abs() < 0.1,
    );
    check(
        "chip: full-swing max data rate (Gb/s)",
        format!("{fs_rate:.2}"),
        "5.5",
        "within 0.1",
        (fs_rate - 5.5).abs() < 0.1,
    );
    let d_vlr = chip.delay_per_mm(LinkStyle::LowSwing, Gbps(5.0)).0;
    check(
        "chip: VLR delay (ps/mm)",
        format!("{d_vlr:.0}"),
        "~60",
        "45 to 75",
        (45.0..=75.0).contains(&d_vlr),
    );

    // --- Fig 7 (through the experiment API's compile metrics; the
    // zero-cycle scripted plan builds the design without simulating —
    // traversal times are a pure function of the compiled presets). ---
    let fig7 = Experiment::new(cfg.clone())
        .workload(Workload::fig7())
        .scripted(Vec::new())
        .plan(RunPlan::measure_all(0, 0, 0))
        .run();
    let metrics = fig7.compile.expect("SMART reports compile metrics");
    let fig7_ok = fig7_flows(cfg.topology).iter().all(|(f, _, exp)| {
        metrics
            .zero_load_latency
            .iter()
            .any(|(mf, l)| mf == f && l == exp)
    });
    check(
        "Fig 7: traversal times 1/1/7/7",
        if fig7_ok { "exact" } else { "mismatch" }.to_string(),
        "1/1/7/7",
        "exact",
        fig7_ok,
    );

    // --- Section V. ---
    check(
        "reconfiguration cost (stores)",
        format!("{}", cfg.topology.len()),
        "16",
        "exact",
        cfg.topology.len() == 16,
    );

    // --- Fig 10. ---
    let results = run_suite(&cfg, plan);
    let mut lat: BTreeMap<DesignKind, f64> = BTreeMap::new();
    for r in &results {
        *lat.entry(r.design).or_insert(0.0) += r.avg_network_latency / 8.0;
    }
    let reduction = (1.0 - lat[&DesignKind::Smart] / lat[&DesignKind::Mesh]) * 100.0;
    check(
        "Fig 10a: SMART latency cut vs Mesh (%)",
        format!("{reduction:.1}"),
        "60.1",
        "50 to 75",
        (50.0..=75.0).contains(&reduction),
    );
    check(
        "Fig 10a: SMART average latency (cycles)",
        format!("{:.2}", lat[&DesignKind::Smart]),
        "3.8",
        "2 to 5",
        (2.0..=5.0).contains(&lat[&DesignKind::Smart]),
    );
    let gap = lat[&DesignKind::Smart] - lat[&DesignKind::Dedicated];
    check(
        "Fig 10a: SMART above Dedicated (cycles)",
        format!("{gap:.2}"),
        "1.5",
        "0.5 to 2.5",
        (0.5..=2.5).contains(&gap),
    );
    let watts = |r: &ExperimentReport| {
        let power = r.power.expect("run_suite attaches the power model");
        power.total_w()
    };
    let apps = by_app(&results);
    let ratio = apps
        .values()
        .map(|cell| watts(&cell[0]) / watts(&cell[1]))
        .sum::<f64>()
        / apps.len() as f64;
    check(
        "Fig 10b: Mesh/SMART power ratio",
        format!("{ratio:.2}x"),
        "2.2x",
        "1.6x to 3.2x",
        (1.6..=3.2).contains(&ratio),
    );
    rows
}
