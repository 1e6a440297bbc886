//! The performance scorecard: wall-clock timing of canonical
//! [`Experiment`]/[`AppSchedule`] cells, emitted as machine-readable
//! `BENCH_<label>.json` so the simulator's perf trajectory is a tracked
//! artifact (committed before/after snapshots live in `benchmarks/`,
//! and CI uploads a fresh JSON on every run).
//!
//! The metric is **simulated cycles per wall-clock second**: every cell
//! drives a full configure→map→build→drive→measure run through the
//! public harness API, so the number reflects what users of
//! [`Experiment`] actually pay per cycle.

use crate::{
    AppSchedule, Experiment, ExperimentReport, MultiAppExperiment, RunPlan, ScheduleDesign,
    Workload,
};
use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use smart_harness::{SpatialPattern, TemporalModel};
use std::fmt::Write as _;
use std::time::Instant;

/// One timed cell of the perf scorecard.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfResult {
    /// Cell name (`fig7_4x4`, `uniform_8x8`, `bursty_8x8`,
    /// `hpc_16x16`, `reconfig_8apps`).
    pub name: String,
    /// Simulated cycles the cell advanced the network.
    pub cycles: u64,
    /// Wall-clock seconds the cell took.
    pub wall_seconds: f64,
    /// `cycles / wall_seconds` — the headline metric.
    pub cycles_per_sec: f64,
    /// Packets delivered over the run (a sanity anchor: a "faster"
    /// engine that delivers different traffic is a broken engine).
    pub packets_delivered: u64,
    /// Peak resident set size of the process so far, in kB (monotonic
    /// across cells; 0 where the platform offers no reading).
    pub peak_rss_kb: u64,
}

/// Time `run`, which must return `(cycles_advanced, packets_delivered)`.
fn time_cell(name: &str, run: impl FnOnce() -> (u64, u64)) -> PerfResult {
    let start = Instant::now();
    let (cycles, packets_delivered) = run();
    let wall_seconds = start.elapsed().as_secs_f64();
    PerfResult {
        name: name.to_owned(),
        cycles,
        wall_seconds,
        cycles_per_sec: cycles as f64 / wall_seconds.max(1e-12),
        packets_delivered,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// `(cycles, packets)` of a finished experiment report.
fn measures(r: &ExperimentReport) -> (u64, u64) {
    (r.total_cycles, r.packets_delivered)
}

/// The canonical cells, in presentation order. `scale` multiplies every
/// cell's measurement window (CI uses `--quick` = 0.1; committed
/// snapshots use 1.0).
#[must_use]
pub fn run_scorecard(scale: f64) -> Vec<PerfResult> {
    let cycles = |base: u64| ((base as f64 * scale) as u64).max(1_000);
    let mut out = Vec::new();

    // Fig 7 walk-through at paper scale: light traffic, mostly-idle
    // routers — measures the engine's per-cycle fixed cost.
    out.push(time_cell("fig7_4x4", || {
        let r = Experiment::new(NocConfig::paper_4x4())
            .workload(Workload::fig7())
            .plan(RunPlan::measure_all(cycles(400_000), 5_000, 0xC0FFEE))
            .run();
        measures(&r)
    }));

    // 8×8 uniform random on the baseline mesh: every router stops every
    // flit, so this is the router-pipeline (BW/SA/ST) hot path — the
    // cell the 1.3× acceptance bar is measured on.
    out.push(time_cell("uniform_8x8", || {
        let r = Experiment::new(NocConfig::scaled(8))
            .design(DesignKind::Mesh)
            .workload(Workload::uniform(64, 0.02, 0x5EED))
            .plan(RunPlan::measure_all(cycles(120_000), 10_000, 0xC0FFEE))
            .run();
        measures(&r)
    }));

    // 8×8 transpose pattern under on/off Markov bursts on SMART: the
    // burst model's extra RNG draw per flow-cycle plus idle/active NIC
    // phases — the cell that tracks the traffic subsystem's cost.
    out.push(time_cell("bursty_8x8", || {
        let r = Experiment::new(NocConfig::scaled(8))
            .workload(Workload::patterned_with(
                SpatialPattern::Transpose,
                TemporalModel::on_off(0.005, 0.005),
                0.03,
            ))
            .plan(RunPlan::measure_all(cycles(120_000), 10_000, 0xC0FFEE))
            .run();
        measures(&r)
    }));

    // 16×16 SMART with HPC_max segmentation: long multi-hop legs,
    // stressing the launch/arrival machinery over a large mesh.
    out.push(time_cell("hpc_16x16", || {
        let r = Experiment::new(NocConfig::scaled(16))
            .design(DesignKind::Smart)
            .workload(Workload::uniform(96, 0.01, 0xFEED))
            .plan(RunPlan::measure_all(cycles(40_000), 10_000, 0xC0FFEE))
            .run();
        measures(&r)
    }));

    // 8×8 torus under tornado traffic on SMART: every route crosses a
    // wrap seam, so this cell regression-gates the wrap-link bypass
    // path the mesh cells never touch.
    out.push(time_cell("torus_8x8", || {
        let r = Experiment::new(NocConfig::scaled_torus(8))
            .design(DesignKind::Smart)
            .workload(Workload::patterned(SpatialPattern::Tornado, 0.02))
            .plan(RunPlan::measure_all(cycles(120_000), 10_000, 0xC0FFEE))
            .run();
        measures(&r)
    }));

    // 32×32 uniform on the baseline mesh: the big-fabric serial
    // reference the sharded conformance battery locks, timed here so
    // large-mesh per-cycle cost is regression-gated on its own.
    out.push(time_cell("uniform_32x32", || {
        let r = Experiment::new(NocConfig::scaled(32))
            .design(DesignKind::Mesh)
            .workload(Workload::uniform(128, 0.02, 0x5EED))
            .plan(RunPlan::measure_all(cycles(40_000), 10_000, 0xC0FFEE))
            .run();
        measures(&r)
    }));

    // 64×64 uniform, the same cell on 1 band and on 4 bands: the pair
    // that tracks what splitting the engine across row bands buys
    // (or costs) on this host. Results are bit-identical by
    // construction — compare the delivered counts — so the only
    // difference is wall clock.
    let big_64x64 = || {
        Experiment::new(NocConfig::scaled(64))
            .design(DesignKind::Mesh)
            .workload(Workload::uniform(256, 0.02, 0x5EED))
            .plan(RunPlan::measure_all(cycles(20_000), 10_000, 0xC0FFEE))
    };
    out.push(time_cell("uniform_64x64", || measures(&big_64x64().run())));
    out.push(time_cell("sharded_64x64", || {
        measures(&big_64x64().sharded(4).run())
    }));

    // The 8-application reconfiguration schedule on the live design:
    // repeated build/drain/store-replay transitions (Fig 1, Section V).
    out.push(time_cell("reconfig_8apps", || {
        let plan = RunPlan::measure_all(cycles(20_000), 5_000, 0xC0FFEE);
        let r = MultiAppExperiment::new(NocConfig::paper_4x4(), AppSchedule::apps(plan))
            .design(ScheduleDesign::Reconfigurable)
            .run()
            .expect("schedule drains");
        // Each phase runs on the freshly reconfigured network (its
        // cycle counter restarts at load), so the schedule's total is
        // the per-phase sum.
        let cycles = r.phases.iter().map(|p| p.total_cycles).sum();
        (cycles, r.packets_delivered())
    }));

    out
}

/// Peak resident set size in kB (`VmHWM` from `/proc/self/status`);
/// 0 on platforms without procfs.
#[must_use]
pub fn peak_rss_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    return rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Render the scorecard as the `BENCH_*.json` document (schema
/// `smart-bench/perf-v1`). Hand-rolled: cell names are identifiers and
/// every value is numeric, so no escaping is needed.
#[must_use]
pub fn to_json(label: &str, scale: f64, results: &[PerfResult]) -> String {
    assert!(
        label
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'),
        "label must be a file-name-safe identifier, got {label:?}"
    );
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"smart-bench/perf-v1\",");
    let _ = writeln!(s, "  \"label\": \"{label}\",");
    let _ = writeln!(s, "  \"scale\": {scale},");
    s.push_str("  \"cells\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str("    {");
        let _ = write!(
            s,
            "\"name\": \"{}\", \"cycles\": {}, \"wall_seconds\": {:.6}, \
             \"cycles_per_sec\": {:.1}, \"packets_delivered\": {}, \"peak_rss_kb\": {}",
            r.name, r.cycles, r.wall_seconds, r.cycles_per_sec, r.packets_delivered, r.peak_rss_kb
        );
        s.push_str(if i + 1 < results.len() { "},\n" } else { "}\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Parse the `cycles_per_sec` of one named cell back out of a
/// `BENCH_*.json` document — enough of a reader for
/// `perf_scorecard --baseline` speedup comparisons without a JSON
/// dependency.
#[must_use]
pub fn cycles_per_sec_of(json: &str, cell: &str) -> Option<f64> {
    let needle = format!("\"name\": \"{cell}\"");
    let line = json.lines().find(|l| l.contains(&needle))?;
    let field = line.split("\"cycles_per_sec\": ").nth(1)?;
    field.split([',', '}']).next()?.trim().parse::<f64>().ok()
}

/// Cells timed for less wall-clock than this are excluded from the
/// regression gate: a few milliseconds of wall time puts run-to-run
/// variance at ±30% or worse (observed on `fig7_4x4` and
/// `reconfig_8apps` at `--quick` scale), which no sane tolerance can
/// separate from a real regression.
pub const GATE_MIN_WALL_SECONDS: f64 = 0.05;

/// Regression-gate comparison against a committed `BENCH_*.json`
/// baseline: one failure line per cell whose `cycles_per_sec` fell more
/// than `tolerance` (a fraction, e.g. `0.2` = 20%) below the baseline's.
/// Cells absent from the baseline are skipped — new cells cannot
/// regress — as are cells timed for under [`GATE_MIN_WALL_SECONDS`],
/// whose readings are measurement noise. The baseline must come from
/// the same `--quick`/full scale as `results`; the two scales have
/// different per-cycle cost profiles (warmup and reconfiguration
/// overheads amortize over fewer cycles at `--quick`). An empty return
/// means the gate passes.
///
/// # Panics
///
/// Panics if `tolerance` is outside `[0, 1)`.
#[must_use]
pub fn gate_failures(baseline_json: &str, results: &[PerfResult], tolerance: f64) -> Vec<String> {
    assert!(
        (0.0..1.0).contains(&tolerance),
        "gate tolerance {tolerance} outside [0, 1)"
    );
    let mut out = Vec::new();
    for r in results {
        let Some(base) = cycles_per_sec_of(baseline_json, &r.name) else {
            continue;
        };
        if base <= 0.0 || r.wall_seconds < GATE_MIN_WALL_SECONDS {
            continue;
        }
        let floor = base * (1.0 - tolerance);
        if r.cycles_per_sec < floor {
            out.push(format!(
                "{}: {:.0} cycles/sec is {:.1}% below baseline {:.0} (floor {:.0})",
                r.name,
                r.cycles_per_sec,
                (1.0 - r.cycles_per_sec / base) * 100.0,
                base,
                floor
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(name: &str, cps: f64) -> PerfResult {
        PerfResult {
            name: name.into(),
            cycles: 1_000,
            wall_seconds: 1.0,
            cycles_per_sec: cps,
            packets_delivered: 1,
            peak_rss_kb: 0,
        }
    }

    #[test]
    fn gate_passes_within_tolerance() {
        let baseline = to_json("base", 1.0, &[cell("a", 100_000.0), cell("b", 50_000.0)]);
        // 19% down on one cell, 5% up on the other: inside a 20% gate.
        let now = [cell("a", 81_000.0), cell("b", 52_500.0)];
        assert!(gate_failures(&baseline, &now, 0.2).is_empty());
    }

    #[test]
    fn gate_names_regressed_cells() {
        let baseline = to_json("base", 1.0, &[cell("a", 100_000.0), cell("b", 50_000.0)]);
        let now = [cell("a", 70_000.0), cell("b", 49_000.0)];
        let failures = gate_failures(&baseline, &now, 0.2);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("a:"), "{}", failures[0]);
        // A cell the baseline never measured cannot regress.
        let fresh = [cell("new_cell", 1.0)];
        assert!(gate_failures(&baseline, &fresh, 0.2).is_empty());
    }

    #[test]
    fn gate_skips_noise_dominated_cells() {
        let baseline = to_json("base", 1.0, &[cell("a", 100_000.0)]);
        // A 90% drop — but timed for 2ms, under the noise floor.
        let mut noisy = cell("a", 10_000.0);
        noisy.wall_seconds = 0.002;
        assert!(gate_failures(&baseline, &[noisy], 0.2).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn silly_gate_tolerance_rejected() {
        let _ = gate_failures("{}", &[], 1.0);
    }

    #[test]
    fn json_round_trips_cycles_per_sec() {
        let results = vec![
            PerfResult {
                name: "uniform_8x8".into(),
                cycles: 130_000,
                wall_seconds: 0.5,
                cycles_per_sec: 260_000.0,
                packets_delivered: 42,
                peak_rss_kb: 1234,
            },
            PerfResult {
                name: "fig7_4x4".into(),
                cycles: 10,
                wall_seconds: 0.001,
                cycles_per_sec: 10_000.0,
                packets_delivered: 1,
                peak_rss_kb: 0,
            },
        ];
        let json = to_json("unit", 1.0, &results);
        assert_eq!(cycles_per_sec_of(&json, "uniform_8x8"), Some(260_000.0));
        assert_eq!(cycles_per_sec_of(&json, "fig7_4x4"), Some(10_000.0));
        assert_eq!(cycles_per_sec_of(&json, "missing"), None);
    }

    #[test]
    #[should_panic(expected = "file-name-safe")]
    fn hostile_label_rejected() {
        let _ = to_json("../evil", 1.0, &[]);
    }

    #[test]
    fn rss_reading_is_sane() {
        // On Linux a live process has a nonzero high-water mark.
        #[cfg(target_os = "linux")]
        assert!(peak_rss_kb() > 0);
    }

    #[test]
    fn timed_cell_computes_rate() {
        let r = time_cell("t", || (1_000, 7));
        assert_eq!(r.cycles, 1_000);
        assert_eq!(r.packets_delivered, 7);
        assert!(r.cycles_per_sec > 0.0);
    }
}
