//! Direct (in-process, no server) execution of a workload's cells:
//! the untraced pass of the engine workloads, and the traced
//! decomposition that yields the simulator-side layer metrics of every
//! workload.

use crate::check::{same_digest, Tally};
use crate::spans::{self, Tracer};
use crate::stats;
use crate::workloads::CellSpec;
use smart_core::compile::compile;
use smart_core::noc::{Design, DesignKind, MeshNoc, SmartNoc};
use smart_harness::{Drive, ExperimentReport, TelemetryConfig, TrafficContext};
use smart_sim::traffic::TrafficSource;
use smart_sim::{FlowId, FlowTable, Packet, SourceRoute};
use std::time::Instant;

/// What one cell's run produced, reduced to what metrics and checks use.
#[derive(Debug, Clone, Default)]
pub struct CellResult {
    pub digest: String,
    pub drained: bool,
    pub cycles: u64,
    pub flits: u64,
    pub flit_hops: u64,
    pub packets_offered: u64,
    pub packets_delivered: u64,
    pub measured_packets: u64,
    pub avg_latency: f64,
}

impl CellResult {
    pub fn of(report: &ExperimentReport) -> CellResult {
        CellResult {
            digest: report.snapshot_line(),
            drained: report.drained,
            cycles: report.total_cycles,
            flits: report.flits_delivered,
            flit_hops: report.counters.xbar_flit_traversals,
            packets_offered: report.packets_injected,
            packets_delivered: report.packets_delivered,
            measured_packets: report.measured_packets,
            avg_latency: report.avg_network_latency,
        }
    }
}

/// Run every cell through the public one-call API, timing the lot.
pub fn run_cells(cells: &[CellSpec]) -> (f64, Vec<CellResult>) {
    let experiments: Vec<_> = cells.iter().map(CellSpec::experiment).collect();
    let start = Instant::now();
    let results = experiments
        .iter()
        .map(|e| CellResult::of(&e.run()))
        .collect();
    (start.elapsed().as_secs_f64(), results)
}

pub fn digests(results: &[CellResult]) -> Vec<String> {
    results.iter().map(|r| r.digest.clone()).collect()
}

/// Wraps the drive's source to time `generate`, the traffic layer's
/// only work inside the measured cycles.
struct TimedSource {
    inner: Box<dyn TrafficSource>,
    busy_ns: u64,
}

impl TrafficSource for TimedSource {
    fn generate(&mut self, cycle: u64) -> Vec<Packet> {
        let start = Instant::now();
        let packets = self.inner.generate(cycle);
        self.busy_ns += start.elapsed().as_nanos() as u64;
        packets
    }
}

/// What the preset compiler reported for one cell's routes.
struct Presets {
    stops_avg: f64,
    bypass_fraction: f64,
}

impl Presets {
    fn of(app: &smart_core::CompiledApp, cell: &CellSpec) -> Presets {
        Presets {
            stops_avg: app.avg_stops(),
            bypass_fraction: app.bypass_fraction(cell.config().topology),
        }
    }
}

type Routes = Vec<(FlowId, SourceRoute)>;

/// One cell, step by step through each crate's public functions, a span
/// around each: what `Experiment::run_compiled` does, taken apart. Also
/// returns the presets when the design compiled some, and the routes.
fn traced_cell(t: &mut Tracer, cell: &CellSpec) -> (CellResult, Option<Presets>, Routes) {
    let cfg = cell.config();
    let workload = cell
        .workload
        .to_workload()
        .expect("generated workload specs are valid");
    let plan = cell.plan.to_plan();

    let whole = t.open("harness.cell");
    let routed = t.time("harness.materialize", || workload.materialize(&cfg));
    let table = t.time("sim.flow_table", || {
        FlowTable::mesh_baseline(cfg.topology, &routed.routes)
    });
    let inner = t.time("traffic.build", || {
        Drive::Bernoulli.build(&TrafficContext {
            rates: &routed.rates,
            flows: &table,
            topology: cfg.topology,
            flits_per_packet: cfg.flits_per_packet(),
            seed: plan.seed,
            temporal: routed.temporal,
        })
    });
    let mut source = TimedSource { inner, busy_ns: 0 };
    let mut presets = None;
    let mut design = match cell.design {
        DesignKind::Mesh => t.time("sim.instantiate", || {
            Design::Mesh(MeshNoc::from_table(&cfg, table.clone()))
        }),
        DesignKind::Smart => {
            let app = t.time("core.compile", || {
                compile(cfg.topology, cfg.hpc_max, &routed.routes)
            });
            presets = Some(Presets::of(&app, cell));
            t.time("sim.instantiate", || {
                Design::Smart(SmartNoc::from_compiled(&cfg, app))
            })
        }
        DesignKind::Dedicated => t.time("sim.instantiate", || {
            Design::build(DesignKind::Dedicated, &cfg, &routed.routes)
        }),
    };

    let measure = t.open("sim.measure");
    design.set_stats_from(plan.warmup);
    design.run_with(&mut source, plan.warmup);
    design.reset_counters();
    design.run_with(&mut source, plan.measure);
    t.aggregate("traffic.generate", source.busy_ns);
    t.close(measure);
    let drained = t.time("sim.drain", || design.drain(plan.drain));

    let result = t.time("harness.report", || {
        let counters = *design.counters();
        let stats = design.stats();
        CellResult::of(&ExperimentReport {
            design: cell.design,
            workload: routed.name.clone(),
            mesh: (cfg.topology.width(), cfg.topology.height()),
            topology: cfg.topology.label().to_owned(),
            drained,
            total_cycles: design.cycle(),
            packets_injected: counters.packets_injected,
            packets_delivered: counters.packets_delivered,
            flits_delivered: counters.flits_delivered,
            measured_packets: stats.packets(),
            avg_network_latency: stats.avg_network_latency(),
            avg_packet_latency: stats.avg_packet_latency(),
            avg_source_queue: stats.avg_source_queue(),
            flow_latencies: stats
                .flows()
                .iter()
                .map(|(f, s)| (*f, s.avg_head_latency()))
                .collect(),
            counters,
            compile: None,
            power: None,
            telemetry: None,
        })
    });
    t.close(whole);
    (result, presets, routed.routes)
}

/// Counts only the telemetry probe sees, summed over the cells.
#[derive(Debug, Clone, Copy, Default)]
struct SsrCounts {
    setups: u64,
    grants: u64,
    premature: u64,
    launches: u64,
    bypass_hops: u64,
}

/// The simulator-side layer metrics of a cell set.
pub struct LayerView {
    pub values: Vec<(&'static str, f64)>,
    /// Wall seconds of each untraced base pass.
    pub base_walls: Vec<f64>,
}

/// Measure [`LayerView`] from rounds of four passes (untraced, traced,
/// other engine, telemetry on) over `seconds`, at least `min_passes`
/// rounds. Every pass is one operation, failed if its digests differ
/// from the reference's.
pub fn layer_view(
    t: &mut Tracer,
    cells: &[CellSpec],
    seconds: f64,
    min_passes: usize,
    tally: &mut Tally,
) -> LayerView {
    let serial = cells.iter().all(|c| c.shards <= 1);
    let other_engine: Vec<CellSpec> = cells
        .iter()
        .map(|c| CellSpec {
            shards: if serial { 2 } else { 1 },
            ..c.clone()
        })
        .collect();
    let with_telemetry: Vec<_> = cells
        .iter()
        .map(|c| {
            c.experiment()
                .with_telemetry(TelemetryConfig::windowed(1_000))
        })
        .collect();

    // Untimed warm-up, and the reference every later pass must equal.
    let (_, reference) = run_cells(cells);
    let reference_digests = digests(&reference);
    tally.record(reference.iter().all(|r| r.drained), || {
        "a cell did not drain within its budget".to_owned()
    });

    let mut check = |what: &str, round: usize, got: &[CellResult]| {
        let what = format!("{what} pass {round}");
        same_digest(tally, &what, &reference_digests, &digests(got));
    };
    let mut base_walls = Vec::new();
    let (mut other, mut telemetry) = (f64::INFINITY, f64::INFINITY);
    let mut ssr = SsrCounts::default();
    let mut presets = Vec::new();
    let started = Instant::now();
    let mut round = 0;
    // The four ways of running the cells take turns, so drift on the
    // host hits all alike.
    while round < min_passes || started.elapsed().as_secs_f64() < seconds {
        // `Experiment::run()`, untraced: the base the others divide by.
        let (wall, got) = run_cells(cells);
        base_walls.push(wall);
        check("base", round, &got);

        // Traced; timed by its "engine.pass" span.
        t.pass = round as u32;
        let pass = t.open("engine.pass");
        let traced: Vec<_> = cells.iter().map(|c| traced_cell(t, c)).collect();
        t.close(pass);
        // Designs that compile no presets still get the compiler timed
        // on their routes, outside the pass, so the layer has a number
        // on every workload.
        let mut got = Vec::new();
        presets.clear();
        for (cell, (result, compiled, routes)) in cells.iter().zip(traced) {
            got.push(result);
            presets.push(compiled.unwrap_or_else(|| {
                let cfg = cell.config();
                let app = t.time("core.compile", || {
                    compile(cfg.topology, cfg.hpc_max, &routes)
                });
                Presets::of(&app, cell)
            }));
        }
        check("traced", round, &got);

        // The other engine: sharded for a serial cell and the reverse.
        let (wall, got) = run_cells(&other_engine);
        other = other.min(wall);
        check("other-engine", round, &got);

        // Telemetry on, which also yields the counts only it sees.
        let start = Instant::now();
        let reports: Vec<_> = with_telemetry.iter().map(|e| e.run()).collect();
        telemetry = telemetry.min(start.elapsed().as_secs_f64());
        ssr = SsrCounts::default();
        for series in reports.iter().filter_map(|r| r.telemetry.as_ref()) {
            ssr.setups += series.ssr_setups();
            ssr.grants += series.ssr_grants();
            ssr.premature += series.premature_stops();
            for (hops, launches) in series.bypass_totals().iter().enumerate() {
                ssr.launches += launches;
                ssr.bypass_hops += launches * hops as u64;
            }
        }
        let got: Vec<_> = reports.iter().map(CellResult::of).collect();
        check("telemetry", round, &got);
        round += 1;
    }

    let all = t.spans();
    let (pass, traced_ns) = spans::best_pass(all, "engine.pass").expect("min_passes is at least 1");
    let traced_wall = traced_ns as f64 * 1e-9;
    let total = |name| spans::totals(all, pass, name).0 as f64 * 1e-9;
    let own = |name| spans::totals(all, pass, name).1 as f64 * 1e-9;
    let n = cells.len() as f64;
    let per_cell_us = |name| total(name) / n * 1e6;
    let sum = |f: fn(&CellResult) -> u64| reference.iter().map(f).sum::<u64>() as f64;

    let cycles = sum(|r| r.cycles);
    let driven: u64 = cells.iter().map(CellSpec::driven_cycles).sum();
    let router_cycles: f64 = cells
        .iter()
        .zip(&reference)
        .map(|(c, r)| r.cycles as f64 * f64::from(c.mesh) * f64::from(c.mesh))
        .sum();
    let stepping_ns = (own("sim.measure") + total("sim.drain")) * 1e9;
    let layers_s: f64 = [
        "harness.materialize",
        "sim.flow_table",
        "traffic.build",
        "sim.instantiate",
        "sim.measure",
        "sim.drain",
        "harness.report",
    ]
    .into_iter()
    .map(total)
    .sum::<f64>()
        + total("core.compile") * in_path_share(cells);
    let base = stats::min(&base_walls);
    let measured = sum(|r| r.measured_packets);

    let values = vec![
        ("trace_overhead_ratio", traced_wall / base),
        (
            "sim_avg_latency_cycles",
            reference
                .iter()
                .map(|r| r.avg_latency * r.measured_packets as f64)
                .sum::<f64>()
                / measured,
        ),
        ("sim_flits_per_cycle", sum(|r| r.flits) / cycles),
        ("sim.ns_per_cycle", stepping_ns / cycles),
        ("sim.ns_per_flit_hop", stepping_ns / sum(|r| r.flit_hops)),
        ("sim.ns_per_router_cycle", stepping_ns / router_cycles),
        ("sim.instantiate_us", per_cell_us("sim.instantiate")),
        ("sim.flow_table_us", per_cell_us("sim.flow_table")),
        ("sim.measure_share", total("sim.measure") / traced_wall),
        ("sim.drain_share", total("sim.drain") / traced_wall),
        (
            "sim.shard2_speedup",
            if serial { base / other } else { other / base },
        ),
        ("sim.telemetry_on_ratio", telemetry / base),
        ("sim.cycles", cycles),
        ("sim.flit_hops", sum(|r| r.flit_hops)),
        ("sim.packets_delivered", sum(|r| r.packets_delivered)),
        ("sim.ssr_setups", ssr.setups as f64),
        ("sim.ssr_grants", ssr.grants as f64),
        ("sim.premature_stops", ssr.premature as f64),
        (
            "sim.bypass_hops_mean",
            ssr.bypass_hops as f64 / (ssr.launches.max(1)) as f64,
        ),
        (
            "traffic.generate_ns_per_cycle",
            total("traffic.generate") * 1e9 / driven as f64,
        ),
        ("traffic.build_us", per_cell_us("traffic.build")),
        ("traffic.packets_offered", sum(|r| r.packets_offered)),
        ("core.compile_us", per_cell_us("core.compile")),
        (
            "core.stops_avg",
            presets.iter().map(|p| p.stops_avg).sum::<f64>() / n,
        ),
        (
            "core.bypass_fraction",
            presets.iter().map(|p| p.bypass_fraction).sum::<f64>() / n,
        ),
        ("harness.materialize_us", per_cell_us("harness.materialize")),
        // What `Experiment::run` costs beyond the layers it calls.
        ("harness.self_us", (base - layers_s) / n * 1e6),
        ("harness.report_us", per_cell_us("harness.report")),
    ];
    LayerView { values, base_walls }
}

/// The share of cells whose design compiles presets inside the run
/// (the rest have the compiler timed outside the pass).
fn in_path_share(cells: &[CellSpec]) -> f64 {
    let smart = cells
        .iter()
        .filter(|c| c.design == DesignKind::Smart)
        .count();
    smart as f64 / cells.len() as f64
}
