//! The two runs: `run` measures the end-to-end metrics with tracing
//! off; `trace` is the separate traced run behind the per-layer table.

use crate::check::{self, same_digest, Tally};
use crate::engine;
use crate::metrics::{self, Better, MetricDef};
use crate::probes;
use crate::serve::{self, ServerPass, Session, TracedClient};
use crate::spans::{self, Tracer};
use crate::stats::{self, Summary};
use crate::workloads::{CellSpec, Inputs, Kind, WorkloadDef};
use crate::{host, json};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Options {
    pub workloads: Vec<&'static WorkloadDef>,
    pub seed: u64,
    /// Seconds of timed passes per workload.
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    /// One pass of tiny cells: checks that everything still runs.
    pub smoke: bool,
}

/// `--seconds` when none is given, and `run_seconds` in
/// `BENCHMARK.json`. The best pass of a longer window is steadier (the
/// host's slow spells last seconds to tens of seconds); this is what
/// 22 runs of each workload leave room for inside the driver's hour.
pub const DEFAULT_SECONDS: f64 = 18.0;
/// Timed passes every workload gets however long they take.
const MIN_PASSES: usize = 5;
/// Set-up repeats every workload gets however long they take; on the
/// engine workloads more follow, `SETUPS_PER_PASS` before each timed
/// pass, until they have taken `SETUP_BUDGET_S` seconds together.
const MIN_SETUPS: usize = 5;
const SETUPS_PER_PASS: usize = 10;
const SETUP_BUDGET_S: f64 = 0.5;

impl Options {
    fn min_passes(&self) -> usize {
        if self.smoke {
            1
        } else {
            MIN_PASSES
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static MetricDef,
    pub value: f64,
    /// The per-pass samples the value was chosen from, where there are
    /// any; recorded beside it, never gated.
    pub samples: Option<Summary>,
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub tally: Tally,
    pub rows: Vec<Row>,
}

fn listed(name: &str) -> &'static MetricDef {
    metrics::find(name).unwrap_or_else(|| panic!("{name} is not a listed metric"))
}

fn row(workload: &'static str, name: &str, value: f64, samples: Option<&[f64]>) -> Row {
    Row {
        workload,
        metric: listed(name),
        value,
        samples: samples.map(Summary::of),
    }
}

/// The best of `samples` in the metric's own direction: interference
/// on a shared host only ever adds time.
fn best_row(workload: &'static str, name: &str, samples: &[f64]) -> Row {
    let metric = listed(name);
    let summary = Summary::of(samples);
    Row {
        workload,
        metric,
        value: match metric.better {
            Better::Higher => summary.max,
            Better::Lower => summary.min,
        },
        samples: Some(summary),
    }
}

/// One workload of the untraced run.
struct Bench {
    inputs: Inputs,
    /// Engine: the warm-up pass's digests, which every pass must equal.
    /// `server_warm`: the working set run directly, which every served
    /// cell must equal.
    reference: Vec<String>,
    session: Option<Session>,
    /// Replies to cells that were new in their pass, checked against
    /// direct runs once timing is over (a direct run costs as much as
    /// the request did).
    unchecked: Vec<(usize, ServerPass)>,
    setup_s: Vec<f64>,
    cycles_per_s: Vec<f64>,
    p50_ms: Vec<f64>,
    rss_mb: Vec<f64>,
    spent_s: f64,
    next_pass: usize,
}

impl Bench {
    fn new(def: &'static WorkloadDef, opts: &Options) -> Bench {
        Bench {
            inputs: Inputs::new(def, opts.seed, opts.smoke),
            reference: Vec::new(),
            session: None,
            unchecked: Vec::new(),
            setup_s: Vec::new(),
            cycles_per_s: Vec::new(),
            p50_ms: Vec::new(),
            rss_mb: Vec::new(),
            spent_s: 0.0,
            next_pass: 0,
        }
    }

    fn name(&self) -> &'static str {
        self.inputs.def.name
    }

    /// One repeatable cold construction, in seconds: what has to exist
    /// before the first simulated cycle (engine) or the first warm
    /// reply (server).
    fn setup_once(&self) -> f64 {
        let cells = self.inputs.cells(0);
        match self.inputs.def.kind {
            Kind::Engine => {
                let experiment = cells[0].experiment();
                let start = Instant::now();
                std::hint::black_box(experiment.compile_design());
                start.elapsed().as_secs_f64()
            }
            Kind::Server => {
                let sweep: Vec<_> = cells.iter().map(|c| c.request("setup")).collect();
                let start = Instant::now();
                let mut session = Session::start();
                std::hint::black_box(session.pass(&sweep));
                let took = start.elapsed().as_secs_f64();
                session.stop();
                took
            }
        }
    }

    /// The set-up repeats every workload gets before its first pass.
    fn measure_setup(&mut self, smoke: bool) {
        for _ in 0..if smoke { 1 } else { MIN_SETUPS } {
            self.setup_s.push(self.setup_once());
        }
    }

    /// A few more repeats while they fit the budget. They run between
    /// the timed passes, not all up front, so that a slow second at
    /// process start does not decide a figure measured in microseconds.
    /// Engine workloads only: a server set-up takes tens of milliseconds
    /// and leaves its threads' malloc arenas resident, which spread the
    /// following passes' `peak_rss_mb` (4-6% over ten runs, four sets,
    /// against 1.5-4.6% with every server set-up before the first pass).
    fn more_setups(&mut self) {
        if self.inputs.def.kind != Kind::Engine {
            return;
        }
        for _ in 0..SETUPS_PER_PASS {
            if self.setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S {
                break;
            }
            self.setup_s.push(self.setup_once());
        }
    }

    /// The untimed first pass: fills caches and fixes the reference.
    fn warm_up(&mut self, tally: &mut Tally) {
        match self.inputs.def.kind {
            Kind::Engine => {
                let (_, results) = engine::run_cells(&self.inputs.cells(0));
                tally.record(results.iter().all(|r| r.drained), || {
                    format!("{}: did not drain within its budget", self.name())
                });
                self.reference = engine::digests(&results);
                self.next_pass = 1;
            }
            Kind::Server => {
                if !self.inputs.fresh_cells_every_pass() {
                    let (_, direct) = engine::run_cells(&self.inputs.cells(0));
                    self.reference = engine::digests(&direct);
                }
                self.session = Some(Session::start());
                self.pass(tally);
            }
        }
    }

    /// One pass; returns `(wall seconds, simulated cycles, p50 ms)`.
    fn pass(&mut self, tally: &mut Tally) -> (f64, u64, f64) {
        let index = self.next_pass;
        self.next_pass += 1;
        match self.inputs.def.kind {
            Kind::Engine => {
                let (wall, results) = engine::run_cells(&self.inputs.cells(index));
                let what = format!("{} pass {index}", self.name());
                same_digest(tally, &what, &self.reference, &engine::digests(&results));
                (wall, results.iter().map(|r| r.cycles).sum(), wall * 1e3)
            }
            Kind::Server => {
                let (_, requests) = serve::requests(&self.inputs, index);
                let session = self.session.as_mut().expect("warm_up started the server");
                let pass = session.pass(&requests);
                let measured = (pass.wall_s, pass.cycles(), stats::median(&pass.latency_ms));
                if self.inputs.fresh_cells_every_pass() {
                    self.unchecked.push((index, pass));
                } else {
                    serve::count_pass(tally, &pass, Some(&self.reference));
                }
                measured
            }
        }
    }

    fn timed_pass(&mut self, tally: &mut Tally) {
        host::reset_peak_rss();
        let (wall, cycles, p50) = self.pass(tally);
        self.rss_mb.push(host::peak_rss_mb());
        self.spent_s += wall;
        // Simulated cycles per host second at the median operation: a
        // pass's wall time carries its slowest requests, and a rate
        // taken from it did not repeat within a tenth between runs.
        let cycles_per_op = cycles as f64 / self.inputs.ops_per_pass() as f64;
        self.cycles_per_s.push(cycles_per_op / (p50 * 1e-3));
        self.p50_ms.push(p50);
    }

    /// Stop the server and run the checks that were kept out of the
    /// timed window.
    fn finish(&mut self, tally: &mut Tally, opts: &Options) {
        if let Some(session) = self.session.take() {
            session.stop();
        }
        if let Some(pinned) = check::pinned(self.name(), opts.seed, opts.smoke) {
            let what = format!("{} against expected/{}.txt", self.name(), self.name());
            same_digest(tally, &what, &[pinned.to_owned()], &self.reference);
        }
        if self.inputs.def.kind == Kind::Engine {
            // The sharded engine's host time does not repeat well enough
            // to be gated (README), but its results must still be the
            // serial engine's byte for byte.
            let mut sharded = self.inputs.cells(0);
            sharded[0].shards = 2;
            let (_, results) = engine::run_cells(&sharded);
            let what = format!("{} on 2 shards against the serial engine", self.name());
            same_digest(tally, &what, &self.reference, &engine::digests(&results));
        }
        for (index, pass) in std::mem::take(&mut self.unchecked) {
            let direct = direct_digests(&self.inputs.cells(index));
            serve::count_pass(tally, &pass, Some(&direct));
        }
    }

    fn rows(&self) -> Vec<Row> {
        let name = self.name();
        vec![
            best_row(name, "sim_cycles_per_s", &self.cycles_per_s),
            best_row(name, "req_p50_ms", &self.p50_ms),
            best_row(name, "setup_s", &self.setup_s),
            // The typical pass's peak, over the passes every run makes:
            // a workload whose memory grows pass by pass then reads the
            // same however many more passes the host had time for, and
            // one pass that happened to overlap more worker threads
            // (a malloc arena each) does not decide the figure.
            row(
                name,
                "peak_rss_mb",
                stats::median(&self.rss_mb[..self.rss_mb.len().min(MIN_PASSES)]),
                Some(&self.rss_mb),
            ),
        ]
    }
}

/// Run `cells` directly, spread over the host's cores; their digests.
fn direct_digests(cells: &[CellSpec]) -> Vec<String> {
    let threads = host::nproc().min(cells.len()).max(1);
    let chunk = cells.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let workers: Vec<_> = cells
            .chunks(chunk)
            .map(|part| scope.spawn(move || engine::digests(&engine::run_cells(part).1)))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a direct run does not panic"))
            .collect()
    })
}

fn run_untraced(opts: &Options, tally: &mut Tally) -> Vec<Row> {
    let mut benches: Vec<Bench> = opts.workloads.iter().map(|d| Bench::new(d, opts)).collect();
    for bench in &mut benches {
        bench.measure_setup(opts.smoke);
        bench.warm_up(tally);
    }
    // Round-robin, so drift on the host hits every workload alike.
    loop {
        let mut ran = false;
        for bench in &mut benches {
            if bench.cycles_per_s.len() < opts.min_passes() || bench.spent_s < opts.seconds {
                if !opts.smoke {
                    bench.more_setups();
                }
                bench.timed_pass(tally);
                ran = true;
            }
        }
        if !ran {
            break;
        }
    }
    benches
        .iter_mut()
        .flat_map(|bench| {
            bench.finish(tally, opts);
            bench.rows()
        })
        .collect()
}

/// The traced run of one workload: every per-layer metric.
fn trace_workload(
    def: &'static WorkloadDef,
    opts: &Options,
    tracer: &mut Tracer,
) -> (Tally, Vec<Row>) {
    let inputs = Inputs::new(def, opts.seed, opts.smoke);
    let mut tally = Tally::default();
    let rounds = if opts.smoke { 1 } else { 2 };
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let mut client_p50_s = None;

    // The client's view, for the workloads that have a server.
    let engine_seconds = if def.kind == Kind::Server {
        let mut session = Session::start();
        let (cells, warm_up) = serve::requests(&inputs, 0);
        let direct = direct_digests(&cells);
        serve::count_pass(&mut tally, &session.pass(&warm_up), Some(&direct));
        let mut traced_client = TracedClient::connect(&session).expect("second connection");
        let mut base: Vec<ServerPass> = Vec::new();
        let started = Instant::now();
        let mut index = 1;
        while base.len() < rounds || started.elapsed().as_secs_f64() < opts.seconds / 2.0 {
            for traced in [false, true] {
                let (cells, requests) = serve::requests(&inputs, index);
                let direct = if inputs.fresh_cells_every_pass() {
                    direct_digests(&cells)
                } else {
                    direct.clone()
                };
                let pass = if traced {
                    tracer.pass = index as u32;
                    traced_client.pass(tracer, &requests)
                } else {
                    session.pass(&requests)
                };
                serve::count_pass(&mut tally, &pass, Some(&direct));
                if !traced {
                    base.push(pass);
                }
                index += 1;
            }
        }
        drop(traced_client);
        session.stop();

        let walls: Vec<f64> = base.iter().map(|p| p.wall_s).collect();
        let best_wall = stats::min(&walls);
        let (_, traced_ns) =
            spans::best_pass(tracer.spans(), "server.pass").expect("a traced pass ran");
        values.push(("trace_overhead_ratio", traced_ns as f64 * 1e-9 / best_wall));
        values.extend(latency_metrics(
            &base
                .iter()
                .map(|p| p.latency_ms.clone())
                .collect::<Vec<_>>(),
            &walls,
        ));
        let hits = base.iter().map(ServerPass::cache_hit_ratio).sum::<f64>() / base.len() as f64;
        values.push(("server.cache_hit_ratio", hits));
        let p50s: Vec<f64> = base.iter().map(|p| stats::median(&p.latency_ms)).collect();
        client_p50_s = Some(stats::min(&p50s) * 1e-3);
        opts.seconds / 2.0
    } else {
        opts.seconds
    };

    // The simulator's view: the workload's cells, run directly.
    let view = engine::layer_view(tracer, &inputs.cells(0), engine_seconds, rounds, &mut tally);
    for (name, value) in view.values {
        // A server workload's tracing overhead is its client's.
        if !values.iter().any(|(have, _)| *have == name) {
            values.push((name, value));
        }
    }
    if def.kind == Kind::Engine {
        // An engine workload's "request" is one `Experiment::run()`.
        let per_op: Vec<Vec<f64>> = view.base_walls.iter().map(|w| vec![w * 1e3]).collect();
        values.extend(latency_metrics(&per_op, &view.base_walls));
        values.push(("server.cache_hit_ratio", 0.0));
    }

    let probed = probes::run(tracer, opts.seed, opts.smoke);
    let handler_s = |name: &str| {
        probed
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, us)| us * 1e-6)
    };
    let overhead_s = client_p50_s.map_or(0.0, |client| {
        client
            - handler_s(if inputs.fresh_cells_every_pass() {
                "server.service_handle_cold_us"
            } else {
                "server.service_handle_warm_us"
            })
    });
    values.push(("server.socket_overhead_us", overhead_s * 1e6));
    values.extend(probed);
    values.push(("fail_ratio", tally.fail_ratio()));

    let rows = metrics::PER_LAYER
        .iter()
        .map(|m| {
            let (_, value) = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("{} was not measured", m.name));
            row(def.name, m.name, *value, None)
        })
        .collect();
    (tally, rows)
}

/// Rate and latency percentiles of a set of passes: the best pass's
/// rate; p95 and the tail percentile over all passes pooled.
fn latency_metrics(per_pass_ms: &[Vec<f64>], walls_s: &[f64]) -> Vec<(&'static str, f64)> {
    let rate = per_pass_ms
        .iter()
        .zip(walls_s)
        .map(|(ops, wall)| ops.len() as f64 / wall)
        .fold(0.0, f64::max);
    let mut pooled: Vec<f64> = per_pass_ms.iter().flatten().copied().collect();
    pooled.sort_by(f64::total_cmp);
    let tail = stats::tail_percentile(pooled.len());
    vec![
        ("server.req_per_s", rate),
        ("server.req_p95_ms", stats::percentile(&pooled, 95.0)),
        ("server.req_tail_ms", stats::percentile(&pooled, tail)),
        ("server.req_tail_pct", tail),
    ]
}

/// Run what `opts` asks for, write the result files, print the table.
///
/// # Errors
///
/// Returns an error when the output directory cannot be written.
pub fn execute(opts: &Options) -> std::io::Result<Outcome> {
    let load_start = host::loadavg();
    let mut tally = Tally::default();
    check::fig7_reference(&mut tally);

    std::fs::create_dir_all(&opts.out)?;
    let rows = if opts.trace {
        let mut rows = Vec::new();
        let mut traces = Vec::new();
        for def in &opts.workloads {
            let mut tracer = Tracer::new(def.name);
            let (counted, layer_rows) = trace_workload(def, opts, &mut tracer);
            tally.add(counted);
            rows.extend(layer_rows);
            traces.push(tracer.to_json());
        }
        let document = format!("{{\"traces\":[\n{}]}}\n", traces.join(","));
        std::fs::write(opts.out.join("trace.json"), document)?;
        rows
    } else {
        run_untraced(opts, &mut tally)
    };

    let outcome = Outcome { tally, rows };
    let file = if opts.trace {
        "layers.json"
    } else {
        "run.json"
    };
    let document = result_json(opts, &outcome, &load_start, &host::loadavg());
    std::fs::write(opts.out.join(file), document)?;
    print!("{}", table(&outcome));
    println!("perfbench: wrote {}", opts.out.join(file).display());
    Ok(outcome)
}

/// The result file: what was run, where, and one row per number.
fn result_json(opts: &Options, outcome: &Outcome, load_start: &str, load_end: &str) -> String {
    let mut out = format!(
        "{{\"schema\":\"perfbench/result-v1\",\"mode\":{},\"seed\":{},\"seconds\":{},\
         \"smoke\":{},\"nproc\":{},\"git_commit\":{},\"loadavg_start\":{},\"loadavg_end\":{},\
         \"attempted\":{},\"failed\":{},\"rows\":[",
        json::string(if opts.trace { "trace" } else { "run" }),
        opts.seed,
        json::number(opts.seconds),
        opts.smoke,
        host::nproc(),
        json::string(&host::git_commit()),
        json::string(load_start),
        json::string(load_end),
        outcome.tally.attempted,
        outcome.tally.failed,
    );
    for (i, r) in outcome.rows.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n{{\"workload\":{},\"metric\":{},\"unit\":{},\"value\":{}",
            if i == 0 { "" } else { "," },
            json::string(r.workload),
            json::string(r.metric.name),
            json::string(r.metric.unit),
            json::number(r.value),
        );
        if let Some(s) = &r.samples {
            let _ = write!(
                out,
                ",\"passes\":{},\"min\":{},\"q1\":{},\"median\":{},\"q3\":{},\"max\":{}",
                s.n,
                json::number(s.min),
                json::number(s.q1),
                json::number(s.median),
                json::number(s.q3),
                json::number(s.max),
            );
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Every metric by name, with its unit, one line each.
fn table(outcome: &Outcome) -> String {
    let mut out = String::new();
    for r in &outcome.rows {
        let _ = write!(
            out,
            "{:<22} {:<34} {:>16.6} {:<12}",
            r.workload, r.metric.name, r.value, r.metric.unit
        );
        if let Some(s) = &r.samples {
            let _ = write!(
                out,
                " passes={} q1={:.6} median={:.6} q3={:.6}",
                s.n, s.q1, s.median, s.q3
            );
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "operations: {} attempted, {} failed, fail_ratio {}",
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.tally.fail_ratio()
    );
    out
}

/// The last line of standard output: the benchmark contract's object.
/// With one workload the metrics carry their own names; with several,
/// `<workload>.<metric>`.
pub fn contract_line(outcome: &Outcome, single: bool) -> String {
    let metrics: Vec<String> = outcome
        .rows
        .iter()
        .map(|r| {
            let name = if single {
                r.metric.name.to_owned()
            } else {
                format!("{}.{}", r.workload, r.metric.name)
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&name),
                json::number(r.value),
                json::string(r.metric.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(", ")
    )
}
