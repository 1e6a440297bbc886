//! Fixed-input probes of the layers no workload isolates: task graphs,
//! mapping, link and power models, the harness matrix, and the server's
//! codec, cache, handler and search. Each calls a crate's public
//! functions from here, a span around each call, and reports the best
//! of a few repeats. The inputs are the server workloads' own cell
//! shapes at 16x16, so the numbers are parts of what those workloads
//! pay.

use crate::serve::service_config;
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::{by_name, CellSpec, Inputs};
use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use smart_harness::{ExperimentMatrix, Workload};
use smart_mapping::{place, routable_flows, select_routes};
use smart_power::{breakdown, EnergyModel, GatingPolicy};
use smart_server::search::{self, SearchSpace};
use smart_server::{
    DesignCache, Request, RequestHeader, ResponseEvent, SearchStrategy, Service, TopologySpec,
    WorkloadSpec,
};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Best of `reps` timed calls of `f`, in seconds, each call one span.
fn best<T>(t: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|rep| {
            t.pass = rep as u32;
            let start = Instant::now();
            black_box(t.time(name, &mut f));
            start.elapsed().as_secs_f64()
        })
        .collect();
    stats::min(&times)
}

/// Handle `request` on `service` into an in-memory sink; the events.
fn handle(service: &Service, request: &Request) -> Vec<ResponseEvent> {
    let sink = Mutex::new(Vec::new());
    service.handle(request, &sink);
    sink.into_inner().expect("handler left the sink unpoisoned")
}

/// Median seconds `Service::handle` takes per request of `requests`.
fn handle_p50(t: &mut Tracer, name: &'static str, service: &Service, requests: &[Request]) -> f64 {
    let times: Vec<f64> = requests
        .iter()
        .map(|r| best(t, name, 1, || handle(service, r)))
        .collect();
    stats::median(&times)
}

/// Every probe's metric. `reps` scales the repeat counts (1 for the
/// smoke run); `seed` seeds the generated cells.
pub fn run(t: &mut Tracer, seed: u64, smoke: bool) -> Vec<(&'static str, f64)> {
    let reps = |full: usize| if smoke { 1 } else { full };
    let warm = Inputs::new(by_name("server_warm").expect("listed"), seed, smoke);
    let churn = Inputs::new(by_name("server_churn").expect("listed"), seed, smoke);
    let warm_cells = warm.cells(0);
    let plan = warm_cells[0].plan;
    let cfg = warm_cells[0].config();
    let mut out = Vec::new();

    // smart-link: the design point, including HPC_max from the link model.
    let config_s = best(t, "link.config", reps(20), || NocConfig::scaled(16));
    out.push(("link.config_us", config_s * 1e6));

    // smart-taskgraph, smart-mapping: the eight applications at 16x16.
    let build_s = best(t, "taskgraph.build", reps(20), smart_taskgraph::apps::all);
    out.push(("taskgraph.build_us", build_s * 1e6));
    let apps = smart_taskgraph::apps::all();
    let place_s = best(t, "mapping.place", reps(5), || {
        apps.iter()
            .map(|g| place(cfg.topology, g))
            .collect::<Vec<_>>()
    });
    out.push(("mapping.place_us", place_s * 1e6));
    let placements: Vec<_> = apps.iter().map(|g| place(cfg.topology, g)).collect();
    let route_s = best(t, "mapping.route", reps(5), || {
        apps.iter()
            .zip(&placements)
            .map(|(g, p)| select_routes(cfg.topology, &routable_flows(g, p)))
            .collect::<Vec<_>>()
    });
    out.push(("mapping.route_us", route_s * 1e6));

    // smart-harness: the 24-cell matrix, cold, on one thread and on two.
    let matrix = ExperimentMatrix::new(cfg.clone())
        .workloads(apps.iter().cloned().map(Workload::Graph).collect())
        .plan(plan.to_plan());
    let serial = matrix.clone().threads(1);
    let serial_s = best(t, "harness.matrix24", reps(3), || serial.run());
    let threaded = matrix.threads(2);
    let threaded_s = best(t, "harness.matrix24_threads2", reps(3), || threaded.run());
    out.push(("harness.matrix24_cold_ms", serial_s * 1e3));
    out.push(("harness.matrix24_threads_speedup", serial_s / threaded_s));

    // smart-power: the Fig 10b breakdown of one finished cell.
    let report = warm_cells[1].experiment().run();
    let power_s = best(t, "power.breakdown", reps(20), || {
        breakdown(
            &EnergyModel::calibrated_45nm(&cfg),
            &report.counters,
            cfg.clock_ghz,
            GatingPolicy::for_design(report.design),
        )
    });
    out.push(("power.breakdown_us", power_s * 1e6));

    // smart-server codec: the warm working set's requests and replies.
    let requests: Vec<Request> = warm_cells.iter().map(|c| c.request("probe")).collect();
    let n = requests.len() as f64;
    let render_s = best(t, "server.render_req", reps(20), || {
        requests.iter().map(Request::to_jsonl).collect::<Vec<_>>()
    });
    out.push(("server.render_req_us", render_s / n * 1e6));
    let documents: Vec<String> = requests.iter().map(Request::to_jsonl).collect();
    let parse_s = best(t, "server.parse_req", reps(20), || {
        for doc in &documents {
            let mut lines = doc.lines();
            let header = RequestHeader::parse(lines.next().expect("header line"));
            let body: Vec<&str> = lines.collect();
            black_box(Request::from_lines(&header.expect("own header"), &body)).expect("own body");
        }
    });
    out.push(("server.parse_req_us", parse_s / n * 1e6));

    let service = Service::new(service_config());
    let replies: Vec<ResponseEvent> = requests.iter().flat_map(|r| handle(&service, r)).collect();
    let events = replies.len() as f64;
    let render_event_s = best(t, "server.render_event", reps(20), || {
        replies
            .iter()
            .map(ResponseEvent::to_line)
            .collect::<Vec<_>>()
    });
    out.push(("server.render_event_us", render_event_s / events * 1e6));
    let lines: Vec<String> = replies.iter().map(ResponseEvent::to_line).collect();
    let parse_event_s = best(t, "server.parse_event", reps(20), || {
        for line in &lines {
            black_box(ResponseEvent::parse(line)).expect("own line");
        }
    });
    out.push(("server.parse_event_us", parse_event_s / events * 1e6));

    // smart-server handler, no socket: the warm set again (all hits now)
    // and a pass of churn requests (all misses).
    let rounds: Vec<Request> = requests
        .iter()
        .cycle()
        .take(requests.len() * reps(5))
        .cloned()
        .collect();
    let warm_s = handle_p50(t, "server.handle_warm", &service, &rounds);
    out.push(("server.service_handle_warm_us", warm_s * 1e6));
    let churn_cells: Vec<CellSpec> = churn.cells(0).into_iter().take(reps(20)).collect();
    let cold_requests: Vec<Request> = churn_cells.iter().map(|c| c.request("probe")).collect();
    let cold_s = handle_p50(t, "server.handle_cold", &service, &cold_requests);
    out.push(("server.service_handle_cold_us", cold_s * 1e6));

    let matrix_request = Request::Matrix {
        id: "probe".to_owned(),
        mesh: 16,
        topology: TopologySpec::Mesh,
        shards: 1,
        designs: DesignKind::ALL.to_vec(),
        workloads: apps
            .iter()
            .map(|g| WorkloadSpec::App(g.name().to_owned()))
            .collect(),
        plan,
    };
    let matrix_warm_s = best(t, "server.matrix24_warm", reps(3), || {
        handle(&service, &matrix_request)
    });
    out.push(("server.matrix24_warm_ms", matrix_warm_s * 1e3));

    // smart-server cache: a lookup that misses (and compiles), then the
    // same key again.
    let cache = DesignCache::new(64);
    let workloads: Vec<Workload> = churn
        .cells(1)
        .iter()
        .take(reps(10))
        .map(|c| c.workload.to_workload().expect("generated spec"))
        .collect();
    let mut next = workloads.iter().cycle();
    let miss_s = best(t, "server.cache_miss", workloads.len(), || {
        cache.design(&cfg, DesignKind::Smart, next.next().expect("cycle"))
    });
    out.push(("server.cache_miss_us", miss_s * 1e6));
    let hit_s = best(t, "server.cache_hit", reps(100), || {
        cache.design(&cfg, DesignKind::Smart, &workloads[0])
    });
    out.push(("server.cache_hit_us", hit_s * 1e6));

    // smart-server search: 2 apps x 3 designs x 2 HPC_max, exhaustive,
    // one thread, a cold cache each time.
    let space = SearchSpace {
        mesh: 16,
        topology: TopologySpec::Mesh,
        designs: DesignKind::ALL.to_vec(),
        workloads: apps
            .iter()
            .take(2)
            .map(|g| WorkloadSpec::App(g.name().to_owned()))
            .collect(),
        hpc: vec![4, 8],
        plan,
    };
    let search_s = best(t, "server.search", reps(3), || {
        search::run(
            &space,
            SearchStrategy::Exhaustive,
            1,
            &DesignCache::new(64),
            &|_| {},
        )
        .expect("a well-formed space")
    });
    out.push((
        "server.search_candidate_ms",
        search_s / space.len() as f64 * 1e3,
    ));
    out
}
