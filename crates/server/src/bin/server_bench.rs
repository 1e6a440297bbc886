//! The server-cache scorecard: time one compile-heavy matrix request
//! against a freshly spawned in-process server, cold (empty cache) and
//! warm (every cell served from the compiled-design cache), and emit a
//! `BENCH_<label>.json` snapshot in the `smart-bench/perf-v1` schema.
//!
//! ```text
//! cargo run --release -p smart-server --bin server_bench -- \
//!     [--quick] [--label server_cache] [--out bench-out]
//! ```
//!
//! `--out` defaults to `bench-out/` (git-ignored), so a bare run never
//! overwrites the committed `benchmarks/BENCH_server_cache.json`; pass
//! `--out benchmarks` to refresh it on purpose.
//!
//! The request fans the paper's eight applications across all three
//! designs (24 cells) on a 16×16 mesh (8×8 under `--quick`) with a
//! short measurement window — the interactive shape the cache serves: a
//! client iterating on a design space re-submits construction-heavy,
//! simulation-light requests. The cold run pays 24 placements +
//! routings + preset compilations; the warm run pays none, so the
//! measured gap is exactly what the cache buys a repeat client. The
//! warm figure is the better of two repeats (the second also confirms
//! the cache is not a one-shot). The bench asserts the cold and warm
//! snapshot lines are identical before reporting: a cache that changes
//! results would be a correctness bug, not a speedup.

use smart_bench::perf::{peak_rss_kb, to_json, PerfResult};
use smart_server::{
    Client, PlanSpec, Request, ResponseEvent, Server, ServiceConfig, TopologySpec, WorkloadSpec,
};
use std::path::PathBuf;
use std::time::Instant;

/// Sorted-by-index `(snapshot_line, cycles)` pairs of a response.
fn cells_of(events: &[ResponseEvent]) -> Vec<(String, u64)> {
    let mut cells: Vec<(u64, String, u64)> = events
        .iter()
        .filter_map(|e| match e {
            ResponseEvent::Cell { index, cycles, .. } => {
                Some((*index, e.snapshot_line().expect("cell"), *cycles))
            }
            _ => None,
        })
        .collect();
    cells.sort_by_key(|(i, _, _)| *i);
    cells
        .into_iter()
        .map(|(_, line, cyc)| (line, cyc))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let label = flag("--label").unwrap_or_else(|| "server_cache".to_owned());
    let out_dir = PathBuf::from(flag("--out").unwrap_or_else(|| "bench-out".to_owned()));
    // The scale knob grows the *construction* cost (mesh size), not the
    // cycle budget: the cache's value is compilation, so the committed
    // snapshot must keep the request compile-bound.
    let mesh: u16 = if quick { 8 } else { 16 };

    let server = Server::bind(
        "127.0.0.1:0",
        ServiceConfig {
            cache_capacity: 64,
            ..ServiceConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let handle = server.spawn().expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let request = |id: &str| Request::Matrix {
        id: id.to_owned(),
        mesh,
        topology: TopologySpec::Mesh,
        shards: 1,
        designs: smart_core::noc::DesignKind::ALL.to_vec(),
        workloads: smart_taskgraph::apps::all()
            .iter()
            .map(|app| WorkloadSpec::App(app.name().to_owned()))
            .collect(),
        plan: PlanSpec {
            warmup: 0,
            measure: 2_000,
            drain: 2_000,
            seed: 0xC0FFEE,
        },
    };
    let submit = |client: &mut Client, id: &str| {
        let start = Instant::now();
        let events = client.submit(&request(id)).expect("submit matrix");
        (start.elapsed().as_secs_f64(), events)
    };

    let (cold_secs, cold) = submit(&mut client, "cold");
    let (warm1_secs, warm1) = submit(&mut client, "warm1");
    let (warm2_secs, warm2) = submit(&mut client, "warm2");
    let warm_secs = warm1_secs.min(warm2_secs);

    let cold_cells = cells_of(&cold);
    assert!(!cold_cells.is_empty(), "matrix returned no cells");
    assert_eq!(cold_cells, cells_of(&warm1), "cache changed results");
    assert_eq!(cold_cells, cells_of(&warm2), "cache changed results");
    let warm_hits = match warm2.last() {
        Some(ResponseEvent::Done {
            cache_hits, cells, ..
        }) => {
            assert_eq!(cache_hits, cells, "warm run should be fully cached");
            *cache_hits
        }
        other => panic!("no done event: {other:?}"),
    };
    handle.shutdown().expect("shutdown");

    let cycles: u64 = cold_cells.iter().map(|(_, c)| *c).sum();
    let result = |name: &str, wall: f64| PerfResult {
        name: name.to_owned(),
        cycles,
        wall_seconds: wall,
        cycles_per_sec: cycles as f64 / wall.max(1e-12),
        packets_delivered: 0,
        peak_rss_kb: peak_rss_kb(),
    };
    let results = vec![
        result("server_cold_matrix", cold_secs),
        result("server_warm_matrix", warm_secs),
    ];
    println!(
        "server_bench: {} cells on a {mesh}x{mesh} mesh, {cycles} simulated cycles per request",
        cold_cells.len()
    );
    println!("  cold (compile everything): {cold_secs:.3} s");
    println!("  warm ({warm_hits} cache hits):      {warm_secs:.3} s");
    println!("  cached speedup:            {:.2}x", cold_secs / warm_secs);

    let json = to_json(&label, if quick { 0.1 } else { 1.0 }, &results);
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let path = out_dir.join(format!("BENCH_{label}.json"));
    std::fs::write(&path, json).expect("write BENCH json");
    println!("wrote {}", path.display());
}
