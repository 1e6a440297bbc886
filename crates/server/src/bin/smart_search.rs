//! Design-space search from the command line: score every point of a
//! mapping × design × segmentation space (or hill-climb it) with the
//! Smapper objective and report the winner.
//!
//! ```text
//! cargo run --release -p smart-server --bin smart_search -- \
//!     [--mesh 4] [--topology mesh|torus] [--designs mesh,smart,dedicated] \
//!     [--workloads fig7,app:PIP] [--hpc 1,2,4,8] \
//!     [--strategy exhaustive|greedy] [--threads N] \
//!     [--warmup 0] [--measure 20000] [--drain 20000] [--seed 12648430]
//! ```
//!
//! Axes are comma-separated; workload specs use the protocol grammar
//! (`fig7`, `app:VOPD`, `uniform:<flows>:<rate>:<seed>`,
//! `pattern:<name>:<rate>`). Each candidate is fully simulated for
//! energy and latency (compiled artifacts are cached across candidates)
//! and scored `-(log10(energy_pj) + log10(area_mm2) + log10(cycles))`.
//! The per-candidate lines and winner line are the same stable format
//! the search golden locks.

use smart_server::{
    CandidateScore, DesignCache, PlanSpec, SearchSpace, SearchStrategy, TopologySpec, WorkloadSpec,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let parse_u64 = |name: &str, default: u64| {
        flag(name).map_or(default, |v| {
            v.parse().unwrap_or_else(|e| panic!("{name} {v}: {e}"))
        })
    };
    let mesh = parse_u64("--mesh", 4) as u16;
    let topology = flag("--topology").map_or(TopologySpec::Mesh, |t| {
        TopologySpec::parse(&t).unwrap_or_else(|e| panic!("--topology: {e}"))
    });
    let designs: Vec<_> = flag("--designs")
        .unwrap_or_else(|| "mesh,smart,dedicated".to_owned())
        .split(',')
        .map(|d| smart_server::parse_design(d).unwrap_or_else(|e| panic!("--designs: {e}")))
        .collect();
    let workloads: Vec<_> = flag("--workloads")
        .unwrap_or_else(|| "fig7,app:PIP".to_owned())
        .split(',')
        .map(|w| WorkloadSpec::parse(w).unwrap_or_else(|e| panic!("--workloads: {e}")))
        .collect();
    let hpc: Vec<u64> = flag("--hpc")
        .unwrap_or_else(|| "1,2,4,8".to_owned())
        .split(',')
        .map(|h| h.parse().unwrap_or_else(|e| panic!("--hpc {h}: {e}")))
        .collect();
    let strategy = flag("--strategy").map_or(SearchStrategy::Exhaustive, |s| {
        SearchStrategy::parse(&s).unwrap_or_else(|e| panic!("--strategy: {e}"))
    });
    let threads = flag("--threads").map_or_else(
        || std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        |t| t.parse().unwrap_or_else(|e| panic!("--threads {t}: {e}")),
    );
    let space = SearchSpace {
        mesh,
        topology,
        designs,
        workloads,
        hpc,
        plan: PlanSpec {
            warmup: parse_u64("--warmup", 0),
            measure: parse_u64("--measure", 20_000),
            drain: parse_u64("--drain", 20_000),
            seed: parse_u64("--seed", 0xC0FFEE),
        },
    };

    println!(
        "smart_search: {} points ({} workloads x {} designs x {} hpc) on a {mesh}x{mesh} {}, \
         strategy {}",
        space.len(),
        space.workloads.len(),
        space.designs.len(),
        space.hpc.len(),
        topology.name(),
        strategy.name()
    );
    let cache = DesignCache::new(space.len().max(16));
    let quiet = |_: &CandidateScore| {};
    let outcome = smart_server::search::run(&space, strategy, threads, &cache, &quiet)
        .unwrap_or_else(|e| panic!("search failed: {e}"));
    print!("{}", outcome.render());
    let w = outcome
        .winner()
        .expect("an uncancelled search scores its start point");
    println!(
        "best design point: {} running {} at HPC_max={} \
         (energy {:.1} pJ, area {:.3} mm2, {:.2} cycles avg latency)",
        w.design.label(),
        w.workload,
        w.hpc,
        w.energy_pj,
        w.area_mm2,
        w.cycles
    );
}
