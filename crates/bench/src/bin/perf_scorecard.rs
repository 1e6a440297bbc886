//! Time the canonical Experiment/Schedule cells and emit a
//! machine-readable `BENCH_<label>.json` perf snapshot.
//!
//! ```text
//! cargo run --release -p smart-bench --bin perf_scorecard -- \
//!     [--quick] [--label <name>] [--out <dir>] [--baseline <BENCH.json>] \
//!     [--gate <BENCH.json>] [--gate-tolerance <frac>]
//! ```
//!
//! `--quick` shrinks every cell's cycle budget 10× (the CI setting);
//! `--label` names the output file (default `latest`); `--out` picks
//! the output directory (default `bench-out/`, git-ignored, so a bare
//! run never overwrites a committed snapshot; pass `--out benchmarks`
//! to refresh one on purpose); `--baseline` compares
//! this run's cycles/sec against a previously committed `BENCH_*.json`
//! (e.g. `benchmarks/BENCH_pre_refactor.json`) and prints per-cell
//! speedups. `--gate` is the CI regression gate: exit nonzero if any
//! cell's cycles/sec fell more than `--gate-tolerance` (default 0.2 =
//! 20%) below the given snapshot. Committed before/after snapshots for
//! each perf PR live in `benchmarks/` — see the README's "Performance"
//! section.

use smart_bench::perf::{cycles_per_sec_of, gate_failures, run_scorecard, to_json};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let label = flag("--label").unwrap_or_else(|| "latest".to_owned());
    let out_dir = PathBuf::from(flag("--out").unwrap_or_else(|| "bench-out".to_owned()));
    let baseline = flag("--baseline")
        .map(|p| std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read baseline {p}: {e}")));
    let gate = flag("--gate")
        .map(|p| std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read gate {p}: {e}")));
    let tolerance = flag("--gate-tolerance").map_or(0.2, |t| {
        t.parse()
            .unwrap_or_else(|e| panic!("--gate-tolerance {t}: {e}"))
    });
    let scale = if quick { 0.1 } else { 1.0 };

    println!("perf scorecard (scale {scale}, label {label})");
    let results = run_scorecard(scale);
    println!(
        "{:<16} {:>12} {:>10} {:>14} {:>10} {:>12}{}",
        "cell",
        "cycles",
        "wall s",
        "cycles/sec",
        "packets",
        "peak RSS kB",
        if baseline.is_some() {
            "  vs baseline"
        } else {
            ""
        }
    );
    for r in &results {
        let speedup = baseline
            .as_deref()
            .and_then(|b| cycles_per_sec_of(b, &r.name))
            .map_or(String::new(), |base| {
                format!("  {:>10.2}x", r.cycles_per_sec / base)
            });
        println!(
            "{:<16} {:>12} {:>10.3} {:>14.0} {:>10} {:>12}{speedup}",
            r.name, r.cycles, r.wall_seconds, r.cycles_per_sec, r.packets_delivered, r.peak_rss_kb
        );
    }

    let json = to_json(&label, scale, &results);
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let path = out_dir.join(format!("BENCH_{label}.json"));
    std::fs::write(&path, json).expect("write BENCH json");
    println!("\nwrote {}", path.display());

    if let Some(gate) = gate {
        let failures = gate_failures(&gate, &results, tolerance);
        if failures.is_empty() {
            println!(
                "perf gate: all cells within {:.0}% of baseline",
                tolerance * 100.0
            );
        } else {
            eprintln!("perf gate FAILED ({} cells):", failures.len());
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}
