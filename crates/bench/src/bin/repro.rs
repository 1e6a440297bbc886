//! Regenerate the paper's artifacts: the command line of
//! [`smart_bench::ARTIFACTS`].
//!
//! ```text
//! cargo run --release -p smart-bench --bin repro -- list
//! cargo run --release -p smart-bench --bin repro -- <name> [--quick] [args…]
//! cargo run --release -p smart-bench --bin repro -- all [--quick]
//! ```
//!
//! `--quick` shortens the artifacts that simulate the whole suite
//! (`fig10a_latency`, `fig10b_power`, `scorecard`, `reconfig_schedule`,
//! `telemetry_report`) and is ignored by the rest. Five take positional
//! arguments: `ablation_load [pattern]`, `flow_report [APP]`,
//! `link_heatmap [APP]`, `export_taskgraphs [OUT_DIR]`,
//! `torus_bypass [edge] [rate]`. Exit status: 0 when every artifact run
//! succeeded, 1 when one failed (a self-check, an unusable argument),
//! 2 when the command line names no artifact.

use smart_bench::ARTIFACTS;
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    let Some(name) = args.first().cloned() else {
        eprintln!("usage: repro <name> [--quick] [args…] | repro list | repro all [--quick]");
        return ExitCode::from(2);
    };
    let mut out = std::io::stdout().lock();
    let selected: Vec<_> = match name.as_str() {
        "list" => {
            for (name, what, _) in ARTIFACTS {
                if writeln!(out, "{name:<20} {what}").is_err() {
                    return ExitCode::FAILURE;
                }
            }
            return ExitCode::SUCCESS;
        }
        "all" => ARTIFACTS.iter().collect(),
        one => ARTIFACTS.iter().filter(|(n, _, _)| *n == one).collect(),
    };
    if selected.is_empty() {
        eprintln!("unknown artifact {name:?}; `repro list` names them");
        return ExitCode::from(2);
    }
    // Positional arguments belong to one artifact; `all` runs defaults.
    let positional = if name == "all" { &[] } else { &args[1..] };
    let mut status = ExitCode::SUCCESS;
    for (artifact, _, run) in selected {
        if name == "all" && writeln!(out, "=== {artifact} ===").is_err() {
            return ExitCode::FAILURE;
        }
        if let Err(message) = run(quick, positional, &mut out) {
            eprintln!("{artifact}: {message}");
            status = ExitCode::FAILURE;
        }
    }
    status
}
