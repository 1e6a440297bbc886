//! perfbench — the benchmark of record for this repository.
//!
//! ```text
//! perfbench run     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
//! perfbench trace   (the same flags; `run --trace 1`)
//! perfbench compare A.json B.json
//! ```
//!
//! `run` measures the end-to-end metrics with tracing off and checks
//! every output; `trace` is the separate traced run that produces the
//! per-layer table. Both end with one JSON line: `correct`,
//! `attempted`, `failed`, `metrics`. See `README.md` beside this crate.

mod check;
mod compare;
mod engine;
mod host;
mod json;
mod metrics;
mod probes;
mod run;
mod serve;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench run|trace [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out DIR] [--smoke]\n       perfbench compare A.json B.json";

/// Parse the flags of `run` / `trace`.
fn options(args: &[String], trace: bool) -> Result<run::Options, String> {
    let mut opts = run::Options {
        workloads: workloads::ALL.iter().collect(),
        seed: workloads::DEFAULT_SEED,
        seconds: run::DEFAULT_SECONDS,
        trace,
        out: PathBuf::from("perfbench/out"),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("{flag}: cannot read {value:?}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                let def = workloads::by_name(value).ok_or_else(|| {
                    let names: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?;
                opts.workloads = vec![def];
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => opts.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some(command @ ("run" | "trace")) => {
            options(&args[1..], command == "trace").and_then(|opts| {
                let outcome = run::execute(&opts).map_err(|e| format!("writing results: {e}"))?;
                // The contract's object is the last line of stdout.
                let single = opts.workloads.len() == 1;
                println!("{}", run::contract_line(&outcome, single));
                Ok(outcome.tally.failed == 0)
            })
        }
        Some("compare") if args.len() == 3 => {
            compare::run(&args[1], &args[2]).map(|(report, worse)| {
                print!("{report}");
                !worse
            })
        }
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<run::Options, String> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        options(&owned, false)
    }

    #[test]
    fn contract_flags_parse() {
        let opts = parse(&[
            "--workload",
            "server_warm",
            "--seed",
            "42",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(opts.workloads.len(), 1);
        assert_eq!(opts.workloads[0].name, "server_warm");
        assert_eq!((opts.seed, opts.seconds, opts.trace), (42, 3.0, true));
        let all = parse(&[]).expect("valid");
        assert_eq!(all.workloads.len(), workloads::ALL.len());
        assert_eq!(all.seed, workloads::DEFAULT_SEED);
        assert!(!all.trace && !all.smoke);
    }

    #[test]
    fn bad_flags_are_errors_not_panics() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--trace", "2"],
            &["--seed"],
            &["--frobnicate", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    /// One pass of tiny cells through every workload, untraced and
    /// traced, so the benchmark cannot rot unnoticed.
    #[test]
    fn smoke_run_of_every_workload() {
        let out = std::env::temp_dir().join(format!("perfbench-smoke-{}", std::process::id()));
        for trace in [false, true] {
            let opts = run::Options {
                workloads: workloads::ALL.iter().collect(),
                seed: 7,
                seconds: 0.0,
                trace,
                out: out.clone(),
                smoke: true,
            };
            let outcome = run::execute(&opts).expect("results written");
            assert_eq!(outcome.tally.failed, 0);
            assert!(outcome.tally.attempted > workloads::ALL.len() as u64);
            let table = if trace {
                metrics::PER_LAYER
            } else {
                metrics::END_TO_END
            };
            assert_eq!(outcome.rows.len(), workloads::ALL.len() * table.len());
            for r in &outcome.rows {
                assert!(r.value.is_finite(), "{} on {}", r.metric.name, r.workload);
            }
            let line = run::contract_line(&outcome, false);
            let doc = json::parse(&line).expect("the contract line is JSON");
            assert_eq!(doc.get("correct"), Some(&json::Value::Bool(true)));
        }
        let run_file = out.join("run.json");
        let run_file = run_file.to_str().expect("utf-8 path");
        let (report, worse) =
            compare::run(run_file, run_file).expect("a result file compares with itself");
        assert!(!worse, "{report}");
        let spans = std::fs::read_to_string(out.join("trace.json")).expect("written");
        assert!(json::parse(&spans).is_ok());
        std::fs::remove_dir_all(&out).expect("clean up");
    }
}
