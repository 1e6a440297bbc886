//! Every artifact runs under `cargo test`, and the paper's headline
//! claims are assertions rather than a binary's stdout.

use smart_bench::{claims, RunPlan, ARTIFACTS};
use std::process::Command;

#[test]
fn every_artifact_runs_in_quick_mode() {
    assert_eq!(ARTIFACTS.len(), 22);
    for (name, _, run) in ARTIFACTS {
        // The one artifact that writes files writes them under the
        // test's scratch directory, not the package root.
        let args = match *name {
            "export_taskgraphs" => vec![format!("{}/taskgraphs", env!("CARGO_TARGET_TMPDIR"))],
            _ => Vec::new(),
        };
        let mut out = Vec::new();
        let result = run(true, &args, &mut out);
        assert_eq!(result, Ok(()), "{name}");
        assert!(!out.is_empty(), "{name} printed nothing");
    }
}

#[test]
fn every_headline_claim_holds() {
    let rows = claims(&RunPlan::quick());
    assert_eq!(rows.len(), 11);
    for c in rows {
        assert!(
            c.ok,
            "{}: reproduction {} vs paper {} (tolerance: {})",
            c.name, c.ours, c.paper, c.tolerance
        );
    }
}

#[test]
fn repro_exit_status_separates_usage_failure_and_success() {
    let repro = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs")
    };
    let list = repro(&["list"]);
    assert!(list.status.success());
    assert_eq!(
        String::from_utf8_lossy(&list.stdout).lines().count(),
        ARTIFACTS.len()
    );
    assert_eq!(repro(&[]).status.code(), Some(2));
    assert_eq!(repro(&["no_such_artifact"]).status.code(), Some(2));
    // An unusable argument is an error naming it, not a panic, and
    // nothing is printed before the arguments are checked.
    for bad in [
        &["ablation_load", "gibberish"][..],
        &["flow_report", "NOPE"],
        &["link_heatmap", "NOPE"],
        &["torus_bypass", "eight"],
        &["torus_bypass", "8", "fast"],
    ] {
        let run = repro(bad);
        assert_eq!(run.status.code(), Some(1), "{bad:?}");
        assert!(run.stdout.is_empty(), "{bad:?}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains(bad[bad.len() - 1]), "{bad:?}: {stderr}");
    }
    // `--quick` is the shared flag, wherever it stands.
    let table2 = repro(&["--quick", "table2"]);
    assert!(table2.status.success());
    assert!(String::from_utf8_lossy(&table2.stdout).starts_with("TABLE II"));
}
