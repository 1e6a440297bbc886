//! Export the application suite as Graphviz DOT files (plus a summary
//! table), for documentation and visual inspection of the task graphs
//! driving the evaluation.
//!
//! `repro export_taskgraphs [OUT_DIR]`

use super::Sink;
use std::fs;
use std::path::PathBuf;

pub(super) fn run(_quick: bool, args: &[String], out: &mut Sink<'_>) -> Result<(), String> {
    let dir = PathBuf::from(
        args.first()
            .map_or("target/generated/taskgraphs", String::as_str),
    );
    fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    writeln!(
        out,
        "{:<10} {:>6} {:>6} {:>12} {:>8} {:>8}",
        "app", "tasks", "flows", "total MB/s", "max f-in", "max f-out"
    )?;
    for g in smart_taskgraph::apps::all() {
        let path = dir.join(format!("{}.dot", g.name().to_lowercase()));
        fs::write(&path, g.to_dot()).map_err(|e| format!("write {}: {e}", path.display()))?;
        let (_, fi) = g.max_fan_in().expect("nonempty");
        let (_, fo) = g.max_fan_out().expect("nonempty");
        writeln!(
            out,
            "{:<10} {:>6} {:>6} {:>12.1} {:>8} {:>8}",
            g.name(),
            g.num_tasks(),
            g.flows().len(),
            g.total_bandwidth(),
            fi,
            fo
        )?;
    }
    writeln!(out, "\nwrote DOT files to {}", dir.display())?;
    Ok(())
}
