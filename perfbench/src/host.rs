//! What the result files record about the machine and the process.

use std::process::{Command, Stdio};

/// Cores available to this process; recorded with every result because
/// the sharded and server workloads depend on it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// `/proc/loadavg` as read, or `unknown` where there is none.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The checked-out commit, or `unknown` outside a git work tree (the
/// benchmark also runs from plain source checkouts).
pub fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Start a new high-water mark for [`peak_rss_mb`]. Where the kernel
/// refuses (no `/proc`, or a read-only one) the mark simply keeps
/// covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size since the last reset, in MB (`VmHWM`); 0
/// where the platform offers no reading.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_present_on_linux() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() > 0.0);
        assert!(!loadavg().is_empty());
        let commit = git_commit();
        assert!(commit == "unknown" || commit.len() >= 40, "{commit}");
    }
}
