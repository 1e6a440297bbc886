//! Output checks: every operation's result is compared with an
//! independent copy, and a mismatch is a failed operation, not a panic.

use crate::workloads::DEFAULT_SEED;
use smart_core::config::NocConfig;
use smart_harness::{Experiment, RunPlan, Workload};
use smart_sim::FlowId;

/// Operations attempted and failed so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `ok == false` explains itself on stderr.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
    }

    /// Failed ÷ attempted operations; 0 before the first one.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Compare two result digests as one operation.
pub fn same_digest(tally: &mut Tally, what: &str, expected: &[String], got: &[String]) {
    tally.record(expected == got, || {
        let at = expected
            .iter()
            .zip(got)
            .position(|(e, g)| e != g)
            .unwrap_or(expected.len().min(got.len()));
        format!(
            "{what}: digest mismatch at cell {at}\n  expected: {}\n  got:      {}",
            expected.get(at).map_or("<none>", String::as_str),
            got.get(at).map_or("<none>", String::as_str),
        )
    });
}

/// The pinned `snapshot_line` of an engine workload at the default seed
/// and full scale, if this run is one the pins apply to.
pub fn pinned(workload: &str, seed: u64, smoke: bool) -> Option<&'static str> {
    if seed != DEFAULT_SEED || smoke {
        return None;
    }
    let text = match workload {
        "mesh8_loaded" => include_str!("../expected/mesh8_loaded.txt"),
        "smart16_bypass" => include_str!("../expected/smart16_bypass.txt"),
        "mesh64_sparse" => include_str!("../expected/mesh64_sparse.txt"),
        _ => return None,
    };
    Some(text.trim_end())
}

/// The paper's Fig 7 zero-load latencies, the only reference the model
/// is validated against: green and purple fly NIC to NIC in 1 cycle,
/// red and blue stop at routers 9 and 10 and arrive in 7.
pub const FIG7_ZERO_LOAD: [f64; 4] = [1.0, 1.0, 7.0, 7.0];

/// Run the Fig 7 scripted cell (one lone packet per flow, 50 cycles
/// apart) and return each flow's simulated head latency.
pub fn fig7_latencies() -> Vec<f64> {
    let events = (0..4).map(|i| (50 * u64::from(i), FlowId(i))).collect();
    let report = Experiment::new(NocConfig::paper_4x4())
        .workload(Workload::fig7())
        .scripted(events)
        .plan(RunPlan::measure_all(400, 1_000, 0))
        .run();
    report.flow_latencies.iter().map(|(_, l)| *l).collect()
}

/// The start-up reference check, as one operation.
pub fn fig7_reference(tally: &mut Tally) {
    let got = fig7_latencies();
    tally.record(got == FIG7_ZERO_LOAD, || {
        format!("Fig 7 zero-load latencies are {got:?}, the paper gives {FIG7_ZERO_LOAD:?}")
    });
    println!(
        "perfbench: Fig 7 zero-load latencies: paper {FIG7_ZERO_LOAD:?}, model {got:?}; this is \
         the only reference the model is validated against, so simulated figures carry no error \
         estimate."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_reference_holds() {
        let mut tally = Tally::default();
        fig7_reference(&mut tally);
        assert_eq!(
            tally,
            Tally {
                attempted: 1,
                failed: 0
            }
        );
    }

    #[test]
    fn mismatches_are_failed_operations_not_panics() {
        let mut tally = Tally::default();
        let a = vec!["x".to_owned(), "y".to_owned()];
        same_digest(&mut tally, "same", &a, &a.clone());
        same_digest(&mut tally, "differs", &a, &["x".to_owned(), "z".to_owned()]);
        same_digest(&mut tally, "short", &a, &a[..1]);
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
    }

    #[test]
    fn pins_apply_to_the_default_seed_at_full_scale_only() {
        assert!(pinned("mesh8_loaded", DEFAULT_SEED, false).is_some());
        assert!(pinned("mesh8_loaded", DEFAULT_SEED, true).is_none());
        assert!(pinned("mesh8_loaded", DEFAULT_SEED + 1, false).is_none());
        assert!(pinned("server_warm", DEFAULT_SEED, false).is_none());
    }
}
