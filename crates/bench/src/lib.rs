//! Regenerates the paper's tables and figures.
//!
//! Each artifact (Table I, Fig 3, Fig 10a, Fig 10b, …) is one function
//! registered in [`ARTIFACTS`], and the `repro` binary is that table's
//! command line; the headline numbers are also assertions, [`claims`].
//! The experiment runner itself — configure, map, build, drive,
//! measure — is the `smart-harness` crate's [`Experiment`] API,
//! re-exported here; this crate adds the paper-suite fan-out
//! ([`run_suite`]) and small numeric helpers.

mod artifacts;
mod claims;

pub use artifacts::ARTIFACTS;
pub use claims::{claims, Claim};
pub use smart_harness::{
    AppPhase, AppSchedule, CompileMetrics, Drive, Experiment, ExperimentMatrix, ExperimentReport,
    MatrixOutcome, MultiAppExperiment, PhaseTransition, RoutedWorkload, RunPlan, ScheduleDesign,
    ScheduleError, ScheduleMatrix, ScheduleOutcome, ScheduleReport, Workload,
};

use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use std::collections::BTreeMap;

/// Run all three designs for every application in the paper's suite,
/// power breakdown attached. Reports come back application-major in
/// `apps::all()` order, design-minor in [`DesignKind::ALL`] order; the
/// matrix fans cells out across every available core.
#[must_use]
pub fn run_suite(cfg: &NocConfig, plan: &RunPlan) -> Vec<ExperimentReport> {
    ExperimentMatrix::new(cfg.clone())
        .designs(&DesignKind::ALL)
        .workloads(
            smart_taskgraph::apps::all()
                .into_iter()
                .map(Workload::Graph)
                .collect(),
        )
        .plan(*plan)
        .measure_power()
        .run()
}

/// [`run_suite`]'s reports by application, sorted by name; each
/// application's three are in [`DesignKind::ALL`] order.
fn by_app(results: &[ExperimentReport]) -> BTreeMap<&str, &[ExperimentReport]> {
    results
        .chunks(DesignKind::ALL.len())
        .map(|cell| (cell[0].workload.as_str(), cell))
        .collect()
}

/// Geometric-mean helper for ratio summaries.
///
/// # Panics
///
/// Panics if `xs` is empty or contains non-positive values.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of nothing");
    let log_sum: f64 = xs
        .iter()
        .map(|x| {
            assert!(*x > 0.0, "geomean needs positive values, got {x}");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_sane_latencies() {
        let cfg = NocConfig::paper_4x4();
        let plan = RunPlan::quick();
        let run = |kind| {
            Experiment::new(cfg.clone())
                .design(kind)
                .workload(Workload::app("PIP"))
                .plan(plan)
                .run()
        };
        let smart = run(DesignKind::Smart);
        let mesh = run(DesignKind::Mesh);
        let ded = run(DesignKind::Dedicated);
        assert!(
            smart.measured_packets > 50,
            "enough samples: {}",
            smart.measured_packets
        );
        assert!(smart.avg_network_latency >= 1.0);
        assert!(ded.avg_network_latency >= 1.0);
        assert!(
            mesh.avg_network_latency > smart.avg_network_latency,
            "Mesh {} must exceed SMART {}",
            mesh.avg_network_latency,
            smart.avg_network_latency
        );
        assert!(
            smart.avg_network_latency >= ded.avg_network_latency - 1e-9,
            "SMART {} cannot beat Dedicated {}",
            smart.avg_network_latency,
            ded.avg_network_latency
        );
    }

    #[test]
    fn suite_covers_apps_by_designs_with_power() {
        let plan = RunPlan {
            warmup: 200,
            measure: 3_000,
            drain: 2_000,
            seed: 0xC0FFEE,
        };
        let results = run_suite(&NocConfig::paper_4x4(), &plan);
        assert_eq!(results.len(), 24, "8 apps x 3 designs");
        assert!(results.iter().all(|r| r.power.is_some()));
        // Application-major, design-minor ordering.
        assert_eq!(results[0].design, DesignKind::Mesh);
        assert_eq!(results[1].design, DesignKind::Smart);
        assert_eq!(results[2].design, DesignKind::Dedicated);
        assert_eq!(results[0].workload, results[2].workload);
    }

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
