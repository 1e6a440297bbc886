//! Fan-out over designs × workloads on the shared scoped-thread
//! [`crate::runner`].

use crate::experiment::{Experiment, ExperimentReport, RunPlan};
use crate::runner::run_cells;
use crate::workload::{RoutedWorkload, Workload};
use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use std::sync::Arc;

/// A design × workload matrix: every cell is one [`Experiment`], cells
/// run in parallel on scoped threads, and reports come back in
/// deterministic matrix order (workload-major, design-minor) regardless
/// of the thread count — each cell's traffic RNG is seeded
/// independently, so per-cell results are bit-identical to a serial
/// run. This is the first step toward the roadmap's sharded-simulation
/// goal: one process already saturates its cores on independent cells.
#[derive(Debug, Clone)]
pub struct ExperimentMatrix {
    cfg: NocConfig,
    designs: Vec<DesignKind>,
    workloads: Vec<Workload>,
    plan: RunPlan,
    threads: usize,
    power: bool,
}

/// The result of a matrix run, plus how it was executed.
#[derive(Debug, Clone)]
pub struct MatrixOutcome {
    /// One report per cell, workload-major then design-minor — the
    /// order `designs × workloads` would produce serially.
    pub reports: Vec<ExperimentReport>,
    /// Worker threads the runner started: the thread count, capped by
    /// the cell count.
    pub worker_threads: usize,
}

impl ExperimentMatrix {
    /// Start from a design point; defaults: all three designs, the
    /// preset workload battery, the default plan, one thread per
    /// available core.
    #[must_use]
    pub fn new(cfg: NocConfig) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        ExperimentMatrix {
            cfg,
            designs: DesignKind::ALL.to_vec(),
            workloads: Workload::presets(),
            plan: RunPlan::default(),
            threads,
            power: false,
        }
    }

    /// Which designs form the matrix's design axis.
    #[must_use]
    pub fn designs(mut self, designs: &[DesignKind]) -> Self {
        self.designs = designs.to_vec();
        self
    }

    /// Which workloads form the matrix's workload axis.
    #[must_use]
    pub fn workloads(mut self, workloads: Vec<Workload>) -> Self {
        self.workloads = workloads;
        self
    }

    /// The schedule every cell runs.
    #[must_use]
    pub fn plan(mut self, plan: RunPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Worker-thread cap (1 = serial; the default is one per core).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attach the power model to every cell.
    #[must_use]
    pub fn measure_power(mut self) -> Self {
        self.power = true;
        self
    }

    /// Number of cells the matrix will run.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.designs.len() * self.workloads.len()
    }

    /// Run every cell; reports in workload-major, design-minor order.
    #[must_use]
    pub fn run(&self) -> Vec<ExperimentReport> {
        self.run_instrumented().reports
    }

    /// Run every cell and also report how many worker threads took part.
    ///
    /// # Panics
    ///
    /// Panics if any cell's experiment panics (the panic is propagated
    /// when its worker is joined).
    #[must_use]
    pub fn run_instrumented(&self) -> MatrixOutcome {
        // Materialize each workload once, serially — NMAP placement is
        // deterministic, and every design cell shares the routed form.
        let routed: Vec<Arc<RoutedWorkload>> = self
            .workloads
            .iter()
            .map(|w| Arc::new(w.materialize(&self.cfg)))
            .collect();
        let cells: Vec<(usize, DesignKind)> = routed
            .iter()
            .enumerate()
            .flat_map(|(wi, _)| self.designs.iter().map(move |d| (wi, *d)))
            .collect();

        let experiment_for = |design: DesignKind| {
            let mut e = Experiment::new(self.cfg.clone())
                .design(design)
                .plan(self.plan);
            if self.power {
                e = e.measure_power();
            }
            e
        };

        let (reports, worker_threads) = run_cells(cells.len(), self.threads, |i| {
            let (wi, design) = cells[i];
            experiment_for(design).run_routed(&routed[wi])
        });
        MatrixOutcome {
            reports,
            worker_threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_matrix() -> ExperimentMatrix {
        ExperimentMatrix::new(NocConfig::paper_4x4())
            .designs(&[DesignKind::Mesh, DesignKind::Smart])
            .workloads(vec![
                Workload::fig7(),
                Workload::app("PIP"),
                Workload::uniform(4, 0.01, 3),
            ])
            .plan(RunPlan::smoke())
    }

    #[test]
    fn matrix_order_is_workload_major() {
        let reports = small_matrix().threads(1).run();
        assert_eq!(reports.len(), 6);
        assert_eq!(reports[0].workload, "fig7");
        assert_eq!(reports[0].design, DesignKind::Mesh);
        assert_eq!(reports[1].workload, "fig7");
        assert_eq!(reports[1].design, DesignKind::Smart);
        assert_eq!(reports[2].workload, "PIP");
    }

    #[test]
    fn parallel_run_matches_serial_run() {
        let m = small_matrix();
        let serial = m.clone().threads(1).run();
        let parallel = m.threads(4).run_instrumented();
        assert!(parallel.worker_threads >= 1);
        let lines: Vec<String> = serial.iter().map(ExperimentReport::snapshot_line).collect();
        let plines: Vec<String> = parallel
            .reports
            .iter()
            .map(ExperimentReport::snapshot_line)
            .collect();
        assert_eq!(lines, plines);
    }

    #[test]
    fn cells_counts_the_product() {
        assert_eq!(small_matrix().cells(), 6);
    }
}
