//! Multi-application schedules (Fig 1, Section V): run an ordered
//! sequence of applications on one NoC, paying the drain + preset-store
//! reconfiguration cost between phases.
//!
//! The paper's Fig 1 shows one physical mesh serving WLAN, then H.264,
//! then VOPD: "before each application runs, these registers need to be
//! set properly … the network needs to be emptied while setting the
//! registers", at a cost of one memory-mapped store per router — 16
//! instructions on the 4×4 mesh. ArSMART (arXiv:2011.09261) evaluates
//! exactly this multi-app regime with per-application reconfiguration
//! cost. [`AppSchedule`] captures the scenario class — ordered phases,
//! each a [`Workload`] under its own [`RunPlan`], plus a shared drain
//! budget between phases — and [`MultiAppExperiment`] drives one of the
//! four [`ScheduleDesign`]s through it, returning a [`ScheduleReport`]:
//! one [`ExperimentReport`] per phase, one [`PhaseTransition`] per
//! switch, and cross-phase aggregates. [`ScheduleMatrix`] fans one
//! schedule out across designs on the same scoped-thread cell runner as
//! [`crate::ExperimentMatrix`], with the same per-cell determinism.
//!
//! All four designs share one phase loop: each phase is one
//! [`Experiment`] on a network built for it, and a SMART phase's store
//! count is the length of its compiled presets' store sequence. The
//! live design differs only in its transitions: a phase's network must
//! empty within the drain budget before the next phase may load, and
//! that drain is counted in the phase's report. A network that does not
//! empty stops the schedule with a [`ReconfigError`]: reconfiguring a
//! non-empty network would corrupt in-flight packets. This is the one
//! drain-then-store path in the workspace.

use crate::compiled::CompiledDesign;
use crate::experiment::{Drive, Experiment, ExperimentReport, RunPlan};
use crate::runner::run_cells;
use crate::workload::{RoutedWorkload, Workload};
use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use smart_sim::{TelemetryConfig, TelemetrySeries};
use smart_taskgraph::apps;
use std::fmt;
use std::sync::Arc;

/// Default drain budget for the transition between two phases.
const DEFAULT_DRAIN_BUDGET: u64 = 50_000;

/// The phase-transition marker carried in a phase's telemetry-series
/// label (and thus its metrics-v1 JSONL header).
fn phase_label(index: usize, app: &str) -> String {
    format!("phase{index}:{app}")
}

/// The design axis of a multi-app schedule: the paper's three evaluated
/// designs plus the live-reconfigured SMART of Fig 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScheduleDesign {
    /// Baseline mesh, rebuilt per phase: no preset registers, so
    /// switching applications costs no store instructions.
    Mesh,
    /// SMART, rebuilt per phase (offline reconfiguration): each
    /// application's presets cost one store per router, but no live
    /// traffic needs draining.
    Smart,
    /// Ideal per-flow dedicated links, rewired per phase — a yardstick
    /// that real silicon could not retarget at runtime at all.
    Dedicated,
    /// SMART reconfigured live: every transition drains the previous
    /// phase's in-flight traffic, then stores the next presets, exactly
    /// the Fig 1 runtime story.
    Reconfigurable,
}

impl ScheduleDesign {
    /// All four designs, in presentation order.
    pub const ALL: [ScheduleDesign; 4] = [
        ScheduleDesign::Mesh,
        ScheduleDesign::Smart,
        ScheduleDesign::Dedicated,
        ScheduleDesign::Reconfigurable,
    ];

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ScheduleDesign::Mesh => "Mesh",
            ScheduleDesign::Smart => "SMART",
            ScheduleDesign::Dedicated => "Dedicated",
            ScheduleDesign::Reconfigurable => "Reconfigurable",
        }
    }

    /// The underlying simulated design.
    #[must_use]
    pub fn kind(self) -> DesignKind {
        match self {
            ScheduleDesign::Mesh => DesignKind::Mesh,
            ScheduleDesign::Smart | ScheduleDesign::Reconfigurable => DesignKind::Smart,
            ScheduleDesign::Dedicated => DesignKind::Dedicated,
        }
    }
}

/// One phase of a schedule: a workload driven under its own plan by its
/// own [`Drive`] (Bernoulli by default — any drive the single-cell
/// [`Experiment`] accepts works per phase).
#[derive(Debug, Clone)]
pub struct AppPhase {
    /// What traffic this phase offers.
    pub workload: Workload,
    /// The warm-up / measure / drain schedule for this phase.
    pub plan: RunPlan,
    /// How the phase's flows are offered to the network.
    pub drive: Drive,
}

/// An ordered multi-application schedule plus the reconfiguration
/// parameters shared by every transition.
#[derive(Debug, Clone)]
pub struct AppSchedule {
    /// The phases, in execution order.
    pub phases: Vec<AppPhase>,
    drain_budget: u64,
}

impl Default for AppSchedule {
    fn default() -> Self {
        AppSchedule::new()
    }
}

impl AppSchedule {
    /// An empty schedule with the default drain budget.
    #[must_use]
    pub fn new() -> Self {
        AppSchedule {
            phases: Vec::new(),
            drain_budget: DEFAULT_DRAIN_BUDGET,
        }
    }

    /// The paper's eight task-graph applications back-to-back (in
    /// [`apps::all`] order), every phase under the same plan — the
    /// Fig 1 rotation at suite scale.
    #[must_use]
    pub fn apps(plan: RunPlan) -> Self {
        apps::all()
            .into_iter()
            .fold(AppSchedule::new(), |s, graph| {
                s.then(Workload::Graph(graph), plan)
            })
    }

    /// Append a Bernoulli-driven phase.
    #[must_use]
    pub fn then(self, workload: impl Into<Workload>, plan: RunPlan) -> Self {
        self.then_driven(workload, plan, Drive::Bernoulli)
    }

    /// Append a phase with an explicit [`Drive`] (bursty, trace replay
    /// or scripted).
    #[must_use]
    pub fn then_driven(
        mut self,
        workload: impl Into<Workload>,
        plan: RunPlan,
        drive: Drive,
    ) -> Self {
        self.phases.push(AppPhase {
            workload: workload.into(),
            plan,
            drive,
        });
        self
    }

    /// Cycles each transition may spend draining the previous phase's
    /// in-flight traffic before the swap is refused.
    #[must_use]
    pub fn drain_budget(mut self, cycles: u64) -> Self {
        self.drain_budget = cycles;
        self
    }

    /// Number of phases.
    #[must_use]
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// `true` if the schedule has no phases.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Every phase's workload placed and routed on `cfg`, in order —
    /// what [`MultiAppExperiment::run_routed`] takes, so several
    /// designs can share one placement of the schedule.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Workload::materialize`].
    #[must_use]
    pub fn materialize(&self, cfg: &NocConfig) -> Vec<Arc<RoutedWorkload>> {
        self.phases
            .iter()
            .map(|p| Arc::new(p.workload.materialize(cfg)))
            .collect()
    }
}

/// What one application switch cost (Section V).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTransition {
    /// Application being replaced (`None` for the first phase).
    pub from: Option<String>,
    /// Application being loaded.
    pub to: String,
    /// Cycles spent draining the previous phase's in-flight traffic.
    pub drain_cycles: u64,
    /// Memory-mapped store instructions executed to install the
    /// presets — one per router (16 on the 4×4 mesh), 0 for designs
    /// without preset registers.
    pub store_count: usize,
}

/// Why a reconfiguration was refused: the previous application's
/// in-flight traffic did not drain within the budget. Reconfiguring a
/// non-empty network would corrupt in-flight packets, so the swap is
/// not performed — the schedule stops at that phase — and the caller
/// may retry with a larger budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigError {
    /// Application whose traffic failed to drain.
    pub current_app: String,
    /// Application that was being loaded.
    pub next_app: String,
    /// The drain budget that was exhausted.
    pub max_drain_cycles: u64,
}

impl fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot reconfigure to {}: {} traffic did not drain within {} cycles",
            self.next_app, self.current_app, self.max_drain_cycles
        )
    }
}

impl std::error::Error for ReconfigError {}

/// A schedule could not advance past one of its phases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleError {
    /// Index of the phase that could not be loaded.
    pub phase: usize,
    /// The underlying reconfiguration failure.
    pub source: ReconfigError,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule phase {}: {}", self.phase, self.source)
    }
}

impl std::error::Error for ScheduleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Everything measured across one schedule run. Deterministic: the same
/// (config, design, schedule) triple produces a byte-identical report.
#[derive(Debug, Clone)]
pub struct ScheduleReport {
    /// Which design ran the schedule.
    pub design: ScheduleDesign,
    /// Mesh dimensions of the design point.
    pub mesh: (u16, u16),
    /// One experiment report per phase, in schedule order.
    pub phases: Vec<ExperimentReport>,
    /// One transition per phase; `transitions[i]` is the switch that
    /// loaded `phases[i]` (the first has `from == None`).
    pub transitions: Vec<PhaseTransition>,
}

impl ScheduleReport {
    /// Total cycles spent draining in-flight traffic at transitions.
    #[must_use]
    pub fn total_drain_cycles(&self) -> u64 {
        self.transitions.iter().map(|t| t.drain_cycles).sum()
    }

    /// Total store instructions executed across all transitions.
    #[must_use]
    pub fn total_store_instructions(&self) -> usize {
        self.transitions.iter().map(|t| t.store_count).sum()
    }

    /// Packets delivered across all phases.
    #[must_use]
    pub fn packets_delivered(&self) -> u64 {
        self.phases.iter().map(|p| p.packets_delivered).sum()
    }

    /// Per-phase telemetry series in schedule order (empty unless the
    /// run requested [`MultiAppExperiment::with_telemetry`]). Each
    /// series carries its `phase<i>:<app>` label, so rendering the
    /// sequence shows the fabric's behavior across application
    /// switches with explicit transition markers.
    #[must_use]
    pub fn phase_telemetry(&self) -> Vec<&TelemetrySeries> {
        self.phases
            .iter()
            .filter_map(|p| p.telemetry.as_ref())
            .collect()
    }

    /// Packet-weighted average head-flit network latency across the
    /// whole schedule (`NaN` if no phase measured a packet).
    #[must_use]
    pub fn avg_network_latency(&self) -> f64 {
        let measured: u64 = self.phases.iter().map(|p| p.measured_packets).sum();
        if measured == 0 {
            return f64::NAN;
        }
        let weighted: f64 = self
            .phases
            .iter()
            .filter(|p| p.measured_packets > 0)
            .map(|p| p.avg_network_latency * p.measured_packets as f64)
            .sum();
        weighted / measured as f64
    }

    /// Section V amortization: reconfiguration store instructions per
    /// delivered packet across the whole schedule (`NaN` if nothing
    /// was delivered).
    #[must_use]
    pub fn amortized_instruction_overhead(&self) -> f64 {
        let delivered = self.packets_delivered();
        if delivered == 0 {
            return f64::NAN;
        }
        self.total_store_instructions() as f64 / delivered as f64
    }

    /// One stable multi-line snapshot, full float precision — the
    /// format determinism tests compare bit-exactly.
    #[must_use]
    pub fn snapshot(&self) -> String {
        let mut lines = vec![format!(
            "schedule {} {}x{} phases={} stores={} drain={}",
            self.design.label(),
            self.mesh.0,
            self.mesh.1,
            self.phases.len(),
            self.total_store_instructions(),
            self.total_drain_cycles(),
        )];
        for (t, p) in self.transitions.iter().zip(&self.phases) {
            lines.push(format!(
                "  -> {} from={} drain={} stores={}",
                t.to,
                t.from.as_deref().unwrap_or("(boot)"),
                t.drain_cycles,
                t.store_count,
            ));
            lines.push(format!("  {}", p.snapshot_line()));
        }
        lines.join("\n")
    }
}

impl fmt::Display for ScheduleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "multi-app schedule on {} ({}x{} mesh), {} phases",
            self.design.label(),
            self.mesh.0,
            self.mesh.1,
            self.phases.len()
        )?;
        for (t, p) in self.transitions.iter().zip(&self.phases) {
            writeln!(
                f,
                "  {:>10} -> {:<10} drain {:>6} cyc, {:>3} stores | {:>8.2} cyc avg over {} packets",
                t.from.as_deref().unwrap_or("(boot)"),
                t.to,
                t.drain_cycles,
                t.store_count,
                p.avg_network_latency,
                p.measured_packets
            )?;
        }
        write!(
            f,
            "  total: {} packets, {} store instructions, {} drain cycles, {:.6} instr/packet",
            self.packets_delivered(),
            self.total_store_instructions(),
            self.total_drain_cycles(),
            self.amortized_instruction_overhead()
        )
    }
}

/// One multi-app experiment: a [`NocConfig`] design point, a
/// [`ScheduleDesign`] and an [`AppSchedule`], executed with
/// [`MultiAppExperiment::run`].
#[derive(Debug, Clone)]
pub struct MultiAppExperiment {
    cfg: NocConfig,
    design: ScheduleDesign,
    schedule: AppSchedule,
    power: bool,
    telemetry: Option<TelemetryConfig>,
}

impl MultiAppExperiment {
    /// Start from a design point and schedule; defaults: the live
    /// [`ScheduleDesign::Reconfigurable`] design, no power model.
    #[must_use]
    pub fn new(cfg: NocConfig, schedule: AppSchedule) -> Self {
        MultiAppExperiment {
            cfg,
            design: ScheduleDesign::Reconfigurable,
            schedule,
            power: false,
            telemetry: None,
        }
    }

    /// Which schedule design to run.
    #[must_use]
    pub fn design(mut self, design: ScheduleDesign) -> Self {
        self.design = design;
        self
    }

    /// Attach the calibrated 45 nm energy model to every phase.
    #[must_use]
    pub fn measure_power(mut self) -> Self {
        self.power = true;
        self
    }

    /// Collect windowed telemetry for every phase. Each phase's series
    /// lands in its [`ExperimentReport::telemetry`], labeled
    /// `phase<i>:<app>` — the label is the phase-transition marker in
    /// the metrics-v1 header, so concatenated per-phase JSONL documents
    /// show exactly where one application hands the fabric to the next.
    /// On the live [`ScheduleDesign::Reconfigurable`] design a phase's
    /// series also covers the transition drain that empties its
    /// in-flight traffic: the drain runs on the phase's own network
    /// before its report is taken, so the last window's cumulative
    /// counts equal the phase's counters.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The design point this schedule runs at.
    #[must_use]
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Run every phase in order, reconfiguring between them.
    ///
    /// # Errors
    ///
    /// Returns a [`ScheduleError`] if a transition's drain budget is
    /// exhausted before the previous phase's traffic empties (only the
    /// live [`ScheduleDesign::Reconfigurable`] design drains between
    /// phases; the rebuilt designs cannot fail).
    pub fn run(&self) -> Result<ScheduleReport, ScheduleError> {
        self.run_routed(&self.schedule.materialize(&self.cfg))
    }

    /// Run against already-routed phase workloads — this schedule's
    /// [`AppSchedule::materialize`] on this design point — so a schedule
    /// matrix or a server places each phase once across designs.
    ///
    /// Every design runs each phase as one [`Experiment`] on a network
    /// freshly built for that phase. The live
    /// [`ScheduleDesign::Reconfigurable`] design adds the Fig 1
    /// transition: before the next application's presets are stored,
    /// it drains the phase's in-flight traffic within the drain budget,
    /// and only then takes the phase's report, so packets delivered
    /// while emptying the network are credited to the phase that
    /// injected them.
    ///
    /// # Errors
    ///
    /// As [`MultiAppExperiment::run`].
    pub fn run_routed(
        &self,
        routed: &[Arc<RoutedWorkload>],
    ) -> Result<ScheduleReport, ScheduleError> {
        let (cfg, kind) = (&self.cfg, self.design.kind());
        let mut every_phase = Experiment::new(cfg.clone()).design(kind);
        if self.power {
            every_phase = every_phase.measure_power();
        }
        if let Some(tc) = self.telemetry {
            every_phase = every_phase.with_telemetry(tc);
        }
        let mut phases = Vec::with_capacity(routed.len());
        let mut transitions: Vec<PhaseTransition> = Vec::with_capacity(routed.len());
        // Cycles the previous phase spent draining before this one loads.
        let mut drain_cycles = 0;
        for (i, (phase, r)) in self.schedule.phases.iter().zip(routed).enumerate() {
            let e = every_phase
                .clone()
                .plan(phase.plan)
                .drive(phase.drive.clone());
            let compiled = CompiledDesign::from_routed(cfg, kind, Arc::clone(r));
            let (mut design, drained) = e.drive_plan(&compiled, e.traffic_for(&compiled).as_mut());
            let next_drain = match routed.get(i + 1) {
                Some(next) if self.design == ScheduleDesign::Reconfigurable => {
                    let before = design.cycle();
                    if !design.drain(self.schedule.drain_budget) {
                        return Err(ScheduleError {
                            phase: i + 1,
                            source: ReconfigError {
                                current_app: r.name.clone(),
                                next_app: next.name.clone(),
                                max_drain_cycles: self.schedule.drain_budget,
                            },
                        });
                    }
                    design.cycle() - before
                }
                _ => 0,
            };
            let mut report = e.report(&compiled, design, drained);
            if let Some(s) = report.telemetry.as_mut() {
                s.label = Some(phase_label(i, &r.name));
            }
            transitions.push(PhaseTransition {
                from: transitions.last().map(|t| t.to.clone()),
                to: r.name.clone(),
                drain_cycles,
                store_count: report.compile.as_ref().map_or(0, |c| c.preset_stores),
            });
            phases.push(report);
            drain_cycles = next_drain;
        }
        Ok(ScheduleReport {
            design: self.design,
            mesh: (cfg.topology.width(), cfg.topology.height()),
            phases,
            transitions,
        })
    }
}

/// Fan one [`AppSchedule`] out across schedule designs on the same
/// scoped-thread cell runner as [`crate::ExperimentMatrix`]: cells
/// execute in parallel, results come back in design order, and each
/// cell is a pure function of its design — parallel results are
/// bit-identical to a serial run.
#[derive(Debug, Clone)]
pub struct ScheduleMatrix {
    cfg: NocConfig,
    designs: Vec<ScheduleDesign>,
    schedule: AppSchedule,
    threads: usize,
    power: bool,
}

/// The result of a schedule-matrix run, plus how it was executed.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// One result per design, in the matrix's design order.
    pub reports: Vec<Result<ScheduleReport, ScheduleError>>,
    /// Worker threads the runner started: the thread count, capped by
    /// the cell count.
    pub worker_threads: usize,
}

impl ScheduleMatrix {
    /// Start from a design point and schedule; defaults: all four
    /// schedule designs, one thread per available core.
    #[must_use]
    pub fn new(cfg: NocConfig, schedule: AppSchedule) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        ScheduleMatrix {
            cfg,
            designs: ScheduleDesign::ALL.to_vec(),
            schedule,
            threads,
            power: false,
        }
    }

    /// Which designs form the matrix's design axis.
    #[must_use]
    pub fn designs(mut self, designs: &[ScheduleDesign]) -> Self {
        self.designs = designs.to_vec();
        self
    }

    /// Worker-thread cap (1 = serial; the default is one per core).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attach the power model to every phase of every cell.
    #[must_use]
    pub fn measure_power(mut self) -> Self {
        self.power = true;
        self
    }

    /// Number of cells (one full schedule per design).
    #[must_use]
    pub fn cells(&self) -> usize {
        self.designs.len()
    }

    /// Run the schedule on every design.
    ///
    /// # Errors
    ///
    /// Returns the first design's [`ScheduleError`] (in design order)
    /// if any cell's transition fails to drain.
    pub fn run(&self) -> Result<Vec<ScheduleReport>, ScheduleError> {
        self.run_instrumented().reports.into_iter().collect()
    }

    /// Run every cell and also report how many worker threads took
    /// part, keeping per-design errors separate.
    #[must_use]
    pub fn run_instrumented(&self) -> ScheduleOutcome {
        // Materialize each phase once, serially — NMAP placement is
        // deterministic, and every design cell shares the routed form.
        let routed = self.schedule.materialize(&self.cfg);
        let (reports, worker_threads) = run_cells(self.designs.len(), self.threads, |i| {
            let mut e = MultiAppExperiment::new(self.cfg.clone(), self.schedule.clone())
                .design(self.designs[i]);
            if self.power {
                e = e.measure_power();
            }
            e.run_routed(&routed)
        });
        ScheduleOutcome {
            reports,
            worker_threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_apps(plan: RunPlan) -> AppSchedule {
        AppSchedule::new()
            .then(Workload::app("WLAN"), plan)
            .then(Workload::app("H264"), plan)
    }

    #[test]
    fn apps_schedule_covers_the_suite() {
        let s = AppSchedule::apps(RunPlan::smoke());
        assert_eq!(s.len(), 8);
        assert!(!s.is_empty());
        assert!(AppSchedule::new().is_empty());
    }

    #[test]
    fn live_transitions_chain_application_names() {
        let r = MultiAppExperiment::new(NocConfig::paper_4x4(), two_apps(RunPlan::smoke()))
            .run()
            .expect("smoke phases drain");
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.transitions[0].from, None);
        assert_eq!(r.transitions[0].store_count, 16);
        assert_eq!(r.transitions[1].from.as_deref(), Some("WLAN"));
        assert_eq!(r.transitions[1].to, "H264");
        assert_eq!(r.total_store_instructions(), 32);
    }

    #[test]
    fn rebuilt_designs_pay_no_drain_and_mesh_pays_no_stores() {
        for (design, stores) in [
            (ScheduleDesign::Mesh, 0),
            (ScheduleDesign::Smart, 16),
            (ScheduleDesign::Dedicated, 0),
        ] {
            let r = MultiAppExperiment::new(NocConfig::paper_4x4(), two_apps(RunPlan::smoke()))
                .design(design)
                .run()
                .expect("rebuilt designs cannot fail");
            assert!(r.transitions.iter().all(|t| t.drain_cycles == 0));
            assert!(
                r.transitions.iter().all(|t| t.store_count == stores),
                "{design:?}"
            );
            assert!(r.packets_delivered() > 0, "{design:?}");
        }
    }

    #[test]
    fn smart_and_reconfigurable_phases_measure_identically() {
        // The live design's per-phase runs start from a fresh network
        // with the same seed, so they must agree bit-exactly with the
        // rebuilt SMART design; only the transition costs differ.
        let schedule = two_apps(RunPlan::smoke());
        let live = MultiAppExperiment::new(NocConfig::paper_4x4(), schedule.clone())
            .run()
            .expect("drains");
        let rebuilt = MultiAppExperiment::new(NocConfig::paper_4x4(), schedule)
            .design(ScheduleDesign::Smart)
            .run()
            .expect("cannot fail");
        let lines = |r: &ScheduleReport| {
            r.phases
                .iter()
                .map(ExperimentReport::snapshot_line)
                .collect::<Vec<_>>()
        };
        assert_eq!(lines(&live), lines(&rebuilt));
    }

    #[test]
    fn schedule_telemetry_labels_each_phase() {
        use smart_sim::TelemetryConfig;
        for design in [ScheduleDesign::Reconfigurable, ScheduleDesign::Smart] {
            let r = MultiAppExperiment::new(NocConfig::paper_4x4(), two_apps(RunPlan::smoke()))
                .design(design)
                .with_telemetry(TelemetryConfig::windowed(500))
                .run()
                .expect("smoke phases drain");
            let series = r.phase_telemetry();
            assert_eq!(series.len(), 2, "{design:?}");
            assert_eq!(series[0].label.as_deref(), Some("phase0:WLAN"));
            assert_eq!(series[1].label.as_deref(), Some("phase1:H264"));
            // The transition markers survive the JSONL round trip.
            for s in &series {
                let parsed = smart_sim::TelemetrySeries::parse(&s.to_jsonl()).expect("round trip");
                assert_eq!(parsed.label, s.label);
            }
        }
    }

    #[test]
    fn schedule_matrix_matches_serial_and_counts_cells() {
        let m = ScheduleMatrix::new(NocConfig::paper_4x4(), two_apps(RunPlan::smoke()));
        assert_eq!(m.cells(), 4);
        let parallel = m.clone().threads(4).run().expect("all designs drain");
        let serial = m.threads(1).run().expect("all designs drain");
        let snaps =
            |rs: &[ScheduleReport]| rs.iter().map(ScheduleReport::snapshot).collect::<Vec<_>>();
        assert_eq!(snaps(&parallel), snaps(&serial));
    }
}
