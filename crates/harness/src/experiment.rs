//! One experiment cell: configure → map → build → drive → measure.

use crate::compiled::CompiledDesign;
use crate::workload::{RoutedWorkload, Workload};
use smart_core::compile::CompiledApp;
use smart_core::config::NocConfig;
use smart_core::noc::{Design, DesignKind};
use smart_power::{breakdown, EnergyModel, GatingPolicy, PowerBreakdown};
use smart_sim::counters::ActivityCounters;
use smart_sim::traffic::TrafficSource;
use smart_sim::{
    FlowId, FlowTable, NodeId, ScriptedTraffic, TelemetryConfig, TelemetrySeries, Topology,
};
use smart_traffic::{ModulatedTraffic, PhaseOutcome, TemporalModel, TraceFile, TraceRecorder};
use std::fmt;
use std::sync::Arc;

/// Simulation schedule for one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPlan {
    /// Warm-up cycles (excluded from stats and counters).
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Drain budget after measurement (delivers in-flight packets).
    pub drain: u64,
    /// Traffic seed.
    pub seed: u64,
}

impl Default for RunPlan {
    fn default() -> Self {
        RunPlan {
            warmup: 20_000,
            measure: 120_000,
            drain: 20_000,
            seed: 0xC0FFEE,
        }
    }
}

impl RunPlan {
    /// A fast plan for smoke tests.
    #[must_use]
    pub fn quick() -> Self {
        RunPlan {
            warmup: 2_000,
            measure: 20_000,
            drain: 5_000,
            seed: 0xC0FFEE,
        }
    }

    /// A minimal plan for doctests and unit tests — just enough cycles
    /// for a handful of packets at the paper's task-graph loads.
    #[must_use]
    pub fn smoke() -> Self {
        RunPlan {
            warmup: 0,
            measure: 2_000,
            drain: 2_000,
            seed: 0xC0FFEE,
        }
    }

    /// A plain measure-then-drain schedule with no warm-up, as used by
    /// the conformance harness: stats and counters cover the whole run.
    #[must_use]
    pub fn measure_all(measure: u64, drain: u64, seed: u64) -> Self {
        RunPlan {
            warmup: 0,
            measure,
            drain,
            seed,
        }
    }
}

/// Everything a [`Drive`] needs to build a concrete traffic source for
/// one run: the routed workload's rates and temporal model, the flow
/// table that must plan every flow offered, and the plan's packet
/// sizing and seed.
pub struct TrafficContext<'a> {
    /// Per-flow nominal injection rates, packets per cycle.
    pub rates: &'a [(FlowId, f64)],
    /// The flow table: [`Drive::build`] refuses a flow it does not plan.
    pub flows: &'a FlowTable,
    /// The topology being driven. No source reads it: a packet names
    /// only its flow.
    pub topology: Topology,
    /// Flits per packet.
    pub flits_per_packet: u8,
    /// Traffic RNG seed (from the [`RunPlan`]).
    pub seed: u64,
    /// The workload's temporal model (honored by [`Drive::Bernoulli`]).
    pub temporal: TemporalModel,
}

/// How the workload's flows are offered to the network.
#[derive(Clone)]
pub enum Drive {
    /// Rate-driven injection at the workload's rates through the
    /// workload's [`TemporalModel`] — for steady workloads this is the
    /// paper's "uniform random injection rate to meet the specified
    /// bandwidth for each flow".
    Bernoulli,
    /// Deterministic `(cycle, flow)` events — the Fig 7 walk-through
    /// and zero-load probes. The workload's rates are ignored.
    Scripted(Vec<(u64, FlowId)>),
    /// Rate-driven injection through an explicit temporal model,
    /// overriding the workload's own.
    Temporal(TemporalModel),
    /// Deterministic replay of a recorded [`TraceFile`]. The workload's
    /// rates are ignored.
    Trace(TraceFile),
}

impl fmt::Debug for Drive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Drive::Bernoulli => write!(f, "Bernoulli"),
            Drive::Scripted(events) => f.debug_tuple("Scripted").field(events).finish(),
            Drive::Temporal(model) => f.debug_tuple("Temporal").field(model).finish(),
            Drive::Trace(trace) => f
                .debug_struct("Trace")
                .field("events", &trace.events.len())
                .finish(),
        }
    }
}

impl Drive {
    /// Build the concrete traffic source for one run: every rate-driven
    /// drive is one [`ModulatedTraffic`], through the workload's model or
    /// the drive's own, and every event-driven one a [`ScriptedTraffic`]
    /// (a trace's at the trace's own packet size).
    ///
    /// # Panics
    ///
    /// Panics with `no plan for f…` if a rate or event names a flow that
    /// `ctx.flows` does not plan: the one refusal of an unknown flow
    /// ([`check_trace`]'s), made before any cycle runs. Panics too on a
    /// rate or model parameter outside its domain.
    #[must_use]
    pub fn build(&self, ctx: &TrafficContext<'_>) -> Box<dyn TrafficSource> {
        let modulated = |model: TemporalModel| -> Box<dyn TrafficSource> {
            let flows = ctx.rates.iter().map(|&(flow, _)| flow);
            if let Err(m) = ctx.flows.check_planned(flows) {
                panic!("{m}");
            }
            Box::new(ModulatedTraffic::new(
                model,
                ctx.rates,
                ctx.flits_per_packet,
                ctx.seed,
            ))
        };
        let scripted = |events: &[(u64, FlowId)], flits_per_packet| -> Box<dyn TrafficSource> {
            let flows = events.iter().map(|&(_, flow)| flow);
            if let Err(m) = ctx.flows.check_planned(flows) {
                panic!("{m}");
            }
            Box::new(ScriptedTraffic::new(events.to_vec(), flits_per_packet))
        };
        match self {
            Drive::Bernoulli => modulated(ctx.temporal),
            Drive::Temporal(model) => modulated(*model),
            Drive::Scripted(events) => scripted(events, ctx.flits_per_packet),
            Drive::Trace(trace) => scripted(&trace.events, trace.flits_per_packet),
        }
    }
}

/// The one refusal of a trace the `compiled` design point cannot replay,
/// made before any cycle runs: `Err` with the message [`Experiment`] and
/// [`Drive::build`] panic with, for packets of no flits or longer than
/// its VCs are deep, or for a flow its table does not plan.
pub fn check_trace(trace: &TraceFile, compiled: &CompiledDesign) -> Result<(), String> {
    let (flits, depth) = (trace.flits_per_packet, compiled.config().vc_depth);
    if !(1..=depth).contains(&usize::from(flits)) {
        return Err(format!(
            "trace flits_per_packet = {flits}: must be in 1..=vc_depth ({depth}): \
             virtual cut-through buffers a whole packet in one VC"
        ));
    }
    let flows = trace.events.iter().map(|&(_, flow)| flow);
    compiled.flow_table().check_planned(flows)
}

/// Preset-compilation metrics (SMART designs only).
#[derive(Debug, Clone, PartialEq)]
pub struct CompileMetrics {
    /// Mean stops per flow (zero-load latency is `1 + 3·stops`).
    pub avg_stops: f64,
    /// Fraction of (flow, router) visits bypassed in a single cycle.
    pub bypass_fraction: f64,
    /// Stop routers per flow, in travel order.
    pub stops: Vec<(FlowId, Vec<NodeId>)>,
    /// Analytical zero-load latency per flow, cycles.
    pub zero_load_latency: Vec<(FlowId, u64)>,
    /// Store instructions needed to install the presets — one per
    /// router (Section V reconfiguration cost).
    pub preset_stores: usize,
}

impl CompileMetrics {
    /// Metrics of a compiled application serving `routed`.
    fn from_compiled(app: &CompiledApp, routed: &RoutedWorkload, topo: Topology) -> Self {
        CompileMetrics {
            avg_stops: app.avg_stops(),
            bypass_fraction: app.bypass_fraction(topo),
            stops: app
                .flows
                .iter()
                .map(|p| (p.flow, app.stops(p.flow)))
                .collect(),
            zero_load_latency: routed
                .routes
                .iter()
                .map(|(f, _)| (*f, app.flows.plan(*f).zero_load_latency()))
                .collect(),
            preset_stores: topo.len(),
        }
    }
}

/// Everything measured by one [`Experiment`] run. Deterministic: the
/// same experiment produces a byte-identical report.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Which design ran.
    pub design: DesignKind,
    /// Workload name (`fig7`, an application, `uniform<n>@<rate>`, …).
    pub workload: String,
    /// Grid dimensions of the design point.
    pub mesh: (u16, u16),
    /// Fabric shape label (`"mesh"` or `"torus"`).
    pub topology: String,
    /// `true` if the network went quiescent within the drain budget.
    pub drained: bool,
    /// Total cycles the simulated network had advanced when the report
    /// was taken (warm-up + measurement + actual drain) — what a
    /// cycles-per-second figure divides by the run's wall time.
    pub total_cycles: u64,
    /// Packets offered after warm-up (activity counters).
    pub packets_injected: u64,
    /// Packets delivered after warm-up.
    pub packets_delivered: u64,
    /// Flits delivered after warm-up.
    pub flits_delivered: u64,
    /// Packets in the latency statistics (generated at/after warm-up).
    pub measured_packets: u64,
    /// Average head-flit network latency, cycles (Fig 10a's metric).
    pub avg_network_latency: f64,
    /// Average full-packet (tail) latency, cycles.
    pub avg_packet_latency: f64,
    /// Average source-queueing delay, cycles.
    pub avg_source_queue: f64,
    /// Per-flow average head-flit latency, flows in id order (flows
    /// that delivered no packet are absent).
    pub flow_latencies: Vec<(FlowId, f64)>,
    /// Activity counters over the measured window.
    pub counters: ActivityCounters,
    /// Preset-compiler metrics (SMART designs only).
    pub compile: Option<CompileMetrics>,
    /// Fig 10b power breakdown (when requested via
    /// [`Experiment::measure_power`]).
    pub power: Option<PowerBreakdown>,
    /// Windowed telemetry over the measured cycles (when requested via
    /// [`Experiment::with_telemetry`]; always `None` for the Dedicated
    /// yardstick, which has no routers or SSRs to observe).
    pub telemetry: Option<TelemetrySeries>,
}

impl ExperimentReport {
    /// This report as a design-agnostic [`PhaseOutcome`] snapshot — the
    /// input shape of [`smart_traffic::TraceDiffReport`], so one
    /// recorded trace replayed on two designs can be diffed
    /// structurally (delivered-packet and per-flow latency deltas).
    #[must_use]
    pub fn to_phase_outcome(&self) -> PhaseOutcome {
        PhaseOutcome {
            label: self.design.label().to_owned(),
            packets_delivered: self.packets_delivered,
            flits_delivered: self.flits_delivered,
            avg_network_latency: self.avg_network_latency,
            flow_latencies: self.flow_latencies.clone(),
        }
    }

    /// Average head-flit latency of one flow, if it delivered packets.
    #[must_use]
    pub fn flow_latency(&self, flow: FlowId) -> Option<f64> {
        self.flow_latencies
            .iter()
            .find(|(f, _)| *f == flow)
            .map(|(_, l)| *l)
    }

    /// One stable line per report, full float precision — the golden
    /// snapshot format future perf PRs diff against (see
    /// [`snapshot_line`]).
    #[must_use]
    pub fn snapshot_line(&self) -> String {
        snapshot_line(
            self.design.label(),
            &self.workload,
            self.packets_injected,
            self.packets_delivered,
            self.flits_delivered,
            self.avg_network_latency,
            self.measured_packets,
        )
    }
}

/// The one spelling of a cell's snapshot line, head-flit `latency` at
/// full float precision. [`ExperimentReport`] and the server's streamed
/// cells both render through it, so a wire cell compares bit-for-bit
/// against an in-process report.
#[must_use]
pub fn snapshot_line(
    design: &str,
    workload: &str,
    injected: u64,
    delivered: u64,
    flits: u64,
    latency: f64,
    measured: u64,
) -> String {
    format!(
        "{design}/{workload} injected={injected} delivered={delivered} flits={flits} \
         latency={latency} measured={measured}"
    )
}

impl fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} on {} ({}x{} {}){}",
            self.workload,
            self.design.label(),
            self.mesh.0,
            self.mesh.1,
            self.topology,
            if self.drained { "" } else { "  [NOT DRAINED]" }
        )?;
        writeln!(
            f,
            "  packets {} in / {} out, {} flits",
            self.packets_injected, self.packets_delivered, self.flits_delivered
        )?;
        write!(
            f,
            "  latency {:.2} net / {:.2} packet / {:.2} queue over {} packets",
            self.avg_network_latency,
            self.avg_packet_latency,
            self.avg_source_queue,
            self.measured_packets
        )?;
        if let Some(c) = &self.compile {
            write!(
                f,
                "\n  presets: {:.0}% bypassed, {:.2} stops/flow",
                c.bypass_fraction * 100.0,
                c.avg_stops
            )?;
        }
        if let Some(p) = &self.power {
            write!(f, "\n  power: {p}")?;
        }
        Ok(())
    }
}

/// One experiment: a [`NocConfig`] design point, a [`DesignKind`], a
/// [`Workload`] and a [`RunPlan`], composed with a builder and executed
/// with [`Experiment::run`].
#[derive(Debug, Clone)]
pub struct Experiment {
    cfg: NocConfig,
    design: DesignKind,
    workload: Workload,
    plan: RunPlan,
    drive: Drive,
    power: bool,
    telemetry: Option<TelemetryConfig>,
}

impl Experiment {
    /// Start from a design point; defaults: SMART design, Fig 7
    /// workload, default plan, Bernoulli drive, no power model.
    #[must_use]
    pub fn new(cfg: NocConfig) -> Self {
        Experiment {
            cfg,
            design: DesignKind::Smart,
            workload: Workload::Fig7,
            plan: RunPlan::default(),
            drive: Drive::Bernoulli,
            power: false,
            telemetry: None,
        }
    }

    /// Which design to build.
    #[must_use]
    pub fn design(mut self, design: DesignKind) -> Self {
        self.design = design;
        self
    }

    /// What traffic to offer.
    #[must_use]
    pub fn workload(mut self, workload: impl Into<Workload>) -> Self {
        self.workload = workload.into();
        self
    }

    /// The warm-up / measure / drain schedule.
    #[must_use]
    pub fn plan(mut self, plan: RunPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Replace Bernoulli injection with deterministic `(cycle, flow)`
    /// events.
    #[must_use]
    pub fn scripted(mut self, events: Vec<(u64, FlowId)>) -> Self {
        self.drive = Drive::Scripted(events);
        self
    }

    /// How to offer the workload's flows (any [`Drive`]: Bernoulli,
    /// scripted events, a temporal burst model or trace replay).
    #[must_use]
    pub fn drive(mut self, drive: Drive) -> Self {
        self.drive = drive;
        self
    }

    /// Attach the calibrated 45 nm energy model and report the Fig 10b
    /// power breakdown (gating policy follows the design).
    #[must_use]
    pub fn measure_power(mut self) -> Self {
        self.power = true;
        self
    }

    /// Collect windowed telemetry over the measured cycles and attach
    /// the series to [`ExperimentReport::telemetry`]. The collector
    /// attaches after warm-up (alongside the counter reset), so the
    /// series covers exactly the measured + drain cycles. Telemetry is
    /// observation only: latency statistics, counters and goldens are
    /// bit-identical with or without it, at every band count.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Freeze this experiment's construction work (materialization,
    /// flow table, preset compilation) into a reusable handle —
    /// [`Experiment::run_compiled`] then replays runs without paying it
    /// again.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Workload::materialize`].
    #[must_use]
    pub fn compile_design(&self) -> CompiledDesign {
        CompiledDesign::compile(&self.cfg, self.design, &self.workload)
    }

    /// Map, build, drive and measure.
    ///
    /// # Panics
    ///
    /// Panics if the workload cannot be materialized (unknown app name)
    /// or the flow set is inconsistent with the design point.
    #[must_use]
    pub fn run(&self) -> ExperimentReport {
        self.run_compiled(&self.compile_design())
    }

    /// Run against an already-routed workload (lets matrix runs
    /// materialize each workload once and share it across designs).
    #[must_use]
    pub fn run_routed(&self, routed: &Arc<RoutedWorkload>) -> ExperimentReport {
        let compiled = CompiledDesign::from_routed(&self.cfg, self.design, Arc::clone(routed));
        self.run_compiled(&compiled)
    }

    /// Run against a pre-compiled design handle, skipping workload
    /// materialization, flow-table construction and preset compilation
    /// entirely (the `smart-server` cache's fast path). Every other run
    /// flavor compiles its own handle and comes through here, so a
    /// cached run and a cold one differ only in who paid for the handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle was compiled for a different design kind or
    /// mesh than this experiment's.
    #[must_use]
    pub fn run_compiled(&self, compiled: &CompiledDesign) -> ExperimentReport {
        assert_eq!(
            compiled.kind(),
            self.design,
            "compiled handle serves a different design"
        );
        assert_eq!(
            compiled.config().topology,
            self.cfg.topology,
            "compiled handle serves a different topology"
        );
        let (design, drained) = self.drive_plan(compiled, self.traffic_for(compiled).as_mut());
        self.report(compiled, design, drained)
    }

    /// Run like [`Experiment::run`], additionally recording every
    /// `(cycle, flow)` injection into a replayable [`TraceFile`] —
    /// re-driving the same experiment with [`Drive::Trace`] reproduces
    /// this run's measurements bit-exactly.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Experiment::run`].
    #[must_use]
    pub fn run_recorded(&self) -> (ExperimentReport, TraceFile) {
        let compiled = self.compile_design();
        let mut recorder =
            TraceRecorder::new(self.traffic_for(&compiled), self.cfg.flits_per_packet());
        let (design, drained) = self.drive_plan(&compiled, &mut recorder);
        (
            self.report(&compiled, design, drained),
            recorder.into_trace(),
        )
    }

    /// This experiment's traffic source for one run on `compiled`.
    ///
    /// # Panics
    ///
    /// Panics, before any cycle runs, if [`check_trace`] refuses a
    /// [`Drive::Trace`], and under the conditions of [`Drive::build`].
    pub(crate) fn traffic_for(&self, compiled: &CompiledDesign) -> Box<dyn TrafficSource> {
        if let Drive::Trace(trace) = &self.drive {
            check_trace(trace, compiled).unwrap_or_else(|m| panic!("{m}"));
        }
        let routed = compiled.routed();
        self.drive.build(&TrafficContext {
            rates: &routed.rates,
            flows: compiled.flow_table(),
            topology: self.cfg.topology,
            flits_per_packet: self.cfg.flits_per_packet(),
            seed: self.plan.seed,
            temporal: routed.temporal,
        })
    }

    /// Bring up a network from `compiled` and drive it with `traffic`
    /// through the plan: warm-up, counter reset (and telemetry attach),
    /// measurement, then the plan's drain. Returns the network, still
    /// holding its measurements, and whether the drain emptied it.
    pub(crate) fn drive_plan(
        &self,
        compiled: &CompiledDesign,
        traffic: &mut dyn TrafficSource,
    ) -> (Design, bool) {
        let mut design = compiled.instantiate_sharded(self.cfg.shards);
        design.set_stats_from(self.plan.warmup);
        design.run_with(traffic, self.plan.warmup);
        design.reset_counters();
        if let Some(tc) = self.telemetry {
            design.set_telemetry(tc);
        }
        design.run_with(traffic, self.plan.measure);
        let drained = design.drain(self.plan.drain);
        (design, drained)
    }

    /// Assemble the report of a network [`Experiment::drive_plan`]
    /// brought up from `compiled`, whatever ran on it since: stats,
    /// counters and telemetry as the network holds them, plus compile
    /// metrics and the optional power breakdown.
    pub(crate) fn report(
        &self,
        compiled: &CompiledDesign,
        mut design: Design,
        drained: bool,
    ) -> ExperimentReport {
        let (cfg, routed) = (&self.cfg, compiled.routed());
        let counters = *design.counters();
        let stats = design.stats();
        let power = self.power.then(|| {
            breakdown(
                &EnergyModel::calibrated_45nm(cfg),
                &counters,
                cfg.clock_ghz,
                GatingPolicy::for_design(self.design),
            )
        });
        ExperimentReport {
            design: self.design,
            workload: routed.name.clone(),
            mesh: (cfg.topology.width(), cfg.topology.height()),
            topology: cfg.topology.label().to_owned(),
            drained,
            total_cycles: design.cycle(),
            packets_injected: counters.packets_injected,
            packets_delivered: counters.packets_delivered,
            flits_delivered: counters.flits_delivered,
            measured_packets: stats.packets(),
            avg_network_latency: stats.avg_network_latency(),
            avg_packet_latency: stats.avg_packet_latency(),
            avg_source_queue: stats.avg_source_queue(),
            flow_latencies: stats
                .flows()
                .iter()
                .map(|(f, s)| (*f, s.avg_head_latency()))
                .collect(),
            counters,
            compile: compiled
                .compiled_app()
                .map(|app| CompileMetrics::from_compiled(app, routed, cfg.topology)),
            power,
            telemetry: design.take_telemetry(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smart_fig7_delivers_and_reports() {
        let r = Experiment::new(NocConfig::paper_4x4())
            .plan(RunPlan::smoke())
            .run();
        assert!(r.drained);
        assert_eq!(r.packets_delivered, r.packets_injected);
        assert_eq!(
            r.flits_delivered,
            r.packets_delivered * u64::from(NocConfig::paper_4x4().flits_per_packet())
        );
        let c = r.compile.expect("SMART reports compile metrics");
        assert_eq!(c.stops.len(), 4);
        // Fig 7: green/purple fly (latency 1), red/blue stop twice (7).
        let zl: Vec<u64> = c.zero_load_latency.iter().map(|(_, l)| *l).collect();
        assert_eq!(zl, vec![1, 1, 7, 7]);
    }

    #[test]
    fn mesh_reports_no_compile_metrics() {
        let r = Experiment::new(NocConfig::paper_4x4())
            .design(DesignKind::Mesh)
            .plan(RunPlan::smoke())
            .run();
        assert!(r.compile.is_none());
        assert!(r.power.is_none());
    }

    #[test]
    fn power_breakdown_is_attached_on_request() {
        let r = Experiment::new(NocConfig::paper_4x4())
            .workload(Workload::app("PIP"))
            .plan(RunPlan::smoke())
            .measure_power()
            .run();
        let p = r.power.expect("requested");
        assert!(p.total_w() > 0.0 && p.total_w() < 1.0);
    }

    #[test]
    fn scripted_drive_is_exact() {
        // A lone fig7 green packet takes exactly 1 cycle on SMART.
        let r = Experiment::new(NocConfig::paper_4x4())
            .scripted(vec![(0, FlowId(0))])
            .plan(RunPlan::measure_all(8, 1_000, 0))
            .run();
        assert!(r.drained);
        assert_eq!(r.packets_delivered, 1);
        assert_eq!(r.avg_network_latency, 1.0);
        assert_eq!(r.flow_latency(FlowId(0)), Some(1.0));
    }

    #[test]
    fn a_trace_whose_packets_do_not_fit_a_vc_is_refused_on_every_design() {
        // Caught per design and length: each refusal names the trace's
        // length and the VC depth, so none came from a buffer
        // overflowing mid-run — and Dedicated, which has no buffer to
        // overflow, refuses too.
        let cfg = NocConfig::paper_4x4();
        for kind in DesignKind::ALL {
            for flits_per_packet in [40, 0] {
                let exp = Experiment::new(cfg.clone())
                    .design(kind)
                    .plan(RunPlan::smoke())
                    .drive(Drive::Trace(TraceFile {
                        flits_per_packet,
                        events: vec![(0, FlowId(0)), (400, FlowId(0))],
                    }));
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exp.run()));
                let payload = caught.expect_err("refused");
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .unwrap_or_default();
                assert_eq!(
                    msg,
                    format!(
                        "trace flits_per_packet = {flits_per_packet}: must be in \
                         1..=vc_depth (10): virtual cut-through buffers a whole packet \
                         in one VC"
                    ),
                    "{kind:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "no plan for f9")]
    fn a_drive_naming_an_unplanned_flow_is_refused() {
        let _ = Experiment::new(NocConfig::paper_4x4())
            .scripted(vec![(0, FlowId(0)), (3, FlowId(9))])
            .plan(RunPlan::smoke())
            .run();
    }

    #[test]
    fn reports_are_deterministic() {
        let exp = Experiment::new(NocConfig::paper_4x4())
            .workload(Workload::uniform(6, 0.02, 7))
            .plan(RunPlan::smoke());
        let (a, b) = (exp.run(), exp.run());
        assert_eq!(a.snapshot_line(), b.snapshot_line());
        assert_eq!(a.flow_latencies, b.flow_latencies);
    }

    #[test]
    fn telemetry_series_covers_the_measured_window() {
        let base = Experiment::new(NocConfig::paper_4x4()).plan(RunPlan::smoke());
        let plain = base.run();
        let r = base.with_telemetry(TelemetryConfig::windowed(500)).run();
        let t = r.telemetry.as_ref().expect("requested");
        // smoke measures 2000 cycles: at least four 500-cycle windows.
        assert!(t.windows.len() >= 4, "{} windows", t.windows.len());
        // Fig 7's red/blue flows stop twice, so SSRs were granted.
        assert!(t.ssr_grants() > 0);
        // Cumulative packet counts in the final window agree with the
        // report's counters (both cover measure + drain).
        let last = t.windows.last().expect("windows");
        assert_eq!(last.delivered, r.packets_delivered);
        assert_eq!(last.injected, r.packets_injected);
        // Telemetry is observation only: the measurements agree with a
        // run that never attached a collector.
        assert_eq!(plain.snapshot_line(), r.snapshot_line());
        assert_eq!(plain.flow_latencies, r.flow_latencies);
    }

    #[test]
    fn telemetry_absent_unless_requested_and_none_for_dedicated() {
        let r = Experiment::new(NocConfig::paper_4x4())
            .plan(RunPlan::smoke())
            .run();
        assert!(r.telemetry.is_none());
        let d = Experiment::new(NocConfig::paper_4x4())
            .design(DesignKind::Dedicated)
            .plan(RunPlan::smoke())
            .with_telemetry(TelemetryConfig::default())
            .run();
        assert!(d.telemetry.is_none(), "no routers to observe");
    }
}
