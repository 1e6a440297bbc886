//! Transport-independent request handling: one [`Service`] owns the
//! worker pool sizing, the [`DesignCache`], and the table of live jobs;
//! [`Service::handle`] executes a [`Request`] and streams
//! [`ResponseEvent`]s into any [`EventSink`]. The TCP front end
//! ([`crate::server`]) is one sink; tests drive the service directly
//! with an in-memory one.
//!
//! Every run-type request (experiment, watch, matrix, schedule, search,
//! trace diff) takes one path: its id enters the live job table (a
//! duplicate live id is refused), every input is resolved and checked,
//! and only then is the job `accepted` — from which point it counts in
//! the stats' `jobs` and `busy_ms` — and its engine run. A request is
//! refused before `accepted` or not at all.
//!
//! Determinism: every run-type request fans its cells out through
//! `smart-harness`'s shared cell runner, whose parallel results are
//! bit-identical to a serial run. Events *stream* in completion order
//! (nondeterministic under threads), but each carries its cell index,
//! so re-ordering by index recovers the deterministic result exactly.

use crate::cache::DesignCache;
use crate::protocol::{PlanSpec, Request, ResponseEvent, SearchStrategy, WorkloadSpec};
use crate::search::{self, SearchOutcome, SearchSpace};
use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use smart_harness::{
    check_trace, run_cells_observed, AppSchedule, CompiledDesign, Drive, Experiment,
    MultiAppExperiment, RoutedWorkload, ScheduleDesign, TelemetryConfig, TraceDiffReport,
    TraceFile, Workload,
};
use std::collections::HashMap;
use std::slice;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sizing knobs for one service instance.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads per run-type request.
    pub threads: usize,
    /// Compiled designs the cache may hold.
    pub cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            cache_capacity: 64,
        }
    }
}

/// Where response events go. The TCP server writes lines to the
/// connection; tests collect into a `Mutex<Vec<_>>`.
pub trait EventSink: Sync {
    /// Deliver one event. Called from worker threads as cells finish.
    fn emit(&self, event: &ResponseEvent);
}

impl EventSink for Mutex<Vec<ResponseEvent>> {
    fn emit(&self, event: &ResponseEvent) {
        self.lock().expect("unpoisoned sink").push(event.clone());
    }
}

/// The experiment service: cache + job table + counters.
pub struct Service {
    cfg: ServiceConfig,
    cache: DesignCache,
    jobs: Mutex<HashMap<String, Arc<AtomicBool>>>,
    jobs_run: AtomicU64,
    /// Cumulative wall-clock milliseconds spent executing accepted
    /// jobs, surfaced by [`crate::protocol::ResponseEvent::Stats`].
    busy_ms: AtomicU64,
}

/// A registered job, as every engine sees it: the id the response
/// events carry, the cooperative-cancellation flag (engines that cannot
/// stop early ignore it), and the event sink. Dropping it deregisters
/// the id, on a panic too, so a crashed job never wedges its id.
struct Job<'a> {
    service: &'a Service,
    id: &'a str,
    cancel: &'a AtomicBool,
    sink: &'a dyn EventSink,
}

impl Drop for Job<'_> {
    fn drop(&mut self) {
        let mut jobs = self.service.jobs.lock().expect("unpoisoned job table");
        jobs.remove(self.id);
    }
}

/// One experiment cell, resolved and compiled through the cache: its
/// design, workload, compiled handle, and whether the cache served it.
type MatrixCell = (DesignKind, Workload, Arc<CompiledDesign>, bool);

impl Service {
    /// A fresh service with an empty cache.
    #[must_use]
    pub fn new(cfg: ServiceConfig) -> Self {
        Service {
            cfg: ServiceConfig {
                threads: cfg.threads.max(1),
                cache_capacity: cfg.cache_capacity,
            },
            cache: DesignCache::new(cfg.cache_capacity),
            jobs_run: AtomicU64::new(0),
            busy_ms: AtomicU64::new(0),
            jobs: Mutex::new(HashMap::new()),
        }
    }

    /// The shared compiled-design cache.
    #[must_use]
    pub fn cache(&self) -> &DesignCache {
        &self.cache
    }

    /// Ask every running job to stop, as a `cancel` request naming it
    /// would.
    pub(crate) fn cancel_all(&self) {
        for cancel in self.jobs.lock().expect("unpoisoned job table").values() {
            cancel.store(true, Ordering::Relaxed);
        }
    }

    /// Execute one request, streaming events into `sink`. Always emits
    /// exactly one terminal event. A run-type request is refused — one
    /// [`ResponseEvent::Error`] and no [`ResponseEvent::Accepted`] —
    /// when its id names a live job or any of its inputs fails its
    /// check (an unknown application or pattern, an application larger
    /// than the fabric, a trace the design point cannot replay);
    /// otherwise it is accepted, counted and run. Returns `true` only
    /// for [`Request::Shutdown`] — the front end's signal to stop
    /// accepting.
    ///
    /// # Panics
    ///
    /// Panics if a workload that resolved still fails to materialize
    /// (e.g. a synthetic pattern on an incompatible mesh) — the TCP
    /// front end wraps handlers in `catch_unwind` and turns panics into
    /// [`ResponseEvent::Error`].
    pub fn handle(&self, request: &Request, sink: &dyn EventSink) -> bool {
        let id = request.id();
        let outcome = match request {
            // An experiment is the 1 × 1 matrix, and a watch the 1 × 1
            // matrix whose cell streams its metric windows first.
            Request::Experiment {
                mesh,
                topology,
                shards,
                design,
                workload,
                plan,
                ..
            }
            | Request::Watch {
                mesh,
                topology,
                shards,
                design,
                workload,
                plan,
                ..
            } => {
                let cfg = topology.config(*mesh).sharded(*shards);
                let window = match request {
                    Request::Watch { window, .. } => Some(*window),
                    _ => None,
                };
                let cells = || {
                    if window == Some(0) {
                        return Err("watch window must be at least 1 cycle".to_owned());
                    }
                    self.matrix_cells(&cfg, *mesh, &[*design], slice::from_ref(workload))
                };
                self.run_job(id, sink, cells, |job, cells| {
                    self.run_matrix(job, &cfg, &cells, *plan, window)
                })
            }
            Request::Matrix {
                mesh,
                topology,
                shards,
                designs,
                workloads,
                plan,
                ..
            } => {
                let cfg = topology.config(*mesh).sharded(*shards);
                let cells = || self.matrix_cells(&cfg, *mesh, designs, workloads);
                self.run_job(id, sink, cells, |job, cells| {
                    self.run_matrix(job, &cfg, &cells, *plan, None)
                })
            }
            Request::Schedule {
                mesh,
                topology,
                designs,
                drain_budget,
                phases,
                ..
            } => {
                let cfg = topology.config(*mesh);
                let schedule = || {
                    let mut schedule = AppSchedule::new().drain_budget(*drain_budget);
                    for (spec, plan) in phases {
                        schedule = schedule.then(spec.resolve(*mesh)?, plan.to_plan());
                    }
                    let routed = schedule.materialize(&cfg);
                    Ok((designs.len() as u64, (schedule, routed)))
                };
                self.run_job(id, sink, schedule, |job, (schedule, routed)| {
                    self.run_schedule(job, &cfg, designs, &schedule, &routed)
                })
            }
            Request::Search {
                mesh,
                topology,
                strategy,
                designs,
                workloads,
                hpc,
                plan,
                ..
            } => {
                let space = SearchSpace {
                    mesh: *mesh,
                    topology: *topology,
                    designs: designs.clone(),
                    workloads: workloads.clone(),
                    hpc: hpc.clone(),
                    plan: *plan,
                };
                let resolve = || Ok((space.len() as u64, search::resolve(&space)?));
                self.run_job(id, sink, resolve, |job, workloads| {
                    self.run_search(job, &space, &workloads, *strategy)
                })
            }
            // A trace diff's two replays are the cells of a 2 × 1
            // matrix, each checked against the trace.
            Request::TraceDiff {
                mesh,
                topology,
                baseline,
                candidate,
                workload,
                plan,
                trace,
                ..
            } => {
                let cfg = topology.config(*mesh);
                let cells = || {
                    let designs = [*baseline, *candidate];
                    let cells =
                        self.matrix_cells(&cfg, *mesh, &designs, slice::from_ref(workload))?;
                    for (_, _, handle, _) in &cells.1 {
                        check_trace(trace, handle)?;
                    }
                    Ok(cells)
                };
                self.run_job(id, sink, cells, |job, cells| {
                    self.run_trace_diff(job, &cfg, &cells, *plan, trace)
                })
            }
            Request::Cancel { target, .. } => {
                let jobs = self.jobs.lock().expect("unpoisoned job table");
                match jobs.get(target) {
                    Some(cancel) => {
                        cancel.store(true, Ordering::Relaxed);
                        Ok((0, 0))
                    }
                    None => Err(format!("no running job {target:?}")),
                }
            }
            Request::Stats { .. } => {
                sink.emit(&ResponseEvent::Stats {
                    jobs: self.jobs_run.load(Ordering::Relaxed),
                    cache_hits: self.cache.hits(),
                    cache_misses: self.cache.misses(),
                    cached_designs: self.cache.len() as u64,
                    active_jobs: self.jobs.lock().expect("unpoisoned job table").len() as u64,
                    busy_ms: self.busy_ms.load(Ordering::Relaxed),
                });
                Ok((0, 0))
            }
            Request::Shutdown { .. } => Ok((0, 0)),
        };
        sink.emit(&match outcome {
            Ok((cells, cache_hits)) => ResponseEvent::Done {
                id: id.to_owned(),
                cells,
                cache_hits,
            },
            Err(message) => ResponseEvent::Error {
                id: id.to_owned(),
                message,
            },
        });
        matches!(request, Request::Shutdown { .. })
    }

    /// Run one run-type request as a registered job: the id enters the
    /// live job table (a duplicate live id is refused); `resolve`
    /// resolves and checks every input and says how many cells will
    /// run; only then is the job accepted — announced, counted in
    /// `jobs`, and timed into `busy_ms` — and `engine` run on the
    /// resolved inputs. The id leaves the table when the job returns or
    /// panics. `engine` returns `(completed cells, cache hits)`.
    fn run_job<T>(
        &self,
        id: &str,
        sink: &dyn EventSink,
        resolve: impl FnOnce() -> Result<(u64, T), String>,
        engine: impl FnOnce(&Job<'_>, T) -> Result<(u64, u64), String>,
    ) -> Result<(u64, u64), String> {
        let cancel = Arc::new(AtomicBool::new(false));
        {
            let mut jobs = self.jobs.lock().expect("unpoisoned job table");
            if jobs.contains_key(id) {
                return Err(format!("job id {id:?} is already running"));
            }
            jobs.insert(id.to_owned(), Arc::clone(&cancel));
        }
        let job = Job {
            service: self,
            id,
            cancel: &cancel,
            sink,
        };
        let (cells, inputs) = resolve()?;
        sink.emit(&ResponseEvent::Accepted {
            id: id.to_owned(),
            cells,
        });
        self.jobs_run.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let outcome = engine(&job, inputs);
        let elapsed = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
        self.busy_ms.fetch_add(elapsed, Ordering::Relaxed);
        outcome
    }

    /// Resolve every workload, then compile every cell of the designs ×
    /// workloads matrix through the cache, workload-major, design-minor
    /// (`ExperimentMatrix`'s cell order). Returns the cell count too.
    fn matrix_cells(
        &self,
        cfg: &NocConfig,
        mesh: u16,
        designs: &[DesignKind],
        specs: &[WorkloadSpec],
    ) -> Result<(u64, Vec<MatrixCell>), String> {
        let workloads: Vec<Workload> = specs
            .iter()
            .map(|spec| spec.resolve(mesh))
            .collect::<Result<_, _>>()?;
        let mut cells = Vec::with_capacity(designs.len() * workloads.len());
        for workload in workloads {
            for &design in designs {
                let (handle, cached) = self.cache.design(cfg, design, &workload);
                cells.push((design, workload.clone(), handle, cached));
            }
        }
        Ok((cells.len() as u64, cells))
    }

    /// The experiment/matrix engine: fan the cells out on the worker
    /// pool, streaming a [`ResponseEvent::Cell`] per finished cell — and
    /// before it, for a watch (`window` set), one
    /// [`ResponseEvent::Metric`] per closed telemetry window, in window
    /// order. Returns `(completed cells, cells served from cache)`.
    fn run_matrix(
        &self,
        job: &Job<'_>,
        cfg: &NocConfig,
        cells: &[MatrixCell],
        plan: PlanSpec,
        window: Option<u64>,
    ) -> Result<(u64, u64), String> {
        let run_one = |i: usize| {
            let (design, workload, handle, _) = &cells[i];
            let e = Experiment::new(cfg.clone())
                .design(*design)
                .workload(workload.clone())
                .plan(plan.to_plan());
            match window {
                Some(w) => e.with_telemetry(TelemetryConfig::windowed(w)),
                None => e,
            }
            .run_compiled(handle)
        };
        let observe = |i: usize, report: &smart_harness::ExperimentReport| {
            // The Dedicated yardstick has no telemetry: zero metric events.
            let windows = report.telemetry.iter().flat_map(|s| &s.windows);
            for (index, w) in windows.enumerate() {
                job.sink.emit(&ResponseEvent::Metric {
                    index: index as u64,
                    end: w.end,
                    setups: w.ssr_setups,
                    grants: w.ssr_grants,
                    premature: w.premature_stops(),
                    injected: w.injected,
                    delivered: w.delivered,
                    buffered: w.buffered,
                    bypass: w.bypass_sparse(),
                });
            }
            job.sink
                .emit(&ResponseEvent::cell(i as u64, report, cells[i].3));
        };
        let (slots, _) = run_cells_observed(
            cells.len(),
            self.cfg.threads,
            Some(job.cancel),
            run_one,
            observe,
        );
        let ran = || (0..cells.len()).filter(|&i| slots[i].is_some());
        let hits = ran().filter(|&i| cells[i].3).count();
        Ok((ran().count() as u64, hits as u64))
    }

    /// The search engine: score the space with `strategy` under the
    /// job's cancel flag, streaming a [`ResponseEvent::Candidate`] per
    /// scored point and then, if any point was scored, the
    /// [`ResponseEvent::Winner`]. Returns `(scored points, points the
    /// cache served)`.
    fn run_search(
        &self,
        job: &Job<'_>,
        space: &SearchSpace,
        workloads: &[Workload],
        strategy: SearchStrategy,
    ) -> Result<(u64, u64), String> {
        let emit = |c: &search::CandidateScore| {
            job.sink.emit(&ResponseEvent::Candidate {
                index: c.index as u64,
                design: c.design.label().to_owned(),
                workload: c.workload.clone(),
                hpc: c.hpc,
                energy_pj: c.energy_pj,
                area_mm2: c.area_mm2,
                cycles: c.cycles,
                score: c.score,
            });
        };
        let (threads, cancel, cache) = (self.cfg.threads, Some(job.cancel), &self.cache);
        let slots = search::score(space, workloads, strategy, threads, cancel, cache, &emit);
        let outcome = SearchOutcome {
            space: space.len(),
            candidates: slots.into_iter().flatten().collect(),
        };
        let evaluated = outcome.candidates.len() as u64;
        if let Some(w) = outcome.winner() {
            job.sink.emit(&ResponseEvent::Winner {
                index: w.index as u64,
                score: w.score,
                evaluated,
            });
        }
        let hits = outcome.candidates.iter().filter(|c| c.cached).count();
        Ok((evaluated, hits as u64))
    }

    /// The schedule engine: one cell per schedule design, each running
    /// the full multi-phase schedule on the phases routed once for all
    /// designs; streams a [`ResponseEvent::Phase`] per finished phase
    /// (or a [`ResponseEvent::CellError`] when a design exhausts its
    /// drain budget). Schedules rebuild their network at every phase,
    /// so they bypass the compiled-design cache.
    fn run_schedule(
        &self,
        job: &Job<'_>,
        cfg: &NocConfig,
        designs: &[ScheduleDesign],
        schedule: &AppSchedule,
        routed: &[Arc<RoutedWorkload>],
    ) -> Result<(u64, u64), String> {
        let run_one = |i: usize| {
            MultiAppExperiment::new(cfg.clone(), schedule.clone())
                .design(designs[i])
                .run_routed(routed)
        };
        let (slots, _) = run_cells_observed(
            designs.len(),
            self.cfg.threads,
            Some(job.cancel),
            run_one,
            |i, outcome| match outcome {
                Ok(report) => {
                    for (pi, phase) in report.phases.iter().enumerate() {
                        job.sink.emit(&ResponseEvent::Phase {
                            index: i as u64,
                            phase: pi as u64,
                            design: report.design.label().to_owned(),
                            workload: phase.workload.clone(),
                            delivered: phase.packets_delivered,
                            latency: phase.avg_network_latency,
                            drain_cycles: report.transitions[pi].drain_cycles,
                            stores: report.transitions[pi].store_count as u64,
                        });
                    }
                }
                Err(err) => job.sink.emit(&ResponseEvent::CellError {
                    index: i as u64,
                    message: err.to_string(),
                }),
            },
        );
        Ok((slots.iter().filter(|s| s.is_some()).count() as u64, 0))
    }

    /// The trace-diff engine: replay `trace` on both cells (baseline,
    /// then candidate) under the job's cancel flag, then, if both
    /// replays ran, stream the per-flow deltas and the summary. Returns
    /// `(replays run, replays among them served from cache)`.
    fn run_trace_diff(
        &self,
        job: &Job<'_>,
        cfg: &NocConfig,
        cells: &[MatrixCell],
        plan: PlanSpec,
        trace: &TraceFile,
    ) -> Result<(u64, u64), String> {
        let replay = |i: usize| {
            let (design, workload, handle, _) = &cells[i];
            Experiment::new(cfg.clone())
                .design(*design)
                .workload(workload.clone())
                .plan(plan.to_plan())
                .drive(Drive::Trace(trace.clone()))
                .run_compiled(handle)
                .to_phase_outcome()
        };
        let (slots, _) =
            run_cells_observed(2, self.cfg.threads, Some(job.cancel), replay, |_, _| {});
        let ran = || (0..2).filter(|&i| slots[i].is_some());
        let done = (
            ran().count() as u64,
            ran().filter(|&i| cells[i].3).count() as u64,
        );
        // A cancel before a replay started leaves nothing to compare.
        let [Some(baseline), Some(candidate)] = &slots[..] else {
            return Ok(done);
        };
        let report = TraceDiffReport::between(baseline, candidate);
        for delta in &report.flows {
            job.sink.emit(&ResponseEvent::FlowDiff {
                flow: u64::from(delta.flow.0),
                baseline: delta.baseline.unwrap_or(f64::NAN),
                candidate: delta.candidate.unwrap_or(f64::NAN),
            });
        }
        job.sink.emit(&ResponseEvent::DiffSummary {
            baseline: report.baseline.clone(),
            candidate: report.candidate.clone(),
            delivered_delta: report.delivered_delta,
            flit_delta: report.flit_delta,
            latency_delta: report.latency_delta,
        });
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::TopologySpec;
    use smart_harness::{ExperimentMatrix, RunPlan};

    fn collect(service: &Service, request: &Request) -> Vec<ResponseEvent> {
        let sink: Mutex<Vec<ResponseEvent>> = Mutex::new(Vec::new());
        let shutdown = service.handle(request, &sink);
        assert_eq!(shutdown, matches!(request, Request::Shutdown { .. }));
        let events = sink.into_inner().expect("unpoisoned sink");
        assert!(events.last().expect("terminal event").is_terminal());
        events
    }

    fn cell_lines(events: &[ResponseEvent]) -> Vec<String> {
        let mut cells: Vec<(u64, String)> = events
            .iter()
            .filter_map(|e| match e {
                ResponseEvent::Cell { index, .. } => {
                    Some((*index, e.snapshot_line().expect("cell")))
                }
                ResponseEvent::Candidate { index, .. } => Some((*index, e.to_line())),
                _ => None,
            })
            .collect();
        cells.sort_by_key(|(i, _)| *i);
        cells.into_iter().map(|(_, l)| l).collect()
    }

    fn matrix_request(id: &str) -> Request {
        Request::Matrix {
            id: id.into(),
            mesh: 4,
            topology: TopologySpec::Mesh,
            shards: 1,
            designs: vec![DesignKind::Mesh, DesignKind::Smart, DesignKind::Dedicated],
            workloads: vec![WorkloadSpec::Fig7, WorkloadSpec::App("PIP".into())],
            plan: PlanSpec::from(RunPlan::smoke()),
        }
    }

    /// A Mesh and SMART search over `workloads` at `HPC_max` 1 and 8.
    fn search_request(id: &str, workloads: Vec<WorkloadSpec>) -> Request {
        Request::Search {
            id: id.into(),
            mesh: 4,
            topology: TopologySpec::Mesh,
            strategy: SearchStrategy::Exhaustive,
            designs: vec![DesignKind::Mesh, DesignKind::Smart],
            workloads,
            hpc: vec![1, 8],
            plan: PlanSpec::from(RunPlan::smoke()),
        }
    }

    /// A Fig 7 trace diff of `trace`, Mesh against SMART on the 4×4.
    fn trace_diff_request(id: &str, trace: TraceFile) -> Request {
        Request::TraceDiff {
            id: id.into(),
            mesh: 4,
            topology: TopologySpec::Mesh,
            baseline: DesignKind::Mesh,
            candidate: DesignKind::Smart,
            workload: WorkloadSpec::Fig7,
            plan: PlanSpec::from(RunPlan::smoke()),
            trace,
        }
    }

    /// The `jobs` count of a stats request.
    fn jobs_handled(service: &Service) -> u64 {
        match collect(service, &Request::Stats { id: "st".into() }).first() {
            Some(ResponseEvent::Stats { jobs, .. }) => *jobs,
            other => panic!("expected stats first: {other:?}"),
        }
    }

    #[test]
    fn matrix_results_match_direct_runs_bit_exactly() {
        let service = Service::new(ServiceConfig {
            threads: 2,
            cache_capacity: 16,
        });
        let events = collect(&service, &matrix_request("m1"));
        let served = cell_lines(&events);
        // The serial reference: same axes, same order, direct harness.
        let reference: Vec<String> = ExperimentMatrix::new(NocConfig::paper_4x4())
            .designs(&[DesignKind::Mesh, DesignKind::Smart, DesignKind::Dedicated])
            .workloads(vec![Workload::fig7(), Workload::app("PIP")])
            .plan(RunPlan::smoke())
            .threads(1)
            .run()
            .iter()
            .map(smart_harness::ExperimentReport::snapshot_line)
            .collect();
        assert_eq!(served, reference);
    }

    #[test]
    fn repeat_request_is_fully_cached_and_identical() {
        let hits = |events: &[ResponseEvent]| match events.last() {
            Some(ResponseEvent::Done { cache_hits, .. }) => *cache_hits,
            other => panic!("no done event: {other:?}"),
        };
        // A matrix's six cells, then a search's four points.
        let search = search_request("q1", vec![WorkloadSpec::Fig7]);
        for (request, cells) in [(matrix_request("m1"), 6), (search, 4)] {
            let service = Service::new(ServiceConfig {
                threads: 2,
                cache_capacity: 16,
            });
            let cold = collect(&service, &request);
            let warm = collect(&service, &request);
            let kind = request.kind();
            assert_eq!(cell_lines(&cold), cell_lines(&warm), "{kind}");
            assert_eq!(hits(&cold), 0, "{kind}");
            assert_eq!(
                hits(&warm),
                cells,
                "every warm {kind} cell comes from cache"
            );
        }
    }

    #[test]
    fn sharded_request_matches_serial_and_shares_the_cache() {
        let service = Service::new(ServiceConfig {
            threads: 1,
            cache_capacity: 16,
        });
        let request = |id: &str, shards: usize| Request::Matrix {
            id: id.into(),
            mesh: 8,
            topology: TopologySpec::Mesh,
            shards,
            designs: vec![DesignKind::Mesh, DesignKind::Smart],
            workloads: vec![WorkloadSpec::Uniform {
                flows: 24,
                rate: 0.02,
                seed: 7,
            }],
            plan: PlanSpec::from(RunPlan::smoke()),
        };
        let serial = collect(&service, &request("s", 1));
        let sharded = collect(&service, &request("p", 4));
        // Bit-identical cells: sharding is an execution strategy.
        assert_eq!(cell_lines(&serial), cell_lines(&sharded));
        // And one cache entry: the sharded run replays the compiled
        // artifacts the serial run populated.
        let hits = |events: &[ResponseEvent]| match events.last() {
            Some(ResponseEvent::Done { cache_hits, .. }) => *cache_hits,
            other => panic!("no done event: {other:?}"),
        };
        assert_eq!(hits(&serial), 0);
        assert_eq!(hits(&sharded), 2, "serial and sharded share entries");
    }

    #[test]
    fn schedule_streams_phases_per_design() {
        let service = Service::new(ServiceConfig {
            threads: 2,
            cache_capacity: 16,
        });
        let request = Request::Schedule {
            id: "s1".into(),
            mesh: 4,
            topology: TopologySpec::Mesh,
            designs: vec![ScheduleDesign::Smart, ScheduleDesign::Reconfigurable],
            drain_budget: 50_000,
            phases: vec![
                (
                    WorkloadSpec::App("VOPD".into()),
                    PlanSpec::from(RunPlan::smoke()),
                ),
                (
                    WorkloadSpec::App("PIP".into()),
                    PlanSpec::from(RunPlan::smoke()),
                ),
            ],
        };
        let events = collect(&service, &request);
        let phases = events
            .iter()
            .filter(|e| matches!(e, ResponseEvent::Phase { .. }))
            .count();
        assert_eq!(phases, 4, "2 designs x 2 phases: {events:?}");
    }

    #[test]
    fn search_streams_candidates_and_a_winner() {
        let service = Service::new(ServiceConfig {
            threads: 2,
            cache_capacity: 32,
        });
        let request = search_request("q1", vec![WorkloadSpec::Fig7]);
        let events = collect(&service, &request);
        let candidates = events
            .iter()
            .filter(|e| matches!(e, ResponseEvent::Candidate { .. }))
            .count();
        assert_eq!(candidates, 4);
        assert!(events
            .iter()
            .any(|e| matches!(e, ResponseEvent::Winner { .. })));
    }

    /// A sink that sends `cancel` for its own job, `target`, on every
    /// event `on` picks, as a client on another connection would.
    struct CancelOn<'a> {
        service: &'a Service,
        target: &'a str,
        on: fn(&ResponseEvent) -> bool,
        events: Mutex<Vec<ResponseEvent>>,
    }

    impl<'a> CancelOn<'a> {
        fn new(service: &'a Service, target: &'a str, on: fn(&ResponseEvent) -> bool) -> Self {
            CancelOn {
                service,
                target,
                on,
                events: Mutex::new(Vec::new()),
            }
        }
    }

    impl EventSink for CancelOn<'_> {
        fn emit(&self, event: &ResponseEvent) {
            if (self.on)(event) {
                let cancel = Request::Cancel {
                    id: "c".into(),
                    target: self.target.into(),
                };
                let answer = collect(self.service, &cancel);
                assert!(matches!(answer[..], [ResponseEvent::Done { .. }]));
            }
            self.events
                .lock()
                .expect("unpoisoned sink")
                .push(event.clone());
        }
    }

    #[test]
    fn a_cancelled_search_scores_no_further_point() {
        let service = Service::new(ServiceConfig {
            threads: 1,
            cache_capacity: 32,
        });
        for strategy in [SearchStrategy::Exhaustive, SearchStrategy::Greedy] {
            let workloads = vec![WorkloadSpec::Fig7, WorkloadSpec::App("PIP".into())];
            let mut request = search_request("q", workloads);
            if let Request::Search { strategy: s, .. } = &mut request {
                *s = strategy;
            }
            let sink = CancelOn::new(&service, "q", |e| {
                matches!(e, ResponseEvent::Candidate { .. })
            });
            service.handle(&request, &sink);
            let events = sink.events.into_inner().expect("unpoisoned sink");
            assert!(
                matches!(
                    events[..],
                    [
                        ResponseEvent::Accepted { cells: 8, .. },
                        ResponseEvent::Candidate { index: 0, .. },
                        ResponseEvent::Winner {
                            index: 0,
                            evaluated: 1,
                            ..
                        },
                        ResponseEvent::Done { cells: 1, .. },
                    ]
                ),
                "{strategy:?}: {events:?}"
            );
        }
    }

    #[test]
    fn a_trace_diff_cancelled_on_accepted_replays_nothing() {
        let service = Service::new(ServiceConfig {
            threads: 1,
            cache_capacity: 16,
        });
        let trace = TraceFile {
            flits_per_packet: 8,
            events: vec![(0, smart_sim::FlowId(0))],
        };
        let sink = CancelOn::new(&service, "d", |e| {
            matches!(e, ResponseEvent::Accepted { .. })
        });
        service.handle(&trace_diff_request("d", trace), &sink);
        let events = sink.events.into_inner().expect("unpoisoned sink");
        assert!(
            matches!(
                events[..],
                [
                    ResponseEvent::Accepted { cells: 2, .. },
                    ResponseEvent::Done {
                        cells: 0,
                        cache_hits: 0,
                        ..
                    },
                ]
            ),
            "{events:?}"
        );
    }

    #[test]
    fn trace_diff_isolates_the_design_change() {
        let service = Service::new(ServiceConfig {
            threads: 1,
            cache_capacity: 16,
        });
        let trace = TraceFile {
            flits_per_packet: 8,
            events: (0..8).map(|i| (i * 40, smart_sim::FlowId(0))).collect(),
        };
        let request = trace_diff_request("d1", trace);
        let events = collect(&service, &request);
        let summary = events
            .iter()
            .find_map(|e| match e {
                ResponseEvent::DiffSummary {
                    delivered_delta,
                    latency_delta,
                    ..
                } => Some((*delivered_delta, *latency_delta)),
                _ => None,
            })
            .expect("diff summary");
        assert_eq!(summary.0, 0, "same trace, same deliveries: {events:?}");
        assert!(summary.1 < 0.0, "SMART should beat the mesh: {events:?}");
    }

    #[test]
    fn unknown_cancel_target_is_an_error() {
        let service = Service::new(ServiceConfig::default());
        let events = collect(
            &service,
            &Request::Cancel {
                id: "c1".into(),
                target: "ghost".into(),
            },
        );
        assert!(matches!(events.last(), Some(ResponseEvent::Error { .. })));
    }

    #[test]
    fn stats_count_jobs_and_cache_traffic() {
        let service = Service::new(ServiceConfig {
            threads: 1,
            cache_capacity: 16,
        });
        collect(&service, &matrix_request("m1"));
        collect(&service, &matrix_request("m2"));
        let events = collect(&service, &Request::Stats { id: "st".into() });
        match events.first() {
            Some(ResponseEvent::Stats {
                jobs,
                cache_hits,
                cache_misses,
                cached_designs,
                active_jobs,
                ..
            }) => {
                assert_eq!(*jobs, 2);
                assert_eq!(*cache_misses, 6);
                assert_eq!(*cache_hits, 6);
                assert_eq!(*cached_designs, 6);
                assert_eq!(*active_jobs, 0, "both jobs deregistered");
            }
            other => panic!("expected stats first: {other:?}"),
        }
    }

    #[test]
    fn a_refused_duplicate_id_is_not_a_job_handled() {
        let service = Service::new(ServiceConfig {
            threads: 1,
            cache_capacity: 16,
        });
        let trace = TraceFile {
            flits_per_packet: 8,
            events: vec![(0, smart_sim::FlowId(0))],
        };
        let requests = [
            matrix_request("m1"),
            search_request("m1", vec![WorkloadSpec::Fig7]),
            trace_diff_request("m1", trace),
        ];
        for (handled, request) in (0u64..).zip(&requests) {
            let kind = request.kind();
            // A job with this id is live (as if mid-run on another
            // connection).
            let live = Arc::new(AtomicBool::new(false));
            service
                .jobs
                .lock()
                .expect("unpoisoned job table")
                .insert("m1".to_owned(), live);
            let events = collect(&service, request);
            match events.as_slice() {
                [ResponseEvent::Error { id, message }] => {
                    assert_eq!(id, "m1");
                    assert!(message.contains("already running"), "{kind}: {message}");
                }
                other => panic!("{kind}: expected only an error: {other:?}"),
            }
            assert_eq!(
                jobs_handled(&service),
                handled,
                "a refused {kind} ran nothing"
            );
            // The refusal left the live job registered; once it ends,
            // the id is free again and the accepted request counts.
            service
                .jobs
                .lock()
                .expect("unpoisoned job table")
                .remove("m1");
            let events = collect(&service, request);
            assert!(
                matches!(events.last(), Some(ResponseEvent::Done { .. })),
                "{kind}: {events:?}"
            );
            assert_eq!(jobs_handled(&service), handled + 1);
        }
    }

    /// Each run kind refuses a bad input the same way, in process as on
    /// the wire: exactly one `error` event and no `accepted`, no job
    /// counted, and the id free again afterwards.
    #[test]
    fn every_run_kind_refuses_before_it_is_accepted() {
        let service = Service::new(ServiceConfig {
            threads: 2,
            cache_capacity: 16,
        });
        let (id, doom, plan) = (
            "r".to_owned(),
            WorkloadSpec::App("DOOM".into()),
            PlanSpec::from(RunPlan::smoke()),
        );
        let trace = |flits_per_packet, flow| TraceFile {
            flits_per_packet,
            events: vec![(0, smart_sim::FlowId(0)), (400, smart_sim::FlowId(flow))],
        };
        let unknown = "unknown application \"DOOM\"";
        let refusals = [
            (
                Request::Experiment {
                    id: id.clone(),
                    mesh: 4,
                    topology: TopologySpec::Mesh,
                    shards: 1,
                    design: DesignKind::Smart,
                    workload: doom.clone(),
                    plan,
                },
                unknown,
            ),
            (
                // The parser refuses a zero window; an in-process
                // caller meets the same refusal here.
                Request::Watch {
                    id: id.clone(),
                    mesh: 4,
                    topology: TopologySpec::Mesh,
                    shards: 1,
                    design: DesignKind::Smart,
                    workload: WorkloadSpec::Fig7,
                    plan,
                    window: 0,
                },
                "watch window must be at least 1 cycle",
            ),
            (
                Request::Matrix {
                    id: id.clone(),
                    mesh: 4,
                    topology: TopologySpec::Mesh,
                    shards: 1,
                    designs: vec![DesignKind::Mesh, DesignKind::Smart],
                    workloads: vec![WorkloadSpec::Fig7, doom.clone()],
                    plan,
                },
                unknown,
            ),
            (
                Request::Schedule {
                    id: id.clone(),
                    mesh: 4,
                    topology: TopologySpec::Mesh,
                    designs: vec![ScheduleDesign::Smart],
                    drain_budget: 50_000,
                    phases: vec![(WorkloadSpec::Fig7, plan), (doom.clone(), plan)],
                },
                unknown,
            ),
            (search_request(&id, vec![doom]), unknown),
            (
                trace_diff_request(&id, trace(40, 0)),
                "trace flits_per_packet = 40: must be in 1..=vc_depth (10): \
                 virtual cut-through buffers a whole packet in one VC",
            ),
            (trace_diff_request(&id, trace(8, 9)), "no plan for f9"),
        ];
        for (request, refusal) in &refusals {
            let kind = request.kind();
            match collect(&service, request).as_slice() {
                [ResponseEvent::Error { id, message }] => {
                    assert_eq!(id, "r", "{kind}");
                    assert_eq!(message, refusal, "{kind}");
                }
                other => panic!("{kind}: expected exactly one error event: {other:?}"),
            }
            assert_eq!(jobs_handled(&service), 0, "a refused {kind} is no job");
            let jobs = service.jobs.lock().expect("unpoisoned job table");
            assert!(jobs.is_empty(), "{kind} left its id registered");
        }
    }

    #[test]
    fn stats_busy_ms_accumulates_run_wall_time() {
        let service = Service::new(ServiceConfig {
            threads: 1,
            cache_capacity: 16,
        });
        let before = match collect(&service, &Request::Stats { id: "s0".into() }).first() {
            Some(ResponseEvent::Stats { busy_ms, .. }) => *busy_ms,
            other => panic!("expected stats: {other:?}"),
        };
        assert_eq!(before, 0, "nothing has run yet");
        // A deliberately long cell so the wall clock registers ≥ 1 ms.
        let request = Request::Experiment {
            id: "slow".into(),
            mesh: 4,
            topology: TopologySpec::Mesh,
            shards: 1,
            design: DesignKind::Smart,
            workload: WorkloadSpec::Fig7,
            plan: PlanSpec::from(RunPlan::quick()),
        };
        collect(&service, &request);
        let after = match collect(&service, &Request::Stats { id: "s1".into() }).first() {
            Some(ResponseEvent::Stats { busy_ms, .. }) => *busy_ms,
            other => panic!("expected stats: {other:?}"),
        };
        assert!(after > 0, "a 27k-cycle run takes measurable wall time");
    }

    #[test]
    fn watch_streams_metric_windows_matching_a_direct_run() {
        let service = Service::new(ServiceConfig {
            threads: 1,
            cache_capacity: 16,
        });
        let request = Request::Watch {
            id: "w1".into(),
            mesh: 4,
            topology: TopologySpec::Mesh,
            shards: 1,
            design: DesignKind::Smart,
            workload: WorkloadSpec::Fig7,
            plan: PlanSpec::from(RunPlan::smoke()),
            window: 500,
        };
        let events = collect(&service, &request);
        let metrics: Vec<&ResponseEvent> = events
            .iter()
            .filter(|e| matches!(e, ResponseEvent::Metric { .. }))
            .collect();
        // The direct harness run is the reference.
        let report = Experiment::new(NocConfig::paper_4x4())
            .workload(Workload::fig7())
            .plan(RunPlan::smoke())
            .with_telemetry(TelemetryConfig::windowed(500))
            .run();
        let series = report.telemetry.as_ref().expect("telemetry requested");
        assert_eq!(metrics.len(), series.windows.len());
        for (event, w) in metrics.iter().zip(&series.windows) {
            match event {
                ResponseEvent::Metric {
                    end,
                    setups,
                    grants,
                    premature,
                    bypass,
                    ..
                } => {
                    assert_eq!(*end, w.end);
                    assert_eq!(*setups, w.ssr_setups);
                    assert_eq!(*grants, w.ssr_grants);
                    assert_eq!(*premature, w.premature_stops());
                    assert_eq!(*bypass, w.bypass_sparse());
                }
                other => panic!("not a metric: {other:?}"),
            }
        }
        // The terminal cell agrees with the direct report too.
        let cell = events
            .iter()
            .find_map(ResponseEvent::snapshot_line)
            .expect("cell event");
        assert_eq!(cell, report.snapshot_line());
    }
}
