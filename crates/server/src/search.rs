//! Design-space search over mapping × design × segmentation, scored
//! with the Smapper objective
//! `score = -(log10(energy) + log10(area) + log10(cycles))` — higher is
//! better; each factor-of-ten saved in energy, silicon or latency adds
//! one point.
//!
//! * **mapping axis** — which workload is placed ([`WorkloadSpec`]),
//! * **design axis** — Mesh / SMART / Dedicated ([`DesignKind`]),
//! * **segmentation axis** — `HPC_max`, the link segmentation the SMART
//!   presets are compiled against.
//!
//! Energy and cycles come from a full simulation of each candidate
//! (through the shared [`DesignCache`], so repeated points are free);
//! area comes from the analytic wire/buffer model below. Two
//! strategies: [`SearchStrategy::Exhaustive`] scores every point in
//! parallel, [`SearchStrategy::Greedy`] hill-climbs from the first
//! point, evaluating only visited neighborhoods.

use crate::cache::DesignCache;
use crate::protocol::{PlanSpec, SearchStrategy, TopologySpec, WorkloadSpec};
use smart_core::config::NocConfig;
use smart_core::noc::DesignKind;
use smart_harness::{run_cells_observed, CompiledDesign, Experiment, Workload};
use smart_sim::HOP_MM;
use std::sync::atomic::{AtomicBool, Ordering};

/// Input buffer cell area, µm² per bit (45 nm SRAM-cell scale).
const BUFFER_UM2_PER_BIT: f64 = 0.6;
/// Crossbar area, µm² per crosspoint bit.
const XBAR_UM2_PER_BIT: f64 = 0.3;
/// Repeated-wire pitch, mm per track (140 nm double spacing).
const WIRE_PITCH_MM: f64 = 0.000_14;
/// Per-hop SMART crossbar overhead: the bypass path deepens the switch
/// by one mux stage per additional hop of reach.
const SMART_XBAR_PER_HOP: f64 = 0.04;

/// The searched space: every axis plus the per-candidate run schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    /// Mesh edge (`k × k`).
    pub mesh: u16,
    /// Fabric shape the edge scales.
    pub topology: TopologySpec,
    /// Design axis.
    pub designs: Vec<DesignKind>,
    /// Mapping axis.
    pub workloads: Vec<WorkloadSpec>,
    /// Segmentation axis (`HPC_max` values).
    pub hpc: Vec<u64>,
    /// Run schedule shared by every candidate.
    pub plan: PlanSpec,
}

impl SearchSpace {
    /// Total points in the space.
    #[must_use]
    pub fn len(&self) -> usize {
        self.workloads.len() * self.designs.len() * self.hpc.len()
    }

    /// `true` when any axis is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flattened index of `(workload wi, design di, hpc hi)` —
    /// workload-major, design-middle, hpc-minor.
    #[must_use]
    pub fn index(&self, wi: usize, di: usize, hi: usize) -> usize {
        (wi * self.designs.len() + di) * self.hpc.len() + hi
    }

    /// Invert [`SearchSpace::index`].
    #[must_use]
    pub fn coords(&self, index: usize) -> (usize, usize, usize) {
        let hi = index % self.hpc.len();
        let rest = index / self.hpc.len();
        (rest / self.designs.len(), rest % self.designs.len(), hi)
    }
}

/// One scored candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateScore {
    /// Flattened index into the space.
    pub index: usize,
    /// Design of the candidate.
    pub design: DesignKind,
    /// Workload spec string of the candidate.
    pub workload: String,
    /// `HPC_max` of the candidate.
    pub hpc: u64,
    /// Simulated energy over the run, picojoules.
    pub energy_pj: f64,
    /// Analytic area, mm².
    pub area_mm2: f64,
    /// Average packet latency, cycles.
    pub cycles: f64,
    /// The Smapper score (`-inf` when nothing was measured).
    pub score: f64,
    /// `true` when the candidate ran from a cached compiled design.
    pub cached: bool,
}

/// A finished search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Points in the space.
    pub space: usize,
    /// Evaluated candidates, in index order.
    pub candidates: Vec<CandidateScore>,
}

impl SearchOutcome {
    /// The winning candidate: the highest score, ties (and NaN) going to
    /// the lower index. `None` only when a cancel came before the first
    /// point was scored.
    #[must_use]
    pub fn winner(&self) -> Option<&CandidateScore> {
        self.candidates.iter().max_by(|a, b| {
            a.score
                .partial_cmp(&b.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.index.cmp(&a.index))
        })
    }

    /// Stable full-precision text rendering (the search golden's
    /// format): one `candidate` line per evaluated point in index
    /// order, then one `winner` line (none when nothing was scored).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.candidates {
            out.push_str(&format!(
                "candidate index={} design={} workload={} hpc={} energy_pj={} area_mm2={} \
                 cycles={} score={}\n",
                c.index,
                c.design.label(),
                c.workload,
                c.hpc,
                c.energy_pj,
                c.area_mm2,
                c.cycles,
                c.score
            ));
        }
        if let Some(w) = self.winner() {
            out.push_str(&format!(
                "winner index={} design={} workload={} hpc={} score={} evaluated={} space={}\n",
                w.index,
                w.design.label(),
                w.workload,
                w.hpc,
                w.score,
                self.candidates.len(),
                self.space
            ));
        }
        out
    }
}

/// Run a search, streaming each scored candidate through `emit` as it
/// finishes (exhaustive searches evaluate in parallel, so emission
/// order is nondeterministic; the returned outcome is always in index
/// order).
///
/// # Errors
///
/// Returns a description when the space is empty, a workload spec
/// does not resolve, or an application has more tasks than the fabric
/// has cores.
///
/// # Panics
///
/// Panics under the same conditions as `Workload::materialize` (e.g. a
/// synthetic pattern on an incompatible mesh) — the server wraps
/// handlers in `catch_unwind`.
pub fn run(
    space: &SearchSpace,
    strategy: SearchStrategy,
    threads: usize,
    cache: &DesignCache,
    emit: &(dyn Fn(&CandidateScore) + Sync),
) -> Result<SearchOutcome, String> {
    let workloads = resolve(space)?;
    let slots = score(space, &workloads, strategy, threads, None, cache, emit);
    Ok(SearchOutcome {
        space: space.len(),
        candidates: slots.into_iter().flatten().collect(),
    })
}

/// Resolve every workload of `space` up front, so an empty space, a bad
/// spec or an application larger than the fabric fails before any
/// simulation starts.
pub(crate) fn resolve(space: &SearchSpace) -> Result<Vec<Workload>, String> {
    if space.is_empty() {
        return Err("empty search space".to_owned());
    }
    space
        .workloads
        .iter()
        .map(|w| w.resolve(space.mesh))
        .collect()
}

/// Score `space` (its workloads as [`resolve`] returned them) with
/// `strategy` into the cell runner's slot vector: one slot per point in
/// index order, `None` for a point not scored — off the greedy walk, or
/// not started before `cancel` was raised.
pub(crate) fn score(
    space: &SearchSpace,
    workloads: &[Workload],
    strategy: SearchStrategy,
    threads: usize,
    cancel: Option<&AtomicBool>,
    cache: &DesignCache,
    emit: &(dyn Fn(&CandidateScore) + Sync),
) -> Vec<Option<CandidateScore>> {
    let evaluate = |index| score_candidate(space, workloads, index, cache);
    match strategy {
        SearchStrategy::Exhaustive => {
            run_cells_observed(space.len(), threads, cancel, evaluate, |_, c| emit(c)).0
        }
        SearchStrategy::Greedy => greedy(space, cancel, &evaluate, emit),
    }
}

/// Score one point: simulate (through the cache) for energy and
/// latency, apply the analytic area model, combine.
fn score_candidate(
    space: &SearchSpace,
    workloads: &[Workload],
    index: usize,
    cache: &DesignCache,
) -> CandidateScore {
    let (wi, di, hi) = space.coords(index);
    let (design, hpc, workload) = (space.designs[di], space.hpc[hi], &workloads[wi]);
    let mut cfg = space.topology.config(space.mesh);
    cfg.hpc_max = hpc as usize;
    let (handle, cached) = cache.design(&cfg, design, workload);
    let report = Experiment::new(cfg.clone())
        .design(design)
        .workload(workload.clone())
        .plan(space.plan.to_plan())
        .measure_power()
        .run_compiled(&handle);
    let seconds = report.total_cycles as f64 / (cfg.clock_ghz * 1e9);
    let energy_pj = report
        .power
        .as_ref()
        .map_or(f64::NAN, |p| p.total_w() * seconds * 1e12);
    let area_mm2 = area_mm2(&cfg, design, &handle);
    let cycles = report.avg_packet_latency;
    let score = if report.measured_packets == 0 {
        // A design that moved no traffic cannot win on cheapness.
        f64::NEG_INFINITY
    } else {
        -(energy_pj.log10() + area_mm2.log10() + cycles.log10())
    };
    CandidateScore {
        index,
        design,
        workload: space.workloads[wi].render(),
        hpc,
        energy_pj,
        area_mm2,
        cycles,
        score,
        cached,
    }
}

/// Serial greedy hill-climb: start at point `(0, 0, 0)`, repeatedly
/// move to the best strictly-improving ±1 axis neighbor (the last of
/// equal bests; neighbors in workload, design, `HPC_max` order, −1
/// before +1), memoizing into the slot vector. Stops early, before
/// scoring a new point, once `cancel` is raised.
fn greedy(
    space: &SearchSpace,
    cancel: Option<&AtomicBool>,
    evaluate: &dyn Fn(usize) -> CandidateScore,
    emit: &(dyn Fn(&CandidateScore) + Sync),
) -> Vec<Option<CandidateScore>> {
    let mut slots: Vec<Option<CandidateScore>> = vec![None; space.len()];
    // The score at `pos`, scoring it first if no slot holds it yet;
    // `None` when that needs a scoring after a cancel.
    let score_at = |slots: &mut [Option<CandidateScore>], (wi, di, hi)| {
        let index = space.index(wi, di, hi);
        if slots[index].is_none() {
            if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                return None;
            }
            let c = evaluate(index);
            emit(&c);
            slots[index] = Some(c);
        }
        slots[index].as_ref().map(|c| c.score)
    };
    let mut here = (0, 0, 0);
    let Some(mut best) = score_at(&mut slots, here) else {
        return slots;
    };
    loop {
        let (wi, di, hi) = here;
        // `wrapping_sub` puts a step off the low edge out of range.
        let neighbors = [
            (wi.wrapping_sub(1), di, hi),
            (wi + 1, di, hi),
            (wi, di.wrapping_sub(1), hi),
            (wi, di + 1, hi),
            (wi, di, hi.wrapping_sub(1)),
            (wi, di, hi + 1),
        ];
        let mut step = None;
        for pos in neighbors.into_iter().filter(|&(w, d, h)| {
            w < space.workloads.len() && d < space.designs.len() && h < space.hpc.len()
        }) {
            let Some(s) = score_at(&mut slots, pos) else {
                return slots;
            };
            if s > best && step.is_none_or(|(t, _)| s >= t) {
                step = Some((s, pos));
            }
        }
        match step {
            Some((s, pos)) => (best, here) = (s, pos),
            None => return slots,
        }
    }
}

/// Analytic silicon area of one design point, mm² — buffers and
/// crossbars at 45 nm cell densities plus repeated link wires at the
/// double-spaced pitch.
#[must_use]
pub fn area_mm2(cfg: &NocConfig, design: DesignKind, handle: &CompiledDesign) -> f64 {
    let n = cfg.topology.len() as f64;
    let flit_bits = f64::from(cfg.flit_bits);
    let ports = f64::from(cfg.router_ports);
    let buffer_um2 =
        ports * cfg.vcs_per_port as f64 * cfg.vc_depth as f64 * flit_bits * BUFFER_UM2_PER_BIT;
    let xbar_um2 = ports * ports * flit_bits * XBAR_UM2_PER_BIT;
    // Directed inter-router channels, wrap links included on a torus.
    let links = cfg.topology.links().len() as f64;
    let link_mm2 = links * HOP_MM * f64::from(cfg.channel_bits + cfg.credit_bits) * WIRE_PITCH_MM;
    match design {
        DesignKind::Mesh => n * (buffer_um2 + xbar_um2) * 1e-6 + link_mm2,
        DesignKind::Smart => {
            // The bypass path deepens the crossbar per hop of reach, and
            // every channel carries SSR request wires sized to address
            // HPC_max hops ahead.
            let smart_xbar = xbar_um2 * (1.0 + SMART_XBAR_PER_HOP * cfg.hpc_max as f64);
            let ssr_bits = (usize::BITS - cfg.hpc_max.leading_zeros()) as f64;
            let ssr_mm2 = links * HOP_MM * ssr_bits * WIRE_PITCH_MM;
            n * (buffer_um2 + smart_xbar) * 1e-6 + link_mm2 + ssr_mm2
        }
        DesignKind::Dedicated => {
            // Point-to-point wiring pays per flow: a full-width channel
            // along the whole route plus a FIFO at each endpoint. More
            // flows, more silicon — the yardstick is not free.
            let routes = &handle.routed().routes;
            let wire_mm2: f64 = routes
                .iter()
                .map(|(_, r)| {
                    r.num_hops() as f64 * HOP_MM * f64::from(cfg.channel_bits) * WIRE_PITCH_MM
                })
                .sum();
            let fifo_um2 =
                2.0 * cfg.vc_depth as f64 * flit_bits * BUFFER_UM2_PER_BIT * routes.len() as f64;
            wire_mm2 + fifo_um2 * 1e-6
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_harness::RunPlan;

    fn small_space() -> SearchSpace {
        SearchSpace {
            mesh: 4,
            topology: TopologySpec::Mesh,
            designs: vec![DesignKind::Mesh, DesignKind::Smart],
            workloads: vec![WorkloadSpec::Fig7, WorkloadSpec::App("PIP".into())],
            hpc: vec![1, 8],
            plan: PlanSpec::from(RunPlan::smoke()),
        }
    }

    #[test]
    fn index_round_trips() {
        let space = small_space();
        for i in 0..space.len() {
            let (wi, di, hi) = space.coords(i);
            assert_eq!(space.index(wi, di, hi), i);
        }
    }

    #[test]
    fn exhaustive_scores_every_point_deterministically() {
        let space = small_space();
        let cache = DesignCache::new(32);
        let first =
            run(&space, SearchStrategy::Exhaustive, 4, &cache, &|_| {}).expect("search runs");
        let second =
            run(&space, SearchStrategy::Exhaustive, 1, &cache, &|_| {}).expect("search runs");
        assert_eq!(first.candidates.len(), space.len());
        assert_eq!(first.render(), second.render(), "parallel == serial");
        let w = first.winner().expect("a winner");
        assert!(w.score.is_finite());
        assert!(w.energy_pj > 0.0 && w.area_mm2 > 0.0 && w.cycles > 0.0);
    }

    #[test]
    fn greedy_evaluates_a_subset_and_agrees_on_local_quality() {
        let space = small_space();
        let cache = DesignCache::new(32);
        let outcome = run(&space, SearchStrategy::Greedy, 1, &cache, &|_| {}).expect("search runs");
        assert!(!outcome.candidates.is_empty());
        assert!(outcome.candidates.len() <= space.len());
        // The climb never returns a point worse than its start.
        let start = outcome
            .candidates
            .iter()
            .find(|c| c.index == 0)
            .expect("start evaluated");
        assert!(outcome.winner().expect("a winner").score >= start.score);
    }

    #[test]
    fn smart_area_grows_with_segmentation() {
        let w = Workload::fig7();
        let mut low = NocConfig::paper_4x4();
        low.hpc_max = 1;
        let mut high = NocConfig::paper_4x4();
        high.hpc_max = 8;
        let hl = CompiledDesign::compile(&low, DesignKind::Smart, &w);
        let hh = CompiledDesign::compile(&high, DesignKind::Smart, &w);
        assert!(area_mm2(&high, DesignKind::Smart, &hh) > area_mm2(&low, DesignKind::Smart, &hl));
        // SMART always pays more silicon than the plain mesh it extends.
        let mesh = CompiledDesign::compile(&low, DesignKind::Mesh, &w);
        assert!(area_mm2(&low, DesignKind::Smart, &hl) > area_mm2(&low, DesignKind::Mesh, &mesh));
    }

    /// A 4×4 torus has 64 directed links to the mesh's 48: each of the
    /// 16 wrap links adds a full channel's wire, and on SMART its SSR
    /// wires too.
    #[test]
    fn torus_area_counts_its_wrap_links() {
        let w = Workload::fig7();
        let (mesh, torus) = (TopologySpec::Mesh.config(4), TopologySpec::Torus.config(4));
        let wire = |bits: u32| 16.0 * HOP_MM * f64::from(bits) * WIRE_PITCH_MM;
        let ssr_bits = usize::BITS - mesh.hpc_max.leading_zeros();
        for (design, extra) in [
            (DesignKind::Mesh, wire(mesh.channel_bits + mesh.credit_bits)),
            (
                DesignKind::Smart,
                wire(mesh.channel_bits + mesh.credit_bits + ssr_bits),
            ),
        ] {
            let area =
                |cfg: &NocConfig| area_mm2(cfg, design, &CompiledDesign::compile(cfg, design, &w));
            let (m, t) = (area(&mesh), area(&torus));
            assert!(
                (t - m - extra).abs() < 1e-12,
                "{design:?}: torus {t} mm2, mesh {m} mm2, wrap wire {extra} mm2"
            );
        }
    }

    #[test]
    fn empty_space_is_an_error() {
        let mut space = small_space();
        space.hpc.clear();
        let cache = DesignCache::new(4);
        assert!(run(&space, SearchStrategy::Exhaustive, 1, &cache, &|_| {}).is_err());
    }
}
