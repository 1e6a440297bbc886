//! Cross-engine trace diffing: replay one recorded injection schedule
//! against two designs and compare what the network actually did.
//!
//! Record/replay ([`crate::TraceFile`]) makes the *offered* traffic of
//! two runs identical by construction, so any difference in the
//! *measured* outcome — delivered packets, per-flow head latencies —
//! is attributable to the design under test alone. [`TraceDiffReport`]
//! is that comparison as a structured artifact: per-flow latency
//! deltas, delivered-packet deltas, and a stable text rendering for
//! goldens and server streaming. The inputs are plain
//! [`PhaseOutcome`] snapshots, so any layer that can name a design and
//! count packets can produce one (`smart-harness` converts its
//! `ExperimentReport` directly).

use smart_sim::FlowId;
use std::fmt;

/// What one design did with a replayed phase: the design-agnostic
/// measurement snapshot a diff consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseOutcome {
    /// Which design (or engine build) produced this outcome.
    pub label: String,
    /// Packets delivered over the phase.
    pub packets_delivered: u64,
    /// Flits delivered over the phase.
    pub flits_delivered: u64,
    /// Average head-flit network latency, cycles (`NaN` if nothing was
    /// measured).
    pub avg_network_latency: f64,
    /// Per-flow average head-flit latency, flows in id order (flows
    /// that delivered nothing are absent).
    pub flow_latencies: Vec<(FlowId, f64)>,
}

impl PhaseOutcome {
    /// The latency of one flow, if it delivered packets.
    #[must_use]
    pub fn flow_latency(&self, flow: FlowId) -> Option<f64> {
        self.flow_latencies
            .iter()
            .find(|(f, _)| *f == flow)
            .map(|(_, l)| *l)
    }
}

/// One flow's latency under the baseline and the candidate design.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowDelta {
    /// The flow.
    pub flow: FlowId,
    /// Baseline average head latency (`None` if the flow delivered no
    /// packet there).
    pub baseline: Option<f64>,
    /// Candidate average head latency.
    pub candidate: Option<f64>,
}

impl FlowDelta {
    /// `candidate − baseline`, when both sides measured the flow.
    #[must_use]
    pub fn delta(&self) -> Option<f64> {
        Some(self.candidate? - self.baseline?)
    }
}

/// The structured diff of one trace replayed on two designs.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiffReport {
    /// Baseline design label.
    pub baseline: String,
    /// Candidate design label.
    pub candidate: String,
    /// `candidate − baseline` delivered packets.
    pub delivered_delta: i64,
    /// `candidate − baseline` delivered flits.
    pub flit_delta: i64,
    /// `candidate − baseline` average head-flit network latency
    /// (`NaN` if either side measured nothing).
    pub latency_delta: f64,
    /// Per-flow latency comparison, union of both sides' flows in id
    /// order.
    pub flows: Vec<FlowDelta>,
}

impl TraceDiffReport {
    /// Diff `candidate` against `baseline`. Both outcomes should come
    /// from replaying the *same* trace — the function cannot check
    /// that, but under it the deltas isolate the design change.
    #[must_use]
    pub fn between(baseline: &PhaseOutcome, candidate: &PhaseOutcome) -> Self {
        let mut ids: Vec<FlowId> = baseline
            .flow_latencies
            .iter()
            .chain(&candidate.flow_latencies)
            .map(|(f, _)| *f)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let flows = ids
            .into_iter()
            .map(|flow| FlowDelta {
                flow,
                baseline: baseline.flow_latency(flow),
                candidate: candidate.flow_latency(flow),
            })
            .collect();
        TraceDiffReport {
            baseline: baseline.label.clone(),
            candidate: candidate.label.clone(),
            delivered_delta: candidate.packets_delivered as i64 - baseline.packets_delivered as i64,
            flit_delta: candidate.flits_delivered as i64 - baseline.flits_delivered as i64,
            latency_delta: candidate.avg_network_latency - baseline.avg_network_latency,
            flows,
        }
    }
}

impl fmt::Display for TraceDiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace diff {} -> {}: {:+} packets, {:+} flits, {:+.2} cyc avg latency",
            self.baseline,
            self.candidate,
            self.delivered_delta,
            self.flit_delta,
            self.latency_delta
        )?;
        for d in &self.flows {
            let fmt_side = |s: Option<f64>| match s {
                Some(l) => format!("{l:.2}"),
                None => "-".to_owned(),
            };
            let delta = match d.delta() {
                Some(x) => format!("{x:+.2}"),
                None => "n/a".to_owned(),
            };
            writeln!(
                f,
                "  flow {:>4}: {:>8} -> {:>8}  ({delta})",
                d.flow.0,
                fmt_side(d.baseline),
                fmt_side(d.candidate),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(label: &str, lat: &[(u32, f64)]) -> PhaseOutcome {
        PhaseOutcome {
            label: label.to_owned(),
            packets_delivered: lat.len() as u64 * 10,
            flits_delivered: lat.len() as u64 * 80,
            avg_network_latency: lat.iter().map(|(_, l)| *l).sum::<f64>() / lat.len() as f64,
            flow_latencies: lat.iter().map(|(f, l)| (FlowId(*f), *l)).collect(),
        }
    }

    #[test]
    fn identical_outcomes_diff_to_zero() {
        let a = outcome("Mesh", &[(0, 16.0), (1, 20.0)]);
        let d = TraceDiffReport::between(&a, &a);
        assert_eq!((d.delivered_delta, d.flit_delta), (0, 0));
        assert_eq!(d.latency_delta, 0.0);
        assert!(d.flows.iter().all(|f| f.delta() == Some(0.0)));
    }

    #[test]
    fn per_flow_deltas_take_the_flow_union() {
        let base = outcome("Mesh", &[(0, 16.0), (2, 24.0)]);
        let cand = outcome("SMART", &[(0, 1.0), (3, 7.0)]);
        let d = TraceDiffReport::between(&base, &cand);
        let ids: Vec<u32> = d.flows.iter().map(|x| x.flow.0).collect();
        assert_eq!(ids, vec![0, 2, 3]);
        assert_eq!(d.flows[0].delta(), Some(-15.0));
        assert_eq!(d.flows[1].candidate, None);
        assert_eq!(d.flows[2].baseline, None);
    }

    #[test]
    fn delivery_mismatch_is_flagged() {
        let mut cand = outcome("SMART", &[(0, 1.0)]);
        cand.packets_delivered += 1;
        let base = outcome("Mesh", &[(0, 16.0)]);
        let d = TraceDiffReport::between(&base, &cand);
        assert_eq!(d.delivered_delta, 1);
    }

    #[test]
    fn display_renders_missing_sides() {
        let base = outcome("Mesh", &[(0, 16.0)]);
        let cand = outcome("SMART", &[(1, 1.0)]);
        let text = TraceDiffReport::between(&base, &cand).to_string();
        assert!(text.contains("flow    0"), "{text}");
        assert!(text.contains("n/a"), "{text}");
    }
}
