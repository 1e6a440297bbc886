//! Temporal injection models: how a flow's nominal rate is spread over
//! time.
//!
//! The paper's evaluation injects "uniform random" (Bernoulli) traffic;
//! real SoC producers are bursty. [`TemporalModel`] layers an injection
//! process on top of any spatial pattern's per-flow rates:
//!
//! * [`TemporalModel::Steady`] — plain Bernoulli. [`ModulatedTraffic`]
//!   draws exactly one uniform per flow per cycle, so the generated
//!   packet stream is **bit-exact** with
//!   [`smart_sim::BernoulliTraffic`] under the same seed.
//! * [`TemporalModel::OnOff`] — per-flow two-state Markov (on/off)
//!   bursts. The on-state rate is boosted by the reciprocal of the
//!   stationary on-probability, so the long-run offered load still
//!   matches the nominal rate (capped at one packet per cycle).
//! * [`TemporalModel::Ramp`] — a deterministic rate sweep: the rate
//!   multiplier moves linearly from `from` to `to` over `cycles`, then
//!   holds — latency–throughput sweeps in one run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smart_sim::forward::FlowTable;
use smart_sim::topology::NodeId;
use smart_sim::{FlowId, Packet, PacketId, TrafficSource};

/// An injection-process modulator layered on per-flow Bernoulli rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TemporalModel {
    /// Plain Bernoulli at the nominal rate — today's behavior.
    Steady,
    /// Two-state Markov bursts: each flow flips on→off with probability
    /// `on_to_off` and off→on with probability `off_to_on` per cycle;
    /// while on it injects at `rate / P(on)` (capped at 1), while off
    /// it is silent. Flows start on.
    OnOff {
        /// Per-cycle probability of leaving the on state, in `(0, 1]`.
        on_to_off: f64,
        /// Per-cycle probability of leaving the off state, in `(0, 1]`.
        off_to_on: f64,
    },
    /// Deterministic rate sweep: the rate multiplier moves linearly
    /// from `from` to `to` over `cycles` cycles, then holds at `to`.
    Ramp {
        /// Multiplier at cycle 0.
        from: f64,
        /// Multiplier from `cycles` on.
        to: f64,
        /// Sweep duration in cycles (> 0).
        cycles: u64,
    },
}

impl TemporalModel {
    /// The canonical burst model: mean on-period `1/on_to_off` cycles,
    /// stationary on-probability `off_to_on / (on_to_off + off_to_on)`.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `(0, 1]`.
    #[must_use]
    pub fn on_off(on_to_off: f64, off_to_on: f64) -> Self {
        let m = TemporalModel::OnOff {
            on_to_off,
            off_to_on,
        };
        m.validate();
        m
    }

    /// A linear rate sweep from `from`× to `to`× the nominal rate over
    /// `cycles` cycles.
    ///
    /// # Panics
    ///
    /// Panics if a multiplier is negative or `cycles` is zero.
    #[must_use]
    pub fn ramp(from: f64, to: f64, cycles: u64) -> Self {
        let m = TemporalModel::Ramp { from, to, cycles };
        m.validate();
        m
    }

    /// Check parameter domains.
    ///
    /// # Panics
    ///
    /// Panics if a parameter is outside its documented domain.
    pub fn validate(&self) {
        match self {
            TemporalModel::Steady => {}
            TemporalModel::OnOff {
                on_to_off,
                off_to_on,
            } => {
                assert!(
                    *on_to_off > 0.0 && *on_to_off <= 1.0,
                    "on_to_off {on_to_off} outside (0,1]"
                );
                assert!(
                    *off_to_on > 0.0 && *off_to_on <= 1.0,
                    "off_to_on {off_to_on} outside (0,1]"
                );
            }
            TemporalModel::Ramp { from, to, cycles } => {
                assert!(
                    *from >= 0.0 && *to >= 0.0,
                    "ramp multipliers must be non-negative, got {from}..{to}"
                );
                assert!(*cycles > 0, "ramp needs a nonzero sweep window");
            }
        }
    }

    /// Report-label suffix (empty for [`TemporalModel::Steady`]).
    #[must_use]
    pub fn suffix(&self) -> String {
        match self {
            TemporalModel::Steady => String::new(),
            TemporalModel::OnOff {
                on_to_off,
                off_to_on,
            } => format!("+onoff({on_to_off},{off_to_on})"),
            TemporalModel::Ramp { from, to, cycles } => format!("+ramp({from}..{to}/{cycles})"),
        }
    }

    /// Stationary fraction of cycles a flow spends injecting (1 for
    /// the deterministic models).
    #[must_use]
    pub fn duty_cycle(&self) -> f64 {
        match self {
            TemporalModel::Steady | TemporalModel::Ramp { .. } => 1.0,
            TemporalModel::OnOff {
                on_to_off,
                off_to_on,
            } => off_to_on / (on_to_off + off_to_on),
        }
    }
}

/// Per-flow state and rate for [`ModulatedTraffic`].
#[derive(Debug, Clone)]
struct FlowState {
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    rate: f64,
    on: bool,
}

/// A [`TrafficSource`] driving per-flow Bernoulli injection through a
/// [`TemporalModel`]. With [`TemporalModel::Steady`] the packet stream
/// is bit-exact with [`smart_sim::BernoulliTraffic`] under the same
/// seed (one uniform draw per flow per cycle, flows in rate order).
#[derive(Debug, Clone)]
pub struct ModulatedTraffic {
    model: TemporalModel,
    flows: Vec<FlowState>,
    flits_per_packet: u8,
    rng: StdRng,
    next_id: u64,
}

impl ModulatedTraffic {
    /// Build from `(flow, packets_per_cycle)` nominal rates; sources
    /// and destinations are read from the flow table's plans.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]`, any flow is unknown, or
    /// a model parameter is outside its domain.
    #[must_use]
    pub fn new(
        model: TemporalModel,
        rates: &[(FlowId, f64)],
        flows: &FlowTable,
        flits_per_packet: u8,
        seed: u64,
    ) -> Self {
        model.validate();
        let specs = rates
            .iter()
            .map(|(flow, rate)| {
                assert!(
                    (0.0..=1.0).contains(rate),
                    "{flow}: injection rate {rate} outside [0,1]"
                );
                let (src, dst) = flows.plan(*flow).endpoints();
                FlowState {
                    flow: *flow,
                    src,
                    dst,
                    rate: *rate,
                    on: true,
                }
            })
            .collect();
        ModulatedTraffic {
            model,
            flows: specs,
            flits_per_packet,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
        }
    }

    /// Long-run offered load in flits per cycle across all flows,
    /// accounting for the one-packet-per-cycle cap: an on/off flow can
    /// deliver at most its duty cycle (the boosted on-rate clips at 1),
    /// and a ramp holds at `min(rate × to, 1)` once the sweep ends.
    #[must_use]
    pub fn offered_flits_per_cycle(&self) -> f64 {
        let effective = |rate: f64| match self.model {
            TemporalModel::Steady => rate,
            TemporalModel::OnOff { .. } => rate.min(self.model.duty_cycle()),
            TemporalModel::Ramp { to, .. } => (rate * to).min(1.0),
        };
        self.flows
            .iter()
            .map(|f| effective(f.rate) * f64::from(self.flits_per_packet))
            .sum()
    }

    /// One injection draw per flow, in rate order, at the probability
    /// `rate` gives that flow (after whatever `rate` itself draws).
    fn draw(
        &mut self,
        cycle: u64,
        mut rate: impl FnMut(&mut FlowState, &mut StdRng) -> f64,
    ) -> Vec<Packet> {
        let mut out = Vec::new();
        for f in &mut self.flows {
            let p = rate(f, &mut self.rng);
            if self.rng.gen::<f64>() < p {
                out.push(Packet {
                    id: PacketId(self.next_id),
                    flow: f.flow,
                    src: f.src,
                    dst: f.dst,
                    gen_cycle: cycle,
                    num_flits: self.flits_per_packet,
                });
                self.next_id += 1;
            }
        }
        out
    }
}

impl TrafficSource for ModulatedTraffic {
    fn generate(&mut self, cycle: u64) -> Vec<Packet> {
        // One loop per model. A loop shared by all three lets the
        // compiler hoist the on/off and ramp divisions out of it and run
        // them every cycle for a `Steady` model too, on whatever bytes
        // fill its unused fields — slow when they read as subnormals.
        match self.model {
            TemporalModel::Steady => self.draw(cycle, |f, _| f.rate),
            TemporalModel::OnOff {
                on_to_off,
                off_to_on,
            } => {
                let duty = off_to_on / (on_to_off + off_to_on);
                self.draw(cycle, |f, rng| {
                    // One transition draw per flow per cycle keeps the
                    // stream deterministic regardless of outcomes.
                    let u = rng.gen::<f64>();
                    if f.on {
                        if u < on_to_off {
                            f.on = false;
                        }
                    } else if u < off_to_on {
                        f.on = true;
                    }
                    if f.on {
                        (f.rate / duty).min(1.0)
                    } else {
                        0.0
                    }
                })
            }
            TemporalModel::Ramp { from, to, cycles } => {
                let t = (cycle.min(cycles)) as f64 / cycles as f64;
                let scale = from + (to - from) * t;
                self.draw(cycle, |f, _| (f.rate * scale).min(1.0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_sim::route::SourceRoute;
    use smart_sim::topology::Topology;
    use smart_sim::BernoulliTraffic;

    fn table() -> FlowTable {
        let mesh = Topology::paper_4x4();
        let routes = vec![
            (
                FlowId(0),
                SourceRoute::xy(mesh, NodeId(0), NodeId(3)).unwrap(),
            ),
            (
                FlowId(1),
                SourceRoute::xy(mesh, NodeId(12), NodeId(15)).unwrap(),
            ),
        ];
        FlowTable::mesh_baseline(mesh, &routes)
    }

    #[test]
    fn steady_is_bit_exact_with_bernoulli() {
        let flows = table();
        let rates = [(FlowId(0), 0.3), (FlowId(1), 0.1)];
        let mut a = ModulatedTraffic::new(TemporalModel::Steady, &rates, &flows, 8, 7);
        let mut b = BernoulliTraffic::new(&rates, &flows, 8, 7);
        for c in 0..5_000 {
            assert_eq!(a.generate(c), b.generate(c), "cycle {c}");
        }
    }

    #[test]
    fn on_off_meets_the_nominal_rate_in_the_long_run() {
        let flows = table();
        let model = TemporalModel::on_off(0.02, 0.05);
        let mut t = ModulatedTraffic::new(model, &[(FlowId(0), 0.1)], &flows, 8, 42);
        let mut count = 0usize;
        let n = 200_000;
        for c in 0..n {
            count += t.generate(c).len();
        }
        let rate = count as f64 / n as f64;
        assert!(
            (rate - 0.1).abs() < 0.01,
            "long-run rate {rate}, expected ~0.1"
        );
    }

    #[test]
    fn on_off_actually_bursts() {
        let flows = table();
        // Long on/off periods: ~500 cycles each.
        let model = TemporalModel::on_off(0.002, 0.002);
        let mut t = ModulatedTraffic::new(model, &[(FlowId(0), 0.2)], &flows, 8, 3);
        // Count injections per 1 000-cycle window; bursty traffic has
        // near-empty and near-double windows.
        let mut windows = Vec::new();
        for w in 0..40 {
            let mut k = 0;
            for c in 0..1_000 {
                k += t.generate(w * 1_000 + c).len();
            }
            windows.push(k);
        }
        let min = *windows.iter().min().expect("nonempty");
        let max = *windows.iter().max().expect("nonempty");
        assert!(
            min < 100 && max > 300,
            "windows should swing around the 200 mean: min {min}, max {max}"
        );
    }

    #[test]
    fn ramp_sweeps_the_rate() {
        let flows = table();
        let model = TemporalModel::ramp(0.0, 1.0, 50_000);
        let mut t = ModulatedTraffic::new(model, &[(FlowId(0), 0.2)], &flows, 8, 9);
        let mut early = 0usize;
        let mut late = 0usize;
        for c in 0..10_000 {
            early += t.generate(c).len();
        }
        for c in 40_000..50_000 {
            late += t.generate(c).len();
        }
        // First tenth averages 0.1x nominal, last tenth 0.9x.
        assert!(late > 5 * early, "ramp should grow: {early} -> {late}");
    }

    #[test]
    fn duty_cycle_matches_stationary_distribution() {
        assert!((TemporalModel::Steady.duty_cycle() - 1.0).abs() < 1e-12);
        let m = TemporalModel::on_off(0.02, 0.06);
        assert!((m.duty_cycle() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn offered_load_honors_the_on_rate_cap() {
        // duty 0.1: a 0.3 nominal rate clips at one packet per on-cycle,
        // so the real long-run offer is 0.1 packets = 0.8 flits/cycle.
        let flows = table();
        let model = TemporalModel::on_off(0.09, 0.01);
        let t = ModulatedTraffic::new(model, &[(FlowId(0), 0.3)], &flows, 8, 0);
        assert!((t.offered_flits_per_cycle() - 0.8).abs() < 1e-12);
        // Uncapped flows still offer their nominal rate.
        let t = ModulatedTraffic::new(model, &[(FlowId(0), 0.05)], &flows, 8, 0);
        assert!((t.offered_flits_per_cycle() - 0.4).abs() < 1e-12);
        // A ramp holding at 2x a 0.6 rate clips at 1 packet/cycle.
        let ramp = TemporalModel::ramp(0.0, 2.0, 100);
        let t = ModulatedTraffic::new(ramp, &[(FlowId(0), 0.6)], &flows, 8, 0);
        assert!((t.offered_flits_per_cycle() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let flows = table();
        let model = TemporalModel::on_off(0.1, 0.1);
        let rates = [(FlowId(0), 0.2), (FlowId(1), 0.05)];
        let mut a = ModulatedTraffic::new(model, &rates, &flows, 8, 11);
        let mut b = ModulatedTraffic::new(model, &rates, &flows, 8, 11);
        for c in 0..2_000 {
            assert_eq!(a.generate(c), b.generate(c));
        }
    }

    #[test]
    #[should_panic(expected = "outside (0,1]")]
    fn silly_transition_probability_rejected() {
        let _ = TemporalModel::on_off(0.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "nonzero sweep")]
    fn zero_ramp_window_rejected() {
        let _ = TemporalModel::ramp(0.0, 1.0, 0);
    }
}
