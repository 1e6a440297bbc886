//! Traffic generation: the [`TrafficSource`] trait and its two sources.
//!
//! A generated [`Packet`] names its flow and nothing else about where it
//! goes: the flow's plan in the [`FlowTable`](crate::forward::FlowTable)
//! holds its source and destination, so no source here reads the table.
//!
//! * [`ModulatedTraffic`] is the rate-driven source. The paper's
//!   evaluation "generate\[s\] synthetic traffic from 8 SoC task graphs,
//!   modeling a uniform random injection rate to meet the specified
//!   bandwidth for each flow": per flow, a packet is generated each cycle
//!   with probability chosen so the average flit rate matches the flow's
//!   bandwidth. That is [`TemporalModel::Steady`]; the other
//!   [`TemporalModel`]s spread the same nominal rate over time as
//!   on/off bursts or a rate ramp.
//! * [`ScriptedTraffic`] injects packets at fixed cycles — deterministic
//!   tests, the Fig 7 walk-through and the replay of recorded traces.

use crate::flit::{FlowId, Packet, PacketId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Produces packets for each simulated cycle.
pub trait TrafficSource {
    /// Packets generated at (the start of) `cycle`.
    fn generate(&mut self, cycle: u64) -> Vec<Packet>;
}

/// An injection-process modulator layered on per-flow Bernoulli rates:
/// how a flow's nominal rate is spread over time.
///
/// Real SoC producers are bursty, where the paper's evaluation injects
/// "uniform random" traffic; the model layers an injection process on
/// top of any spatial pattern's per-flow rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TemporalModel {
    /// Plain Bernoulli at the nominal rate: one uniform draw per flow
    /// per cycle.
    Steady,
    /// Two-state Markov bursts: each flow flips on→off with probability
    /// `on_to_off` and off→on with probability `off_to_on` per cycle;
    /// while on it injects at `rate / P(on)` (capped at 1), while off
    /// it is silent. Flows start on. The boost keeps the long-run
    /// offered load at the nominal rate (up to the cap).
    OnOff {
        /// Per-cycle probability of leaving the on state, in `(0, 1]`.
        on_to_off: f64,
        /// Per-cycle probability of leaving the off state, in `(0, 1]`.
        off_to_on: f64,
    },
    /// Deterministic rate sweep: the rate multiplier moves linearly
    /// from `from` to `to` over `cycles` cycles, then holds at `to` —
    /// latency–throughput sweeps in one run.
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
    rate: f64,
    on: bool,
}

/// A [`TrafficSource`] driving per-flow Bernoulli injection through a
/// [`TemporalModel`]: one uniform draw per flow per cycle (after the
/// model's own draws), flows in rate order.
#[derive(Debug, Clone)]
pub struct ModulatedTraffic {
    model: TemporalModel,
    flows: Vec<FlowState>,
    flits_per_packet: u8,
    rng: StdRng,
    next_id: u64,
}

impl ModulatedTraffic {
    /// Build from `(flow, packets_per_cycle)` nominal rates.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]` or a model parameter is
    /// outside its domain.
    #[must_use]
    pub fn new(
        model: TemporalModel,
        rates: &[(FlowId, f64)],
        flits_per_packet: u8,
        seed: u64,
    ) -> Self {
        model.validate();
        let flows = rates
            .iter()
            .map(|&(flow, rate)| {
                assert!(
                    (0.0..=1.0).contains(&rate),
                    "{flow}: injection rate {rate} outside [0,1]"
                );
                FlowState {
                    flow,
                    rate,
                    on: true,
                }
            })
            .collect();
        ModulatedTraffic {
            model,
            flows,
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
                out.push(packet(
                    &mut self.next_id,
                    f.flow,
                    cycle,
                    self.flits_per_packet,
                ));
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

/// Deterministic traffic: one packet per `(cycle, flow)` event.
#[derive(Debug, Clone)]
pub struct ScriptedTraffic {
    /// Events sorted by cycle.
    events: Vec<(u64, FlowId)>,
    idx: usize,
    flits_per_packet: u8,
    next_id: u64,
}

impl ScriptedTraffic {
    /// Build from `(cycle, flow)` events. Events are sorted by cycle;
    /// same-cycle events keep the order they were given in (so a
    /// recorded injection schedule replays in its original per-cycle
    /// order — queue order at a shared source NIC matters).
    #[must_use]
    pub fn new(mut events: Vec<(u64, FlowId)>, flits_per_packet: u8) -> Self {
        events.sort_by_key(|(c, _)| *c);
        ScriptedTraffic {
            events,
            idx: 0,
            flits_per_packet,
            next_id: 0,
        }
    }

    /// `true` once every scripted event has fired.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.idx >= self.events.len()
    }
}

impl TrafficSource for ScriptedTraffic {
    fn generate(&mut self, cycle: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        while let Some(&(gen, flow)) = self.events.get(self.idx).filter(|e| e.0 <= cycle) {
            out.push(packet(&mut self.next_id, flow, gen, self.flits_per_packet));
            self.idx += 1;
        }
        out
    }
}

/// The next packet of a source whose id counter is `next_id`.
fn packet(next_id: &mut u64, flow: FlowId, gen_cycle: u64, num_flits: u8) -> Packet {
    let id = PacketId(*next_id);
    *next_id += 1;
    Packet {
        id,
        flow,
        gen_cycle,
        num_flits,
    }
}

/// Convert a bandwidth in MB/s into packets per cycle for a NoC with
/// `flit_bytes`-byte flits, `flits_per_packet`-flit packets, clocked at
/// `clock_ghz` — the conversion behind the paper's "uniform random
/// injection rate to meet the specified bandwidth for each flow".
#[must_use]
pub fn mbps_to_packet_rate(
    bandwidth_mbs: f64,
    flit_bytes: u32,
    flits_per_packet: u8,
    clock_ghz: f64,
) -> f64 {
    let bytes_per_cycle = bandwidth_mbs * 1e6 / (clock_ghz * 1e9);
    bytes_per_cycle / f64::from(flit_bytes * u32::from(flits_per_packet))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_rate_is_approximately_met() {
        let mut t = ModulatedTraffic::new(TemporalModel::Steady, &[(FlowId(0), 0.1)], 8, 42);
        let mut count = 0;
        for c in 0..20_000 {
            count += t.generate(c).len();
        }
        let rate = count as f64 / 20_000.0;
        assert!((rate - 0.1).abs() < 0.01, "measured {rate}, expected ~0.1");
    }

    #[test]
    fn scripted_fires_in_order() {
        let mut t = ScriptedTraffic::new(vec![(5, FlowId(1)), (2, FlowId(0)), (5, FlowId(0))], 8);
        assert!(t.generate(0).is_empty());
        let at2 = t.generate(2);
        assert_eq!(at2.len(), 1);
        assert_eq!(at2[0].flow, FlowId(0));
        assert_eq!(at2[0].gen_cycle, 2);
        let at5 = t.generate(5);
        assert_eq!(at5.len(), 2);
        assert!(t.exhausted());
    }

    #[test]
    fn same_cycle_events_keep_their_given_order() {
        // Queue order at a shared source NIC matters, so replaying a
        // recorded schedule must not reorder same-cycle events.
        let mut t = ScriptedTraffic::new(vec![(3, FlowId(1)), (3, FlowId(0)), (1, FlowId(0))], 8);
        assert_eq!(t.generate(1).len(), 1);
        let at3: Vec<FlowId> = t.generate(3).iter().map(|p| p.flow).collect();
        assert_eq!(at3, vec![FlowId(1), FlowId(0)]);
    }

    #[test]
    fn bandwidth_conversion_matches_hand_calculation() {
        // 500 MB/s on a 2 GHz NoC with 4-byte flits, 8-flit packets:
        // 500e6/2e9 = 0.25 B/cycle; /32 B per packet = 1/128 packets/cycle.
        let r = mbps_to_packet_rate(500.0, 4, 8, 2.0);
        assert!((r - 1.0 / 128.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn silly_rate_rejected() {
        let _ = ModulatedTraffic::new(TemporalModel::Steady, &[(FlowId(0), 1.5)], 8, 0);
    }

    #[test]
    fn on_off_meets_the_nominal_rate_in_the_long_run() {
        let model = TemporalModel::on_off(0.02, 0.05);
        let mut t = ModulatedTraffic::new(model, &[(FlowId(0), 0.1)], 8, 42);
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
        // Long on/off periods: ~500 cycles each.
        let model = TemporalModel::on_off(0.002, 0.002);
        let mut t = ModulatedTraffic::new(model, &[(FlowId(0), 0.2)], 8, 3);
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
        let model = TemporalModel::ramp(0.0, 1.0, 50_000);
        let mut t = ModulatedTraffic::new(model, &[(FlowId(0), 0.2)], 8, 9);
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
        let model = TemporalModel::on_off(0.09, 0.01);
        let t = ModulatedTraffic::new(model, &[(FlowId(0), 0.3)], 8, 0);
        assert!((t.offered_flits_per_cycle() - 0.8).abs() < 1e-12);
        // Uncapped flows still offer their nominal rate.
        let t = ModulatedTraffic::new(model, &[(FlowId(0), 0.05)], 8, 0);
        assert!((t.offered_flits_per_cycle() - 0.4).abs() < 1e-12);
        // A ramp holding at 2x a 0.6 rate clips at 1 packet/cycle.
        let ramp = TemporalModel::ramp(0.0, 2.0, 100);
        let t = ModulatedTraffic::new(ramp, &[(FlowId(0), 0.6)], 8, 0);
        assert!((t.offered_flits_per_cycle() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        for model in [TemporalModel::Steady, TemporalModel::on_off(0.1, 0.1)] {
            let rates = [(FlowId(0), 0.2), (FlowId(1), 0.05)];
            let mut a = ModulatedTraffic::new(model, &rates, 8, 11);
            let mut b = ModulatedTraffic::new(model, &rates, 8, 11);
            for c in 0..2_000 {
                assert_eq!(a.generate(c), b.generate(c));
            }
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
